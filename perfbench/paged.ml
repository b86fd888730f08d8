(* paged-exec: demand-paged execution of compressed code, in process.

   Set-up (timed, repeated [setups] times for setup_s) compiles seeded
   generated programs of more than 40 functions, runs each resident
   once for its reference output, profiles it, lays it out hot-first,
   and builds its chunked-wire image and its BRISC image. The timed
   part is a closed loop over a fixed cycle of paged executions:
   [Scenario.Paged.run_vm] at three resident budgets and
   [Scenario.Paged.run_brisc] at a quarter of the BRISC footprint, per
   program. Every execution's output must equal the resident run's,
   and the BRISC image's own interpreter must agree with it too. *)

type program = {
  input : string;
  expected : string;         (** output of the resident [Vm.Interp.run] *)
  img : Wire.Chunked.t;      (** hot-layout chunked-wire image *)
  bimg : Brisc.Emit.image;   (** hot-layout BRISC image *)
  vm_bytes : int;            (** decompressed VM footprint *)
  brisc_code : int;          (** BRISC code bytes, what its pager holds *)
}

type op = Vm of program * int | Brisc_run of program

(* the generated programs, (functions, generator seed): fixed, so the
   programs' own variety never reads as run-to-run noise; the run's
   seed orders each cycle. BRISC compression grows fast with size, so
   they stay small. *)
let programs = [ (44, 0x9A6EDL); (56, 0x1CCL) ]
let budgets_pct = [ 50; 25; 12 ]

(* data memory per execution: the programs touch a few KiB of globals
   and stack, and the interpreters' 4 MiB default would make every run
   zero-fill and collect 4 MiB, measuring memset rather than paging *)
let mem_size = 256 * 1024
let repeat = 4
let setups = 3

let program ~spans ~seed ~op functions =
  let time name f = Spans.time (Some spans) ~op name f in
  let e = Corpus.Gen.generate { Corpus.Gen.functions; seed; bias16 = false } in
  let input = e.Corpus.Programs.input in
  let ir = time "cc.compile" (fun () -> Cc.Lower.compile e.Corpus.Programs.source) in
  let vp = Vm.Codegen.gen_program ir in
  let base = time "vm.resident_run" (fun () -> Vm.Interp.run ~input vp) in
  let ir_hot, vp_hot =
    time "layout.profile" (fun () ->
        let prof = Vm.Profile.collect ~input vp in
        let hot = Vm.Layout.affinity_heat ~trace:(Vm.Profile.call_trace prof) in
        (Vm.Layout.reorder_ir ~hot ir, Vm.Layout.hot_layout ~hot ~bhot:(Vm.Profile.block_hot prof) vp))
  in
  let img = time "chunked.compress" (fun () -> Wire.Chunked.compress ir_hot) in
  let bimg = time "brisc.compress" (fun () -> Brisc.compress vp_hot) in
  let bout = (Brisc.Interp.run ~input bimg).Brisc.Interp.output in
  if bout <> base.Vm.Interp.output then failwith "paged-exec: BRISC interpreter disagrees with the VM";
  { input; expected = base.Vm.Interp.output; img; bimg; vm_bytes = Scenario.Paged.vm_image_bytes img;
    brisc_code =
      Array.fold_left (fun a (f : Brisc.Emit.ifunc) -> a + String.length f.Brisc.Emit.code) 0
        bimg.Brisc.Emit.ifuncs }

let build ~spans =
  List.mapi (fun i (functions, seed) -> program ~spans ~seed ~op:i functions) programs

(* every program at every budget, and BRISC in place, in seeded order *)
let cycle ~seed progs =
  let ops =
    Array.of_list
      (List.concat_map
         (fun p ->
           List.map (fun pct -> Vm (p, max 1 (p.vm_bytes * pct / 100))) budgets_pct @ [ Brisc_run p ])
         progs)
  in
  Ops.shuffle (Support.Prng.create seed) ops;
  ops

type outcome = { stats : Vm.Pager.stats; overhead : float }

(* one paged execution, checked against the resident output *)
let execute = function
  | Vm (p, budget_bytes) -> (
    match
      Scenario.Paged.run_vm ~cfg:(Scenario.Paged.config ~budget_bytes ()) ~repeat ~mem_size
        ~input:p.input p.img
    with
    | Ok r when r.Scenario.Paged.res.Vm.Interp.output = p.expected ->
      Ok { stats = r.Scenario.Paged.stats; overhead = r.Scenario.Paged.overhead }
    | Ok _ -> Error "paged VM output differs from the resident run"
    | Error e -> Error (Scenario.Paged.error_to_string e))
  | Brisc_run p -> (
    match
      Scenario.Paged.run_brisc ~budget_bytes:(max 1 (p.brisc_code / 4)) ~mem_size ~input:p.input
        p.bimg
    with
    | Ok r when r.Scenario.Paged.bres.Brisc.Interp.output = p.expected ->
      Ok { stats = r.Scenario.Paged.bstats; overhead = r.Scenario.Paged.boverhead }
    | Ok _ -> Error "paged BRISC output differs from the resident run"
    | Error e -> Error (Scenario.Paged.error_to_string e))

let span_name = function Vm _ -> "paged.run_vm" | Brisc_run _ -> "paged.run_brisc"

(* what one cycle took: its executions per second, and its median and
   slowest execution in ms *)
type cycle_stats = { rate : float; p50 : float; slowest : float }

(* closed loop over whole cycles until [seconds] have passed; returns
   the number of executions, the failures and every cycle's stats *)
let loop ?spans ops ~seconds =
  let n = Array.length ops in
  let t0 = Spans.now () in
  let lat = Array.make n 0. in
  let failed = ref [] and cycles = ref [] and i = ref 0 and cycle0 = ref t0 in
  while !i mod n <> 0 || Spans.now () -. t0 < seconds do
    let op = ops.(!i mod n) in
    let s = Spans.now () in
    (match Spans.time spans ~op:!i (span_name op) (fun () -> execute op) with
    | Ok _ -> ()
    | Error e -> failed := e :: !failed);
    let e = Spans.now () in
    lat.(!i mod n) <- (e -. s) *. 1000.;
    incr i;
    if !i mod n = 0 then begin
      let l = Array.to_list lat in
      cycles :=
        { rate = float n /. (e -. !cycle0); p50 = Report.median l;
          slowest = List.fold_left Float.max 0. l }
        :: !cycles;
      cycle0 := e
    end
  done;
  (!i, !failed, !cycles)

(* A run's figures come from its fastest tenth of cycles: [fast] is the
   10th percentile over cycles of a time, [fast_rate] the 90th of a
   rate. Interference from a shared host only ever adds time, and on a
   2-vCPU guest it slowed some 25 s runs by 30%: over six such runs the
   median cycle's figures spread 0.24-0.28 of their median (quartile
   distance), the fast decile's 0.09-0.10. A cycle (eight executions,
   about 0.2 s) is short enough that most slow runs still have quiet
   ones, and a 25 s run has about a hundred of them. *)
let over_cycles p f cycles = Support.Quantile.percentile (Report.sorted (List.map f cycles)) p
let fast f cycles = over_cycles 0.1 f cycles
let fast_rate cycles = over_cycles 0.9 (fun c -> c.rate) cycles

let run ~seed ~seconds ~trace =
  let setup_spans = Spans.create () in
  let progs = ref [] in
  let times =
    List.init setups (fun _ ->
        let t0 = Spans.now () in
        progs := build ~spans:setup_spans;
        Spans.now () -. t0)
  in
  let progs = !progs in
  let ops = cycle ~seed progs in
  (* the set-ups' garbage would otherwise be traced by every major GC
     of the timed loop *)
  Gc.compact ();
  (* one untimed pass: the warm-up, and the cycle's exact counters *)
  let outcomes =
    Array.map
      (fun op -> match execute op with Ok o -> o | Error e -> failwith ("paged-exec: " ^ e))
      ops
  in
  let sum f = Array.fold_left (fun a o -> a + f o.stats) 0 outcomes in
  let per_op f = float (sum f) /. float (Array.length ops) in
  let attempted, failed, cycles = loop ops ~seconds:(if trace then seconds /. 2. else seconds) in
  let rate = fast_rate cycles in
  Printf.printf "paged-exec: seed %Ld, %d paged executions (%d failed)\n" seed attempted
    (List.length failed);
  Printf.printf
    "ops_per_s, p50_ms, tail_ms: rate, median and slowest execution of each %d-execution cycle, \
     fastest decile of %d cycles\n"
    (Array.length ops) (List.length cycles);
  List.iteri (fun i e -> if i < 4 then Printf.printf "failure: %s\n" e) failed;
  let values =
    if not trace then
      [ ("setup_s", Report.median times); ("ops_per_s", rate);
        ("p50_ms", fast (fun c -> c.p50) cycles);
        ("tail_ms", fast (fun c -> c.slowest) cycles);
        ("bytes_per_op", per_op (fun s -> s.Vm.Pager.loaded_bytes));
        ("peak_rss_mb", Mccd.hwm_mb (Unix.getpid ())) ]
    else begin
      let spans = Spans.create () in
      let _, tfailed, tcycles = loop ~spans ops ~seconds:(seconds /. 2.) in
      let traced = fast_rate tcycles in
      let decompress_at =
        List.concat_map
          (fun p ->
            List.init (Wire.Chunked.chunk_count p.img) (fun c ->
                let t0 = Spans.now () in
                ignore (Wire.Chunked.decompress_at p.img c);
                Spans.now () -. t0))
          progs
      in
      if tfailed <> [] then failwith ("paged-exec: " ^ List.hd tfailed);
      let faults = sum (fun s -> s.Vm.Pager.faults) and hits = sum (fun s -> s.Vm.Pager.hits) in
      let setup metric name scale = (metric, Spans.mean setup_spans ~scale name) in
      [ setup "cc.compile_ms" "cc.compile" 1000.; setup "brisc.compress_s" "brisc.compress" 1.;
        setup "chunked.compress_ms" "chunked.compress" 1000.;
        setup "layout.profile_ms" "layout.profile" 1000.;
        setup "vm.resident_run_ms" "vm.resident_run" 1000.;
        ("paged.run_vm_ms", Spans.mean spans ~scale:1000. "paged.run_vm");
        ("paged.run_brisc_ms", Spans.mean spans ~scale:1000. "paged.run_brisc");
        ("chunked.decompress_at_us", 1e6 *. Report.mean decompress_at);
        ("pager.faults", float faults); ("pager.hits", float hits);
        ("pager.evictions", float (sum (fun s -> s.Vm.Pager.evictions)));
        ("pager.stall_cycles", float (sum (fun s -> s.Vm.Pager.stall_cycles)));
        ("pager.hit_ratio", float hits /. float (max 1 (hits + faults)));
        ("paged.stall_overhead",
         exp (Report.mean (Array.to_list (Array.map (fun o -> log o.overhead) outcomes))));
        ("paged.code_bytes",
         float
           (List.fold_left
              (fun a p -> a + Wire.Chunked.size p.img + String.length (Brisc.to_bytes p.bimg))
              0 progs));
        ("trace.untraced_ops_per_s", rate); ("trace.traced_ops_per_s", traced);
        ("trace.overhead", 1. -. (traced /. rate)) ]
    end
  in
  { Report.correct = failed = []; attempted; failed = List.length failed; values; absent = [] }
