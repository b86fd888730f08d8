(* Benchmark harness: regenerates every table in the paper's evaluation
   plus the ablations DESIGN.md calls out. Run with

     dune exec bench/main.exe              (full corpus; several minutes)
     dune exec bench/main.exe -- --quick   (shrinks the gcc-scale input)
     dune exec bench/main.exe -- --no-bechamel

   Absolute byte counts differ from the paper (our corpus is synthetic
   and our native targets are simulated; see DESIGN.md "Substitutions");
   the *shape* of each table is what reproduces. EXPERIMENTS.md records
   paper-vs-measured for every row. *)

let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let no_bechamel = Array.exists (fun a -> a = "--no-bechamel") Sys.argv

(* --json replaces the human tables with a machine-readable summary of
   sizes and rates, so successive PRs can diff BENCH_*.json files *)
let json_mode = Array.exists (fun a -> a = "--json") Sys.argv

(* --compressor-json times Dict.build on the gcc-like point in every
   mode (full-scan, incremental, parallel) and prints the telemetry as
   JSON — the BENCH_compressor.json the Makefile's bench-quick target
   tracks across PRs *)
let compressor_json_mode = Array.exists (fun a -> a = "--compressor-json") Sys.argv

(* --codecs-json runs every registered codec over two corpus points and
   prints the per-stage size/time matrix (encode and decode) as JSON —
   the Makefile's bench-codecs target tracks it across PRs *)
let codecs_json_mode = Array.exists (fun a -> a = "--codecs-json") Sys.argv

(* --paging-json runs the demand-paged execution sweep (source vs
   profile-guided hot layout across resident budgets) and prints the
   fault/stall/ratio matrix as JSON — the Makefile's paging-bench
   target tracks it as BENCH_paging.json and perf_gate --paging holds
   its ceilings. Everything in it is modelled cycles and byte counts:
   deterministic, so no noise opt-out. *)
let paging_json_mode = Array.exists (fun a -> a = "--paging-json") Sys.argv

(* --domains N sizes the parallel mode's pool (default 4) *)
let domains_flag =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--domains" then Some (int_of_string Sys.argv.(i + 1))
    else find (i + 1)
  in
  find 1

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- corpus: the paper's wc / lcc / gcc / Word97 stand-ins ---- *)

type point = {
  label : string;
  entry : Corpus.Programs.entry;
  ir : Ir.Tree.program;
  vp : Vm.Isa.vprogram;
  np : Native.Mach.nprogram;
  sparc_img : string;
  x86_img : string;
}

let make_point label (entry : Corpus.Programs.entry) =
  let ir = Cc.Lower.compile entry.Corpus.Programs.source in
  let vp = Vm.Codegen.gen_program ir in
  let np = Native.Compile.compile_program vp in
  {
    label;
    entry;
    ir;
    vp;
    np;
    sparc_img = Native.Sparc.encode_program vp;
    x86_img = Native.Mach.encode_program np;
  }

let points =
  lazy
    (let gcc_profile =
       if quick then { Corpus.Gen.large with Corpus.Gen.functions = 250 }
       else Corpus.Gen.large
     in
     [
       make_point "wc (smallest)" Corpus.Programs.wc;
       make_point "lcc-like" (Corpus.Gen.generate Corpus.Gen.medium);
       make_point "gcc-like" (Corpus.Gen.generate gcc_profile);
     ])

let word97_point =
  lazy (make_point "word97-like (16-bit)" (Corpus.Gen.generate Corpus.Gen.bigapp16))

(* cached BRISC compressions *)
let brisc_cache : (string, Brisc.Emit.image * Brisc.report) Hashtbl.t =
  Hashtbl.create 8

let brisc_of p =
  match Hashtbl.find_opt brisc_cache p.label with
  | Some r -> r
  | None ->
    let r = Brisc.measure p.vp in
    Hashtbl.add brisc_cache p.label r;
    r

(* ---- Table 1: wire format vs conventional code (§3) ---- *)

let table1 () =
  hr "Table 1 — wire code vs conventional code (paper §3)";
  Printf.printf "%-22s %12s %12s %12s %8s %8s\n" "program" "SPARC-like"
    "gzipped" "wire" "factor" "vs gzip";
  List.iter
    (fun p ->
      let sparc = String.length p.sparc_img in
      let gz = String.length (Zip.Deflate.compress p.sparc_img) in
      let wire = String.length (Wire.compress p.ir) in
      Printf.printf "%-22s %12d %12d %12d %7.2fx %7.2fx\n" p.label sparc gz
        wire
        (float_of_int sparc /. float_of_int wire)
        (float_of_int gz /. float_of_int wire))
    (Lazy.force points);
  print_endline
    "paper: factors up to 4.9x; wire beats gzip except on the smallest input"

(* ---- Table 2: BRISC results (§4.5) ---- *)

(* The paper's runtime columns are measured on a 120 MHz Pentium. Our
   runtimes come from the native simulator's cycle model; the JIT cost
   in the "JIT+run" column uses the paper-calibrated 48 cycles per
   produced native byte (2.5 MB/s at 120 MHz); the in-place
   interpretation model charges each BRISC dispatch 24 cycles of decode
   plus 6 cycles per expanded VM instruction on top of the native work.
   Host-measured JIT MB/s is real wall-clock. *)

let jit_cycles_per_byte = 48
let dispatch_decode_cycles = 24
let per_step_overhead_cycles = 6

(* The paper's benchmarks run for seconds of CPU time, so JIT cost
   amortizes over a long run; our corpus drivers finish in milliseconds.
   The JIT+run column therefore models a session of at least one nominal
   CPU-second at the paper's 120 MHz (or the measured run, if longer). *)
let nominal_session_cycles = 120_000_000

let table2 () =
  hr "Table 2 — BRISC executable size and speed (paper §4.5, K=20)";
  Printf.printf "%-22s %10s %10s %10s %12s %10s %10s\n" "program"
    "BRISC/nat" "gzip/nat" "code/nat" "JIT MB/s" "JIT+run" "interp";
  let rows = Lazy.force points @ [ Lazy.force word97_point ] in
  List.iter
    (fun p ->
      let img, rep = brisc_of p in
      let native = Native.Mach.program_size p.np in
      let gz = String.length (Zip.Deflate.compress p.x86_img) in
      (* measured JIT rate *)
      let (jit_np, produced), jit_s =
        time (fun () -> Brisc.Jit.compile_with_stats img)
      in
      let mbps = float_of_int produced /. jit_s /. 1048576.0 in
      (* modelled runtimes *)
      let input = p.entry.Corpus.Programs.input in
      let sim = Native.Sim.run ~input jit_np in
      let br = Brisc.Interp.run ~input img in
      let native_cycles = max 1 sim.Native.Sim.cycles in
      let session = max native_cycles nominal_session_cycles in
      let jit_run =
        float_of_int ((jit_cycles_per_byte * produced) + session)
        /. float_of_int session
      in
      let interp =
        float_of_int
          (native_cycles
          + (dispatch_decode_cycles * br.Brisc.Interp.dispatches)
          + (per_step_overhead_cycles * br.Brisc.Interp.vm_steps))
        /. float_of_int native_cycles
      in
      Printf.printf "%-22s %10.2f %10.2f %10.2f %12.2f %9.2fx %9.2fx\n"
        p.label
        (float_of_int rep.Brisc.brisc_total /. float_of_int native)
        (float_of_int gz /. float_of_int native)
        (float_of_int rep.Brisc.brisc_code /. float_of_int native)
        mbps jit_run interp)
    rows;
  print_endline
    "paper: BRISC ~ gzip size; JIT >= 2.5 MB/s; JIT+run ~1.08x; interp ~12x";
  print_endline
    "(JIT+run and interp use the cycle model documented in EXPERIMENTS.md;";
  print_endline
    " the 16-bit-heavy word97-like row compresses worse, as the paper notes)"

(* ---- Table 3: the salt/pepper worked example (§4.4) ---- *)

let table3 () =
  hr "Table 3 — salt/pepper example with a trained dictionary (paper §4.4)";
  let salt_src =
    "void pepper(int a, int b) { }\n\
     int salt(int j, int i) {\n\
    \  if (j > 0) {\n\
    \    pepper(i, j);\n\
    \    j--;\n\
    \  }\n\
    \  return j;\n\
     }\n"
  in
  let ir = Cc.Lower.compile salt_src in
  let vp = Vm.Codegen.gen_program ir in
  let salt_f = List.find (fun f -> f.Vm.Isa.name = "salt") vp.Vm.Isa.funcs in
  Printf.printf "OmniVM code for salt:\n%s\n\n" (Vm.Isa.func_to_string salt_f);
  let original = Vm.Encode.func_size salt_f in
  let gcc_like = List.nth (Lazy.force points) 2 in
  let trained, _ = brisc_of gcc_like in
  let img = Brisc.compress_with trained vp in
  let salt_idx =
    let rec find i = function
      | [] -> failwith "salt missing"
      | (f : Brisc.Emit.ifunc) :: _ when f.Brisc.Emit.if_name = "salt" -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 (Array.to_list img.Brisc.Emit.ifuncs)
  in
  let compressed =
    String.length img.Brisc.Emit.ifuncs.(salt_idx).Brisc.Emit.code
  in
  Printf.printf
    "salt: %d OmniVM bytes -> %d BRISC bytes (%.2fx) using the %s dictionary\n"
    original compressed
    (float_of_int original /. float_of_int compressed)
    gcc_like.label;
  Printf.printf
    "paper: 60 bytes -> 17 bytes (3.5x) with the gcc-2.6.3 dictionary\n"

(* ---- Table 4: reducing RISC abstract machines (§5) ---- *)

let table4 () =
  hr "Table 4 — de-tuned abstract machines (paper §5)";
  Printf.printf "%-32s %14s %14s %8s\n" "abstract machine variant" "VM bytes"
    "BRISC bytes" "ratio";
  let p = List.nth (Lazy.force points) 1 (* lcc-like, as in the paper *) in
  let native = Native.Mach.program_size p.np in
  List.iter
    (fun feats ->
      let vp = Vm.Codegen.gen_program ~features:feats p.ir in
      let _, rep = Brisc.measure vp in
      Printf.printf "%-32s %14d %14d %8.2f\n"
        (Vm.Isa.feature_set_name feats)
        rep.Brisc.original_bytes rep.Brisc.brisc_total
        (float_of_int rep.Brisc.brisc_total /. float_of_int native))
    [ Vm.Isa.full_risc; Vm.Isa.minus_immediates; Vm.Isa.minus_reg_disp;
      Vm.Isa.minimal ];
  print_endline
    "paper (compressed/native): RISC 0.54, -imm 0.56, -regdisp 0.57, -both 0.59";
  print_endline
    "(ratio uses the full-RISC native size as the fixed denominator, as in §5)"

(* ---- dictionary statistics (§4.3 prose) ---- *)

let dict_stats () =
  hr "Dictionary statistics (paper §4.3 prose)";
  Printf.printf "%-22s %8s %8s %12s %8s %10s\n" "program" "entries" "base"
    "candidates" "passes" "max succ";
  List.iter
    (fun p ->
      let _, rep = brisc_of p in
      Printf.printf "%-22s %8d %8d %12d %8d %10d\n" p.label
        rep.Brisc.dict_entries rep.Brisc.base_entries
        rep.Brisc.candidates_tested rep.Brisc.passes
        rep.Brisc.max_markov_successors)
    (Lazy.force points);
  print_endline
    "paper: lcc dictionary 981 entries; gcc 1232 entries, 93,211 candidates;";
  print_endline "       every Markov context had at most 244 successors"

(* ---- delivery scenarios (introduction + §4.5 prose) ---- *)

let scenario_delivery () =
  hr "Scenario — delivery time by link speed (paper intro, §4.5)";
  let p = List.nth (Lazy.force points) 1 in
  let _img, rep = brisc_of p in
  let sizes =
    {
      Scenario.Delivery.native_bytes = Native.Mach.program_size p.np;
      gzip_bytes = String.length (Zip.Deflate.compress p.x86_img);
      wire_bytes = String.length (Wire.compress p.ir);
      brisc_bytes = rep.Brisc.brisc_total;
    }
  in
  let input = p.entry.Corpus.Programs.input in
  let sim = Native.Sim.run ~input p.np in
  let run_cycles = sim.Native.Sim.cycles * 2000 (* model a longer session *) in
  let links =
    [ ("28.8k modem", Scenario.Delivery.modem_bps);
      ("ISDN", Scenario.Delivery.isdn_bps);
      ("T1", Scenario.Delivery.t1_bps);
      ("10M LAN", Scenario.Delivery.lan_bps);
      ("100M LAN", Scenario.Delivery.fast_lan_bps) ]
  in
  (* shipping raw or gzipped native code is only possible for a
     homogeneous client population; the paper's mobile-code setting
     compares the portable representations (wire vs BRISC) *)
  Printf.printf "%-12s %12s %12s %12s %12s %12s %16s\n" "link" "native"
    "gzip+nat" "wire+JIT" "BRISC+JIT" "BRISC int" "best portable";
  List.iter
    (fun (name, bps) ->
      let t r =
        (Scenario.Delivery.total_time sizes ~run_cycles ~link_bps:bps r)
          .Scenario.Delivery.total_s
      in
      let portable =
        [ Scenario.Delivery.Wire_format; Scenario.Delivery.Brisc_jit;
          Scenario.Delivery.Brisc_interp ]
      in
      let best =
        List.fold_left
          (fun acc r -> if t r < t acc then r else acc)
          (List.hd portable) (List.tl portable)
      in
      Printf.printf "%-12s %11.2fs %11.2fs %11.2fs %11.2fs %11.2fs %16s\n" name
        (t Scenario.Delivery.Raw_native)
        (t Scenario.Delivery.Gzipped_native)
        (t Scenario.Delivery.Wire_format)
        (t Scenario.Delivery.Brisc_jit)
        (t Scenario.Delivery.Brisc_interp)
        (Scenario.Delivery.repr_name best))
    links;
  print_endline
    "paper: the wire format minimizes latency over a modem; BRISC wins on a LAN"

let scenario_paging () =
  hr "Scenario — paging and working set (paper intro; §4 'cuts working set')";
  let e =
    Corpus.Gen.generate { Corpus.Gen.functions = 150; seed = 31L; bias16 = false }
  in
  let vp = Vm.Codegen.gen_program (Cc.Lower.compile e.Corpus.Programs.source) in
  (* a long-running session revisits its code repeatedly; repeat the
     one-shot trace to model re-references under memory pressure *)
  let once = Scenario.Paging.trace_of_program vp in
  let trace = List.concat (List.init 20 (fun _ -> once)) in
  let page_bytes = 1024 in
  let native_layout =
    Scenario.Paging.layout_of_sizes ~page_bytes
      (Scenario.Paging.func_sizes_native vp)
  in
  let img = Brisc.compress vp in
  let brisc_layout =
    Scenario.Paging.layout_of_sizes ~page_bytes
      (Scenario.Paging.func_sizes_brisc img)
  in
  Printf.printf "code image: native %d pages, BRISC %d pages (%.0f%% smaller)\n"
    native_layout.Scenario.Paging.pages brisc_layout.Scenario.Paging.pages
    (100.0
    *. (1.0
       -. float_of_int brisc_layout.Scenario.Paging.pages
          /. float_of_int native_layout.Scenario.Paging.pages));
  Printf.printf "%-10s %14s %14s %14s %14s\n" "budget" "native faults"
    "brisc faults" "native time" "brisc time";
  List.iter
    (fun budget ->
      let cfg = Scenario.Paging.default_config ~resident_pages:budget in
      (* interpreting compressed pages costs decompression per fault *)
      let cfg_b = { cfg with Scenario.Paging.decompress_us_per_page = 100.0 } in
      let rn = Scenario.Paging.simulate cfg native_layout trace in
      let rb = Scenario.Paging.simulate cfg_b brisc_layout trace in
      Printf.printf "%-10d %14d %14d %13.3fs %13.3fs\n" budget
        rn.Scenario.Paging.faults rb.Scenario.Paging.faults
        rn.Scenario.Paging.fault_time_s rb.Scenario.Paging.fault_time_s)
    [ 2; 4; 8; 16; 32 ];
  print_endline
    "paper: compressed pages can cut total time when memory is the bottleneck"

let scenario_icache () =
  hr "Scenario — instruction cache (paper intro: 'even for cache misses')";
  let e = Corpus.Programs.queens in
  let vp = Vm.Codegen.gen_program (Cc.Lower.compile e.Corpus.Programs.source) in
  let np = Native.Compile.compile_program vp in
  let img, _ = Brisc.measure vp in
  let nt = Scenario.Icache.native_fetch_trace np () in
  let bt = Scenario.Icache.brisc_fetch_trace img () in
  Printf.printf "%-14s %16s %16s\n" "cache (bytes)" "native misses" "BRISC misses";
  List.iter
    (fun lines ->
      let cfg = Scenario.Icache.default_config ~lines in
      let rn = Scenario.Icache.simulate cfg nt in
      let rb = Scenario.Icache.simulate cfg bt in
      Printf.printf "%-14d %16d %16d\n" (lines * cfg.Scenario.Icache.line_bytes)
        rn.Scenario.Icache.misses rb.Scenario.Icache.misses)
    [ 2; 4; 8; 16; 32 ];
  print_endline
    "the denser image stops missing at a smaller cache; decode overhead is";
  print_endline "the price (table 2's interp column)"

(* ---- ablations (DESIGN.md §5) ---- *)

let ablation_wire_stages () =
  hr "Ablation — wire pipeline stages (MTF, stream splitting)";
  let p = List.nth (Lazy.force points) 1 in
  let variants =
    [ ("full pipeline", Wire.compress p.ir);
      ("without MTF", Wire.compress ~use_mtf:false p.ir);
      ("single literal stream", Wire.compress ~split_streams:false p.ir);
      ("neither", Wire.compress ~use_mtf:false ~split_streams:false p.ir) ]
  in
  List.iter
    (fun (name, z) -> Printf.printf "%-26s %8d bytes\n" name (String.length z))
    variants;
  print_endline
    "(stream separation is the paper's insight and must win; MTF is near-";
  print_endline
    " neutral here because the final deflate stage also captures locality)";
  hr "Ablation — final entropy stage (paper §2 design space)";
  List.iter
    (fun (name, stage) ->
      Printf.printf "%-26s %8d bytes\n" name
        (String.length (Wire.compress ~final_stage:stage p.ir)))
    [ ("deflate (paper's gzip)", Wire.Deflate); ("arith order-0", Wire.Arith 0);
      ("arith order-1", Wire.Arith 1); ("arith order-2", Wire.Arith 2) ];
  print_endline
    "paper: arithmetic codes 'can compress better by coding for sequences";
  print_endline
    " longer than individual symbols, but complicate direct interpretation'"

let ablation_benefit () =
  hr "Ablation — benefit metric B = P - W vs abundant-memory B = P";
  let p = List.nth (Lazy.force points) 1 in
  List.iter
    (fun (name, ignore_w) ->
      let _, rep = Brisc.measure ~ignore_w p.vp in
      Printf.printf "%-18s entries %5d  code %7d B  total %7d B\n" name
        rep.Brisc.dict_entries rep.Brisc.brisc_code rep.Brisc.brisc_total)
    [ ("B = P - W", false); ("B = P", true) ];
  print_endline "paper: 'in abundant memory situations we can set B equal to P'"

let ablation_input_quality () =
  hr "Ablation — input code quality (peephole-optimized vs raw codegen)";
  (* The paper's BRISC inputs were 'highly optimized using a commercial
     compiler back end'; cleaner input shifts both the native baseline
     and what specialization can find. *)
  let p = List.nth (Lazy.force points) 1 in
  List.iter
    (fun (name, vp) ->
      let np = Native.Compile.compile_program vp in
      let native = Native.Mach.program_size np in
      let _, rep = Brisc.measure vp in
      Printf.printf "%-22s vm %6d B  native %6d B  BRISC %6d B  (%.2f of native)\n"
        name rep.Brisc.original_bytes native rep.Brisc.brisc_total
        (float_of_int rep.Brisc.brisc_total /. float_of_int native))
    [ ("raw codegen", p.vp); ("peephole-optimized", Vm.Peephole.optimize p.vp) ]

let ablation_k () =
  hr "Ablation — K (candidates accepted per pass)";
  let p = List.nth (Lazy.force points) 1 in
  List.iter
    (fun k ->
      let (_, rep), secs = time (fun () -> Brisc.measure ~k p.vp) in
      Printf.printf "K=%-4d entries %5d  passes %3d  total %7d B  (%.1fs)\n" k
        rep.Brisc.dict_entries rep.Brisc.passes rep.Brisc.brisc_total secs)
    [ 5; 20; 60 ];
  print_endline "paper uses K=20; the knob trades passes for selectivity"

(* ---- the code-delivery server (lib/server) ---- *)

(* One seeded steady trace over the catalog flavor the drivers publish,
   replayed on fresh engines: a replay covers exactly the requests, so
   its diffed stats are the serve phase alone (publish-time compression
   is paid identically by every server and would drown the cache's
   effect). *)
let server_trace =
  lazy
    (let flavor = if quick then Sim.Catalog.Quick else Sim.Catalog.Full in
     let keys =
       List.map
         (fun (e : Server.Workload.entry) -> e.Server.Workload.name)
         (Sim.Catalog.publish (Server.create ()) flavor)
     in
     let steady = Option.get (Sim.Gen.find "steady") in
     let t = steady.Sim.Gen.generate ~seed:42L ~events:240 ~keys in
     ({ t with Sim.Trace.catalog = Sim.Catalog.flavor_name flavor },
      List.length keys))

let server_replay budget_bytes =
  let trace, _ = Lazy.force server_trace in
  (Sim.Replay.run
     ~config:{ Sim.Replay.default_config with budget_bytes }
     trace)
    .Sim.Replay.r_stats

let compress_time rep =
  List.fold_left
    (fun a rr -> a +. rr.Server.Stats.compress_total_s)
    0.0 rep.Server.Stats.by_repr

(* the artifacts whole-image fetches were served from, registry order *)
let served_reprs rep =
  List.filter_map
    (fun rr ->
      if rr.Server.Stats.responses > 0 then
        Some (Server.Artifact.name rr.Server.Stats.repr)
      else None)
    rep.Server.Stats.by_repr

let scenario_server () =
  hr "Scenario — code-delivery server (cache + adaptive selection)";
  (* a byte-budgeted cache vs a zero-byte cache that forces every
     request to compress from scratch, over the same trace *)
  let r = server_replay (256 * 1024) in
  let r0 = server_replay 0 in
  let trace, programs = Lazy.force server_trace in
  Printf.printf "%d-event steady trace over %d programs, 4 client profiles\n"
    (List.length trace.Sim.Trace.events) programs;
  Printf.printf "%-22s %12s %16s\n" "server" "hit rate" "serve compress";
  List.iter
    (fun (name, rep) ->
      Printf.printf "%-22s %11.1f%% %15.3fs\n" name
        (100.0 *. rep.Server.Stats.cache_hit_rate)
        (compress_time rep))
    [ ("cached (256 KB)", r); ("always-recompress", r0) ];
  Printf.printf "\nfetches served from: %s\n"
    (String.concat ", " (served_reprs r));
  Printf.printf
    "chunked sessions: %d chunks streamed, %s vs %s as whole wire images\n"
    r.Server.Stats.chunks_served
    (Support.Util.human_bytes r.Server.Stats.session_bytes)
    (Support.Util.human_bytes r.Server.Stats.session_wire_equiv);
  print_endline
    "the cache amortizes compression across requests; each fetch serves";
  print_endline
    "the feasible representation with the least modelled total time (§4.5)"

(* ---- --json: machine-readable sizes + rates ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ---- per-stage codec matrix (--codecs-json, "codecs" key of --json) ---- *)

let stage_json (s : Codec.stage) =
  (* throughput is input bytes over wall time; sub-resolution timings
     report 0 rather than a nonsense spike *)
  let mb_s =
    if s.Codec.wall_s > 1e-9 then
      float_of_int s.Codec.bytes_in /. s.Codec.wall_s /. 1e6
    else 0.0
  in
  Printf.sprintf
    "{\"stage\": \"%s\", \"bytes_in\": %d, \"bytes_out\": %d, \
     \"wall_s\": %.6f, \"throughput_mb_s\": %.2f}"
    (json_escape s.Codec.stage) s.Codec.bytes_in s.Codec.bytes_out
    s.Codec.wall_s mb_s

(* per-stage wall times jitter on a shared machine; keep the best of
   three runs stage-wise (stage lists are structural, so they zip) so
   the tracked JSON — and the perf gate reading it — sees the kernel,
   not the scheduler *)
let best_of ~runs f =
  let min_stages a b =
    List.map2
      (fun (x : Codec.stage) (y : Codec.stage) ->
        if y.Codec.wall_s < x.Codec.wall_s then y else x)
      a b
  in
  (* start every run from a settled heap: earlier codecs in the same
     process leave major-GC debt behind, and a collection slice landing
     inside a timed stage shows up as a phantom 5-10x regression that
     min-of-runs cannot dodge (all runs in the indebted process pay it) *)
  let run () = Gc.full_major (); f () in
  let first = run () in
  let rec go best n = if n = 0 then best else go (min_stages best (run ())) (n - 1) in
  go first (runs - 1)

(* every registered codec encoded (and its output decoded) from one
   shared source, with the traces both directions report. Contexted
   codecs get the context they declare: the committed shared
   dictionary, or — for the delta update channel — the point's own
   printed IR as the held base (the all-functions-match patch, the
   dominant case in the update-storm scenario). *)
let codec_rows p =
  let src = Codec.Source.of_ir ~vm:p.vp ~native:p.x86_img p.ir in
  List.map
    (fun (e : Codec.entry) ->
      let c = e.Codec.codec in
      let ctx =
        match e.Codec.needs with
        | `None -> None
        | `Shared_dict _ -> Some (Codec.Context.builtin ())
        | `Base _ ->
          Some
            (Codec.Context.base
               ~ir_text:(Ir.Printer.program_to_string p.ir))
      in
      let bytes, _ = Codec.encode ?ctx c src in
      let enc = best_of ~runs:5 (fun () -> snd (Codec.encode ?ctx c src)) in
      let dec =
        best_of ~runs:5 (fun () ->
            match Codec.decode ?ctx c bytes with
            | Ok (_, tr) -> tr
            | Error _ -> [])
      in
      (c, bytes, enc, dec))
    (Codec.all ())

let codec_point_json ?(indent = "    ") p =
  let rows = codec_rows p in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s{\"label\": \"%s\", \"codecs\": [\n" indent (json_escape p.label);
  List.iteri
    (fun i (c, bytes, enc, dec) ->
      (* the ratio/throughput frontier the perf gate holds: bytes out
         over the pipeline's input footprint, and end-to-end encode
         rate over the best-of-runs stage walls *)
      let in0 =
        match enc with s :: _ -> s.Codec.bytes_in | [] -> String.length bytes
      in
      let enc_wall = List.fold_left (fun a s -> a +. s.Codec.wall_s) 0.0 enc in
      let ratio =
        if in0 > 0 then float_of_int (String.length bytes) /. float_of_int in0
        else 1.0
      in
      let enc_mb_s =
        if enc_wall > 1e-9 then float_of_int in0 /. enc_wall /. 1e6 else 0.0
      in
      add
        "%s  {\"name\": \"%s\", \"tag\": \"%s\", \"bytes\": %d, \
         \"ratio\": %.4f, \"encode_mb_s\": %.2f,\n\
         %s   \"encode_stages\": [%s],\n\
         %s   \"decode_stages\": [%s]}%s\n"
        indent
        (json_escape (Codec.name c))
        (json_escape (Codec.tag c))
        (String.length bytes) ratio enc_mb_s indent
        (String.concat ", " (List.map stage_json enc))
        indent
        (String.concat ", " (List.map stage_json dec))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "%s]}" indent;
  Buffer.contents buf

let codecs_json () =
  let pts =
    [ List.nth (Lazy.force points) 0; List.nth (Lazy.force points) 1 ]
  in
  Printf.printf "{\n  \"schema\": \"codecomp-codecs-bench-v1\",\n  \"quick\": %b,\n"
    quick;
  print_string "  \"points\": [\n";
  List.iteri
    (fun i p ->
      print_string (codec_point_json p);
      print_string (if i = List.length pts - 1 then "\n" else ",\n"))
    pts;
  print_string "  ]\n}\n"

(* ---- demand-paged execution sweep (--paging-json) ----

   Corpus points with functions > 40: the generated driver samples 40
   functions, so these images carry cold functions interleaved with
   live ones — the layout a profile-guided reorder exists to fix (and
   the shape the paper ascribes to real programs: most code is rarely
   executed). Per point, the same chunked image runs under the pager in
   source order and in affinity order, across resident budgets; the
   session repeats with a warm code cache so capacity misses (not just
   compulsory ones) are measured. Ratios ride along: the chunked image
   is order-invariant by construction, wire/BRISC/icache deltas are
   measured. All numbers are modelled cycles and byte counts —
   deterministic, which is what lets perf_gate --paging pin ceilings. *)
let paging_json () =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let repeat = 8 in
  let budgets = [ 50; 25; 12 ] in
  let cfg_of budget_bytes = Scenario.Paged.config ~budget_bytes () in
  add "{\n  \"schema\": \"codecomp-paging-bench-v1\",\n";
  add
    "  \"page_bytes\": 1024, \"fault_cycles\": 2000, \
     \"decompress_cycles_per_byte\": 40, \"repeat\": %d,\n"
    repeat;
  add "  \"points\": [\n";
  let pts = [ ("gen-80", 80, 101L); ("gen-120", 120, 0x1CCL); ("gen-300", 300, 9L) ] in
  List.iteri
    (fun pi (label, functions, seed) ->
      let e =
        Corpus.Gen.generate { Corpus.Gen.functions; seed; bias16 = false }
      in
      let ir = Cc.Lower.compile e.Corpus.Programs.source in
      let vp = Vm.Codegen.gen_program ir in
      let input = e.Corpus.Programs.input in
      let base = Vm.Interp.run ~input vp in
      let prof = Vm.Profile.collect ~input vp in
      let hot = Vm.Layout.affinity_heat ~trace:(Vm.Profile.call_trace prof) in
      let bhot = Vm.Profile.block_hot prof in
      let ir_hot = Vm.Layout.reorder_ir ~hot ir in
      let vp_hot = Vm.Layout.hot_layout ~hot ~bhot vp in
      let img = Wire.Chunked.compress ir in
      let img_hot = Wire.Chunked.compress ir_hot in
      let total = Scenario.Paged.vm_image_bytes img in
      let bimg = Brisc.compress vp in
      let bimg_hot = Brisc.compress vp_hot in
      let icfg = Scenario.Icache.default_config ~lines:64 in
      let misses im =
        (Scenario.Icache.simulate icfg
           (Scenario.Icache.brisc_fetch_trace im ~input ()))
          .Scenario.Icache.misses
      in
      add "    {\"label\": \"%s\", \"functions\": %d,\n" (json_escape label)
        functions;
      add "     \"image_decompressed_bytes\": %d,\n" total;
      add "     \"chunked_bytes_src\": %d, \"chunked_bytes_hot\": %d,\n"
        (Wire.Chunked.size img) (Wire.Chunked.size img_hot);
      add "     \"wire_bytes_src\": %d, \"wire_bytes_hot\": %d,\n"
        (String.length (Wire.compress ir))
        (String.length (Wire.compress ir_hot));
      add "     \"brisc_bytes_src\": %d, \"brisc_bytes_hot\": %d,\n"
        (String.length (Brisc.to_bytes bimg))
        (String.length (Brisc.to_bytes bimg_hot));
      add "     \"icache_misses_src\": %d, \"icache_misses_hot\": %d,\n"
        (misses bimg) (misses bimg_hot);
      let run im budget =
        match Scenario.Paged.run_vm ~cfg:(cfg_of budget) ~repeat ~input im with
        | Ok r ->
          if r.Scenario.Paged.res.Vm.Interp.output <> base.Vm.Interp.output
          then begin
            Printf.eprintf
              "paging bench: %s: paged output diverged from resident run\n"
              label;
            exit 1
          end;
          r
        | Error err ->
          Printf.eprintf "paging bench: %s: %s\n" label
            (Scenario.Paged.error_to_string err);
          exit 1
      in
      let tf_src = ref 0 and tf_hot = ref 0 in
      add "     \"budgets\": [\n";
      List.iteri
        (fun bi pct ->
          let budget = total * pct / 100 in
          let rs = run img budget and rh = run img_hot budget in
          let ss = rs.Scenario.Paged.stats and sh = rh.Scenario.Paged.stats in
          tf_src := !tf_src + ss.Vm.Pager.faults;
          tf_hot := !tf_hot + sh.Vm.Pager.faults;
          add
            "       {\"budget_pct\": %d, \"budget_bytes\": %d, \
             \"faults_src\": %d, \"faults_hot\": %d, \"stall_src\": %d, \
             \"stall_hot\": %d, \"overhead_src\": %.4f, \"overhead_hot\": \
             %.4f, \"hwm_src\": %d, \"hwm_hot\": %d}%s\n"
            pct budget ss.Vm.Pager.faults sh.Vm.Pager.faults
            ss.Vm.Pager.stall_cycles sh.Vm.Pager.stall_cycles
            rs.Scenario.Paged.overhead rh.Scenario.Paged.overhead
            ss.Vm.Pager.resident_hwm sh.Vm.Pager.resident_hwm
            (if bi = List.length budgets - 1 then "" else ","))
        budgets;
      add "     ],\n";
      (* BRISC pages itself in place (no decompression stall); report
         its fault profile at a quarter of its own compressed footprint *)
      let bbytes =
        Array.fold_left
          (fun a (f : Brisc.Emit.ifunc) -> a + String.length f.Brisc.Emit.code)
          0 bimg.Brisc.Emit.ifuncs
      in
      (match
         Scenario.Paged.run_brisc ~budget_bytes:(max 1 (bbytes / 4)) ~input
           bimg
       with
      | Ok br ->
        add
          "     \"brisc_paged_faults\": %d, \"brisc_paged_overhead\": %.4f,\n"
          br.Scenario.Paged.bstats.Vm.Pager.faults
          br.Scenario.Paged.boverhead
      | Error err ->
        Printf.eprintf "paging bench: %s (brisc): %s\n" label
          (Scenario.Paged.error_to_string err);
        exit 1);
      add "     \"faults_total_src\": %d, \"faults_total_hot\": %d}%s\n"
        !tf_src !tf_hot
        (if pi = List.length pts - 1 then "" else ","))
    pts;
  add "  ]\n}\n";
  print_string (Buffer.contents b)

let json_report () =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"schema\": \"codecomp-bench-v1\",\n";
  add "  \"quick\": %b,\n" quick;
  (* per-point sizes *)
  add "  \"points\": [\n";
  let pts = Lazy.force points @ [ Lazy.force word97_point ] in
  List.iteri
    (fun i p ->
      let _, rep = brisc_of p in
      let native = Native.Mach.program_size p.np in
      let sparc = String.length p.sparc_img in
      let gz_sparc = String.length (Zip.Deflate.compress p.sparc_img) in
      let gz_x86 = String.length (Zip.Deflate.compress p.x86_img) in
      let wire = String.length (Wire.compress p.ir) in
      add
        "    {\"label\": \"%s\", \"native_bytes\": %d, \"sparc_bytes\": %d, \
         \"gzip_sparc_bytes\": %d, \"gzip_native_bytes\": %d, \
         \"wire_bytes\": %d, \"brisc_bytes\": %d, \"brisc_code_bytes\": %d, \
         \"wire_vs_sparc\": %.4f, \"brisc_vs_native\": %.4f}%s\n"
        (json_escape p.label) native sparc gz_sparc gz_x86 wire
        rep.Brisc.brisc_total rep.Brisc.brisc_code
        (float_of_int sparc /. float_of_int wire)
        (float_of_int rep.Brisc.brisc_total /. float_of_int native)
        (if i = List.length pts - 1 then "" else ","))
    pts;
  add "  ],\n";
  (* measured rates, as in Table 2 *)
  let strlib = make_point "strlib" Corpus.Programs.strlib in
  let img = Brisc.compress strlib.vp in
  let (_, produced), jit_s = time (fun () -> Brisc.Jit.compile_with_stats img) in
  let wire_z = Wire.compress strlib.ir in
  let _, dec_s = time (fun () -> ignore (Wire.decompress wire_z)) in
  let native_mb =
    float_of_int (Native.Mach.program_size strlib.np) /. 1048576.0
  in
  add "  \"rates\": {\"jit_mbps_measured\": %.3f, \
       \"wire_decompress_mbps_measured\": %.3f, \"default_decompress_mbps\": \
       %.1f, \"default_jit_mbps\": %.1f, \"default_interp_slowdown\": %.1f},\n"
    (float_of_int produced /. jit_s /. 1048576.0)
    (native_mb /. dec_s)
    Scenario.Delivery.default_rates.Scenario.Delivery.decompress_mbps
    Scenario.Delivery.default_rates.Scenario.Delivery.jit_mbps
    Scenario.Delivery.default_rates.Scenario.Delivery.interp_slowdown;
  (* per-stage matrix for every registered codec (wc point) *)
  add "  \"codecs\":\n%s,\n" (codec_point_json ~indent:"  " (List.nth pts 0));
  (* server replay summary *)
  let r = server_replay (256 * 1024) in
  add
    "  \"server\": {\"requests\": %d, \"cache_hit_rate\": %.4f, \
     \"evictions\": %d, \"bytes_on_wire\": %d, \"session_bytes\": %d, \
     \"session_wire_equiv_bytes\": %d, \"distinct_reprs\": [%s]}\n"
    r.Server.Stats.requests r.Server.Stats.cache_hit_rate
    r.Server.Stats.cache.Server.Cache.evictions
    r.Server.Stats.total_bytes_served r.Server.Stats.session_bytes
    r.Server.Stats.session_wire_equiv
    (String.concat ", "
       (List.map (fun s -> "\"" ^ json_escape s ^ "\"") (served_reprs r)));
  add "}\n";
  print_string (Buffer.contents b)

(* ---- --compressor-json: Dict.build timing across modes ---- *)

let compressor_json () =
  let p = List.nth (Lazy.force points) 2 (* gcc-like *) in
  let domains = match domains_flag with Some n -> n | None -> 4 in
  let measure_mode mode f =
    (* drop the previous mode's garbage first: retained dead heap inflates
       every GC slice taken during the timed build (brutally so for the
       multi-domain mode, where minor collections barrier all domains) *)
    Gc.compact ();
    let (img, rep), wall = time f in
    (mode, Brisc.to_bytes img, rep, wall)
  in
  let full =
    measure_mode "full-scan" (fun () -> Brisc.measure ~full_scan:true p.vp)
  in
  let inc = measure_mode "incremental" (fun () -> Brisc.measure p.vp) in
  let par =
    let pool = Support.Pool.create ~domains in
    let r =
      measure_mode
        (Printf.sprintf "parallel-%d" domains)
        (fun () -> Brisc.measure ~pool p.vp)
    in
    Support.Pool.shutdown pool;
    r
  in
  let modes = [ full; inc; par ] in
  let _, baseline_bytes, _, full_wall = full in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"schema\": \"codecomp-compressor-bench-v1\",\n";
  add "  \"quick\": %b,\n  \"label\": \"%s\",\n  \"domains\": %d,\n" quick
    (json_escape p.label) domains;
  add "  \"modes\": [\n";
  List.iteri
    (fun i (mode, bytes, rep, wall) ->
      let bt = rep.Brisc.build in
      add
        "    {\"mode\": \"%s\", \"wall_s\": %.4f, \"scan_s\": %.4f, \
         \"rank_s\": %.4f, \"rewrite_s\": %.4f, \"passes\": %d, \
         \"items_scanned\": %d, \"candidates_tested\": %d, \
         \"candidates_per_s\": %.1f, \"domains\": %d, \"dict_entries\": %d, \
         \"brisc_bytes\": %d, \"identical_to_full_scan\": %b, \
         \"speedup_vs_full_scan\": %.3f,\n     \"passes_detail\": [%s]}%s\n"
        mode wall bt.Brisc.scan_s bt.Brisc.rank_s bt.Brisc.rewrite_s
        rep.Brisc.passes bt.Brisc.items_scanned rep.Brisc.candidates_tested
        (float_of_int rep.Brisc.candidates_tested /. wall)
        bt.Brisc.domains rep.Brisc.dict_entries (String.length bytes)
        (bytes = baseline_bytes)
        (full_wall /. wall)
        (String.concat ", "
           (List.map
              (fun (s : Brisc.Dict.pass_stat) ->
                Printf.sprintf
                  "{\"pass\": %d, \"live\": %d, \"scanned\": %d, \
                   \"cand_table\": %d, \"heap\": %d, \"selected\": %d, \
                   \"scan_s\": %.4f, \"rank_s\": %.4f, \"rewrite_s\": %.4f}"
                  s.Brisc.Dict.ps_pass s.Brisc.Dict.ps_live_items
                  s.Brisc.Dict.ps_items_scanned s.Brisc.Dict.ps_candidate_table
                  s.Brisc.Dict.ps_heap_size s.Brisc.Dict.ps_selected
                  s.Brisc.Dict.ps_scan_s s.Brisc.Dict.ps_rank_s
                  s.Brisc.Dict.ps_rewrite_s)
              bt.Brisc.pass_stats))
        (if i = List.length modes - 1 then "" else ","))
    modes;
  add "  ]\n}\n";
  print_string (Buffer.contents b)

(* ---- bechamel micro-benchmarks ---- *)

let bechamel () =
  hr "Bechamel micro-benchmarks (host wall-clock)";
  let open Bechamel in
  let p = List.nth (Lazy.force points) 0 (* wc: small, fast iterations *) in
  let strlib = make_point "strlib" Corpus.Programs.strlib in
  let img = Brisc.compress strlib.vp in
  let wire_z = Wire.compress strlib.ir in
  let tests =
    [
      Test.make ~name:"wire-compress(strlib)"
        (Staged.stage (fun () -> ignore (Wire.compress strlib.ir)));
      Test.make ~name:"wire-decompress(strlib)"
        (Staged.stage (fun () -> ignore (Wire.decompress wire_z)));
      Test.make ~name:"brisc-compress(wc)"
        (Staged.stage (fun () -> ignore (Brisc.compress p.vp)));
      Test.make ~name:"brisc-jit(strlib)"
        (Staged.stage (fun () -> ignore (Brisc.Jit.compile img)));
      Test.make ~name:"brisc-interp(strlib)"
        (Staged.stage (fun () -> ignore (Brisc.Interp.run img)));
      Test.make ~name:"vm-interp(strlib)"
        (Staged.stage (fun () -> ignore (Vm.Interp.run strlib.vp)));
      Test.make ~name:"native-sim(strlib)"
        (Staged.stage (fun () -> ignore (Native.Sim.run strlib.np)));
      Test.make ~name:"deflate(sparc-image)"
        (Staged.stage (fun () -> ignore (Zip.Deflate.compress strlib.sparc_img)));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name result ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              (Toolkit.Instance.monotonic_clock :> Measure.witness)
              result
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        results)
    tests

let () =
  if paging_json_mode then begin
    paging_json ();
    exit 0
  end;
  if codecs_json_mode then begin
    codecs_json ();
    exit 0
  end;
  if compressor_json_mode then begin
    compressor_json ();
    exit 0
  end;
  if json_mode then begin
    json_report ();
    exit 0
  end;
  let total0 = Unix.gettimeofday () in
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  dict_stats ();
  scenario_delivery ();
  scenario_paging ();
  scenario_icache ();
  scenario_server ();
  ablation_wire_stages ();
  ablation_benefit ();
  ablation_input_quality ();
  ablation_k ();
  if not no_bechamel then bechamel ();
  Printf.printf "\ntotal bench time: %.1fs%s\n"
    (Unix.gettimeofday () -. total0)
    (if quick then " (--quick)" else "")
