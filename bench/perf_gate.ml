(* Perf gate: compare a fresh `--codecs-json` run against the committed
   BENCH_compressor.json and fail when any stage regresses — and hold
   the ratio/throughput frontier for the bit-optimal codecs.

   Usage:  perf_gate BASELINE.json FRESH.json
           perf_gate --storm BENCH_storm.json
           perf_gate --paging BENCH_paging.json

   A stage regresses when its fresh wall time exceeds the baseline by
   more than 25% AND by more than a 2 ms absolute floor — the floor
   keeps micro-stages (tenths of a millisecond, dominated by scheduler
   noise) from tripping the gate; the ratio protects the stages the
   kernels of DESIGN.md §10 are accountable for. Stages present only on
   one side (renames, new codecs) warn but do not fail.

   Sizes are deterministic, so they get a harder rule than walls: a
   `-opt` codec exists only to buy ratio with encode time, and any
   byte of growth on any point means the optimal parse or its cost
   model got worse — fail on a single byte, no tolerance. Other codecs'
   sizes are reported but not gated (their parses are pinned by the
   golden-digest tests instead).

   The input is this repo's own fixed-format bench output, so this is a
   purpose-built scanner — the container has no JSON library, and the
   gate must not grow a dependency for a format we print ourselves. *)

let tolerance = 1.25
let floor_s = 0.002

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One row per stage object: (point label, codec name, direction,
   stage name, occurrence index within that direction) -> wall_s.
   The scanner walks the document's quoted keys in order, tracking the
   most recent "label", "name" and "*_stages" keys — exactly how the
   printer in bench/main.ml nests them. *)
type row = {
  point : string;
  codec : string;
  dir : string;
  stage : string;
  occ : int;
  wall : float;
}

(* artifact size per (point label, codec name): the "bytes" key of each
   codec row (the nested stage objects use "bytes_in"/"bytes_out", so
   the bare key is unambiguous) *)
type size_row = { spoint : string; scodec : string; bytes : float }

let parse (s : string) : row list * size_row list =
  let n = String.length s in
  let i = ref 0 in
  let rows = ref [] in
  let sizes = ref [] in
  let point = ref "" and codec = ref "" and dir = ref "" in
  let pending_stage = ref None in
  let occs : (string * string * string * string, int) Hashtbl.t =
    Hashtbl.create 64
  in
  let read_quoted () =
    (* [!i] is at the opening quote *)
    incr i;
    let b = Buffer.create 16 in
    while !i < n && s.[!i] <> '"' do
      if s.[!i] = '\\' && !i + 1 < n then begin
        Buffer.add_char b s.[!i + 1];
        i := !i + 2
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    incr i;
    Buffer.contents b
  in
  let skip_ws () =
    while !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t') do
      incr i
    done
  in
  let is_num c = (c >= '0' && c <= '9') || c = '-' || c = '.' || c = 'e' in
  while !i < n do
    if s.[!i] = '"' then begin
      let key = read_quoted () in
      skip_ws ();
      if !i < n && s.[!i] = ':' then begin
        incr i;
        skip_ws ();
        let sval =
          if !i < n && s.[!i] = '"' then Some (read_quoted ()) else None
        in
        let fval =
          match sval with
          | Some _ -> None
          | None ->
            let j = ref !i in
            while !j < n && is_num s.[!j] do incr j done;
            if !j > !i then begin
              let v = float_of_string (String.sub s !i (!j - !i)) in
              i := !j;
              Some v
            end
            else None
        in
        match (key, sval, fval) with
        | "label", Some v, _ -> point := v
        | "name", Some v, _ -> codec := v
        | "bytes", _, Some b ->
          sizes := { spoint = !point; scodec = !codec; bytes = b } :: !sizes
        | ("encode_stages" | "decode_stages"), _, _ -> dir := key
        | "stage", Some v, _ -> pending_stage := Some v
        | "wall_s", _, Some w -> (
          match !pending_stage with
          | Some st ->
            pending_stage := None;
            let k = (!point, !codec, !dir, st) in
            let occ = try Hashtbl.find occs k with Not_found -> 0 in
            Hashtbl.replace occs k (occ + 1);
            rows :=
              { point = !point; codec = !codec; dir = !dir; stage = st;
                occ; wall = w }
              :: !rows
          | None -> ())
        | _ -> ()
      end
    end
    else incr i
  done;
  (List.rev !rows, List.rev !sizes)

(* ---- key scanners over our own fixed-format JSON ---- *)

(* Every numeric value of a key, in document order. The paging report
   repeats the same keys once per corpus point (and per budget row), so
   its gates pair up src/hot arrays positionally. *)
let scan_all (s : string) key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length s and pn = String.length pat in
  let acc = ref [] in
  let i = ref 0 in
  while !i + pn <= n do
    if String.sub s !i pn = pat then begin
      let j = ref (!i + pn) in
      while !j < n && s.[!j] = ' ' do incr j done;
      let k = ref !j in
      let is_num c = (c >= '0' && c <= '9') || c = '-' || c = '.' || c = 'e' in
      while !k < n && is_num s.[!k] do incr k done;
      if !k > !j then begin
        acc := float_of_string (String.sub s !j (!k - !j)) :: !acc;
        i := !k
      end
      else incr i
    end
    else incr i
  done;
  List.rev !acc

(* Last numeric value of a key. *)
let scan_number s key =
  match List.rev (scan_all s key) with v :: _ -> Some v | [] -> None

(* ---- --storm mode: the update channel must actually save bytes ---- *)

(* mccsim storm replays the committed update-storm trace with the
   update channel on and off; both replays are deterministic, so the
   savings ratio is a property of the codecs and the scenario, not the
   runner. The gate holds the tentpole's claim: delta delivery costs at
   most 40% of full redelivery on the update ops, every serve
   decode-verified client-side. *)
let storm_max_ratio = 0.40

let storm_gate path =
  let s = read_file path in
  let rec has i =
    if i + 11 > String.length s then false
    else if String.sub s i 11 = "mcc-storm 1" then true
    else has (i + 1)
  in
  if not (has 0) then begin
    Printf.eprintf "perf-gate: %s is not an mcc-storm 1 report\n" path;
    exit 2
  end;
  let get key =
    match scan_number s key with
    | Some v -> v
    | None ->
      Printf.eprintf "perf-gate: no \"%s\" in %s\n" key path;
      exit 2
  in
  let update_bytes = get "update_bytes" in
  let full_bytes = get "full_update_bytes" in
  let corrupt = get "storm_corrupt" in
  let ops = get "update_ops" in
  let failures = ref 0 in
  let check cond msg =
    Printf.printf "  [%s] %s\n" (if cond then "ok" else "FAIL") msg;
    if not cond then incr failures
  in
  Printf.printf "update-storm gate on %s:\n" path;
  check (ops > 0.0) (Printf.sprintf "%.0f update ops replayed" ops);
  check
    (update_bytes <= full_bytes *. storm_max_ratio)
    (Printf.sprintf "update bytes %.0f <= %.0f x %.2f (%.1f%% of full)"
       update_bytes full_bytes storm_max_ratio
       (if full_bytes > 0.0 then update_bytes /. full_bytes *. 100.0 else 0.0));
  check (corrupt = 0.0)
    (Printf.sprintf
       "%.0f corrupt update serves (every serve decode-verified against \
        its context)"
       corrupt);
  if !failures > 0 then begin
    Printf.printf "\nperf-gate: FAIL — the update channel missed its floor\n";
    exit 1
  end
  else
    print_endline
      "\nperf-gate: OK — delta delivery holds its floor over full redelivery"

(* ---- --paging mode: demand-paged execution + hot-layout gate over
   BENCH_paging.json ---- *)

(* Ceilings pinned from the committed BENCH_paging.json (gen-80/120/300,
   repeat 8, budgets 50/25/12%) with headroom for corpus churn: the
   worst measured hot overhead at the 25% budget is 4.08x, the worst
   per-row hot fault count 337. Ratio tolerances: the chunked container
   is order-invariant by construction so it gets exact equality;
   BRISC's global dictionary training and the flat wire's match finder
   are order-sensitive, so reordering may cost a hair — bounded at
   +0.2% / +0.3% (measured worst: +0.093% / +0.054%). *)
let paging_max_overhead_25 = 5.5
let paging_max_faults_row = 450.0
let paging_brisc_ratio = 1.002
let paging_wire_ratio = 1.003

let paging_gate path =
  let s = read_file path in
  let get key =
    match scan_all s key with
    | [] ->
      Printf.eprintf "perf-gate: no \"%s\" in %s\n" key path;
      exit 2
    | vs -> vs
  in
  let pair key_src key_hot =
    let a = get key_src and b = get key_hot in
    if List.length a <> List.length b then begin
      Printf.eprintf "perf-gate: %s/%s count mismatch in %s\n" key_src
        key_hot path;
      exit 2
    end;
    List.combine a b
  in
  let failures = ref 0 in
  let check cond msg =
    Printf.printf "  [%s] %s\n" (if cond then "ok" else "FAIL") msg;
    if not cond then incr failures
  in
  Printf.printf "paging gate on %s:\n" path;
  List.iteri
    (fun i (src, hot) ->
      check (hot = src)
        (Printf.sprintf
           "point %d: chunked bytes invariant under reorder (%.0f = %.0f)" i
           hot src))
    (pair "chunked_bytes_src" "chunked_bytes_hot");
  List.iteri
    (fun i (src, hot) ->
      check
        (hot <= src *. paging_brisc_ratio)
        (Printf.sprintf "point %d: brisc bytes %.0f <= %.0f x %.3f" i hot src
           paging_brisc_ratio))
    (pair "brisc_bytes_src" "brisc_bytes_hot");
  List.iteri
    (fun i (src, hot) ->
      check
        (hot <= src *. paging_wire_ratio)
        (Printf.sprintf "point %d: wire bytes %.0f <= %.0f x %.3f" i hot src
           paging_wire_ratio))
    (pair "wire_bytes_src" "wire_bytes_hot");
  List.iteri
    (fun i (src, hot) ->
      check (hot < src)
        (Printf.sprintf "point %d: icache misses %.0f < %.0f" i hot src))
    (pair "icache_misses_src" "icache_misses_hot");
  (* per budget row: the hot layout may never fault more than source
     order, and stays under the absolute ceiling *)
  List.iteri
    (fun i (src, hot) ->
      check (hot <= src)
        (Printf.sprintf "row %d: faults hot %.0f <= src %.0f" i hot src);
      check
        (hot <= paging_max_faults_row)
        (Printf.sprintf "row %d: faults hot %.0f <= ceiling %.0f" i hot
           paging_max_faults_row))
    (pair "faults_src" "faults_hot");
  List.iteri
    (fun i (src, hot) ->
      check (hot <= src)
        (Printf.sprintf "row %d: overhead hot %.4f <= src %.4f" i hot src))
    (pair "overhead_src" "overhead_hot");
  (* per point: summed across budgets the reduction must be strict —
     this is the acceptance criterion that the layout actually works *)
  List.iteri
    (fun i (src, hot) ->
      check (hot < src)
        (Printf.sprintf
           "point %d: total faults strictly reduced (hot %.0f < src %.0f)" i
           hot src))
    (pair "faults_total_src" "faults_total_hot");
  (* the headline budget: at 25% residency the hot layout holds its
     stall overhead under the pinned ceiling. Budget rows come in
     50/25/12 order, so the 25% rows are every 3n+1'th occurrence. *)
  List.iteri
    (fun i hot ->
      if i mod 3 = 1 then
        check
          (hot <= paging_max_overhead_25)
          (Printf.sprintf "point %d: overhead at 25%% budget %.4f <= %.2f"
             (i / 3) hot paging_max_overhead_25))
    (get "overhead_hot");
  if !failures > 0 then begin
    Printf.printf "\nperf-gate: FAIL — %d paging floor(s) missed\n" !failures;
    exit 1
  end
  else
    print_endline
      "\nperf-gate: OK — paged execution bounded, hot layout pays for itself"

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "--storm" then begin
    storm_gate Sys.argv.(2);
    exit 0
  end;
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "--paging" then begin
    paging_gate Sys.argv.(2);
    exit 0
  end;
  if Array.length Sys.argv <> 3 then begin
    prerr_endline
      "usage: perf_gate BASELINE.json FRESH.json | perf_gate --storm \
       BENCH_storm.json | perf_gate --paging BENCH_paging.json";
    exit 2
  end;
  let base, base_sizes = parse (read_file Sys.argv.(1)) in
  let fresh, fresh_sizes = parse (read_file Sys.argv.(2)) in
  if base = [] then begin
    Printf.eprintf "perf-gate: no stages in baseline %s\n" Sys.argv.(1);
    exit 2
  end;
  let find rs (r : row) =
    List.find_opt
      (fun c ->
        c.point = r.point && c.codec = r.codec && c.dir = r.dir
        && c.stage = r.stage && c.occ = r.occ)
      rs
  in
  let regressions = ref 0 in
  Printf.printf "%-14s %-14s %-7s %-14s %10s %10s %8s\n" "point" "codec"
    "dir" "stage" "base_ms" "fresh_ms" "ratio";
  List.iter
    (fun (b : row) ->
      let dir = if b.dir = "encode_stages" then "enc" else "dec" in
      match find fresh b with
      | None ->
        Printf.printf "%-14s %-14s %-7s %-14s %10.3f %10s %8s\n" b.point
          b.codec dir b.stage (b.wall *. 1e3) "-" "missing"
      | Some f ->
        let ratio = if b.wall > 0.0 then f.wall /. b.wall else 1.0 in
        let bad =
          f.wall > b.wall *. tolerance && f.wall > b.wall +. floor_s
        in
        if bad then incr regressions;
        Printf.printf "%-14s %-14s %-7s %-14s %10.3f %10.3f %7.2fx%s\n"
          b.point b.codec dir b.stage (b.wall *. 1e3) (f.wall *. 1e3) ratio
          (if bad then "  REGRESSION" else ""))
    base;
  List.iter
    (fun (f : row) ->
      if find base f = None then
        Printf.printf "%-14s %-14s %-7s %-14s %10s %10.3f %8s\n" f.point
          f.codec
          (if f.dir = "encode_stages" then "enc" else "dec")
          f.stage "-" (f.wall *. 1e3) "new")
    fresh;
  (* the ratio side of the frontier: -opt codecs may never grow *)
  let is_opt name =
    let n = String.length name in
    n >= 4 && String.sub name (n - 4) 4 = "-opt"
  in
  let ratio_regressions = ref 0 in
  Printf.printf "\n%-14s %-14s %10s %10s\n" "point" "codec" "base_B" "fresh_B";
  List.iter
    (fun (b : size_row) ->
      match
        List.find_opt
          (fun f -> f.spoint = b.spoint && f.scodec = b.scodec)
          fresh_sizes
      with
      | None ->
        Printf.printf "%-14s %-14s %10.0f %10s\n" b.spoint b.scodec b.bytes
          "missing"
      | Some f ->
        let gated = is_opt b.scodec in
        let bad = gated && f.bytes > b.bytes in
        if bad then incr ratio_regressions;
        Printf.printf "%-14s %-14s %10.0f %10.0f%s\n" b.spoint b.scodec
          b.bytes f.bytes
          (if bad then "  RATIO REGRESSION"
           else if gated then "  (gated)"
           else ""))
    base_sizes;
  if !regressions > 0 || !ratio_regressions > 0 then begin
    if !regressions > 0 then
      Printf.printf
        "\nperf-gate: FAIL — %d stage(s) regressed more than %.0f%% (and %g ms)\n"
        !regressions
        ((tolerance -. 1.0) *. 100.0)
        (floor_s *. 1e3);
    if !ratio_regressions > 0 then
      Printf.printf
        "\nperf-gate: FAIL — %d -opt codec size(s) grew (ratio floor is \
         zero-tolerance)\n"
        !ratio_regressions;
    exit 1
  end
  else
    print_endline
      "\nperf-gate: OK — no stage regressed beyond tolerance, -opt ratios held"
