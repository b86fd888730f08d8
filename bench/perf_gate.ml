(* Perf gate: compare a fresh `--codecs-json` run against the committed
   BENCH_compressor.json and fail when any stage regresses — and hold
   the ratio/throughput frontier for the bit-optimal codecs.

   Usage:  perf_gate BASELINE.json FRESH.json

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

   The baseline is a file an earlier run wrote, so this is the one gate
   that reads JSON back; the input is this repo's own fixed-format bench
   output, so a purpose-built scanner reads it rather than a JSON
   library dependency. The storm and paging floors are checked where
   their values are computed, in `mccsim storm` and in the bench's
   paging sweep. *)

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

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: perf_gate BASELINE.json FRESH.json";
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
