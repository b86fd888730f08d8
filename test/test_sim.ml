(* The fleet simulator: trace format totality and round-trips, the
   replay determinism contract (across runs, across pool sizes, across
   the in-process/daemon boundary), the committed golden scenario
   corpus, and A/B diffing. *)

let mini_keys = [ "wc"; "sieve"; "calc"; "crc" ]

let gen name ?(seed = 42L) ?(events = 80) () =
  let spec =
    match Sim.Gen.find name with
    | Some s -> s
    | None -> Alcotest.failf "no generator named %s" name
  in
  let t = spec.Sim.Gen.generate ~seed ~events ~keys:mini_keys in
  { t with Sim.Trace.catalog = "mini" }

(* ---- the trace format ---- *)

let test_trace_round_trip () =
  List.iter
    (fun (s : Sim.Gen.spec) ->
      let t = gen s.Sim.Gen.sname () in
      let text = Sim.Trace.to_string t in
      match Sim.Trace.of_string text with
      | Error e ->
        Alcotest.failf "%s: own output rejected: %s" s.Sim.Gen.sname
          (Support.Decode_error.to_string e)
      | Ok t2 ->
        Alcotest.(check string)
          (s.Sim.Gen.sname ^ " round-trips byte-identically")
          text (Sim.Trace.to_string t2);
        Alcotest.(check int) "event count survives"
          (List.length t.Sim.Trace.events)
          (List.length t2.Sim.Trace.events))
    Sim.Gen.all

let reject label text =
  match Sim.Trace.of_string text with
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error e ->
    Alcotest.(check bool) (label ^ " error names the trace decoder") true
      (e.Support.Decode_error.decoder = "trace")

let test_trace_rejects_malformed () =
  reject "empty input" "";
  reject "wrong magic" "mcc-trace 9\n";
  reject "garbage header" "not a trace\n";
  let hdr = "mcc-trace 1\nmeta scenario s\nmeta catalog mini\nmeta seed 1\n" in
  reject "unknown record kind" (hdr ^ "xx 1 c0 embedded fetch wc\n");
  reject "short event row" (hdr ^ "ev 1 c0 embedded fetch\n");
  reject "unknown op" (hdr ^ "ev 1 c0 embedded teleport wc\n");
  reject "non-integer timestamp" (hdr ^ "ev soon c0 embedded fetch wc\n");
  reject "negative timestamp" (hdr ^ "ev -4 c0 embedded fetch wc\n");
  reject "decreasing timestamps"
    (hdr ^ "ev 9 c0 embedded fetch wc\nev 3 c0 embedded fetch wc\n");
  reject "unknown fault kind"
    (hdr ^ "ev 1 c0 embedded fetch wc fault melt 7\n");
  reject "short fault clause" (hdr ^ "ev 1 c0 embedded fetch wc fault\n");
  reject "meta after events"
    (hdr ^ "ev 1 c0 embedded fetch wc\nmeta seed 2\n");
  (* the reader's allocation cap is a typed Limit, not an OOM *)
  let many =
    hdr
    ^ String.concat ""
        (List.init 20 (fun i ->
             Printf.sprintf "ev %d c0 embedded fetch wc\n" i))
  in
  match Sim.Trace.of_string ~max_events:10 many with
  | Ok _ -> Alcotest.fail "event cap not enforced"
  | Error e ->
    Alcotest.(check bool) "cap is a Limit error" true
      (e.Support.Decode_error.kind = Support.Decode_error.Limit)

(* ---- replay determinism ---- *)

let test_replay_deterministic_across_runs () =
  let t = gen "steady" () in
  let r1 = Sim.Replay.run t in
  let r2 = Sim.Replay.run t in
  Alcotest.(check string) "event logs byte-identical" r1.Sim.Replay.r_log
    r2.Sim.Replay.r_log;
  Alcotest.(check int) "serve crc identical" r1.Sim.Replay.r_serve_crc
    r2.Sim.Replay.r_serve_crc;
  Alcotest.(check int) "bytes on wire identical" r1.Sim.Replay.r_bytes_on_wire
    r2.Sim.Replay.r_bytes_on_wire;
  (* the whole render — counters, latency percentiles, crcs — is pinned *)
  Alcotest.(check string) "full render identical" (Sim.Replay.render r1)
    (Sim.Replay.render r2);
  Alcotest.(check string) "json identical" (Sim.Replay.to_json r1)
    (Sim.Replay.to_json r2)

let test_replay_deterministic_across_pool_sizes () =
  let t = gen "steady" () in
  let with_pool domains f =
    let pool = Support.Pool.create ~domains in
    Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) (fun () -> f pool)
  in
  let r1 =
    with_pool 1 (fun pool ->
        Sim.Replay.run
          ~config:{ Sim.Replay.default_config with pool = Some pool } t)
  in
  let r4 =
    with_pool 4 (fun pool ->
        Sim.Replay.run
          ~config:{ Sim.Replay.default_config with pool = Some pool } t)
  in
  Alcotest.(check string) "render identical at 1 vs 4 domains"
    (Sim.Replay.render r1) (Sim.Replay.render r4);
  Alcotest.(check string) "event logs identical" r1.Sim.Replay.r_log
    r4.Sim.Replay.r_log

let test_replay_corruption_heals () =
  let t = gen "corruption-burst" ~events:120 () in
  let has_fault =
    List.exists
      (fun e -> e.Sim.Trace.fault <> None)
      t.Sim.Trace.events
  in
  Alcotest.(check bool) "scenario carries fault directives" true has_fault;
  let r = Sim.Replay.run t in
  Alcotest.(check bool) "faults were detected" true
    (r.Sim.Replay.r_decode_failures > 0);
  Alcotest.(check bool) "quarantined artifacts healed" true
    (r.Sim.Replay.r_quarantine_heals > 0);
  (* detection without service failure: every event still served *)
  Alcotest.(check int) "all events served"
    (List.length t.Sim.Trace.events)
    r.Sim.Replay.r_all.Sim.Replay.ops

(* ---- the committed golden corpus ---- *)

(* Replays of the committed traces must render byte-identically to the
   committed reports: any drift in the engine, the codecs, the catalog
   or the latency model shows up here as a diff, exactly like a golden
   digest. Regenerate with `make traces` when the change is intended. *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* dune runtest sandboxes us in _build/default/test (the declared deps
   land in ../traces); a bare `dune exec test/test_sim.exe` runs from
   the repo root, where the corpus is ./traces *)
let golden_root = if Sys.file_exists "../traces" then "../traces" else "traces"

let load_golden name =
  match Sim.Trace.load (golden_root ^ "/" ^ name ^ ".trace") with
  | Ok t -> t
  | Error e ->
    Alcotest.failf "%s.trace: %s" name (Support.Decode_error.to_string e)

let test_golden name () =
  let want = read_file (golden_root ^ "/" ^ name ^ ".report") in
  let got = Sim.Replay.render (Sim.Replay.run (load_golden name)) in
  Alcotest.(check string) (name ^ " replay matches committed report") want got

(* The daemon backend against the in-process one, on committed traces
   that reach every branch of the request loop: fetch, stream, resume
   and fault directives (corruption burst), fetch and update (update
   storm). Latencies are measured on the daemon path; everything else —
   events, served payloads, engine counters — must match exactly, and
   every event is exactly one engine request on both paths. *)
let test_replay_daemon_parity () =
  List.iter
    (fun name ->
      let t = load_golden name in
      let r = Sim.Replay.run t in
      let d = Sim.Replay.via_daemon t in
      let same what f = Alcotest.(check int) (name ^ ": " ^ what) (f r) (f d) in
      Alcotest.(check string) (name ^ ": event logs identical")
        r.Sim.Replay.r_log d.Sim.Replay.r_log;
      same "serve crc" (fun x -> x.Sim.Replay.r_serve_crc);
      same "bytes on wire" (fun x -> x.Sim.Replay.r_bytes_on_wire);
      same "decode failures" (fun x -> x.Sim.Replay.r_decode_failures);
      same "update corrupt" (fun x -> x.Sim.Replay.r_update_corrupt);
      Alcotest.(check (float 1e-9)) (name ^ ": cache hit rate")
        r.Sim.Replay.r_cache_hit_rate d.Sim.Replay.r_cache_hit_rate;
      List.iter
        (fun x ->
          Alcotest.(check int) (name ^ ": one engine request per event")
            x.Sim.Replay.r_events
            x.Sim.Replay.r_stats.Server.Stats.requests)
        [ r; d ])
    [ "corruption_burst"; "update_storm" ]

(* ---- the update channel ---- *)

(* The storm gate's claim, in-suite: replaying the committed
   update-storm trace with held-digest advertisement on must cost at
   most 40% of the full-redelivery bytes on the update ops, with every
   serve decode-verified client-side — and the delta codec itself must
   be what's doing the saving, not just the shared dictionary. *)
let test_update_storm_channel () =
  let trace = load_golden "update_storm" in
  let delta =
    Sim.Replay.run
      ~config:{ Sim.Replay.default_config with label = "delta" }
      trace
  in
  let full =
    Sim.Replay.run
      ~config:
        { Sim.Replay.default_config with label = "full"; contexted = false }
      trace
  in
  Alcotest.(check bool) "trace carries update ops" true
    (delta.Sim.Replay.r_update.Sim.Replay.ops > 0);
  Alcotest.(check int) "both sides served the same update ops"
    delta.Sim.Replay.r_update.Sim.Replay.ops
    full.Sim.Replay.r_update.Sim.Replay.ops;
  Alcotest.(check int) "no corrupt update serves (delta side)" 0
    delta.Sim.Replay.r_update_corrupt;
  Alcotest.(check int) "no corrupt update serves (full side)" 0
    full.Sim.Replay.r_update_corrupt;
  let ub = delta.Sim.Replay.r_update.Sim.Replay.bytes in
  let fb = full.Sim.Replay.r_update.Sim.Replay.bytes in
  Alcotest.(check bool)
    (Printf.sprintf "update bytes %d <= 40%% of full redelivery %d" ub fb)
    true
    (float_of_int ub <= 0.40 *. float_of_int fb);
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "delta patches actually served" true
    (contains delta.Sim.Replay.r_log "delta+JIT");
  Alcotest.(check bool) "full side never serves a context" true
    (not (contains full.Sim.Replay.r_log "ctx=3")
    && not (contains full.Sim.Replay.r_log "delta+JIT"))

(* contexted serves ride the same single-flight cache as everything
   else, so the storm replay must hold the pool-size invariance the
   determinism contract promises *)
let test_update_storm_pool_invariant () =
  let trace = load_golden "update_storm" in
  let with_pool domains f =
    let pool = Support.Pool.create ~domains in
    Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) (fun () -> f pool)
  in
  let r1 =
    with_pool 1 (fun pool ->
        Sim.Replay.run
          ~config:{ Sim.Replay.default_config with pool = Some pool } trace)
  in
  let r4 =
    with_pool 4 (fun pool ->
        Sim.Replay.run
          ~config:{ Sim.Replay.default_config with pool = Some pool } trace)
  in
  Alcotest.(check string) "render identical at 1 vs 4 domains"
    (Sim.Replay.render r1) (Sim.Replay.render r4)

(* ---- A/B ---- *)

(* Diff two cache budgets over one trace. Selection scores each
   artifact's stored size, never the cache, so a budget too small to
   hold the flash crowd's working set changes hit rate but not a single
   byte served — and the hit flags alone make the event logs differ. *)
let test_ab_two_budgets () =
  let t = gen "flash-crowd" ~events:120 () in
  let d =
    Sim.Ab.run
      ~a:{ Sim.Replay.default_config with label = "small"; budget_bytes = 8192 }
      ~b:{ Sim.Replay.default_config with label = "default" }
      t
  in
  Alcotest.(check int) "selection does not depend on the cache" 0
    d.Sim.Ab.d_bytes;
  Alcotest.(check bool) "small budget hits less" true
    (d.Sim.Ab.a.Sim.Replay.r_cache_hit_rate
    < d.Sim.Ab.b.Sim.Replay.r_cache_hit_rate);
  Alcotest.(check bool) "hit flags differ, so the event logs do" false
    d.Sim.Ab.same_events;
  Alcotest.(check bool) "json declares mcc-ab 1" true
    (String.starts_with ~prefix:"{\n  \"format\": \"mcc-ab 1\","
       (Sim.Ab.to_json d))

let () =
  Alcotest.run "sim"
    [
      ( "trace",
        [
          Alcotest.test_case "format round-trip" `Quick test_trace_round_trip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_trace_rejects_malformed;
        ] );
      ( "replay",
        [
          Alcotest.test_case "deterministic across runs" `Quick
            test_replay_deterministic_across_runs;
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_replay_deterministic_across_pool_sizes;
          Alcotest.test_case "daemon path parity" `Quick
            test_replay_daemon_parity;
          Alcotest.test_case "corruption burst detects and heals" `Quick
            test_replay_corruption_heals;
        ] );
      ( "golden",
        [
          Alcotest.test_case "steady" `Quick (test_golden "steady");
          Alcotest.test_case "flash crowd" `Quick (test_golden "flash_crowd");
          Alcotest.test_case "corruption burst" `Quick
            (test_golden "corruption_burst");
          Alcotest.test_case "mixed profiles" `Quick
            (test_golden "mixed_profiles");
          Alcotest.test_case "update storm" `Quick
            (test_golden "update_storm");
          Alcotest.test_case "paging" `Quick (test_golden "paging");
        ] );
      ( "storm",
        [
          Alcotest.test_case "delta channel beats full redelivery" `Quick
            test_update_storm_channel;
          Alcotest.test_case "pool-size invariant" `Quick
            test_update_storm_pool_invariant;
        ] );
      ( "ab",
        [
          Alcotest.test_case "two cache budgets over one trace" `Quick
            test_ab_two_budgets;
        ] );
    ]
