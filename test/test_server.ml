(* Tests for the code-delivery server: the byte-budgeted LRU artifact
   cache, per-profile representation selection against the delivery
   model, the content-addressed store, and chunked-session resume. *)

let d = String.make 1

(* ---- cache: byte-budgeted LRU ---- *)

let test_cache_eviction_under_budget () =
  let c = Server.Cache.create ~size:String.length ~budget_bytes:100 in
  Server.Cache.add c "a" (String.make 40 'a');
  Server.Cache.add c "b" (String.make 40 'b');
  (* touching "a" makes "b" the LRU entry *)
  Alcotest.(check bool) "a resident" true (Server.Cache.find c "a" <> None);
  Server.Cache.add c "c" (String.make 40 'c');
  Alcotest.(check bool) "b evicted" false (Server.Cache.mem c "b");
  Alcotest.(check bool) "a survives (recently used)" true (Server.Cache.mem c "a");
  Alcotest.(check bool) "c resident" true (Server.Cache.mem c "c");
  let st = Server.Cache.stats c in
  Alcotest.(check int) "one eviction" 1 st.Server.Cache.evictions;
  Alcotest.(check int) "resident bytes fit budget" 80
    st.Server.Cache.resident_bytes;
  Alcotest.(check int) "two resident" 2 st.Server.Cache.resident_count

let test_cache_counts_hits_and_misses () =
  let c = Server.Cache.create ~size:String.length ~budget_bytes:100 in
  Server.Cache.add c "k" "v";
  Alcotest.(check (option string)) "hit" (Some "v") (Server.Cache.find c "k");
  Alcotest.(check (option string)) "miss" None (Server.Cache.find c "nope");
  let st = Server.Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Server.Cache.hits;
  Alcotest.(check int) "misses" 1 st.Server.Cache.misses;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Server.Cache.hit_rate st)

let test_cache_oversized_value_not_cached () =
  let c = Server.Cache.create ~size:String.length ~budget_bytes:16 in
  Server.Cache.add c "small" (String.make 8 's');
  (* a value bigger than the whole budget must not flush the cache *)
  Server.Cache.add c "huge" (String.make 64 'h');
  Alcotest.(check bool) "huge not cached" false (Server.Cache.mem c "huge");
  Alcotest.(check bool) "small untouched" true (Server.Cache.mem c "small")

let test_cache_replace_updates_bytes () =
  let c = Server.Cache.create ~size:String.length ~budget_bytes:100 in
  Server.Cache.add c "k" (String.make 60 'x');
  Server.Cache.add c "k" (String.make 10 'y');
  let st = Server.Cache.stats c in
  Alcotest.(check int) "rebinding replaces, not adds" 10
    st.Server.Cache.resident_bytes;
  Alcotest.(check (option string)) "new value wins"
    (Some (String.make 10 'y'))
    (Server.Cache.find c "k")

let test_cache_lru_order_is_by_recency () =
  let c = Server.Cache.create ~size:String.length ~budget_bytes:30 in
  List.iter (fun k -> Server.Cache.add c k (String.make 10 k.[0]))
    [ "a"; "b"; "c" ];
  (* recency now c > b > a; touch a, then overflow twice *)
  ignore (Server.Cache.find c "a");
  Server.Cache.add c "d" (String.make 10 'd');   (* evicts b *)
  Server.Cache.add c "e" (String.make 10 'e');   (* evicts c *)
  Alcotest.(check (list bool)) "survivors a/d/e, victims b/c"
    [ true; false; false; true; true ]
    (List.map (Server.Cache.mem c) [ "a"; "b"; "c"; "d"; "e" ])

(* ---- selection: profiles against the delivery model ---- *)

let prog src = Cc.Lower.compile src

let multi_fn_src =
  "int a(int x) { return x + 1; }\n\
   int b(int x) { return x * 2; }\n\
   int c(int x) { return x - 3; }\n\
   int main() { return a(1) + b(2) + c(3); }"

(* the delivery mode a fetch picks for this profile *)
let pick e dg p =
  Scenario.Delivery.repr_name (Server.fetch e dg p).Server.chosen

let test_selector_hand_picked_points () =
  (* the concrete choices at the stock rate card, derivable by hand
     from the linear model (transfer + prepare + run) *)
  let e = Server.create () in
  let dg = Server.publish e ~run_cycles:1_000_000 (prog multi_fn_src) in
  Alcotest.(check string) "modem: densest form wins" "wire+JIT"
    (pick e dg Server.Profile.modem);
  Alcotest.(check string) "datacenter: raw native, nothing to prepare"
    "native" (pick e dg Server.Profile.datacenter);
  Alcotest.(check string) "embedded: interpretation is all that's feasible"
    "BRISC interp" (pick e dg Server.Profile.embedded);
  (* a JIT client on a free link: BRISC's JIT-only preparation beats
     wire's decompress-then-JIT once transfer stops mattering *)
  let fast =
    Server.Profile.make "fast" ~link_bps:Scenario.Delivery.fast_lan_bps
  in
  Alcotest.(check string) "fast link, no native" "BRISC+JIT" (pick e dg fast)

let test_feasibility_constraints () =
  let ok p mode =
    Server.Profile.mode_feasible p ~mode ~artifact_bytes:45_000
      ~native_bytes:70_000
  in
  Alcotest.(check bool) "embedded: no JIT" false
    (ok Server.Profile.embedded Scenario.Delivery.Wire_format);
  Alcotest.(check bool) "embedded: native image over its budget" false
    (ok Server.Profile.embedded Scenario.Delivery.Raw_native);
  Alcotest.(check bool) "modem client can't take native" false
    (ok Server.Profile.modem Scenario.Delivery.Raw_native);
  Alcotest.(check bool) "datacenter can take native" true
    (ok Server.Profile.datacenter Scenario.Delivery.Raw_native);
  (* in-place interpretation holds only the artifact itself *)
  let small = Server.Profile.make "small" ~link_bps:1e6 ~memory_bytes:50_000 in
  Alcotest.(check bool) "interp fits where the JIT does not" true
    (ok small Scenario.Delivery.Brisc_interp
    && not (ok small Scenario.Delivery.Brisc_jit));
  (* nothing fits an absurd memory budget, yet the fetch still serves:
     interpretation is the last resort *)
  let e = Server.create () in
  let dg = Server.publish e ~run_cycles:1_000_000 (prog multi_fn_src) in
  let tiny = Server.Profile.make "tiny" ~link_bps:1e6 ~memory_bytes:1 in
  Alcotest.(check string) "last resort" "BRISC interp" (pick e dg tiny)

(* ---- store: content addressing, publish, eviction recovery ---- *)

let test_publish_idempotent () =
  let e = Server.create () in
  let ir = prog multi_fn_src in
  let d1 = Server.publish e ~run_cycles:1_000_000 ir in
  let d2 = Server.publish e ~run_cycles:1_000_000 ir in
  Alcotest.(check string) "same digest" d1 d2;
  Alcotest.(check int) "published once" 1 (List.length (Server.digests e));
  Alcotest.(check string) "digest is content-derived"
    (Server.Store.digest_of_program ir) d1

let test_distinct_programs_distinct_digests () =
  let e = Server.create () in
  let d1 = Server.publish e ~run_cycles:1 (prog "int main() { return 1; }") in
  let d2 = Server.publish e ~run_cycles:1 (prog "int main() { return 2; }") in
  Alcotest.(check bool) "different addresses" true (d1 <> d2)

let test_materialize_after_eviction () =
  (* a cache too small for everything: artifacts get evicted and must
     be recompressed on demand, byte-identical *)
  let e = Server.create ~budget_bytes:512 () in
  let ir = prog multi_fn_src in
  let dg = Server.publish e ~run_cycles:1_000_000 ir in
  let store = Server.store e in
  let first, _ = Server.Store.materialize store dg Server.Artifact.wire in
  (* churn the cache with the other representations *)
  List.iter
    (fun r -> ignore (Server.Store.materialize store dg r))
    (Server.Artifact.all ());
  let again, _ = Server.Store.materialize store dg Server.Artifact.wire in
  Alcotest.(check string) "recompression is deterministic" first again;
  Alcotest.(check bool) "artifact is a valid wire image" true
    (Ir.Tree.equal_program ir (Wire.decompress_exn again))

let test_fetch_unknown_digest () =
  let e = Server.create () in
  match Server.fetch e (d 'x') Server.Profile.modem with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown digest must raise Not_found"

let test_parallel_pool_equivalence () =
  (* a parallel compression pool must not change anything observable:
     same digest, same artifact bytes for every representation — both
     with a budget that holds the menu (publish fan-out) and with one
     that evicts (miss-path prefetch + sequential fallback) *)
  let ir = prog multi_fn_src in
  List.iter
    (fun budget_bytes ->
      let seq = Server.create ~budget_bytes () in
      let pool = Support.Pool.create ~domains:3 in
      let par = Server.create ~pool ~budget_bytes () in
      let d1 = Server.publish seq ~run_cycles:1_000_000 ir in
      let d2 = Server.publish par ~run_cycles:1_000_000 ir in
      Alcotest.(check string) "same digest" d1 d2;
      (* two rounds: the first parallel miss prefetches the whole menu,
         the second exercises the per-representation path *)
      for _ = 1 to 2 do
        List.iter
          (fun r ->
            let a, _ = Server.Store.materialize (Server.store seq) d1 r in
            let b, _ = Server.Store.materialize (Server.store par) d2 r in
            Alcotest.(check bool)
              (Printf.sprintf "%s identical (budget %d)" (Server.Artifact.name r)
                 budget_bytes)
              true (a = b))
          (Server.Artifact.all ())
      done;
      Support.Pool.shutdown pool)
    [ 256 * 1024; 512 ]

(* ---- chunked sessions: handshake, serving, resume ---- *)

let session_fixture () =
  let e = Server.create () in
  let ir = prog multi_fn_src in
  let dg = Server.publish e ~run_cycles:1_000_000 ir in
  (e, ir, dg, Server.open_session e dg)

let test_session_handshake () =
  let _, _, dg, s = session_fixture () in
  Alcotest.(check string) "session knows its digest" dg (Server.Session.digest s);
  let names = List.map fst (Server.Session.index s) in
  Alcotest.(check (list string)) "index lists every function"
    [ "a"; "b"; "c"; "main" ] (List.sort compare names);
  Alcotest.(check bool) "chunk sizes positive" true
    (List.for_all (fun (_, n) -> n > 0) (Server.Session.index s))

let test_session_chunks_are_wire_images () =
  let _, ir, _, s = session_fixture () in
  let seq = Server.Session.next_seq s in
  match Server.Session.request s ~seq "b" with
  | Error m -> Alcotest.fail m
  | Ok payload ->
    let p = Wire.decompress_exn payload in
    (match p.Ir.Tree.funcs with
    | [ f ] ->
      Alcotest.(check string) "the function asked for" "b" f.Ir.Tree.fname;
      let orig =
        List.find (fun (g : Ir.Tree.func) -> g.Ir.Tree.fname = "b")
          ir.Ir.Tree.funcs
      in
      Alcotest.(check bool) "materializes exactly" true (f = orig)
    | fs ->
      Alcotest.fail
        (Printf.sprintf "expected one function, got %d" (List.length fs)))

let test_session_resume_after_drop () =
  let _, _, _, s = session_fixture () in
  let seq0 = Server.Session.next_seq s in
  let p1 =
    match Server.Session.request s ~seq:seq0 "a" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  (* the response was dropped in flight: the client repeats the same
     sequence number and must get the same bytes back *)
  (match Server.Session.request s ~seq:seq0 "a" with
  | Ok p -> Alcotest.(check string) "byte-for-byte retransmit" p1 p
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "retransmit doesn't advance the window" (seq0 + 1)
    (Server.Session.next_seq s);
  (* the session then continues normally *)
  (match Server.Session.request s ~seq:(seq0 + 1) "b" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "two distinct functions delivered" 2
    (Server.Session.delivered s)

let test_session_rejects_bad_requests () =
  let _, _, _, s = session_fixture () in
  let seq0 = Server.Session.next_seq s in
  ignore (Server.Session.request s ~seq:seq0 "a");
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "future seq rejected" true
    (is_err (Server.Session.request s ~seq:(seq0 + 5) "b"));
  Alcotest.(check bool) "stale retransmit must repeat the same name" true
    (is_err (Server.Session.request s ~seq:seq0 "b"));
  ignore (Server.Session.request s ~seq:(seq0 + 1) "b");
  (* answered sequence numbers stay replayable (late duplicates), but
     only as faithful repeats *)
  Alcotest.(check bool) "old seq with its original name retransmits" true
    (not (is_err (Server.Session.request s ~seq:seq0 "a")));
  Alcotest.(check bool) "old seq with a different name rejected" true
    (is_err (Server.Session.request s ~seq:seq0 "b"));
  Alcotest.(check bool) "unknown function rejected" true
    (is_err (Server.Session.request s ~seq:(Server.Session.next_seq s) "ghost"))

let test_session_late_duplicate_regression () =
  (* regression: a stale retry of an old request arriving after newer
     chunks were served must retransmit byte-for-byte and must not
     disturb the session offset (it used to be rejected once any newer
     request had been answered) *)
  let _, _, _, s = session_fixture () in
  let get seq name =
    match Server.Session.request s ~seq name with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let p0 = get 0 "a" in
  let _ = get 1 "b" in
  let _ = get 2 "c" in
  Alcotest.(check string) "late duplicate of seq 0 retransmits" p0 (get 0 "a");
  Alcotest.(check int) "offset undisturbed" 3 (Server.Session.next_seq s);
  let _ = get 1 "b" in
  Alcotest.(check int) "offset still undisturbed" 3 (Server.Session.next_seq s);
  (* the session continues exactly where it was *)
  let _ = get 3 "main" in
  Alcotest.(check int) "four distinct functions delivered" 4
    (Server.Session.delivered s)

(* ---- fault injection: quarantine, degradation, healing ---- *)

let flip_middle b =
  let by = Bytes.of_string b in
  let i = Bytes.length by / 2 in
  Bytes.set by i (Char.chr (Char.code (Bytes.get by i) lxor 0x55));
  Bytes.to_string by

let test_fetch_degrades_on_corrupt_artifact () =
  let e = Server.create () in
  let ir = prog multi_fn_src in
  let dg = Server.publish e ~run_cycles:1_000_000 ir in
  let store = Server.store e in
  let first = Server.fetch e dg Server.Profile.modem in
  Alcotest.(check bool) "baseline fetch not degraded" true
    (first.Server.degraded_from = None);
  let victim = first.Server.artifact in
  Alcotest.(check bool) "victim artifact was resident" true
    (Server.Store.corrupt_cached store dg victim ~f:flip_middle);
  (* the poisoned bytes must never reach a client: the fetch quarantines
     them, records a typed failure, and serves the next-best repr *)
  let resp = Server.fetch e dg Server.Profile.modem in
  Alcotest.(check bool) "degraded response flagged" true
    (resp.Server.degraded_from <> None);
  Alcotest.(check bool) "a different artifact served" true
    (resp.Server.artifact <> victim);
  let r = Server.report e in
  Alcotest.(check int) "decode failure visible in stats" 1
    r.Server.Stats.decode_failures;
  Alcotest.(check int) "degraded fetch counted" 1
    r.Server.Stats.degraded_fetches;
  Alcotest.(check bool) "failure log names the digest" true
    (match r.Server.Stats.recent_failures with
    | [ f ] -> f.Server.Stats.fail_digest = dg && f.Server.Stats.fail_repr = victim
    | _ -> false);
  (* quarantine is self-healing: the next request rebuilds the artifact
     fresh from the published IR and serves the original choice again *)
  let healed = Server.fetch e dg Server.Profile.modem in
  Alcotest.(check bool) "healed back to the original artifact" true
    (healed.Server.artifact = victim && healed.Server.degraded_from = None)

let test_session_open_heals_corrupt_chunked () =
  let e = Server.create () in
  let ir = prog multi_fn_src in
  let dg = Server.publish e ~run_cycles:1_000_000 ir in
  let store = Server.store e in
  Alcotest.(check bool) "chunked artifact was resident" true
    (Server.Store.corrupt_cached store dg Server.Artifact.chunked_wire
       ~f:flip_middle);
  (* opening a session on the poisoned artifact quarantines it, rebuilds
     fresh, and serves normally *)
  let s = Server.open_session e dg in
  Alcotest.(check bool) "session serves a chunk" true
    (match Server.Session.request s ~seq:0 "a" with
    | Ok _ -> true
    | Error _ -> false);
  let r = Server.report e in
  Alcotest.(check int) "failure recorded" 1 r.Server.Stats.decode_failures

(* ---- wire+range: a registry-added representation, end to end ---- *)

let test_wire_range_adaptive_selection () =
  let e = Server.create () in
  let ir = prog multi_fn_src in
  let dg = Server.publish e ~run_cycles:1_000_000 ir in
  let m = Server.Store.meta (Server.store e) dg in
  (* the order-2 range coder beats deflate on this program, so the
     bandwidth-bound profile must pick a range-coded wire image; the
     -opt variant is never larger than wire+range, so it wins *)
  Alcotest.(check bool) "wire+range denser than wire" true
    (Server.Store.size_of m Server.Artifact.wire_range
    < Server.Store.size_of m Server.Artifact.wire);
  Alcotest.(check bool) "wire+range-opt never larger than wire+range" true
    (Server.Store.size_of m Server.Artifact.wire_range_opt
    <= Server.Store.size_of m Server.Artifact.wire_range);
  let resp = Server.fetch e dg Server.Profile.modem in
  Alcotest.(check bool) "modem served wire+range-opt" true
    (resp.Server.artifact = Server.Artifact.wire_range_opt);
  Alcotest.(check string) "labelled as range-coded JIT delivery"
    "wire+range-opt+JIT" resp.Server.label;
  Alcotest.(check bool) "not a degraded response" true
    (resp.Server.degraded_from = None);
  (* the served bytes are a self-describing image the stock total wire
     decoder expands — no client-side registry needed *)
  Alcotest.(check bool) "client decodes with the total wire decoder" true
    (Ir.Tree.equal_program ir (Wire.decompress_exn resp.Server.bytes));
  (* per-stage telemetry for the new codec lands in its stats bucket *)
  let r = Server.report e in
  let rr =
    List.find
      (fun rr -> rr.Server.Stats.repr = Server.Artifact.wire_range_opt)
      r.Server.Stats.by_repr
  in
  Alcotest.(check bool) "range-opt stage visible in stats" true
    (List.exists
       (fun (s : Server.Stats.stage_report) ->
         s.Server.Stats.stage_name = "range-opt")
       rr.Server.Stats.stages);
  Alcotest.(check bool) "every stage carries byte accounting" true
    (List.for_all
       (fun (s : Server.Stats.stage_report) ->
         s.Server.Stats.calls > 0 && s.Server.Stats.bytes_in > 0
         && s.Server.Stats.bytes_out > 0)
       rr.Server.Stats.stages)

let test_wire_range_degradation () =
  let e = Server.create () in
  let ir = prog multi_fn_src in
  let dg = Server.publish e ~run_cycles:1_000_000 ir in
  let store = Server.store e in
  Alcotest.(check bool) "wire+range-opt artifact resident" true
    (Server.Store.corrupt_cached store dg Server.Artifact.wire_range_opt
       ~f:flip_middle);
  (* the poisoned first choice is quarantined and the next-best repr
     answers, flagged with what it degraded from *)
  let resp = Server.fetch e dg Server.Profile.modem in
  Alcotest.(check (option string)) "degraded from the range-coded choice"
    (Some "wire+range-opt+JIT") resp.Server.degraded_from;
  Alcotest.(check bool) "fallback is a different artifact" true
    (resp.Server.artifact <> Server.Artifact.wire_range_opt);
  Alcotest.(check bool) "fallback bytes verify" true
    (String.length resp.Server.bytes > 0);
  let r = Server.report e in
  Alcotest.(check bool) "quarantine log names wire+range-opt" true
    (match r.Server.Stats.recent_failures with
    | f :: _ -> f.Server.Stats.fail_repr = Server.Artifact.wire_range_opt
    | [] -> false);
  (* self-healing: the next fetch rebuilds from the published IR and
     serves the range-coded image again *)
  let healed = Server.fetch e dg Server.Profile.modem in
  Alcotest.(check bool) "healed back to wire+range-opt" true
    (healed.Server.artifact = Server.Artifact.wire_range_opt
    && healed.Server.degraded_from = None)

(* ---- concurrency: the daemon's shared-state contracts ---- *)

(* four domains hammering one Stats.t: every record lands exactly once
   and the recent-failures log stays hard-bounded *)
let test_stats_concurrent_recording () =
  let stats = Server.Stats.create () in
  let repr = Server.Artifact.wire in
  let err =
    { Support.Decode_error.decoder = "test"; kind = Support.Decode_error.Checksum;
      pos = 0; msg = "injected" }
  in
  let per_domain = 500 and domains = 4 in
  let pool = Support.Pool.create ~domains in
  ignore
    (Support.Pool.run_list pool
       (List.init domains (fun _ () ->
            for _ = 1 to per_domain do
              Server.Stats.record_request stats;
              Server.Stats.record_served stats repr 10;
              Server.Stats.record_chunk stats ~bytes:5 ~retransmit:false;
              Server.Stats.record_decode_failure stats ~digest:"d" repr err
            done)));
  Support.Pool.shutdown pool;
  let cache =
    Server.Cache.stats (Server.Cache.create ~size:String.length ~budget_bytes:1)
  in
  let r = Server.Stats.report stats ~cache in
  let total = domains * per_domain in
  Alcotest.(check int) "requests" total r.Server.Stats.requests;
  Alcotest.(check int) "chunks" total r.Server.Stats.chunks_served;
  Alcotest.(check int) "decode failures" total r.Server.Stats.decode_failures;
  Alcotest.(check bool) "recent failures hard-capped" true
    (List.length r.Server.Stats.recent_failures <= 8);
  let wire =
    List.find
      (fun (rr : Server.Stats.repr_report) ->
        Server.Artifact.name rr.Server.Stats.repr = "wire")
      r.Server.Stats.by_repr
  in
  Alcotest.(check int) "responses" total wire.Server.Stats.responses;
  Alcotest.(check int) "bytes served" (total * 10)
    wire.Server.Stats.bytes_served

(* the acceptance scenario: 32 concurrent cold fetches of the same
   artifact compress exactly once (single-flight), and every caller
   gets byte-identical results *)
let test_single_flight_32_cold_fetches () =
  let e = Server.create ~shards:4 () in
  let dg = Server.publish e ~run_cycles:1_000_000 (prog multi_fn_src) in
  let store = Server.store e in
  let repr = Server.Artifact.wire in
  let compressions () =
    match
      List.find_opt
        (fun (rr : Server.Stats.repr_report) ->
          Server.Artifact.name rr.Server.Stats.repr = "wire")
        (Server.report e).Server.Stats.by_repr
    with
    | Some rr -> rr.Server.Stats.compressions
    | None -> 0
  in
  Server.Store.quarantine store dg repr;
  let before = compressions () in
  let pool = Support.Pool.create ~domains:4 in
  let results =
    Support.Pool.run_list pool
      (List.init 32 (fun _ () -> fst (Server.Store.materialize store dg repr)))
  in
  Support.Pool.shutdown pool;
  Alcotest.(check int) "32 cold fetches, one materialization" 1
    (compressions () - before);
  match results with
  | first :: rest ->
    List.iteri
      (fun i b ->
        Alcotest.(check bool)
          (Printf.sprintf "caller %d got identical bytes" (i + 1))
          true (String.equal b first))
      rest
  | [] -> Alcotest.fail "no results"

(* lock striping must not change what is served: a 4-shard store
   returns the same bytes as the serial 1-shard store *)
let test_sharded_store_equivalence () =
  let serve shards =
    let e = Server.create ~shards () in
    let dg = Server.publish e ~run_cycles:1_000_000 (prog multi_fn_src) in
    let r = Server.fetch e dg Server.Profile.modem in
    (r.Server.label, r.Server.bytes)
  in
  Alcotest.(check bool) "same label and bytes at any shard count" true
    (serve 1 = serve 4)

let () =
  Alcotest.run "server"
    [
      ( "cache",
        [
          Alcotest.test_case "eviction under byte budget" `Quick
            test_cache_eviction_under_budget;
          Alcotest.test_case "hit/miss counters" `Quick
            test_cache_counts_hits_and_misses;
          Alcotest.test_case "oversized value" `Quick
            test_cache_oversized_value_not_cached;
          Alcotest.test_case "rebinding replaces" `Quick
            test_cache_replace_updates_bytes;
          Alcotest.test_case "LRU order" `Quick test_cache_lru_order_is_by_recency;
        ] );
      ( "selector",
        [
          Alcotest.test_case "hand-picked rate points" `Quick
            test_selector_hand_picked_points;
          Alcotest.test_case "feasibility constraints" `Quick
            test_feasibility_constraints;
        ] );
      ( "store",
        [
          Alcotest.test_case "publish idempotent" `Quick test_publish_idempotent;
          Alcotest.test_case "content addressing" `Quick
            test_distinct_programs_distinct_digests;
          Alcotest.test_case "rematerialize after eviction" `Quick
            test_materialize_after_eviction;
          Alcotest.test_case "unknown digest" `Quick test_fetch_unknown_digest;
          Alcotest.test_case "parallel pool equivalence" `Quick
            test_parallel_pool_equivalence;
        ] );
      ( "session",
        [
          Alcotest.test_case "handshake index" `Quick test_session_handshake;
          Alcotest.test_case "chunks are wire images" `Quick
            test_session_chunks_are_wire_images;
          Alcotest.test_case "resume after dropped response" `Quick
            test_session_resume_after_drop;
          Alcotest.test_case "bad requests rejected" `Quick
            test_session_rejects_bad_requests;
          Alcotest.test_case "late duplicate regression" `Quick
            test_session_late_duplicate_regression;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fetch degrades then heals" `Quick
            test_fetch_degrades_on_corrupt_artifact;
          Alcotest.test_case "session open heals" `Quick
            test_session_open_heals_corrupt_chunked;
        ] );
      ( "wire+range",
        [
          Alcotest.test_case "adaptive selection serves it" `Quick
            test_wire_range_adaptive_selection;
          Alcotest.test_case "degrades and heals" `Quick
            test_wire_range_degradation;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "stats recording from 4 domains" `Quick
            test_stats_concurrent_recording;
          Alcotest.test_case "single-flight on 32 cold fetches" `Quick
            test_single_flight_32_cold_fetches;
          Alcotest.test_case "sharded store equivalence" `Quick
            test_sharded_store_equivalence;
        ] );
    ]
