(* Tests of the benchmark itself: its op lists, its metric names, its
   verifier and the paged-exec oracle. *)

open Perfbench

let check = Alcotest.(check bool)

let test_ops_deterministic () =
  let f seed = Ops.units ~seed ~progs:15 ~w:8 ~decks:3 in
  check "units repeat for a seed" true (f 7L = f 7L);
  check "units change with the seed" false (f 7L = f 8L);
  (* every deck is the same multiset of units *)
  let n = Array.length (Ops.units ~seed:7L ~progs:15 ~w:8 ~decks:1) in
  let deck seed i = List.sort compare (Array.to_list (Array.sub (f seed) (i * n) n)) in
  Alcotest.(check int) "deck size" (3 * n) (Array.length (f 7L));
  check "decks share their multiset" true (deck 7L 0 = deck 7L 2 && deck 7L 0 = deck 9L 1);
  check "embedded clients stream" true
    (Array.exists (function Ops.Session _ -> true | Ops.Fetch _ -> false) (f 7L))

let test_names () =
  let unit_ok u =
    u <> ""
    && String.for_all
         (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
         u
  in
  List.iter
    (fun (n, u) ->
      check ("valid name " ^ n) true (Report.valid_name n);
      check ("valid unit " ^ u) true (unit_ok u))
    (Report.end_to_end @ Report.per_layer);
  let names = List.map fst (Report.end_to_end @ Report.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  check "a codec name maps to a metric name" true
    (Report.valid_name ("codec.decode_ms." ^ Replay.metric_codec "wire+range-opt"))

let test_tail () =
  let xs = List.init 1000 float in
  let p, v, n = Report.tail ~cap:99. xs in
  check "p99 of 1000" true (p = 99. && n = 1000 && v = 989.);
  let p, _, _ = Report.tail ~cap:99. (List.init 150 float) in
  check "ten samples beyond" true (p = 90.)

(* a fault that really changes the bytes *)
let rec corrupt prng s =
  let c = Support.Fault.mutate prng s in
  if c = s then corrupt prng s else c

let test_verifier () =
  let engine = Server.create () in
  let catalog = Sim.Catalog.publish engine Sim.Catalog.Mini in
  let prng = Support.Prng.create 11L in
  let profiles = Server.Workload.default_profiles in
  let seen = ref [] in
  List.iter
    (fun (e : Server.Workload.entry) ->
      let digest = e.Server.Workload.digest in
      List.iter
        (fun p ->
          let r = Server.fetch engine digest p in
          let codec = Server.Artifact.name r.Server.artifact in
          let v = Verify.create () in
          check ("serve verifies: " ^ codec) true (Verify.artifact v ~digest ~codec r.Server.bytes = Ok ());
          check ("repeat verifies: " ^ codec) true (Verify.artifact v ~digest ~codec r.Server.bytes = Ok ());
          let bad = corrupt prng r.Server.bytes in
          check ("corrupt body rejected: " ^ codec) true
            (Result.is_error (Verify.artifact v ~digest ~codec bad));
          if Verify.wire_family codec then
            check ("corrupt first serve rejected: " ^ codec) true
              (Result.is_error (Verify.artifact (Verify.create ()) ~digest ~codec bad));
          seen := codec :: !seen)
        profiles;
      let sess = Server.open_session engine digest in
      let name = fst (List.hd (Server.Session.index sess)) in
      match Server.session_request engine sess ~seq:(Server.Session.next_seq sess) name with
      | Error msg -> Alcotest.fail msg
      | Ok payload ->
        let v = Verify.create () in
        check "chunk verifies" true (Verify.chunk v ~digest ~name payload = Ok ());
        check "corrupt chunk rejected" true
          (Result.is_error (Verify.chunk v ~digest ~name (corrupt prng payload))))
    catalog;
  check "a wire-family codec was checked" true (List.exists Verify.wire_family !seen);
  check "another codec was checked" true (List.exists (fun c -> not (Verify.wire_family c)) !seen)

let test_paged_oracle () =
  let spans = Spans.create () in
  let seed = 3L in
  let p = Paged.program ~spans ~seed ~op:0 41 in
  let e = Corpus.Gen.generate { Corpus.Gen.functions = 41; seed; bias16 = false } in
  let input = e.Corpus.Programs.input in
  let vp = Vm.Codegen.gen_program (Cc.Lower.compile e.Corpus.Programs.source) in
  let resident = (Vm.Interp.run ~input vp).Vm.Interp.output in
  let brisc = (Brisc.Interp.run ~input p.Paged.bimg).Brisc.Interp.output in
  check "BRISC image agrees with the resident run" true (brisc = resident);
  List.iter
    (fun op ->
      check "paged execution verifies" true (Result.is_ok (Paged.execute op));
      match op with
      | Paged.Vm (_, budget_bytes) -> (
        match
          Scenario.Paged.run_vm ~cfg:(Scenario.Paged.config ~budget_bytes ()) ~input p.Paged.img
        with
        | Ok r -> check "paged VM output" true (r.Scenario.Paged.res.Vm.Interp.output = resident)
        | Error e -> Alcotest.fail (Scenario.Paged.error_to_string e))
      | Paged.Brisc_run _ -> ())
    (Array.to_list (Paged.cycle ~seed [ p ]))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "op list is seeded" `Quick test_ops_deterministic;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "verifier rejects corruption" `Quick test_verifier;
          Alcotest.test_case "paged-exec matches the oracles" `Quick test_paged_oracle ] ) ]
