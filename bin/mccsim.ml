(* mccsim — trace-driven fleet simulator.

     dune exec bin/mccsim.exe -- record --scenario flash-crowd \
       --catalog quick --events 400 --seed 42 --out traces/flash_crowd.trace
     dune exec bin/mccsim.exe -- replay traces/flash_crowd.trace --json
     dune exec bin/mccsim.exe -- ab traces/flash_crowd.trace --a-budget 8192

   [record] synthesizes a trace from a named generator. [replay]
   replays a trace deterministically (in-process, or --daemon for the
   loopback TCP path). [ab] replays the same trace under two cache
   budgets and reports the diff. *)

let fail fmt = Printf.ksprintf failwith fmt

let flavor_of name =
  match Sim.Catalog.flavor_of_name name with
  | Some f -> f
  | None ->
    fail "mccsim: unknown catalog flavor %s (mini|quick|full|versioned)" name

let load_trace file =
  match Sim.Trace.load file with
  | Ok t -> t
  | Error e -> fail "mccsim: %s: %s" file (Support.Decode_error.to_string e)

let write_out out s =
  match out with
  | None -> print_string s
  | Some file ->
    let oc = open_out_bin file in
    output_string oc s;
    close_out oc;
    Printf.printf "mccsim: wrote %s (%d bytes)\n" file (String.length s)

(* ---- record ---- *)

let record sname catalog seed events out =
  let spec =
    match Sim.Gen.find sname with
    | Some s -> s
    | None ->
      fail "mccsim: unknown scenario %s (have: %s)" sname
        (String.concat ", " (List.map (fun s -> s.Sim.Gen.sname) Sim.Gen.all))
  in
  (* the generator only needs the key space, but key names come from a
     published catalog, so cut one on a scratch engine *)
  let keys =
    List.map
      (fun (e : Server.Workload.entry) -> e.Server.Workload.name)
      (Sim.Catalog.publish (Server.create ()) (flavor_of catalog))
  in
  let t = spec.Sim.Gen.generate ~seed:(Int64.of_int seed) ~events ~keys in
  let trace = { t with Sim.Trace.catalog } in
  Sim.Trace.save out trace;
  Printf.printf "mccsim: %s: %d events (%s over %s, seed %d)\n" out
    (List.length trace.Sim.Trace.events)
    trace.Sim.Trace.scenario trace.Sim.Trace.catalog seed;
  0

(* ---- replay ---- *)

let replay file budget domains daemon json log =
  if domains > 0 then Support.Pool.set_shared_domains domains;
  let trace = load_trace file in
  let config = { Sim.Replay.default_config with budget_bytes = budget } in
  let r =
    if daemon then Sim.Replay.via_daemon ~config trace
    else Sim.Replay.run ~config trace
  in
  if log then print_string r.Sim.Replay.r_log;
  print_string
    (if json then Sim.Replay.to_json r ^ "\n" else Sim.Replay.render r);
  0

(* ---- ab ---- *)

let ab file a_budget b_budget json out =
  let trace = load_trace file in
  let side budget =
    { Sim.Replay.default_config with
      label = Support.Util.human_bytes budget;
      budget_bytes = budget;
    }
  in
  let d = Sim.Ab.run ~a:(side a_budget) ~b:(side b_budget) trace in
  write_out out (if json then Sim.Ab.to_json d ^ "\n" else Sim.Ab.render d);
  if out <> None && json then print_string (Sim.Ab.render d);
  0

(* ---- storm ---- *)

(* Replay the same trace twice — update channel on (clients advertise
   held digests, unlocking shared-dictionary and delta serves) and off
   (every upgrade is a full redelivery) — and report the wire savings
   on the update ops. perf_gate --storm holds a floor on this report. *)
let storm file json out =
  let trace = load_trace file in
  let side label contexted =
    Sim.Replay.run
      ~config:{ Sim.Replay.default_config with label; contexted }
      trace
  in
  let d = side "delta" true in
  let f = side "full" false in
  let ub = d.Sim.Replay.r_update.Sim.Replay.bytes in
  let fb = f.Sim.Replay.r_update.Sim.Replay.bytes in
  let corrupt = d.Sim.Replay.r_update_corrupt + f.Sim.Replay.r_update_corrupt in
  let pct = if fb = 0 then 0. else float_of_int ub /. float_of_int fb *. 100. in
  let text =
    String.concat "\n"
      [
        Printf.sprintf "mcc-storm 1  scenario=%s catalog=%s seed=%Ld events=%d"
          d.Sim.Replay.r_scenario d.Sim.Replay.r_catalog d.Sim.Replay.r_seed
          d.Sim.Replay.r_events;
        Printf.sprintf "update ops           %d"
          d.Sim.Replay.r_update.Sim.Replay.ops;
        Printf.sprintf "update bytes (delta) %d" ub;
        Printf.sprintf "update bytes (full)  %d" fb;
        Printf.sprintf "delta vs full        %.1f%%" pct;
        Printf.sprintf "update corrupt       %d" corrupt;
        Printf.sprintf "total bytes (delta)  %d" d.Sim.Replay.r_bytes_on_wire;
        Printf.sprintf "total bytes (full)   %d" f.Sim.Replay.r_bytes_on_wire;
        "";
      ]
  in
  let json_s =
    String.concat "\n"
      [
        "{";
        "  \"format\": \"mcc-storm 1\",";
        Printf.sprintf "  \"scenario\": \"%s\"," d.Sim.Replay.r_scenario;
        Printf.sprintf "  \"delta\":\n%s," (Sim.Ab.indent (Sim.Replay.to_json d));
        Printf.sprintf "  \"full\":\n%s," (Sim.Ab.indent (Sim.Replay.to_json f));
        (* flat gate block: perf_gate --storm scans these by key, last
           occurrence wins, so they come after the nested reports *)
        Printf.sprintf
          "  \"gate\": {\"update_bytes\": %d, \"full_update_bytes\": %d, \
           \"storm_corrupt\": %d, \"update_ops\": %d}"
          ub fb corrupt d.Sim.Replay.r_update.Sim.Replay.ops;
        "}";
      ]
  in
  write_out out (if json then json_s ^ "\n" else text);
  if out <> None then print_string text;
  0

open Cmdliner

let catalog =
  Arg.(value & opt string "quick" & info [ "catalog" ] ~docv:"FLAVOR"
       ~doc:"Catalog flavor the trace runs against: mini, quick or full.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let budget_arg names doc =
  Arg.(value & opt int (256 * 1024) & info names ~docv:"BYTES" ~doc)

let record_cmd =
  let scenario =
    Arg.(required & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
         ~doc:"The scenario to synthesize: steady, flash-crowd, \
               corruption-burst, mixed-profiles, update-storm or paging.")
  in
  let events =
    Arg.(value & opt int 400 & info [ "events" ] ~docv:"N"
         ~doc:"Events to synthesize.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Trace file to write.")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Cut a trace from a named scenario generator")
    Term.(const record $ scenario $ catalog $ seed $ events $ out)

let trace_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
       ~doc:"Trace file (mccsim record).")

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON.")

let replay_cmd =
  let domains =
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
         ~doc:"Resize the shared compression pool (reports are identical \
               at any size — that is the contract this flag lets you \
               check).")
  in
  let daemon =
    Arg.(value & flag & info [ "daemon" ]
         ~doc:"Replay through a loopback TCP daemon instead of in-process \
               (same events and bytes; measured latencies).")
  in
  let log =
    Arg.(value & flag & info [ "log" ]
         ~doc:"Print the per-event log before the report (what served, \
               at what size, under which context).")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Deterministically replay a trace")
    Term.(
      const replay $ trace_file
      $ budget_arg [ "budget" ] "Artifact-cache byte budget."
      $ domains $ daemon $ json $ log)

let ab_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Write the report there instead of stdout (with --json the \
               text rendering still goes to stdout).")
  in
  Cmd.v
    (Cmd.info "ab" ~doc:"Replay one trace under two cache budgets and diff \
                         them")
    Term.(
      const ab $ trace_file
      $ budget_arg [ "a-budget" ] "Side A's cache budget."
      $ budget_arg [ "b-budget" ] "Side B's cache budget."
      $ json $ out)

let storm_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Write the report there instead of stdout (with --json the \
               text rendering still goes to stdout).")
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:"Replay an update-storm trace with the update channel on and \
             off and report delta bytes-on-wire vs full redelivery")
    Term.(const storm $ trace_file $ json $ out)

let cmd =
  Cmd.group
    (Cmd.info "mccsim"
       ~doc:"Trace-driven fleet simulator: record, replay, A/B diff, \
             update-storm gate")
    [ record_cmd; replay_cmd; ab_cmd; storm_cmd ]

let () = exit (Cmd.eval' cmd)
