(* mccd — the code-delivery server driver.

   Replays a request workload against [Server] and prints the stats
   report (including each codec's per-stage bytes/time matrix). Modes:

     dune exec bin/mccd.exe                       # synthetic workload
     dune exec bin/mccd.exe -- --requests 500 --budget 131072 --seed 7
     dune exec bin/mccd.exe -- --script reqs.txt  # scripted replay
     dune exec bin/mccd.exe -- --list-codecs      # the registry menu
     dune exec bin/mccd.exe -- serve --port 7070  # the network daemon

   Script lines (blank lines and #-comments ignored):

     fetch <program> <profile>     one whole-image request
     stream <program> [n]          chunked session: handshake, then the
                                   first n functions a real run touches
                                   (all of them if n is omitted)

   Programs are corpus names (wc, sieve, qsort, ..., gen24, gen40);
   profiles are modem-jit, lan-jit, embedded, datacenter. *)

let main requests seed budget drop faults quick script no_check domains =
  if domains > 0 then Support.Pool.set_shared_domains domains;
  let check = ref (not no_check) in
  let engine = Server.create ~budget_bytes:budget () in
  Printf.printf "mccd: publishing the corpus (budget %s)...\n%!"
    (Support.Util.human_bytes budget);
  let t0 = Unix.gettimeofday () in
  let catalog = Cli.publish_catalog ~quick engine in
  Printf.printf "mccd: %d programs published in %.1fs\n\n%!"
    (List.length catalog)
    (Unix.gettimeofday () -. t0);

  let find_program name =
    match
      List.find_opt (fun e -> e.Server.Workload.name = name) catalog
    with
    | Some e -> e
    | None -> failwith ("mccd: unknown program " ^ name)
  in
  let find_profile name =
    match
      List.find_opt
        (fun p -> p.Server.Profile.name = name)
        Server.Workload.default_profiles
    with
    | Some p -> p
    | None -> failwith ("mccd: unknown profile " ^ name)
  in

  let rep, distinct_reprs =
    match script with
    | Some file ->
      let ic = open_in file in
      let reprs = Hashtbl.create 8 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | [ "fetch"; prog; prof ] ->
               let e = find_program prog in
               let resp =
                 Server.fetch engine e.Server.Workload.digest
                   (find_profile prof)
               in
               Hashtbl.replace reprs resp.Server.label ();
               Printf.printf "fetch %-10s %-12s -> %-14s %7d B %s\n" prog prof
                 resp.Server.label resp.Server.size
                 (if resp.Server.cache_hit then "(cache hit)" else "(compressed)")
             | "stream" :: prog :: rest ->
               let e = find_program prog in
               let wanted = e.Server.Workload.wanted in
               let n =
                 match rest with
                 | [ v ] -> min (int_of_string v) (List.length wanted)
                 | _ -> List.length wanted
               in
               let sess = Server.open_session engine e.Server.Workload.digest in
               List.iteri
                 (fun i name ->
                   if i < n then
                     match
                       Server.session_request engine sess
                         ~seq:(Server.Session.next_seq sess) name
                     with
                     | Ok payload ->
                       Printf.printf "chunk %-10s %-16s %7d B\n" prog name
                         (String.length payload)
                     | Error msg -> failwith ("mccd: " ^ msg))
                 wanted
             | _ -> failwith ("mccd: bad script line: " ^ line)
         done
       with End_of_file -> close_in ic);
      print_newline ();
      let rep = Server.report engine in
      Server.Stats.print rep;
      (* acceptance thresholds are calibrated for the synthetic
         workload; a hand-written script is free to do anything *)
      check := false;
      (rep, Hashtbl.fold (fun k () acc -> k :: acc) reprs [])
    | None ->
      if faults > 0 then begin
        (* pre-materialize artifacts and corrupt their cached bytes; the
           workload's fetches then exercise quarantine + degradation.
           The menu is registry-derived, so every servable codec
           (including wire+range) gets fault coverage. *)
        let rng = Support.Prng.create (Int64.of_int (seed lxor 0x5EED)) in
        let entries = Array.of_list catalog in
        let reprs =
          Array.of_list
            (List.filter
               (fun r -> r <> Server.Artifact.native)
               (Server.Artifact.all ()))
        in
        let store = Server.store engine in
        for i = 0 to faults - 1 do
          let e = entries.(i mod Array.length entries) in
          let repr = reprs.(i mod Array.length reprs) in
          let digest = e.Server.Workload.digest in
          ignore (Server.Store.materialize store digest repr);
          ignore
            (Server.Store.corrupt_cached store digest repr
               ~f:(Support.Fault.mutate rng))
        done;
        Printf.printf "mccd: injected %d cache faults (%s)\n%!" faults
          (String.concat ", "
             (List.map Server.Artifact.name (Array.to_list reprs)))
      end;
      let config =
        { Server.Workload.requests; seed = Int64.of_int seed; drop_pct = drop }
      in
      let summary = Server.Workload.run engine ~config catalog in
      Server.Workload.print_summary summary;
      (summary.Server.Workload.report, summary.Server.Workload.distinct_reprs)
  in

  if not !check then 0
  else begin
    let ok = ref true in
    let check_line cond msg =
      Printf.printf "  [%s] %s\n" (if cond then "ok" else "FAIL") msg;
      if not cond then ok := false
    in
    Printf.printf "\nacceptance:\n";
    check_line (rep.Server.Stats.cache_hit_rate > 0.0)
      (Printf.sprintf "cache hit rate %.1f%% > 0 after warm-up"
         (100.0 *. rep.Server.Stats.cache_hit_rate));
    check_line
      (List.length distinct_reprs >= 2)
      (Printf.sprintf "%d distinct representations selected (%s)"
         (List.length distinct_reprs)
         (String.concat ", " distinct_reprs));
    if faults > 0 then
      check_line
        (rep.Server.Stats.decode_failures >= 1)
        (Printf.sprintf
           "%d injected faults detected, quarantined and degraded (%d \
            degraded fetches)"
           rep.Server.Stats.decode_failures rep.Server.Stats.degraded_fetches);
    if rep.Server.Stats.sessions_opened > 0 then
      check_line
        (rep.Server.Stats.session_bytes < rep.Server.Stats.session_wire_equiv)
        (Printf.sprintf
           "chunked sessions shipped %s < %s whole-program wire equivalent"
           (Support.Util.human_bytes rep.Server.Stats.session_bytes)
           (Support.Util.human_bytes rep.Server.Stats.session_wire_equiv));
    if !ok then 0 else 1
  end

(* ---- serve: the network daemon ---- *)

let serve port domains queue_depth max_sessions budget quick =
  let engine = Server.create ~shards:(max 1 domains) ~budget_bytes:budget () in
  Printf.printf "mccd: publishing the corpus (budget %s)...\n%!"
    (Support.Util.human_bytes budget);
  let t0 = Unix.gettimeofday () in
  let catalog = Cli.publish_catalog ~quick engine in
  Printf.printf "mccd: %d programs published in %.1fs\n%!"
    (List.length catalog)
    (Unix.gettimeofday () -. t0);
  let rows =
    List.map
      (fun (e : Server.Workload.entry) ->
        {
          Net.Protocol.prog_name = e.Server.Workload.name;
          prog_digest = e.Server.Workload.digest;
          fn_count = e.Server.Workload.fn_count;
        })
      catalog
  in
  let cfg =
    { Net.Daemon.default_config with port; domains; queue_depth; max_sessions }
  in
  let daemon = Net.Daemon.create engine ~catalog:rows cfg in
  (* graceful drain on SIGINT/SIGTERM: stop accepting, let the workers
     finish in-flight requests and exit; [run] then returns *)
  let stop _ = Net.Daemon.request_stop daemon in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.printf "mccd: serving on 127.0.0.1:%d (%d worker domains, %d conns \
                 each)\n%!"
    (Net.Daemon.port daemon) domains queue_depth;
  Net.Daemon.run daemon;
  let s = Net.Daemon.stats daemon in
  Printf.printf
    "mccd: drained. accepted %d, served %d frames, shed %d, bad frames %d\n"
    s.Net.Daemon.c_accepted s.Net.Daemon.c_served s.Net.Daemon.c_shed
    s.Net.Daemon.c_bad_frames;
  Server.Stats.print (Server.report engine);
  0

open Cmdliner

let requests =
  Arg.(value & opt int 120 & info [ "requests" ] ~docv:"N"
       ~doc:"Synthetic workload request count.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let budget =
  Arg.(value & opt int (256 * 1024) & info [ "budget" ] ~docv:"BYTES"
       ~doc:"Artifact-cache byte budget.")

let drop =
  Arg.(value & opt int 10 & info [ "drop" ] ~docv:"PCT"
       ~doc:"Percent of chunk responses dropped in flight (exercises resume).")

let faults =
  Arg.(value & opt int 0 & info [ "faults" ] ~docv:"N"
       ~doc:"Corrupt N cached artifacts before the workload (exercises \
             quarantine and degradation).")

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small generated corpus (fast CI).")

let script =
  Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE"
       ~doc:"Replay a request script instead of the synthetic workload.")

let no_check =
  Arg.(value & flag & info [ "no-check" ] ~doc:"Skip the acceptance checks.")

let domains =
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
       ~doc:"Resize the shared pool the engine's store compresses with.")

let run_term =
  Term.(
    const main $ requests $ seed $ budget $ drop $ faults $ quick $ script
    $ no_check $ domains)

let serve_cmd =
  let port =
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
         ~doc:"Listen port on loopback (0 picks an ephemeral port).")
  in
  let serve_domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
         ~doc:"Worker event-loop domains (the store is sharded to match).")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
         ~doc:"Max live connections per worker; beyond that new \
               connections are shed with a typed Overloaded response.")
  in
  let max_sessions =
    Arg.(value & opt int 1024 & info [ "max-sessions" ] ~docv:"N"
         ~doc:"Bound on the resumable chunked-session table.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the concurrent network daemon over loopback TCP")
    Term.(
      const serve $ port $ serve_domains $ queue_depth $ max_sessions $ budget
      $ quick)

let cmd =
  Cmd.group
    (Cmd.info "mccd" ~doc:"Code-delivery server driver" ~man:Cli.man_codecs)
    ~default:run_term [ serve_cmd ]

let () =
  Cli.handle_list_codecs ();
  exit (Cmd.eval' cmd)
