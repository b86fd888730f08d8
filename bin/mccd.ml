(* mccd — the code-delivery daemon.

     dune exec bin/mccd.exe -- serve --port 7070  # the network daemon
     dune exec bin/mccd.exe -- --list-codecs      # the registry menu

   Request workloads against the engine are traces: [mccsim record
   --scenario] cuts one, and [mccsim replay] drives it in process or,
   with --daemon, through this daemon over loopback TCP. *)

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

let budget =
  Arg.(value & opt int (256 * 1024) & info [ "budget" ] ~docv:"BYTES"
       ~doc:"Artifact-cache byte budget.")

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small generated corpus (fast CI).")

let serve_cmd =
  let port =
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
         ~doc:"Listen port on loopback (0 picks an ephemeral port).")
  in
  let domains =
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
         ~doc:"Resident resumable chunked sessions; an open beyond \
               that evicts the least recently used one.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the concurrent network daemon over loopback TCP")
    Term.(
      const serve $ port $ domains $ queue_depth $ max_sessions $ budget
      $ quick)

let cmd =
  Cmd.group
    (Cmd.info "mccd" ~doc:"Code-delivery daemon" ~man:Cli.man_codecs)
    [ serve_cmd ]

let () =
  Cli.handle_list_codecs ();
  exit (Cmd.eval' cmd)
