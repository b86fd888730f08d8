(* The daemon under test, as its own process: `mccd serve --quick
   --domains 1 --port 0`, fresh for every run. The port comes from its banner; it is
   ready at its first Pong. It is stopped with SIGINT, and its exit
   report gives the frame, shed and cache counters. Every spawned
   daemon is killed at exit if it is still running, so a failed run
   leaves no process behind. *)

type t = {
  pid : int;
  out : in_channel;   (** the daemon's stdout *)
  port : int;
  setup_s : float;    (** spawn to first Pong, catalog publishing included *)
}

type exit_report = {
  served_frames : int;
  shed : int;
  bad_frames : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
}

let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  forget pid

let () = at_exit (fun () -> List.iter kill !live)

let rec ping_until_pong port deadline =
  let answered =
    match Net.Client.connect ~port with
    | c ->
      let r = Net.Client.rpc c Net.Protocol.Ping in
      Net.Client.close c;
      r = Ok Net.Protocol.Pong
    | exception Unix.Unix_error _ -> false
  in
  if not answered then
    if Spans.now () > deadline then failwith "mccd: no Pong"
    else begin
      Unix.sleepf 0.005;
      ping_until_pong port deadline
    end

let spawn ~exe ~budget =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [ exe; "serve"; "--quick"; "--domains"; "1"; "--port"; "0"; "--budget"; string_of_int budget ]
  in
  let t0 = Spans.now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr rd in
  let rec banner () =
    match input_line out with
    | line -> (
      match Scanf.sscanf line "mccd: serving on 127.0.0.1:%d" Fun.id with
      | port -> port
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> banner ())
    | exception End_of_file -> failwith "mccd: exited before serving"
  in
  let port = banner () in
  ping_until_pong port (Spans.now () +. 30.);
  { pid; out; port; setup_s = Spans.now () -. t0 }

(* peak resident set of the process, MB (VmHWM) *)
let hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match Scanf.sscanf (input_line ic) "VmHWM: %d kB" Fun.id with
        | kb -> float kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ()
      in
      find ())

let rss_mb t = hwm_mb t.pid

let stop t =
  Unix.kill t.pid Sys.sigint;
  let frames = ref None and cache = ref None in
  (try
     while true do
       let line = input_line t.out in
       (try
          frames :=
            Some
              (Scanf.sscanf line
                 "mccd: drained. accepted %_d, served %d frames, shed %d, bad frames %d"
                 (fun a b c -> (a, b, c)))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ());
       try
         cache :=
           Some
             (Scanf.sscanf line "cache %d hits / %d misses (%_f%% hit rate), %d evictions"
                (fun a b c -> (a, b, c)))
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  close_in t.out;
  let _, status = Unix.waitpid [] t.pid in
  forget t.pid;
  match (status, !frames, !cache) with
  | Unix.WEXITED 0, Some (served_frames, shed, bad_frames), Some (cache_hits, cache_misses, cache_evictions)
    ->
    { served_frames; shed; bad_frames; cache_hits; cache_misses; cache_evictions }
  | _ -> failwith "mccd: no clean exit report"
