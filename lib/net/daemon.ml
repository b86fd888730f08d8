(* The mccd network daemon: a TCP accept loop feeding N worker event
   loops, all running as thunks on one [Support.Pool] of OCaml 5
   domains ([Pool.run_list] makes the calling domain the accept lane).

   Concurrency layout:

   - the accept loop owns the listening socket. Each accepted
     connection is routed to the least-loaded worker (per-worker live
     connection count, an [Atomic]); when every worker is at
     [queue_depth] the daemon sheds: it answers the connection with the
     typed [Overloaded] frame and closes it, so clients distinguish
     "server full, retry" from failure. That bound is the backpressure
     contract — memory per worker is [queue_depth] connections' input
     buffers, never the open-ended accept backlog.

   - each worker runs a [select]-based event loop over its connections
     plus a self-pipe the accept loop writes to when handing over a new
     socket. Request frames are reassembled incrementally per
     connection (a growing buffer + the 4-byte big-endian length
     prefix) and parsed only through [Protocol.decode_req], i.e. the
     shared total-decoder machinery: a hostile frame costs a typed
     error reply and the connection, never the daemon.

   - shared state is the engine (sharded store, single-flight
     materialization, mutexed stats) and the session table below; both
     are safe to hit from every worker domain concurrently.

   Sessions live in a daemon-level table keyed by token, not in the
   connection, so a client whose TCP connection dies mid-stream can
   reconnect — possibly landing on a different worker domain — and
   [Open] with its resume token to pick up exactly where it left off
   (the [Session] replay table retransmits dropped chunks
   byte-for-byte). Each session carries its own mutex: two connections
   presenting the same token serialize rather than race. The table is
   the artifact cache's LRU at cost 1 per session: an open past
   [max_sessions] evicts the least recently used session (open, resume
   and chunk requests count as uses), whose token then answers
   [Bad_session].

   Shutdown: [request_stop] (safe to call from a signal handler) flips
   an atomic flag; the accept loop stops accepting and closes the
   listening socket, workers finish in-flight requests, close their
   connections and drain, and [run] returns. *)

type config = {
  port : int;            (* 0 = ephemeral; see [port] after [create] *)
  domains : int;         (* worker event loops *)
  queue_depth : int;     (* max live connections per worker *)
  max_sessions : int;    (* resident sessions; the LRU one goes first *)
  profiles : Server.Profile.t list;  (* what [Fetch] may name *)
}

let default_config =
  {
    port = 0;
    domains = 4;
    queue_depth = 64;
    max_sessions = 1024;
    profiles = [ Server.Profile.modem; Server.Profile.lan; Server.Profile.embedded;
                 Server.Profile.datacenter ];
  }

type counters = {
  accepted : int Atomic.t;
  served : int Atomic.t;        (* response frames written *)
  shed : int Atomic.t;          (* connections refused with Overloaded *)
  bad_frames : int Atomic.t;    (* undecodable / oversized requests *)
  closed : int Atomic.t;
}

type stats = {
  c_accepted : int;
  c_served : int;
  c_shed : int;
  c_bad_frames : int;
  c_closed : int;
  c_sessions : int;
}

(* [held] is the digest set the session was opened with — the
   negotiated context. It lives in the session record, not the
   connection, so a client that reconnects and resumes keeps it. *)
type tracked = { sess : Server.Session.t; sm : Mutex.t; held : string list }

type worker = {
  live : int Atomic.t;
  wmu : Mutex.t;
  incoming : Unix.file_descr Queue.t;
  notify_r : Unix.file_descr;
  notify_w : Unix.file_descr;
}

type t = {
  engine : Server.t;
  catalog : Protocol.catalog_row list;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  workers : worker array;
  counters : counters;
  sess_mu : Mutex.t;
  sessions : tracked Server.Cache.t;
  token_ctr : int Atomic.t;
}

let create engine ~catalog cfg =
  if cfg.max_sessions < 1 then invalid_arg "Daemon.create: max_sessions < 1";
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
  Unix.listen listen_fd 128;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let worker () =
    let notify_r, notify_w = Unix.pipe () in
    Unix.set_nonblock notify_r;
    {
      live = Atomic.make 0;
      wmu = Mutex.create ();
      incoming = Queue.create ();
      notify_r;
      notify_w;
    }
  in
  {
    engine;
    catalog;
    cfg;
    listen_fd;
    bound_port;
    stop = Atomic.make false;
    workers = Array.init (max 1 cfg.domains) (fun _ -> worker ());
    counters =
      {
        accepted = Atomic.make 0;
        served = Atomic.make 0;
        shed = Atomic.make 0;
        bad_frames = Atomic.make 0;
        closed = Atomic.make 0;
      };
    sess_mu = Mutex.create ();
    sessions =
      Server.Cache.create ~size:(fun _ -> 1) ~budget_bytes:cfg.max_sessions;
    token_ctr = Atomic.make 0;
  }

let port t = t.bound_port

let stats t =
  Mutex.lock t.sess_mu;
  let sessions = (Server.Cache.stats t.sessions).Server.Cache.resident_count in
  Mutex.unlock t.sess_mu;
  {
    c_accepted = Atomic.get t.counters.accepted;
    c_served = Atomic.get t.counters.served;
    c_shed = Atomic.get t.counters.shed;
    c_bad_frames = Atomic.get t.counters.bad_frames;
    c_closed = Atomic.get t.counters.closed;
    c_sessions = sessions;
  }

(* Atomic.set from a signal handler is safe: OCaml runs handlers at
   safepoints on the main domain, and the loops poll the flag on every
   select timeout. *)
let request_stop t = Atomic.set t.stop true

(* ---- request dispatch (runs on a worker domain) ---- *)

let with_lock mu f =
  Mutex.lock mu;
  match f () with
  | v -> Mutex.unlock mu; v
  | exception e -> Mutex.unlock mu; raise e

let find_profile t name =
  List.find_opt (fun p -> p.Server.Profile.name = name) t.cfg.profiles

let fresh_token t =
  Printf.sprintf "s%d" (Atomic.fetch_and_add t.token_ctr 1)

(* the session's negotiated dictionary digest: what of its held set
   names the shared dictionary this server actually serves *)
let session_context held =
  let d = Codec.Context.builtin_digest () in
  if List.mem d held then d else ""

let index_resp token tr =
  Protocol.Index
    { token; next_seq = Server.Session.next_seq tr.sess;
      context = session_context tr.held; rows = Server.Session.index tr.sess }

let handle_open t ~codec ~digest ~resume ~held =
  if resume <> "" then
    (* reconnect: re-attach to the surviving session; the reply's
       [next_seq] tells the client where the window stands, the replay
       table answers any seq it never saw the response to, and the
       session's negotiated context (its original held set) survives —
       the [held] field of a resume is ignored *)
    match
      with_lock t.sess_mu (fun () -> Server.Cache.find t.sessions resume)
    with
    | None -> Protocol.Err (Protocol.Bad_session, "unknown resume token")
    | Some tr -> with_lock tr.sm (fun () -> index_resp resume tr)
  else
    let codec = if codec = "" then "chunked-wire" else codec in
    match Server.open_session_for t.engine ~codec digest with
    | Error (`Unknown_codec c) ->
      Protocol.Err (Protocol.Unknown_name, "unknown codec " ^ c)
    | Error (`Not_streamable c) ->
      Protocol.Err
        (Protocol.Not_streamable, "codec " ^ c ^ " is not streamable")
    | Ok sess ->
      let token = fresh_token t in
      let tr = { sess; sm = Mutex.create (); held } in
      with_lock t.sess_mu (fun () -> Server.Cache.add t.sessions token tr);
      index_resp token tr
    | exception Not_found ->
      Protocol.Err (Protocol.Unknown_name, "unknown digest " ^ digest)
    | exception Support.Decode_error.Fail e ->
      Protocol.Err (Protocol.Server_error, Support.Decode_error.to_string e)
    | exception Failure msg -> Protocol.Err (Protocol.Server_error, msg)

let handle_chunk t ~token ~seq ~name =
  match with_lock t.sess_mu (fun () -> Server.Cache.find t.sessions token) with
  | None -> Protocol.Err (Protocol.Bad_session, "unknown session token")
  | Some tr -> (
    match
      with_lock tr.sm (fun () ->
          Server.session_request t.engine tr.sess ~seq name)
    with
    | Ok payload -> Protocol.Chunk_data payload
    | Error msg -> Protocol.Err (Protocol.Bad_seq, msg))

let handle_fetch t ~profile ~digest ~held =
  match find_profile t profile with
  | None -> Protocol.Err (Protocol.Unknown_name, "unknown profile " ^ profile)
  | Some p -> (
    match Server.fetch ~held t.engine digest p with
    | r ->
      Protocol.Artifact
        {
          label = r.Server.label;
          codec = Server.Artifact.name r.Server.artifact;
          cache_hit = r.Server.cache_hit;
          degraded_from =
            (match r.Server.degraded_from with None -> "" | Some l -> l);
          context =
            (match r.Server.context with None -> "" | Some d -> d);
          body = r.Server.bytes;
        }
    | exception Not_found ->
      Protocol.Err (Protocol.Unknown_name, "unknown digest " ^ digest)
    | exception Support.Decode_error.Fail e ->
      Protocol.Err (Protocol.Server_error, Support.Decode_error.to_string e)
    | exception Failure msg -> Protocol.Err (Protocol.Server_error, msg))

let handle_dict () =
  match Codec.Context.builtin () with
  | Codec.Context.Shared_dict s ->
    Protocol.Dict_data
      { lz = s.Codec.Context.lz; pats = s.Codec.Context.pats_bytes;
        sd_digest = s.Codec.Context.sd_digest }
  | Codec.Context.Base _ -> Protocol.Err (Protocol.Server_error, "no dictionary")

let respond t (req : Protocol.req) =
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.List -> Protocol.Catalog t.catalog
  | Protocol.Dict -> handle_dict ()
  | Protocol.Fetch { profile; digest; held } ->
    handle_fetch t ~profile ~digest ~held
  | Protocol.Open { codec; digest; resume; held } ->
    handle_open t ~codec ~digest ~resume ~held
  | Protocol.Chunk { token; seq; name } -> handle_chunk t ~token ~seq ~name

(* ---- per-connection input reassembly ---- *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable used : int;
}

let new_conn fd = { fd; buf = Bytes.create 4096; used = 0 }

let ensure_capacity c need =
  if Bytes.length c.buf < need then begin
    let buf = Bytes.create (max need (2 * Bytes.length c.buf)) in
    Bytes.blit c.buf 0 buf 0 c.used;
    c.buf <- buf
  end

exception Drop_conn

let write_resp t c resp =
  (match Protocol.write_frame c.fd (Protocol.encode_resp resp) with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    raise Drop_conn);
  Atomic.incr t.counters.served

(* Pull every complete frame out of the connection buffer. Raises
   [Drop_conn] on protocol violations (oversized or undecodable frames)
   after answering with a typed error when the socket still accepts
   one. *)
let drain_frames t c =
  let scan = ref 0 in
  (try
     let continue = ref true in
     while !continue do
       if c.used - !scan < 4 then continue := false
       else begin
         let b i = Char.code (Bytes.get c.buf (!scan + i)) in
         let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
         if len <= 0 || len > Protocol.max_request_frame then begin
           Atomic.incr t.counters.bad_frames;
           (try
              write_resp t c
                (Protocol.Err (Protocol.Bad_request, "oversized frame"))
            with Drop_conn -> ());
           raise Drop_conn
         end;
         if c.used - !scan < 4 + len then continue := false
         else begin
           let body = Bytes.sub_string c.buf (!scan + 4) len in
           scan := !scan + 4 + len;
           match Protocol.decode_req body with
           | Error e ->
             Atomic.incr t.counters.bad_frames;
             (try
                write_resp t c
                  (Protocol.Err
                     (Protocol.Bad_request, Support.Decode_error.to_string e))
              with Drop_conn -> ());
             raise Drop_conn
           | Ok req ->
             let resp =
               try respond t req
               with e ->
                 Protocol.Err (Protocol.Server_error, Printexc.to_string e)
             in
             write_resp t c resp
         end
       end
     done
   with e ->
     (* compact before propagating so a rescue isn't possible anyway —
        the conn is dropped — but keep the buffer consistent *)
     if !scan > 0 then begin
       Bytes.blit c.buf !scan c.buf 0 (c.used - !scan);
       c.used <- c.used - !scan
     end;
     raise e);
  if !scan > 0 then begin
    Bytes.blit c.buf !scan c.buf 0 (c.used - !scan);
    c.used <- c.used - !scan
  end

(* ---- worker event loop ---- *)

let drain_pipe fd =
  let junk = Bytes.create 64 in
  let rec go () =
    match Unix.read fd junk 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  in
  go ()

let worker_loop t w () =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns c.fd;
    Atomic.decr w.live;
    Atomic.incr t.counters.closed
  in
  let adopt_incoming () =
    let fds =
      with_lock w.wmu (fun () ->
          let fds = Queue.fold (fun acc fd -> fd :: acc) [] w.incoming in
          Queue.clear w.incoming;
          fds)
    in
    List.iter (fun fd -> Hashtbl.replace conns fd (new_conn fd)) fds
  in
  let stopping () = Atomic.get t.stop in
  let finished = ref false in
  while not !finished do
    adopt_incoming ();
    if stopping () then begin
      (* graceful drain: everything already buffered was answered by the
         last drain_frames pass; close what remains and exit *)
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.iter close_conn;
      finished := true
    end
    else begin
      let watched =
        w.notify_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
      in
      match Unix.select watched [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = w.notify_r then drain_pipe w.notify_r
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                ensure_capacity c (c.used + 4096);
                match
                  Unix.read c.fd c.buf c.used (Bytes.length c.buf - c.used)
                with
                | 0 -> close_conn c
                | exception
                    Unix.Unix_error
                      ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF
                        | Unix.ENOTCONN ),
                        _,
                        _ ) ->
                  close_conn c
                | n -> (
                  c.used <- c.used + n;
                  try drain_frames t c with
                  | Drop_conn -> close_conn c
                  | Unix.Unix_error _ -> close_conn c)))
          readable
    end
  done

(* ---- accept loop ---- *)

let accept_loop t () =
  let n_workers = Array.length t.workers in
  let least_loaded () =
    let best = ref 0 and best_live = ref max_int in
    for i = 0 to n_workers - 1 do
      let live = Atomic.get t.workers.(i).live in
      if live < !best_live then begin
        best := i;
        best_live := live
      end
    done;
    (!best, !best_live)
  in
  let finished = ref false in
  while not !finished do
    if Atomic.get t.stop then finished := true
    else
      match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          Atomic.incr t.counters.accepted;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let idx, live = least_loaded () in
          if live >= t.cfg.queue_depth then begin
            (* every worker is at its bound: typed shed, not a silent
               RST and not an unbounded queue *)
            Atomic.incr t.counters.shed;
            (try Protocol.write_frame fd (Protocol.encode_resp Protocol.Overloaded)
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ()
          end
          else begin
            let w = t.workers.(idx) in
            Atomic.incr w.live;
            with_lock w.wmu (fun () -> Queue.add fd w.incoming);
            try ignore (Unix.write_substring w.notify_w "x" 0 1)
            with Unix.Unix_error _ -> ()
          end)
  done;
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pool = Support.Pool.create ~domains:(Array.length t.workers + 1) in
  let loops =
    accept_loop t
    :: Array.to_list (Array.map (fun w -> worker_loop t w) t.workers)
  in
  Fun.protect
    ~finally:(fun () ->
      Support.Pool.shutdown pool;
      Array.iter
        (fun w ->
          (try Unix.close w.notify_r with Unix.Unix_error _ -> ());
          try Unix.close w.notify_w with Unix.Unix_error _ -> ())
        t.workers)
    (fun () -> ignore (Support.Pool.run_list pool loops))
