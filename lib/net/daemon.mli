(** The mccd network daemon: a TCP accept loop plus N worker event
    loops over one {!Support.Pool} of OCaml 5 domains, serving the
    {!Protocol} over loopback TCP against a shared {!Server.t}.

    Backpressure and shedding: each worker owns at most [queue_depth]
    live connections; when every worker is full, new connections are
    answered with the typed [Overloaded] frame and closed. Sessions
    live in a daemon-level table keyed by resume token, so a client
    can reconnect after a dropped connection — possibly onto a
    different worker domain — and resume its chunked stream
    byte-for-byte. The table holds at most [max_sessions]; an open
    beyond that evicts the least recently used session, whose token
    then answers [Bad_session]. *)

type config = {
  port : int;           (** 0 = ephemeral; read back with {!port} *)
  domains : int;        (** worker event loops *)
  queue_depth : int;    (** max live connections per worker *)
  max_sessions : int;
      (** resident resumable sessions; an open past it evicts the
          least recently used one (open, resume and chunk are uses) *)
  profiles : Server.Profile.t list;  (** what [Fetch] requests may name *)
}

val default_config : config
(** Port 0, 4 workers, 64 connections per worker, 1024 sessions, the
    four stock profiles. *)

type t

val create : Server.t -> catalog:Protocol.catalog_row list -> config -> t
(** Bind and listen on loopback. The engine should be created with
    [~shards] matching the worker count — every worker domain hits it
    concurrently.
    @raise Invalid_argument when [max_sessions < 1]. *)

val port : t -> int
(** The bound port (meaningful when the config asked for port 0). *)

val run : t -> unit
(** Serve until {!request_stop}. Blocks the calling domain (it becomes
    the accept lane of the pool); returns after the accept loop closed
    the listening socket and every worker drained and exited. Ignores
    SIGPIPE for the whole process. *)

val request_stop : t -> unit
(** Flip the stop flag; safe to call from a signal handler or another
    domain. The loops notice within their 250 ms select timeout. *)

type stats = {
  c_accepted : int;
  c_served : int;      (** response frames written *)
  c_shed : int;        (** connections refused with [Overloaded] *)
  c_bad_frames : int;  (** oversized or undecodable request frames *)
  c_closed : int;
  c_sessions : int;    (** live entries in the session table *)
}

val stats : t -> stats
