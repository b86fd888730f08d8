(** Deterministic trace replay against a fresh engine.

    {!run} builds a {!Server.t} (budget and pool from the config),
    publishes the trace's catalog flavor, then drives every event in
    order: fetches and updates through [Server.fetch], streams through
    chunked sessions (handshake on a client's first touch of a program,
    the next paged function afterwards), resumes as byte-for-byte
    retransmits of the last served chunk, and fault directives as
    seeded corruption of the key's cached artifacts.

    The determinism contract: one trace and one config produce a
    byte-identical event log (hence [event_crc]), identical served
    bytes ([serve_crc], [bytes_on_wire]) and identical engine counters
    — across runs {e and} across shared-pool domain counts. Latencies
    are modelled, not measured: a fetch costs its scored
    [Delivery.total_time], a handshake or chunk its transfer time at
    the client profile's link rate — so even the percentile lines are
    reproducible.

    {!via_daemon} runs the same request loop with RPCs to a real
    [Net.Daemon] over loopback TCP in place of direct engine calls (one
    connection, one op in flight). Event log, served bytes and engine
    counters match {!run} exactly; only the latency buckets differ
    (measured wall time instead of the model). *)

type opstats = {
  ops : int;
  bytes : int;           (** payload bytes this op class put on the wire *)
  lat : Support.Quantile.bucket; (** modelled ms ({!run}) or measured ms ({!via_daemon}) *)
}

type report = {
  r_label : string;
  r_scenario : string;
  r_catalog : string;
  r_seed : int64;
  r_events : int;
  r_bytes_on_wire : int;    (** diffed engine counter: replay phase only *)
  r_cache_hit_rate : float;
  r_degraded : int;
  r_decode_failures : int;
  r_quarantine_heals : int;
  r_fetch : opstats;
  r_stream : opstats;       (** handshakes and chunks *)
  r_resume : opstats;
  r_update : opstats;
      (** upgrade fetches (the delta update channel when the config
          advertises held digests, full redelivery when it doesn't) *)
  r_update_corrupt : int;
      (** update serves that failed client-side decode verification: a
          contexted body that does not decode under the context the
          response names, or a delta patch whose expansion differs
          from the exact bytes a full wire serve decodes to *)
  r_all : opstats;
  r_event_crc : int;        (** CRC-32 of the rendered event log *)
  r_serve_crc : int;        (** chained CRC-32 over every served payload *)
  r_log : string;           (** the event log itself, one line per action *)
  r_stats : Server.Stats.report;  (** the diffed snapshot the counters came from *)
}

type config = {
  label : string;                (** report tag, e.g. ["A"] *)
  budget_bytes : int;
  pool : Support.Pool.t option;
      (** compression pool handed to the engine (default: the shared
          pool). The determinism contract makes the report identical at
          any pool size — the knob exists so tests can prove it. *)
  contexted : bool;
      (** when true (the default), [Update] events advertise the shared
          dictionary and the key's previously fetched old version as
          held, unlocking the delta update channel; when false they are
          plain fetches — the full-redelivery baseline the storm gate
          measures against *)
}

val default_config : config
(** label ["replay"], the engine's default budget, shared pool. *)

val run : ?config:config -> Trace.t -> report
(** @raise Failure on a trace that names an unknown catalog flavor,
    profile, or program key. *)

val via_daemon : ?config:config -> Trace.t -> report
(** Replay through a loopback [Net.Daemon] (spawned and drained
    internally, single worker domain). Latency buckets are measured,
    everything else matches {!run}. *)

val render : report -> string
(** Deterministic text report ({!run} reports only — latency lines are
    part of it). The golden scenario corpus pins these renders. *)

val to_json : report -> string
(** The same fields as {!render} as a JSON object. *)
