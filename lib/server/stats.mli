(** Server observability: cache behaviour, bytes served per
    representation, compression-time histograms, chunked-session
    traffic. The engine records into a mutable {!t}; {!report} takes the
    immutable snapshot the driver and bench print. All recording and
    the snapshot are domain-safe (one internal mutex), so the network
    daemon's workers share a single [t]. *)

type t

val create : unit -> t

(** {2 Recording (used by the engine, store and sessions)} *)

val record_request : t -> unit
val record_publish : t -> unit
val record_served : t -> Artifact.repr -> int -> unit
val record_compress : t -> Artifact.repr -> ?trace:Codec.trace -> float -> unit
(** One compression of [repr]: wall-clock histogram plus, when the
    codec reported a per-stage trace, accumulation into that repr's
    stage matrix (bytes-in / bytes-out / time per pipeline stage). *)

val record_session_opened : t -> handshake_bytes:int -> wire_equiv_bytes:int -> unit
val record_chunk : t -> bytes:int -> retransmit:bool -> unit

val record_decode_failure :
  t -> digest:string -> Artifact.repr -> Support.Decode_error.t -> unit
(** An artifact failed verification and was quarantined: count it, bucket
    it by error kind, and keep it in the bounded recent-failures log. *)

val record_degraded : t -> unit
(** A fetch was served by a lower-ranked representation because the
    selector's first choice failed verification. *)

val record_quarantine_heal : t -> unit
(** A previously quarantined (digest, repr) was rebuilt from source and
    is servable again. *)

(** {2 Snapshot} *)

type stage_report = {
  stage_name : string;
  calls : int;
  bytes_in : int;
  bytes_out : int;
  wall_s : float;
}
(** Accumulated totals for one pipeline stage of one codec. *)

type repr_report = {
  repr : Artifact.repr;
  responses : int;
  bytes_served : int;
  compressions : int;
  compress_total_s : float;
  compress_max_s : float;
  compress_histogram : (string * int) list;
      (** wall-clock buckets ("<1ms", "1-10ms", ...) with non-zero counts *)
  stages : stage_report list;
      (** the codec's per-stage matrix, in pipeline order *)
}

type failure = {
  fail_digest : string;
  fail_repr : Artifact.repr;
  fail_kind : string;  (** {!Support.Decode_error.kind_name} *)
  fail_msg : string;   (** {!Support.Decode_error.to_string} *)
}
(** One quarantined artifact in the recent-failures log. *)

type report = {
  requests : int;
  publishes : int;
  cache : Cache.stats;
  cache_hit_rate : float;
  by_repr : repr_report list;
  total_bytes_served : int;  (** full-image responses + session traffic *)
  sessions_opened : int;
  chunks_served : int;
  retransmits : int;
  session_bytes : int;       (** handshakes + chunks, including retransmits *)
  session_wire_equiv : int;
      (** what the same programs would have cost as monolithic wire images *)
  decode_failures : int;     (** artifacts that failed verification *)
  failures_by_kind : (string * int) list;
  degraded_fetches : int;    (** fetches served by a fallback representation *)
  quarantine_heals : int;    (** quarantined artifacts rebuilt fresh *)
  recent_failures : failure list;  (** newest first, bounded *)
}

val report : t -> cache:Cache.stats -> report
(** Locked snapshot; [cache] is the (possibly shard-merged) cache
    counters sampled by the store. Safe to call while other domains are
    recording. *)

val diff : before:report -> report -> report
(** Counter-wise [after - before]: what a workload phase did on its own.
    Reprs and stages are matched by name; derived rates are recomputed
    from the differenced counters; [recent_failures] (a bounded window,
    not a counter) is taken from the [after] snapshot. *)

val print : report -> unit
