(** Closed- and open-loop load generator for the mccd daemon.

    Closed loop ([qps = 0.]): every client fires back-to-back, so the
    achieved rate is the server's max sustained throughput. Open loop
    ([qps > 0.]): op [i] is scheduled at [t0 + i/qps] and latency is
    measured from the scheduled instant, so server-side queueing delay
    shows up in the percentiles instead of stretching the run.

    With [verify] set, every artifact response is run through its named
    codec's total decoder and every chunk through [Wire.decompress];
    failures count as [corrupt] (the bench gate requires zero). *)

type config = {
  port : int;
  clients : int;
  requests : int;            (** total ops across all clients *)
  qps : float;               (** 0. = closed loop *)
  seed : int64;
  stream_pct : int;          (** % of ops that open a chunked session *)
  chunks_per_session : int;
  domains : int;             (** client threads are spread over domains *)
  profiles : string list;    (** profile names [Fetch] draws from *)
  verify : bool;
}

val default_config : config
(** 16 clients, 2000 requests, closed loop, 25% streaming, verify on. *)

type bucket = Support.Quantile.bucket = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}
(** Re-export of {!Support.Quantile.bucket}, where the quantile math
    now lives (the simulator and benches use it without depending on
    the TCP layer). *)

val empty_bucket : bucket
val percentile : float array -> float -> float
val bucket_of_ms : float list -> bucket

type report = {
  sent : int;
  ok : int;
  errors : int;
  shed : int;            (** [Overloaded] responses *)
  corrupt : int;         (** responses that failed verification *)
  bytes : int;
  wall_s : float;
  achieved_qps : float;
  lat_all : bucket;
  lat_fetch : bucket;
  lat_open : bucket;
  lat_chunk : bucket;
  error_samples : string list;
}

val run : config -> report
(** Drive a daemon already listening on [config.port]. The workload is
    seeded and reproducible: Zipf-weighted program popularity over the
    server's catalog, per-fetch profile draw, [stream_pct]% streaming
    sessions paging [chunks_per_session] chunks each.
    @raise Failure when the catalog cannot be fetched or is empty. *)

val print_human : out_channel -> report -> unit
val print_json : out_channel -> config -> report -> unit
