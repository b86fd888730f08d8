(** Latency-quantile math for the trace simulator and the benches. *)

type bucket = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val empty_bucket : bucket

val percentile : float array -> float -> float
(** Floor-index quantile over a {e sorted} sample: index
    [floor (p * (n-1))], clamped to the array; [0.] on an empty array.
    The estimator every latency bucket uses. *)

val bucket_of_ms : float list -> bucket
(** Summarize a latency sample (ms) into a bucket: count, mean,
    p50/p95/p99 via {!percentile}, max. The empty list yields
    {!empty_bucket}. *)
