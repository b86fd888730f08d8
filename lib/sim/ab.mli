(** A/B diffing: two engine configurations, one trace.

    Both sides replay the {e same} trace through {!Replay.run} (fresh
    engines, independent stores), so every divergence in the diff is
    attributable to the configuration delta — for instance two cache
    budgets. *)

type diff = {
  a : Replay.report;
  b : Replay.report;
  d_bytes : int;          (** [a.bytes_on_wire - b.bytes_on_wire] *)
  d_bytes_pct : float;    (** signed, relative to B (0 when B is 0) *)
  d_p99_ms : float;       (** overall p99 delta, A minus B *)
  d_hit_rate : float;     (** cache hit-rate delta, A minus B *)
  same_events : bool;
      (** event CRCs match: identical event logs — same picks, sizes
          and cache hits on both sides *)
}

val run :
  a:Replay.config -> b:Replay.config -> Trace.t -> diff
(** Replay under [a], then under [b], and diff. *)

val render : diff -> string
(** Side-by-side text report: one row per metric, columns A / B /
    delta, plus per-op-class latency lines. *)

val to_json : diff -> string
(** ["mcc-ab 1"]: both full reports under ["a"] / ["b"], then the
    deltas. *)

val indent : string -> string
(** Two-space indent of every non-empty line — for nesting a rendered
    report inside another JSON document. *)
