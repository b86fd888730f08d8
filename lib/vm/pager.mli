(** Demand pager for compressed code.

    Items — one per function, or one per packed page of functions — are
    materialized by a caller-supplied [load] on first touch, held under
    a hard working-set byte budget, and evicted least-recently-used.
    Every fault is charged a modelled decompression stall (cycles), so
    execution engines running against a pager report fault counts,
    stall cycles and resident-set high-water marks deterministically:
    the accounting involves no wall clocks and is byte-identical across
    runs, which is what lets the bench's paging sweep ([make
    paging-bench]) hold ceilings on it in CI without a noise opt-out.

    The eviction order is strict LRU with a unique logical clock per
    touch, so the victim sequence is a pure function of the touch
    sequence (property-tested against a naive oracle in
    [test/test_pager.ml]). An item larger than the entire budget still
    has to run: it is pinned while faulting in, everything else is
    evicted, and the high-water mark records the overshoot. *)

type stats = {
  mutable faults : int;         (** loads, incl. re-loads after eviction *)
  mutable hits : int;           (** touches that found the item resident *)
  mutable evictions : int;
  mutable stall_cycles : int;   (** modelled decompression stall, total *)
  mutable loaded_bytes : int;   (** resident-cost bytes ever materialized *)
  mutable resident_bytes : int; (** current working set *)
  mutable resident_hwm : int;   (** high-water mark, post-eviction *)
}

type 'a t

type 'a load = {
  item : 'a;
  cost_bytes : int;    (** resident working-set cost (e.g. decompressed
                           frame bytes) *)
  stall_cycles : int;  (** modelled fault stall (e.g. proportional to
                           the compressed bytes expanded) *)
}

val create : budget_bytes:int -> items:int -> (int -> 'a load) -> 'a t
(** [create ~budget_bytes ~items load] pages over item indices
    [0 .. items-1]. [load i] materializes item [i]; it runs once per
    fault (not per touch) and may raise — the pager stays consistent,
    the item simply is not admitted. *)

val get : 'a t -> int -> 'a
(** Touch item [i]: a hit returns the resident value; a miss runs
    [load], charges the stall, admits the item and evicts LRU victims
    until the budget holds again. *)

val resident : 'a t -> int -> bool
val resident_indices : 'a t -> int list
(** Currently resident items, ascending. *)

val stats : 'a t -> stats
(** Live counters (not a snapshot). *)
