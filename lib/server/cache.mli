(** Budgeted LRU cache, keyed by string.

    Each value has a cost the caller gives ([size]), and the resident
    costs are held under [budget_bytes]. The artifact store compresses
    a program once and serves it many times; this cache, costed in
    bytes, bounds how many compressed images stay resident. The daemon
    costs each resumable session at 1, so the budget is its session
    cap. All operations are O(1) (hashtable + intrusive recency
    list). *)

type 'v t

val create : size:('v -> int) -> budget_bytes:int -> 'v t

val find : 'v t -> string -> 'v option
(** Lookup; a hit refreshes the entry's recency. Counts hits/misses. *)

val add : 'v t -> string -> 'v -> unit
(** Insert (replacing any previous binding), then evict
    least-recently-used entries until the resident cost fits the
    budget. A value costing more than the whole budget is not cached
    at all rather than flushing every other entry. *)

val mem : 'v t -> string -> bool
(** Presence test without touching recency or counters. *)

val remove : 'v t -> string -> unit
(** Drop an entry (no-op when absent). Used to quarantine artifacts
    that failed verification; not counted as an eviction. *)

val peek : 'v t -> string -> 'v option
(** Lookup without touching recency or hit/miss counters — for fault
    injection and inspection, so instrumentation stays invisible to the
    cache statistics. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident_bytes : int;  (** summed cost of the resident entries *)
  resident_count : int;
  budget_bytes : int;
}

val stats : _ t -> stats
val hit_rate : stats -> float
(** hits / (hits + misses); 0 when no lookups happened. *)
