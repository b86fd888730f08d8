(** Content-addressed artifact store.

    Programs are published once, keyed by a digest of their IR;
    compressed artifacts are built on demand and live in a
    byte-budgeted {!Cache}, so hot programs are compressed once and
    served many times while cold ones pay recompression after
    eviction. *)

type meta = {
  ir : Ir.Tree.program;
  sizes_by : (string * int) list;
      (** stored bytes per registered artifact, by codec name, in
          registry order (native first) — the engine's per-candidate
          transfer sizes *)
  run_cycles : int;                 (** measured or estimated native cycles *)
  fn_names : string list;
}

val size_of : meta -> Artifact.repr -> int
(** Stored bytes of one artifact (0 when unknown). *)

type t

val create :
  ?pool:Support.Pool.t -> ?shards:int -> budget_bytes:int -> stats:Stats.t ->
  unit -> t
(** [pool] (when its size exceeds 1) parallelizes the expensive paths:
    {!publish} compresses the representation menu concurrently, the
    first cache miss on a digest prefetches the missing menu entries
    concurrently, and BRISC dictionary construction fans its candidate
    scan across the pool. The menu prefetch itself runs at any pool
    size (serially without one); compression thunks are pure and all
    stats/cache mutation is sequential in fixed representation order,
    so counters, cache contents, and artifact bytes are identical at
    any pool size — the replay determinism contract depends on this.

    [shards] (default 1) lock-stripes the artifact cache into that many
    independent LRU shards (key-hash routed, budget split evenly), so
    the network daemon's domains rarely contend on a cache lock. Every
    store operation is domain-safe at any shard count; materialization
    and publish are additionally {e single-flight} — concurrent cold
    requests for the same (digest, repr) elect one builder and share
    its result, so a thundering herd compresses once. With the default
    single shard and no concurrency, behavior (bytes, hit/miss
    counters, eviction order) is identical to the historical serial
    store. *)

val digest_of_program : Ir.Tree.program -> string
(** Hex digest of the printed IR — the content address. *)

val publish : t -> ?run_cycles:int -> ?input:string -> Ir.Tree.program -> string
(** Register a program and return its digest. Idempotent: republishing
    the same program is a no-op returning the same digest. Compresses
    every representation once (timed into the stats layer) to record
    each artifact's size and warm the cache. [run_cycles] overrides the
    execution cost; otherwise the program is run once on the native
    simulator with [input] (default empty) to measure it. *)

val find_meta : t -> string -> meta option
val meta : t -> string -> meta
(** @raise Not_found for unknown digests. *)

val digests : t -> string list
(** All published digests, in publish order. *)

val materialize :
  ?ctx:Codec.Context.t -> t -> string -> Artifact.repr -> string * bool
(** Artifact bytes for a digest, plus whether the cache already held
    them. On a miss the artifact is (re)compressed, timed, and cached.
    With [ctx] the artifact is built and cached per (digest, repr,
    context digest) — the key for shared-dictionary and delta
    representations — and the first-miss menu prefetch is skipped (a
    contexted representation exists only for the client that advertised
    the context).
    @raise Not_found for unknown digests. *)

val contexted_size : t -> string -> Artifact.repr -> ctx:Codec.Context.t -> int
(** Stored bytes of a contexted artifact, building (and caching) it on
    first use. Residency checks are peek-based, so candidate sizing
    never perturbs hit/miss accounting. *)

val cache_stats : t -> Cache.stats
(** Cache counters summed across the shards (equals the single cache's
    stats when [shards = 1]). *)

val quarantine : ?ctx:Codec.Context.t -> t -> string -> Artifact.repr -> unit
(** Drop the cached bytes of one artifact (no-op when absent). Called
    when served bytes fail verification: the poisoned entry can never
    be served again, and the next {!materialize} rebuilds it fresh from
    the published IR — quarantine is also self-healing. [ctx] condemns
    the per-context entry of a contexted artifact. *)

val corrupt_cached :
  ?ctx:Codec.Context.t -> t -> string -> Artifact.repr -> f:(string -> string) -> bool
(** Fault-injection hook: rewrite the cached bytes of one artifact with
    [f]. Returns [false] when the artifact is not resident. The
    injection bypasses hit/miss accounting so cache statistics stay
    comparable with and without faults. *)
