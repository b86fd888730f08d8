(** The code-delivery engine: content-addressed artifact store + LRU
    cache behind per-request adaptive representation selection, plus
    streaming chunked sessions. *)

type t

val create :
  ?pool:Support.Pool.t ->
  ?shards:int ->
  ?budget_bytes:int ->
  ?rates:Scenario.Delivery.rates ->
  ?min_session_cycles:int ->
  unit ->
  t
(** [budget_bytes] bounds the artifact cache (default 256 KiB).
    [rates] parameterize the delivery-time model. [min_session_cycles]
    (default 120M — one nominal CPU-second) floors a program's modelled
    execution so preparation cost amortizes over a believable session,
    as in the bench's Table 2. [pool] (default {!Support.Pool.shared})
    parallelizes compression on multi-core hosts — see {!Store.create};
    served bytes and counters are identical at any pool size.
    [shards] (default 1) lock-stripes the artifact cache for the
    multi-domain daemon — see {!Store.create}; every engine operation
    is domain-safe, and materialization is single-flight. *)

val publish : t -> ?run_cycles:int -> ?input:string -> Ir.Tree.program -> string
(** See {!Store.publish}. *)

val digests : t -> string list
val store : t -> Store.t

type response = {
  digest : string;
  chosen : Scenario.Delivery.representation;  (** the delivery mode picked *)
  artifact : Artifact.repr;                   (** the artifact serving it *)
  label : string;
      (** human-readable (artifact, mode) pair, e.g. ["wire+range+JIT"] *)
  bytes : string;
  size : int;
  cache_hit : bool;
  outcome : Scenario.Delivery.outcome;        (** modelled client timing *)
  degraded_from : string option;
      (** the selector's original choice (its {!label}), when its
          artifact failed verification and this response fell back to
          the next-best candidate *)
  context : string option;
      (** digest of the held context this serve was encoded against
          (the shared dictionary, or the delta base artifact); [None]
          for context-free representations. The client must decode
          with the matching context. *)
}

val fetch : ?held:string list -> t -> string -> Profile.t -> response
(** One whole-image request: enumerate the registry's (artifact, mode)
    candidates the profile can use, pick the total-time minimizer over
    each artifact's actual stored size, materialize it (cache-first),
    run it through its codec's total decoder, account. An artifact that
    fails verification is quarantined (recorded in {!Stats}, rebuilt
    fresh by the store on its next request) and the fetch degrades to
    the best remaining candidate — see [degraded_from] in the
    {!response}.

    [held] (default empty) is the set of digests the client advertises
    already holding: the shared dictionary's digest unlocks the
    shared-dictionary codecs, and the digest of a previously fetched
    program unlocks the delta update channel against that base. Each
    unlocked representation competes on its actual patch/artifact
    bytes; the contexted serve is verified by decoding against the
    same context the client will use, and a failing one is
    quarantined per context. @raise Not_found for unknown digests. *)

val open_session : t -> string -> Session.t
(** Start a streaming chunked session for a paging client. *)

val open_session_for :
  t -> codec:string -> string ->
  (Session.t, [ `Unknown_codec of string | `Not_streamable of string ]) result
(** As {!open_session}, but over a client-named codec. The registry's
    [streamable] flag is honored: a codec that is not registered
    streamable is refused with a typed error instead of opening a
    session it cannot serve. [`Unknown_codec] covers names the registry
    has never seen.
    @raise Not_found for unknown digests. *)

val session_request :
  t -> Session.t -> seq:int -> string -> (string, string) result
(** {!Session.request} with engine-level request accounting — every
    chunk request (including a resume retry) is a request. *)

val report : t -> Stats.report
