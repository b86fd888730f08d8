(** The versioned fleet-trace format ([mcc-trace 1]).

    A trace is the replayable record of a fleet's request stream: per
    event a monotonic timestamp, the issuing client and its profile, the
    operation kind, the catalog key of the program it wants, and an
    optional fault directive (a {!Support.Fault} kind plus its PRNG
    seed) injected into the serving cache just before the event runs.

    Line-based text:

    {v
    mcc-trace 1
    meta scenario steady
    meta catalog quick
    meta seed 42
    ev 0 c0 modem-jit fetch wc
    ev 14 c3 embedded stream gen12
    ev 15 c1 lan-jit fetch sieve fault bit-flip 77331
    v}

    Blank lines and [#] comments are ignored. The reader is total:
    hostile bytes surface as typed {!Support.Decode_error} values
    (never exceptions), with the failing line number as the error
    position. *)

type op =
  | Fetch   (** whole-image request *)
  | Stream  (** chunked session: handshake on first touch, then chunks *)
  | Resume  (** retransmit of the last served chunk (dropped response) *)
  | Update
      (** upgrade fetch: the client asks for the key's current version
          while advertising what it already holds (the shared
          dictionary and, when it fetched one earlier in the trace, the
          key's old version) — the delta update channel's request *)

val op_name : op -> string
val op_of_name : string -> op option

type fault = {
  fkind : Support.Fault.kind;
  fseed : int64;  (** seeds the mutation PRNG, so the damage is reproducible *)
}

type event = {
  t_ms : int;          (** milliseconds since trace start; non-decreasing *)
  client : string;     (** stable client id, e.g. [c7] *)
  profile : string;    (** client profile name, e.g. [modem-jit] *)
  op : op;
  key : string;        (** catalog program name, e.g. [qsort] *)
  fault : fault option;
      (** applied to the key's cached artifacts before the op runs *)
}

type t = {
  scenario : string;   (** generator name, e.g. [steady] *)
  catalog : string;    (** catalog flavor the trace was cut against *)
  seed : int64;        (** generator seed, for provenance *)
  events : event list; (** in timestamp order *)
}

val to_string : t -> string

val default_max_events : int
(** Reader allocation cap (200k events). *)

val of_string : ?max_events:int -> string -> (t, Support.Decode_error.t) result
(** Total reader. Checks: the version header, meta syntax, field
    arity, timestamp monotonicity, known op and fault-kind names,
    integer fields in range, and the [max_events] cap. *)

val save : string -> t -> unit
val load : ?max_events:int -> string -> (t, Support.Decode_error.t) result
(** [load path] reads and parses; an unreadable file surfaces as a
    typed error, not an exception. *)

val fault_kind_of_name : string -> Support.Fault.kind option
