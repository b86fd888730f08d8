(** Binary-renormalizing range coder with adaptive frequency models.

    The paper's design-space section (§2) contrasts byte codes with
    arithmetic codes, which "compress better by coding for sequences
    longer than individual symbols, but complicate direct interpretation".
    This module provides that end of the design space so the wire-format
    ablation benches can measure the gap. *)

module Model : sig
  type t
  (** Adaptive frequency model over a fixed alphabet, with add-one
      initialization and periodic halving to stay within the coder's
      total-frequency bound. *)

  val create : int -> t
  (** [create n] models symbols in [0, n). *)

  val update : t -> int -> unit

  val cum_below : t -> int -> int
  (** Cumulative frequency of all symbols below the argument; O(log n)
      via a Fenwick tree over the frequency array. *)

  val find : t -> int -> int * int
  (** [find m target] is the symbol whose cumulative interval contains
      [target], paired with its cumulative base; O(log n). *)

  val freq : t -> int -> int
  val total : t -> int
end

val context_slots : int
(** Number of context slots in a {!bank} (4096): the range of
    {!ctx_hash}, not a count of models built. *)

val ctx_hash : int -> int array -> int
(** [ctx_hash order history] maps the previous [order] bytes
    ([history.(0)] most recent) to a slot in [0, context_slots);
    order 0 maps to slot 0. Shared with {!Lza} so its literal contexts
    match the order-N compressor's. *)

val bank : int -> int -> Model.t
(** [bank n] is a fresh bank of [context_slots] models over [n]
    symbols; applying it to a slot in [0, context_slots) returns that
    slot's model, created by [Model.create n] on the first lookup. A
    model created late starts in the state an eagerly built, untouched
    one would have, so coded bytes do not depend on it; a call pays
    only for the contexts it uses. Build one bank per encode or decode:
    banks are not shared. Raises [Invalid_argument] on a slot outside
    [0, context_slots). *)

type encoder

val encoder : unit -> encoder
val encode : encoder -> Model.t -> int -> unit
(** Encode a symbol under the model's current statistics; the caller is
    responsible for calling [Model.update] afterwards (so encoder and
    decoder stay in lock-step). *)

val finish : encoder -> string

type decoder

val decoder : string -> decoder
val decode : decoder -> Model.t -> int

val compress_order_n : order:int -> string -> string
(** Whole-string convenience: order-[order] context-mixed byte model
    (contexts hash the previous [order] bytes), adaptive. *)

val decompress_order_n :
  ?max_output:int -> order:int -> string -> (string, Support.Decode_error.t) result
(** Total inverse of {!compress_order_n}: the declared output length is
    checked against [max_output] (default 64 MB) before any proportional
    allocation, and header defects yield typed errors.
    @raise Invalid_argument if [order] itself (a caller parameter, not
    input data) is outside [0, 3]. *)

val decompress_order_n_exn : ?max_output:int -> order:int -> string -> string
(** As {!decompress_order_n} but raises {!Support.Decode_error.Fail};
    for trusted inputs. *)
