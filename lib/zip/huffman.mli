(** Canonical Huffman coding over integer symbol alphabets [0, n).

    Code lengths are computed from symbol frequencies (optionally
    length-limited by frequency flattening), then canonical codes are
    assigned so that a decoder can be rebuilt from the lengths alone.
    Codes are written MSB-first, the standard canonical convention. *)

type code = { lengths : int array }
(** [lengths.(sym)] is the code length in bits; 0 means the symbol does
    not occur and has no code. *)

val lengths_of_freqs : ?max_len:int -> int array -> code
(** Package-merge-free construction: builds a Huffman tree over the
    non-zero-frequency symbols. If the resulting depth exceeds [max_len]
    (default 15), frequencies are repeatedly halved (rounding up) and the
    tree rebuilt, which bounds the depth with negligible size loss.
    A single-symbol alphabet gets a 1-bit code. *)

val canonical_codes : code -> int array
(** [codes.(sym)] is the canonical codeword (MSB-first) of length
    [lengths.(sym)]. Symbols with length 0 map to 0 and must not be
    encoded. *)

type encoder
type decoder

val make_encoder : code -> encoder
val make_decoder : code -> decoder

val encode_symbol : encoder -> Support.Bitio.Writer.t -> int -> unit
(** Single [put_bits] of the precomputed bit-reversed code (the bit
    stream is LSB-first within bytes, so this emits the canonical code
    MSB-first). @raise Invalid_argument if the symbol has no code. *)

val decode_symbol : decoder -> Support.Bitio.Reader.t -> int
(** Table-driven: peeks up to 10 bits and resolves codewords of that
    length or shorter in one lookup; longer codewords, near-end probes
    and corrupt input fall back to the canonical bit-at-a-time walk.
    @raise Support.Decode_error.Fail on a code not in the table or input
    ending mid-codeword; callers decoding untrusted bytes run under
    {!Support.Decode_error.guard}. *)

val decode_symbol_slow : decoder -> Support.Bitio.Reader.t -> int
(** The bit-at-a-time decode path on its own; the oracle for
    differential tests against the table-driven {!decode_symbol}. *)

val write_lengths : Support.Bitio.Writer.t -> code -> unit
(** Serialize the length table: the alphabet size in 16 bits, then 5
    bits per length. Enough for the decoder to reconstruct the
    canonical code. *)

val read_lengths : Support.Bitio.Reader.t -> code

val cost_bits : code -> int array -> int
(** [cost_bits code freqs] is the total encoded size in bits of a stream
    with the given per-symbol frequencies. *)

val encode_all : int array -> alphabet:int -> Bytes.t
(** Frequency-count the input, build a code, and serialize the symbol
    count (32 bits), the length table and the symbols into one
    self-contained byte string. Symbols must lie in [0, alphabet). *)

val decode_all : Bytes.t -> (int array, Support.Decode_error.t) result
(** Total inverse of {!encode_all}: symbol counts and length tables are
    validated against the remaining input before any allocation. *)

val decode_all_exn : Bytes.t -> int array
(** As {!decode_all} but raises {!Support.Decode_error.Fail}; for
    trusted inputs and decoders that already run under
    {!Support.Decode_error.guard}. *)
