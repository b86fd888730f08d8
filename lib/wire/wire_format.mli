(** The paper's wire format (§3), end to end:

    1. compile the program into trees (done upstream by [Cc]);
    2. patternize: replace every literal with a wildcard, producing one
       stream of statement patterns and one stream of literal values per
       operator class;
    3. move-to-front code each stream in isolation (index 0 = first
       occurrence; the novel symbols travel in first-occurrence tables,
       so no MTF table is transmitted);
    4. Huffman-code the MTF indices;
    5. concatenate everything and deflate ("gzip") the bundle.

    [decompress] inverts the pipeline exactly: the reconstructed program
    is structurally equal to the input, which the test suite checks on
    the whole corpus. *)

type final_stage =
  | Deflate          (** the paper's gzip stage (default) *)
  | Arith of int     (** order-N adaptive range coder, N in 0..3 — the
                         §2 design-space alternative: better ratios on
                         some inputs, but strictly sequential decode *)
  | Lz_arith         (** bit-optimal LZ77 parse + range-coded tokens
                         ({!Zip.Lza}): the ratio-maximal corner of the
                         design space, slowest to encode *)
  | Shared_deflate of string
      (** deflate whose LZ77 window is primed with a pre-agreed shared
          dictionary (the carried bytes). Only a 4-byte CRC of the
          dictionary travels on the wire (tag ['S']); decode must be
          given the same bytes or it fails with a typed error. *)

val compress :
  ?pool:Support.Pool.t ->
  ?use_mtf:bool ->
  ?split_streams:bool ->
  ?final_stage:final_stage ->
  Ir.Tree.program ->
  string
(** [use_mtf:false] (ablation) Huffman-codes first-occurrence indices
    without move-to-front. [split_streams:false] (ablation) pools all
    literal classes into one stream. Defaults are the paper's pipeline.
    The chosen [final_stage] is recorded in the output, so
    {!decompress} needs no flags. With [pool], the independent streams
    are entropy-coded in parallel; output is byte-identical either
    way. *)

val decompress :
  ?dict:string -> string -> (Ir.Tree.program, Support.Decode_error.t) result
(** Total inverse of {!compress}. Corrupt input or flag mismatch (the
    bundle records which ablation switches produced it) yields a typed
    [Error]; the CRC frame is checked before the bundle is parsed, and
    every count field is validated against the remaining input before
    allocation. [dict] is required (same bytes) iff the stream was
    produced with [Shared_deflate]; an absent or wrong dictionary is a
    typed [Error]. *)

val decompress_exn : ?dict:string -> string -> Ir.Tree.program
(** As {!decompress} but raises {!Support.Decode_error.Fail}; for
    trusted inputs (e.g. bytes this process just compressed). *)

(** {2 Staged pipeline}

    The same transform split at its stage boundaries, so the codec
    layer can time and size each stage independently. Composing them —
    [seal (apply_final_stage st (bundle_of_patternized (patternize p)))]
    — produces exactly the bytes of {!compress}. *)

type patternized
(** Stage-1 output: statement shapes plus per-class literal streams
    (§3 step 2), before any entropy coding. *)

val patternize :
  ?use_mtf:bool -> ?split_streams:bool -> Ir.Tree.program -> patternized

val symbols : patternized -> int
(** Symbols (patterns + literals) the stage emitted; the stage's output
    size for the trace, since nothing is byte-serialized yet. *)

val bundle_of_patternized : ?pool:Support.Pool.t -> patternized -> string
(** Stage 2: MTF + Huffman each stream and serialize the bundle
    (magic, flags, globals, headers, streams). The streams are
    independent: with [pool] they are coded concurrently and joined in
    wire order, so the bytes never depend on scheduling. *)

val apply_final_stage : final_stage -> string -> string
(** Stage 3: entropy-code the bundle, prefixed with the stage tag
    ([D], [A<order>], [L] or [S]) so decode needs no flags beyond the
    out-of-band dictionary the [S] tag's CRC pins. *)

val unwrap_final_stage_exn : ?dict:string -> string -> string
(** Inverse of {!apply_final_stage} on the body behind the CRC seal.
    [dict] is consulted only by the ['S'] stage, which fails with a
    typed error when it is absent or its CRC does not match. *)

val program_of_bundle_exn : string -> Ir.Tree.program
(** Inverse of {!bundle_of_patternized}∘{!patternize}. *)

type stats = {
  wire_bytes : int;           (** sealed image, [Deflate] final stage *)
  bundle_bytes : int;         (** before it: header + the segments below *)
  header_bytes : int;
      (** magic, flags, globals, function headers, literal-stream count *)
  pattern_count : int;        (** statements in the program *)
  distinct_patterns : int;
  pattern_stream_bytes : int; (** Huffman-coded pattern indices *)
  novel_table_bytes : int;    (** novel-pattern count and encodings *)
  literal_stream_bytes : (string * int) list;
      (** per literal segment: class key, Huffman-coded indices and novel
          values *)
}

val stats : patternized -> stats
(** Where the bytes of a patternized program's encoding go, measured on
    the segments {!bundle_of_patternized} writes for it, so they describe
    the ablation flags it was patternized under: [wire_bytes] is the
    length of {!compress} with the same flags. *)
