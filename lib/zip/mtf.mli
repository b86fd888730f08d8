(** Move-to-front coding over dense symbol ids.

    The paper's wire format MTF-codes each literal stream before Huffman
    coding (§3 step 3). Following the paper, index 0 is reserved for
    "symbol not seen previously": the first occurrence of a symbol emits 0
    and the symbol itself is recovered from a side table of first
    occurrences, so no MTF table needs to be transmitted.

    Callers intern their symbols first ({!intern_hashed}): ids are
    assigned by first occurrence, so the k-th distinct symbol to appear
    is k, and the novel table is the distinct symbols in id order. The
    coder is an array sliding table over those ids (flat int scans and
    overlapping blits, no allocation per symbol); the original
    linked-list coder is the oracle of the differential tests in
    [test/test_zip.ml]. *)

val intern_hashed :
  hash:('a -> int) -> eq:('a -> 'a -> bool) -> 'a list ->
  int array * 'a list
(** Dense first-occurrence ids for the input (the k-th distinct symbol
    to appear gets id k), plus the distinct symbols in id order: the
    novel table the wire format transmits. [hash] must agree with [eq]
    (equal symbols hash equal). *)

val encode_ids : int array -> int array
(** MTF indices for a dense first-occurrence id stream. An index
    [i >= 1] refers to the symbol at (1-based) position [i] of the
    current table; 0 introduces the next novel symbol. *)

val decode_ids : ?max_novel:int -> int array -> int array
(** Inverse of {!encode_ids}: [decode_ids (encode_ids ids) = ids]. A
    negative or out-of-range index is rejected, and so, with
    [max_novel], is an index stream that introduces more than
    [max_novel] novel symbols ("novel list exhausted").
    @raise Support.Decode_error.Fail on malformed input, at the element
    position of the defect; untrusted streams decode under
    {!Support.Decode_error.guard}. *)
