type code = { lengths : int array }

(* --- tree construction ------------------------------------------------ *)

type node =
  | Leaf of int                 (* symbol *)
  | Node of node * node

let build_tree freqs =
  (* min-heap on (freq, tiebreak, node); tiebreak keeps construction
     deterministic across runs. *)
  let cmp (f1, t1, _) (f2, t2, _) =
    if f1 <> f2 then compare f2 f1 else compare t2 t1
  in
  let h = Support.Heap.create ~cmp in
  let tie = ref 0 in
  Array.iteri
    (fun sym f ->
      if f > 0 then begin
        Support.Heap.push h (f, !tie, Leaf sym);
        incr tie
      end)
    freqs;
  if Support.Heap.is_empty h then None
  else begin
    while Support.Heap.length h > 1 do
      let f1, _, n1 = Support.Heap.pop_exn h in
      let f2, _, n2 = Support.Heap.pop_exn h in
      Support.Heap.push h (f1 + f2, !tie, Node (n1, n2));
      incr tie
    done;
    let _, _, root = Support.Heap.pop_exn h in
    Some root
  end

let rec fill_lengths lengths depth = function
  | Leaf sym -> lengths.(sym) <- max 1 depth
  | Node (l, r) ->
    fill_lengths lengths (depth + 1) l;
    fill_lengths lengths (depth + 1) r

let lengths_of_freqs ?(max_len = 15) freqs =
  let n = Array.length freqs in
  let rec attempt freqs =
    let lengths = Array.make n 0 in
    (match build_tree freqs with
    | None -> ()
    | Some root -> fill_lengths lengths 0 root);
    let deepest = Array.fold_left max 0 lengths in
    if deepest <= max_len then { lengths }
    else
      (* Flatten the distribution and retry; converges because all
         frequencies tend to 1, giving a balanced tree of depth
         ceil(log2 n) <= max_len for any realistic alphabet. *)
      attempt (Array.map (fun f -> if f = 0 then 0 else (f + 1) / 2) freqs)
  in
  attempt freqs

(* --- canonical code assignment ---------------------------------------- *)

let canonical_codes { lengths } =
  let n = Array.length lengths in
  let max_len = Array.fold_left max 0 lengths in
  let bl_count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then bl_count.(l) <- bl_count.(l) + 1) lengths;
  let next_code = Array.make (max_len + 2) 0 in
  let code = ref 0 in
  for bits = 1 to max_len do
    code := (!code + bl_count.(bits - 1)) lsl 1;
    next_code.(bits) <- !code
  done;
  let codes = Array.make n 0 in
  for sym = 0 to n - 1 do
    let l = lengths.(sym) in
    if l > 0 then begin
      codes.(sym) <- next_code.(l);
      next_code.(l) <- next_code.(l) + 1
    end
  done;
  codes

(* --- encoder / decoder ------------------------------------------------- *)

(* [bit_reverse v n] reverses the low [n] bits of [v]. The bit stream is
   LSB-first within bytes (DEFLATE convention), so writing the reversed
   code LSB-first emits exactly the same bit sequence as writing the
   canonical code MSB-first — one [put_bits] call instead of a loop of
   [put_bit], and the key that lets the decoder index a flat table with
   an LSB-first peek. *)
let bit_reverse v n =
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 1) lor ((v lsr i) land 1)
  done;
  !r

type encoder = {
  enc_lengths : int array;
  enc_codes : int array;
  enc_rev : int array;          (* bit-reversed codes, for LSB-first emit *)
}

(* Root-table entries pack (symbol lsl 5) lor length; length >= 1 for
   any real codeword, so 0 marks "longer than the root or invalid" and
   routes to the bit-at-a-time fallback. *)
let root_bits_cap = 10

type decoder = {
  (* canonical decode tables indexed by length *)
  first_code : int array;       (* smallest code of each length *)
  first_index : int array;      (* index into sorted_syms of that code *)
  counts : int array;           (* number of codes of each length *)
  sorted_syms : int array;      (* symbols sorted by (length, code) *)
  dec_max_len : int;
  root_bits : int;              (* table index width, min(max_len, cap) *)
  root_table : int array;       (* 2^root_bits packed entries *)
}

let make_encoder c =
  let codes = canonical_codes c in
  let rev = Array.mapi (fun sym cd -> bit_reverse cd c.lengths.(sym)) codes in
  { enc_lengths = c.lengths; enc_codes = codes; enc_rev = rev }

let make_decoder ({ lengths } as c) =
  let max_len = Array.fold_left max 0 lengths in
  let counts = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then counts.(l) <- counts.(l) + 1) lengths;
  let codes = canonical_codes c in
  (* sort symbols by (length, code) *)
  let syms =
    Array.to_list lengths
    |> List.mapi (fun s l -> (s, l))
    |> List.filter (fun (_, l) -> l > 0)
    |> List.sort (fun (s1, l1) (s2, l2) ->
           if l1 <> l2 then compare l1 l2 else compare codes.(s1) codes.(s2))
    |> List.map fst
    |> Array.of_list
  in
  let first_code = Array.make (max_len + 1) 0 in
  let first_index = Array.make (max_len + 1) 0 in
  let idx = ref 0 in
  let code = ref 0 in
  for l = 1 to max_len do
    code := (!code + if l = 1 then 0 else counts.(l - 1)) lsl 1;
    (* recompute canonical first code of length l *)
    first_code.(l) <- !code;
    first_index.(l) <- !idx;
    idx := !idx + counts.(l)
  done;
  (* Flat lookup table over the next [root_bits] bits of the stream
     (LSB-first, as peeked). A codeword of length l <= root_bits owns
     every table slot whose low l bits are its reversed code; slots left
     at 0 (longer codewords, or bit patterns outside the code) fall back
     to the canonical bit-at-a-time walk. *)
  let root_bits = min max_len root_bits_cap in
  let root_table = Array.make (1 lsl root_bits) 0 in
  Array.iteri
    (fun sym l ->
      if l > 0 && l <= root_bits then begin
        let rev = bit_reverse codes.(sym) l in
        let fillers = 1 lsl (root_bits - l) in
        for j = 0 to fillers - 1 do
          root_table.(rev lor (j lsl l)) <- (sym lsl 5) lor l
        done
      end)
    lengths;
  { first_code; first_index; counts; sorted_syms = syms;
    dec_max_len = max_len; root_bits; root_table }

let encode_symbol e w sym =
  let l = e.enc_lengths.(sym) in
  if l = 0 then invalid_arg "Huffman.encode_symbol: symbol has no code";
  Support.Bitio.Writer.put_bits w e.enc_rev.(sym) l

let hfail r kind msg =
  Support.Decode_error.fail ~decoder:"huffman" ~kind
    ~pos:(Support.Bitio.Reader.bit_position r / 8)
    msg

(* Canonical bit-at-a-time decode: the fallback for codewords longer
   than the root table, near-end-of-stream probes, and corrupt input
   (where it owns the exact error positions and messages). *)
let decode_symbol_slow d r =
  let code = ref 0 in
  let len = ref 0 in
  let result = ref (-1) in
  while !result < 0 do
    if Support.Bitio.Reader.bits_remaining r = 0 then
      hfail r Support.Decode_error.Truncated "input ends mid-codeword";
    code := (!code lsl 1) lor Support.Bitio.Reader.get_bit r;
    incr len;
    if !len > d.dec_max_len then
      hfail r Support.Decode_error.Bad_value "no codeword of any valid length";
    let c = d.counts.(!len) in
    if c > 0 && !code - d.first_code.(!len) < c && !code >= d.first_code.(!len)
    then result := d.sorted_syms.(d.first_index.(!len) + (!code - d.first_code.(!len)))
  done;
  !result

let decode_symbol d r =
  (* Peek a full table index (zero-padded past end of input); the entry,
     when present, names the unique codeword that is a prefix of those
     bits. The prefix property makes the fallback safe: if the matched
     length overruns the real input, no shorter codeword could have
     matched either, so the slow path correctly reports truncation. *)
  let idx = Support.Bitio.Reader.peek_bits r d.root_bits in
  let entry = Array.unsafe_get d.root_table idx in
  if entry <> 0 then begin
    let l = entry land 31 in
    if l <= Support.Bitio.Reader.bits_remaining r then begin
      Support.Bitio.Reader.advance_bits r l;
      entry lsr 5
    end
    else decode_symbol_slow d r
  end
  else decode_symbol_slow d r

(* --- length-table serialization ---------------------------------------- *)

let write_lengths w { lengths } =
  let n = Array.length lengths in
  Support.Bitio.Writer.put_bits w n 16;
  Array.iter (fun l -> Support.Bitio.Writer.put_bits w l 5) lengths

let read_lengths r =
  let n = Support.Bitio.Reader.get_bits r 16 in
  if n * 5 > Support.Bitio.Reader.bits_remaining r then
    hfail r Support.Decode_error.Truncated
      (Printf.sprintf "length table of %d entries exceeds remaining input" n);
  let lengths = Array.init n (fun _ -> Support.Bitio.Reader.get_bits r 5) in
  { lengths }

let cost_bits { lengths } freqs =
  let total = ref 0 in
  Array.iteri
    (fun sym f -> if f > 0 then total := !total + (f * lengths.(sym)))
    freqs;
  !total

(* --- whole-stream API ---------------------------------------------------- *)

let encode_all syms ~alphabet =
  let freqs = Array.make alphabet 0 in
  Array.iter (fun s -> freqs.(s) <- freqs.(s) + 1) syms;
  let code = lengths_of_freqs freqs in
  let w = Support.Bitio.Writer.create () in
  Support.Bitio.Writer.put_bits w (Array.length syms) 32;
  write_lengths w code;
  let e = make_encoder code in
  Array.iter (fun s -> encode_symbol e w s) syms;
  Support.Bitio.Writer.contents w

let decode_all_exn bytes =
  let r = Support.Bitio.Reader.of_bytes bytes in
  if Support.Bitio.Reader.bits_remaining r < 32 then
    hfail r Support.Decode_error.Truncated "missing symbol count";
  let count = Support.Bitio.Reader.get_bits r 32 in
  let code = read_lengths r in
  (* every symbol costs at least one bit, so a count beyond the remaining
     bit budget is corrupt — reject before allocating the result *)
  if count > Support.Bitio.Reader.bits_remaining r then
    hfail r Support.Decode_error.Limit
      (Printf.sprintf "symbol count %d exceeds remaining input" count);
  if count = 0 then [||]
  else begin
    let d = make_decoder code in
    let out = Array.make count 0 in
    for i = 0 to count - 1 do
      out.(i) <- decode_symbol d r
    done;
    out
  end

let decode_all bytes =
  Support.Decode_error.guard ~decoder:"huffman" (fun () -> decode_all_exn bytes)
