(* LZ77 tokens under an adaptive range coder — the "-opt" end of the
   wire format's final-stage design space.

   The plain order-2 range stage ({!Range_coder.compress_order_n})
   models every byte in context but cannot exploit repeats longer than
   its context; deflate exploits repeats but charges whole-bit Huffman
   codewords. This stage combines them: a bit-optimal LZ77 parse
   (shortest path under estimated range-model costs, {!Lz77.Optimal})
   factors the input, then one adaptive range-coded stream carries the
   tokens — a literal/match flag, literals under the order-2 context
   model (same context hash as the order-N compressor, fed by every
   output byte including match copies, so contexts never desynchronize),
   and match length/distance classes under their own adaptive models
   with the RFC 1951 extra bits sent raw.

   The parse cannot know the adaptive models' exact future state, so
   edge costs are estimated: token-class frequencies from a seed parse
   turned into -log2 probabilities (in {!Lz77.cost_scale}ths of a bit),
   iterated once so the estimate tracks the parse it produced. *)

let order = 2

(* token stream alphabets *)
let flag_lit = 0
let flag_match = 1

(* ---- cost estimation for the optimal parse ---- *)

let log2 = log 2.0

(* -log2(f/total) in cost_scale-ths of a bit, floored at one sixteenth
   so no edge is ever free *)
let est_bits ~total f =
  max 1
    (int_of_float
       (Float.round
          (float_of_int Lz77.cost_scale *. log (float_of_int total /. float_of_int f)
          /. log2)))

let cost_model_of_tokens tokens =
  let lit_freq = Array.make 256 1 in
  let len_freq = Array.make (Array.length Deflate.length_base) 1 in
  let dist_freq = Array.make (Array.length Deflate.dist_base) 1 in
  let lits = ref 1 and matches = ref 1 in
  List.iter
    (fun t ->
      match t with
      | Lz77.Literal b ->
        incr lits;
        lit_freq.(b) <- lit_freq.(b) + 1
      | Lz77.Match { length; dist } ->
        incr matches;
        let lc = Deflate.length_class length in
        len_freq.(lc) <- len_freq.(lc) + 1;
        let dc = Deflate.dist_class dist in
        dist_freq.(dc) <- dist_freq.(dc) + 1)
    tokens;
  let flag_total = !lits + !matches in
  let lit_total = Array.fold_left ( + ) 0 lit_freq in
  let len_total = Array.fold_left ( + ) 0 len_freq in
  let dist_total = Array.fold_left ( + ) 0 dist_freq in
  let flag_lit_bits = est_bits ~total:flag_total !lits in
  let flag_match_bits = est_bits ~total:flag_total !matches in
  let sc = Lz77.cost_scale in
  {
    Lz77.literal_cost =
      (fun b -> flag_lit_bits + est_bits ~total:lit_total lit_freq.(b));
    match_cost =
      (fun ~length ~dist ->
        let lc = Deflate.length_class length in
        let dc = Deflate.dist_class dist in
        flag_match_bits
        + est_bits ~total:len_total len_freq.(lc)
        + (sc * Deflate.length_extra.(lc))
        + est_bits ~total:dist_total dist_freq.(dc)
        + (sc * Deflate.dist_extra.(dc)));
  }

let tokenize_opt ?(iterations = 2) s =
  let rec go tokens k =
    if k = 0 then tokens
    else
      go
        (Lz77.tokenize ~strategy:(Lz77.Optimal (cost_model_of_tokens tokens)) s)
        (k - 1)
  in
  go (Lz77.tokenize s) (max 1 iterations)

(* ---- encoding ---- *)

let push_history history b =
  for i = order - 1 downto 1 do
    history.(i) <- history.(i - 1)
  done;
  history.(0) <- b

(* extra bits ride on a frequency-1/1 model that is never updated:
   exactly one bit each, MSB first *)
let encode_raw_bits e ubit v bits =
  for k = bits - 1 downto 0 do
    Range_coder.encode e ubit ((v lsr k) land 1)
  done

let compress s =
  let tokens = tokenize_opt s in
  let flag = Range_coder.Model.create 2 in
  let lit = Range_coder.bank 256 in
  let len_m = Range_coder.Model.create (Array.length Deflate.length_base) in
  let dist_m = Range_coder.Model.create (Array.length Deflate.dist_base) in
  let ubit = Range_coder.Model.create 2 in
  let history = Array.make order 0 in
  let e = Range_coder.encoder () in
  let pos = ref 0 in
  List.iter
    (fun t ->
      match t with
      | Lz77.Literal b ->
        Range_coder.encode e flag flag_lit;
        Range_coder.Model.update flag flag_lit;
        let m = lit (Range_coder.ctx_hash order history) in
        Range_coder.encode e m b;
        Range_coder.Model.update m b;
        push_history history b;
        incr pos
      | Lz77.Match { length; dist } ->
        Range_coder.encode e flag flag_match;
        Range_coder.Model.update flag flag_match;
        let lc = Deflate.length_class length in
        Range_coder.encode e len_m lc;
        Range_coder.Model.update len_m lc;
        encode_raw_bits e ubit
          (length - Deflate.length_base.(lc))
          Deflate.length_extra.(lc);
        let dc = Deflate.dist_class dist in
        Range_coder.encode e dist_m dc;
        Range_coder.Model.update dist_m dc;
        encode_raw_bits e ubit (dist - Deflate.dist_base.(dc))
          Deflate.dist_extra.(dc);
        (* the decoder's history advances over every copied byte; the
           encoder has them in the source *)
        for k = !pos to !pos + length - 1 do
          push_history history (Char.code s.[k])
        done;
        pos := !pos + length)
    tokens;
  let body = Range_coder.finish e in
  let hdr = Buffer.create 8 in
  Support.Util.uleb128 hdr (String.length s);
  Buffer.contents hdr ^ body

(* ---- decoding ---- *)

let default_max_output = 1 lsl 26

let decompress_exn ?(max_output = default_max_output) z =
  let pos = ref 0 in
  let fail kind msg =
    Support.Decode_error.fail ~decoder:"lza" ~kind ~pos:!pos msg
  in
  let n = Support.Util.read_uleb128 z pos in
  if n > max_output then
    fail Support.Decode_error.Limit
      (Printf.sprintf "declared length %d exceeds cap %d" n max_output);
  let flag = Range_coder.Model.create 2 in
  let lit = Range_coder.bank 256 in
  let len_m = Range_coder.Model.create (Array.length Deflate.length_base) in
  let dist_m = Range_coder.Model.create (Array.length Deflate.dist_base) in
  let ubit = Range_coder.Model.create 2 in
  let history = Array.make order 0 in
  let d = Range_coder.decoder (String.sub z !pos (String.length z - !pos)) in
  let raw_bits bits =
    let v = ref 0 in
    for _ = 1 to bits do
      v := (!v lsl 1) lor Range_coder.decode d ubit
    done;
    !v
  in
  (* adaptive coding can pack a symbol into under a bit, so [n] cannot
     be bounded by the input length; every loop below is bounded by [n]
     and every iteration writes at least one byte, so decode is total *)
  let buf = Bytes.create n in
  let out = ref 0 in
  while !out < n do
    let f = Range_coder.decode d flag in
    Range_coder.Model.update flag f;
    if f = flag_lit then begin
      let m = lit (Range_coder.ctx_hash order history) in
      let b = Range_coder.decode d m in
      Range_coder.Model.update m b;
      Bytes.set buf !out (Char.chr b);
      push_history history b;
      incr out
    end
    else begin
      let lc = Range_coder.decode d len_m in
      Range_coder.Model.update len_m lc;
      let length = Deflate.length_base.(lc) + raw_bits Deflate.length_extra.(lc) in
      let dc = Range_coder.decode d dist_m in
      Range_coder.Model.update dist_m dc;
      let dist = Deflate.dist_base.(dc) + raw_bits Deflate.dist_extra.(dc) in
      if dist > !out then
        fail Support.Decode_error.Bad_value
          (Printf.sprintf "distance %d before start of output" dist);
      if length > n - !out then
        fail Support.Decode_error.Inconsistent
          (Printf.sprintf "match of %d bytes exceeds declared length" length);
      for _ = 1 to length do
        let b = Char.code (Bytes.get buf (!out - dist)) in
        Bytes.set buf !out (Char.chr b);
        push_history history b;
        incr out
      done
    end
  done;
  Bytes.unsafe_to_string buf

let decompress ?max_output z =
  Support.Decode_error.guard ~decoder:"lza" (fun () ->
      decompress_exn ?max_output z)
