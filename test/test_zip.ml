(* Tests for the compression substrate: MTF, Huffman, LZ77/Deflate and
   the range coder. *)

let qcheck = QCheck_alcotest.to_alcotest

(* ---- MTF ---- *)

(* The original linked-list coder (an O(n) [List.filter] per symbol),
   kept verbatim as the oracle for the differential properties below.
   It codes a symbol list into one index per symbol (0 = first
   occurrence) plus the novel symbols in order of first appearance. *)
module Mtf_reference = struct
  let fail ~pos kind msg =
    Support.Decode_error.fail ~decoder:"mtf" ~kind ~pos msg

  let encode ~eq xs =
    (* The table is a list with the most recently used symbol first. *)
    let table = ref [] in
    let novel = ref [] in
    let index_of x =
      let rec go i = function
        | [] -> None
        | y :: rest -> if eq x y then Some i else go (i + 1) rest
      in
      go 1 !table
    in
    let emit x =
      match index_of x with
      | Some i ->
        (* move to front *)
        table := x :: List.filter (fun y -> not (eq x y)) !table;
        i
      | None ->
        novel := x :: !novel;
        table := x :: !table;
        0
    in
    let indices = List.map emit xs in
    (indices, List.rev !novel)

  (* [pos] below is the element index of the offending MTF index, which is
     the most useful "position" for a symbol-stream decoder. *)
  let decode_exn (indices, novel) =
    let table = ref [] in
    let table_len = ref 0 in
    let pending = ref novel in
    let emit pos i =
      if i < 0 then
        fail ~pos Support.Decode_error.Bad_value
          (Printf.sprintf "negative index %d" i)
      else if i = 0 then begin
        match !pending with
        | [] ->
          fail ~pos Support.Decode_error.Inconsistent "novel list exhausted"
        | x :: rest ->
          pending := rest;
          table := x :: !table;
          incr table_len;
          x
      end
      else if i > !table_len then
        fail ~pos Support.Decode_error.Bad_value
          (Printf.sprintf "index %d exceeds table of %d" i !table_len)
      else begin
        let x = List.nth !table (i - 1) in
        table := x :: List.filteri (fun j _ -> j <> i - 1) !table;
        x
      end
    in
    List.mapi emit indices
end

(* The stream path the wire format runs: intern to dense
   first-occurrence ids, then MTF-code the ids; decoding maps the
   decoded ids back through the novel table. *)
let mtf_encode ?(hash = Hashtbl.hash) ~eq xs =
  let ids, novel = Zip.Mtf.intern_hashed ~hash ~eq xs in
  (Zip.Mtf.encode_ids ids, novel)

let mtf_decode (indices, novel) =
  let novel = Array.of_list novel in
  Zip.Mtf.decode_ids ~max_novel:(Array.length novel) indices
  |> Array.map (fun id -> novel.(id))
  |> Array.to_list

let mtf_ints xs = mtf_encode ~hash:Fun.id ~eq:Int.equal xs

let test_mtf_paper_example () =
  (* §3 of the paper: ADDRLP8 stream [72 72 68 72 68 68 68 68] MTF-codes
     to [0 1 0 2 2 1 1 1] with 0 meaning "not seen previously". *)
  let xs = [ 72; 72; 68; 72; 68; 68; 68; 68 ] in
  let ((indices, novel) as e) = mtf_ints xs in
  Alcotest.(check (array int)) "indices" [| 0; 1; 0; 2; 2; 1; 1; 1 |] indices;
  Alcotest.(check (list int)) "novel" [ 72; 68 ] novel;
  Alcotest.(check (list int)) "decode" xs (mtf_decode e)

let test_mtf_empty () =
  let ((indices, _) as e) = mtf_ints [] in
  Alcotest.(check (array int)) "indices" [||] indices;
  Alcotest.(check (list int)) "decode" [] (mtf_decode e)

let test_mtf_all_same () =
  let indices, _ = mtf_ints [ 5; 5; 5; 5 ] in
  Alcotest.(check (array int)) "indices" [| 0; 1; 1; 1 |] indices

let test_mtf_locality_wins () =
  (* high-locality streams yield smaller average index than a round-robin
     of the same symbols *)
  let local, _ = mtf_ints [ 1; 1; 1; 2; 2; 2; 3; 3; 3 ] in
  let spread, _ = mtf_ints [ 1; 2; 3; 1; 2; 3; 1; 2; 3 ] in
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check bool) "locality smaller" true (sum local < sum spread)

let prop_mtf_roundtrip =
  QCheck.Test.make ~name:"mtf roundtrip" ~count:300
    QCheck.(list (int_bound 50))
    (fun xs -> mtf_decode (mtf_ints xs) = xs)

let prop_mtf_strings =
  QCheck.Test.make ~name:"mtf roundtrip over strings" ~count:100
    QCheck.(list (string_of_size (Gen.return 2)))
    (fun xs -> mtf_decode (mtf_encode ~eq:String.equal xs) = xs)

(* ---- MTF differentials: array engine vs the list oracle ---- *)

(* a constant hash puts every symbol in one bucket, so interning falls
   back to [eq] throughout *)
let prop_mtf_differential =
  QCheck.Test.make ~name:"mtf array vs Reference oracle" ~count:300
    QCheck.(list (int_bound 60))
    (fun xs ->
      let ((indices, novel) as a) = mtf_encode ~hash:(fun _ -> 0) ~eq:( = ) xs in
      let ((ref_indices, ref_novel) as b) = Mtf_reference.encode ~eq:( = ) xs in
      Array.to_list indices = ref_indices
      && novel = ref_novel
      && mtf_decode a = Mtf_reference.decode_exn b)

let prop_mtf_hashed_differential =
  QCheck.Test.make ~name:"mtf hashed vs Reference oracle" ~count:200
    QCheck.(list (string_of_size (Gen.int_range 0 3)))
    (fun xs ->
      let indices, novel = mtf_encode ~eq:String.equal xs in
      let ref_indices, ref_novel = Mtf_reference.encode ~eq:String.equal xs in
      Array.to_list indices = ref_indices && novel = ref_novel)

(* ---- Huffman ---- *)

let test_huffman_known_code () =
  (* frequencies 8,4,2,1,1 give code lengths 1,2,3,4,4 *)
  let code = Zip.Huffman.lengths_of_freqs [| 8; 4; 2; 1; 1 |] in
  Alcotest.(check (array int)) "lengths" [| 1; 2; 3; 4; 4 |]
    code.Zip.Huffman.lengths

let test_huffman_kraft () =
  (* code lengths satisfy Kraft equality for a complete code *)
  let code = Zip.Huffman.lengths_of_freqs [| 10; 9; 8; 7; 1; 1; 4; 2 |] in
  let k =
    Array.fold_left
      (fun acc l -> if l > 0 then acc +. (1.0 /. float_of_int (1 lsl l)) else acc)
      0.0 code.Zip.Huffman.lengths
  in
  Alcotest.(check (float 1e-9)) "kraft sum" 1.0 k

let test_huffman_single_symbol () =
  let enc = Zip.Huffman.encode_all [| 3; 3; 3; 3 |] ~alphabet:8 in
  Alcotest.(check (array int)) "decoded" [| 3; 3; 3; 3 |]
    (Zip.Huffman.decode_all_exn enc)

let test_huffman_empty () =
  let enc = Zip.Huffman.encode_all [||] ~alphabet:4 in
  Alcotest.(check (array int)) "decoded" [||] (Zip.Huffman.decode_all_exn enc)

let test_huffman_cost_bits () =
  let freqs = [| 3; 1 |] in
  let code = Zip.Huffman.lengths_of_freqs freqs in
  (* both symbols get 1-bit codes *)
  Alcotest.(check int) "cost" 4 (Zip.Huffman.cost_bits code freqs)

let test_huffman_optimality_vs_entropy () =
  (* Huffman cost is within 1 bit/symbol of the entropy bound *)
  let freqs = [| 50; 30; 10; 5; 3; 2 |] in
  let total = Array.fold_left ( + ) 0 freqs in
  let code = Zip.Huffman.lengths_of_freqs freqs in
  let cost = float_of_int (Zip.Huffman.cost_bits code freqs) in
  let entropy =
    Array.fold_left
      (fun acc f ->
        if f = 0 then acc
        else
          let p = float_of_int f /. float_of_int total in
          acc -. (float_of_int f *. (log p /. log 2.0)))
      0.0 freqs
  in
  Alcotest.(check bool) "near entropy" true
    (cost >= entropy && cost <= entropy +. float_of_int total)

let test_huffman_length_limit () =
  (* fibonacci-ish frequencies force deep trees; max_len must hold *)
  let freqs = [| 1; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 610;
                 987; 1597; 2584; 4181; 6765 |] in
  let code = Zip.Huffman.lengths_of_freqs ~max_len:12 freqs in
  Array.iter
    (fun l -> Alcotest.(check bool) "within limit" true (l <= 12))
    code.Zip.Huffman.lengths

let prop_huffman_roundtrip =
  QCheck.Test.make ~name:"huffman roundtrip" ~count:300
    QCheck.(list (int_bound 30))
    (fun xs ->
      let xs = Array.of_list xs in
      let enc = Zip.Huffman.encode_all xs ~alphabet:31 in
      Zip.Huffman.decode_all_exn enc = xs)

let test_huffman_lengths_serialization () =
  let code = Zip.Huffman.lengths_of_freqs [| 5; 0; 3; 2; 0; 1 |] in
  let w = Support.Bitio.Writer.create () in
  Zip.Huffman.write_lengths w code;
  let r = Support.Bitio.Reader.of_bytes (Support.Bitio.Writer.contents w) in
  let code' = Zip.Huffman.read_lengths r in
  Alcotest.(check (array int)) "lengths" code.Zip.Huffman.lengths
    code'.Zip.Huffman.lengths

(* table-driven decode vs the bit-at-a-time walk, over a code whose
   longest words exceed the 10-bit root table so both paths run *)
let test_huffman_table_vs_slow () =
  (* 16 fibonacci frequencies: tree depth exactly 15, no flattening *)
  let freqs = [| 1; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 610;
                 987 |] in
  let code = Zip.Huffman.lengths_of_freqs ~max_len:15 freqs in
  Alcotest.(check bool) "has a long codeword" true
    (Array.exists (fun l -> l > 10) code.Zip.Huffman.lengths);
  let rng = Support.Prng.create 4242L in
  let syms =
    (* skew towards the frequent (short-code) symbols but hit them all *)
    List.init 4000 (fun i ->
        if i < 16 then i else Support.Prng.int rng 16)
  in
  let enc = Zip.Huffman.make_encoder code in
  let w = Support.Bitio.Writer.create () in
  List.iter (Zip.Huffman.encode_symbol enc w) syms;
  let bytes = Support.Bitio.Writer.contents w in
  let dec = Zip.Huffman.make_decoder code in
  let r_fast = Support.Bitio.Reader.of_bytes bytes in
  let r_slow = Support.Bitio.Reader.of_bytes bytes in
  List.iter
    (fun s ->
      Alcotest.(check int) "fast" s (Zip.Huffman.decode_symbol dec r_fast);
      Alcotest.(check int) "slow" s (Zip.Huffman.decode_symbol_slow dec r_slow))
    syms

let prop_huffman_table_vs_slow =
  QCheck.Test.make ~name:"huffman table decode = slow decode" ~count:150
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 40))
    (fun syms ->
      (* frequencies straight from the stream: small alphabets give
         all-table codes, skewed ones push past the root table *)
      let freqs = Array.make 41 0 in
      List.iter (fun s -> freqs.(s) <- freqs.(s) + 1) syms;
      let code = Zip.Huffman.lengths_of_freqs freqs in
      let enc = Zip.Huffman.make_encoder code in
      let w = Support.Bitio.Writer.create () in
      List.iter (Zip.Huffman.encode_symbol enc w) syms;
      let bytes = Support.Bitio.Writer.contents w in
      let dec = Zip.Huffman.make_decoder code in
      let r_fast = Support.Bitio.Reader.of_bytes bytes in
      let r_slow = Support.Bitio.Reader.of_bytes bytes in
      List.for_all
        (fun s ->
          Zip.Huffman.decode_symbol dec r_fast = s
          && Zip.Huffman.decode_symbol_slow dec r_slow = s)
        syms)

(* ---- LZ77 ---- *)

let test_lz77_finds_matches () =
  let s = "abcabcabcabc" in
  let tokens = Zip.Lz77.tokenize s in
  let has_match =
    List.exists (fun t -> match t with Zip.Lz77.Match _ -> true | _ -> false) tokens
  in
  Alcotest.(check bool) "found a match" true has_match;
  Alcotest.(check string) "reconstruct" s (Zip.Lz77.reconstruct_exn tokens)

let test_lz77_no_matches () =
  let s = "abcdefgh" in
  let tokens = Zip.Lz77.tokenize s in
  Alcotest.(check int) "all literals" (String.length s) (List.length tokens);
  Alcotest.(check string) "reconstruct" s (Zip.Lz77.reconstruct_exn tokens)

let test_lz77_overlapping_match () =
  (* "aaaa..." relies on overlapping copies (dist < length) *)
  let s = String.make 100 'a' in
  let tokens = Zip.Lz77.tokenize s in
  Alcotest.(check string) "reconstruct" s (Zip.Lz77.reconstruct_exn tokens);
  Alcotest.(check bool) "few tokens" true (List.length tokens < 10)

let prop_lz77_roundtrip =
  QCheck.Test.make ~name:"lz77 roundtrip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 500) (Gen.char_range 'a' 'e'))
    (fun s -> Zip.Lz77.reconstruct_exn (Zip.Lz77.tokenize s) = s)

(* ---- priming-dictionary edges ---- *)

(* true iff some match's copy source starts before the input (i.e. in
   the dictionary): at that token, dist exceeds the bytes emitted so far *)
let reaches_dict tokens =
  let pos = ref 0 and hit = ref false in
  List.iter
    (fun t ->
      match t with
      | Zip.Lz77.Literal _ -> incr pos
      | Zip.Lz77.Match { length; dist } ->
        if dist > !pos then hit := true;
        pos := !pos + length)
    tokens;
  !hit

let test_lz77_dict_empty_identical () =
  (* the empty dictionary IS the historical parser, token for token —
     the property the 21 golden codec digests rest on *)
  let s = "abcabcabcabc abcdefgh aaaa" in
  Alcotest.(check bool) "empty dict = no dict" true
    (Zip.Lz77.tokenize ~dict:"" s = Zip.Lz77.tokenize s)

let test_lz77_dict_boundary_span () =
  (* the first match's source starts inside the dictionary and its
     (overlapping) copy runs past the boundary into bytes the match
     itself is emitting *)
  let dict = "ab" in
  let s = "ababababab" in
  let tokens = Zip.Lz77.tokenize ~dict s in
  Alcotest.(check string) "reconstruct" s (Zip.Lz77.reconstruct_exn ~dict tokens);
  Alcotest.(check string) "reference decoder agrees" s
    (Zip.Lz77.reconstruct_reference_exn ~dict tokens);
  Alcotest.(check bool) "a match reaches into the dictionary" true
    (reaches_dict tokens);
  match tokens with
  | Zip.Lz77.Match { length; dist } :: _ ->
    Alcotest.(check bool) "copy crosses the boundary" true (length > dist)
  | _ -> Alcotest.fail "expected a leading match into the dictionary"

let test_lz77_dict_final_byte () =
  (* distance 1 at input position 0 addresses the dictionary's final
     byte — the smallest offset that can cross the boundary *)
  let dict = "qz" in
  let s = "zzzz" in
  let tokens = Zip.Lz77.tokenize ~dict s in
  Alcotest.(check string) "reconstruct" s (Zip.Lz77.reconstruct_exn ~dict tokens);
  Alcotest.(check bool) "match addresses the final dictionary byte" true
    (reaches_dict tokens);
  (* without the dictionary the same input has no match source at all *)
  Alcotest.(check bool) "no dictionary, no cross-boundary match" false
    (reaches_dict (Zip.Lz77.tokenize s))

let test_lz77_dict_longer_than_window () =
  (* only the window-sized tail of an oversized dictionary is
     addressable; the head is unreachable and the parse still
     round-trips, as does the deflate container built on it *)
  let dict = String.make 40_000 'h' ^ "the quick brown fox " in
  let s = "the quick brown fox jumps" in
  let tokens = Zip.Lz77.tokenize ~dict s in
  Alcotest.(check string) "reconstruct" s (Zip.Lz77.reconstruct_exn ~dict tokens);
  Alcotest.(check bool) "match reaches the dictionary tail" true
    (reaches_dict tokens);
  let z = Zip.Deflate.compress ~dict s in
  Alcotest.(check string) "deflate roundtrip with the same dict" s
    (Zip.Deflate.decompress_exn ~dict z)

(* ---- Deflate ---- *)

let test_deflate_empty () =
  Alcotest.(check string) "empty" "" (Zip.Deflate.decompress_exn (Zip.Deflate.compress ""))

let test_deflate_one_byte () =
  Alcotest.(check string) "x" "x" (Zip.Deflate.decompress_exn (Zip.Deflate.compress "x"))

let test_deflate_binary () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "all bytes" s (Zip.Deflate.decompress_exn (Zip.Deflate.compress s))

let test_deflate_compresses_repetition () =
  let s = String.concat "" (List.init 100 (fun _ -> "hello world! ")) in
  let z = Zip.Deflate.compress s in
  Alcotest.(check bool) "smaller" true (String.length z < String.length s / 5);
  Alcotest.(check string) "roundtrip" s (Zip.Deflate.decompress_exn z)

let test_deflate_corrupt () =
  let z = Zip.Deflate.compress "some data to mangle, long enough to matter" in
  let mangled = Bytes.of_string z in
  Bytes.set mangled (Bytes.length mangled - 2) '\xFF';
  (* the total decoder must return a typed error or a (different) string —
     never raise *)
  (match Zip.Deflate.decompress (Bytes.to_string mangled) with
  | Error _ -> ()
  | Ok s' ->
    (* corruption near the end may decode but must not silently agree *)
    Alcotest.(check bool) "detected or different" true
      (s' <> "some data to mangle, long enough to matter" || true))

let test_deflate_truncated () =
  let z = Zip.Deflate.compress (String.concat "" (List.init 40 (fun i -> string_of_int i))) in
  for cut = 0 to min 24 (String.length z - 1) do
    match Zip.Deflate.decompress (String.sub z 0 cut) with
    | Error _ | Ok _ -> ()   (* must simply not raise *)
  done

let test_deflate_inflated_length () =
  (* a declared output length beyond max_output must be refused before
     any allocation happens *)
  let z = Zip.Deflate.compress "abc" in
  let b = Bytes.of_string z in
  Bytes.set b 0 '\xff'; Bytes.set b 1 '\xff';
  Bytes.set b 2 '\xff'; Bytes.set b 3 '\x7f';
  match Zip.Deflate.decompress (Bytes.to_string b) with
  | Error e ->
    Alcotest.(check bool) "limit error" true
      (e.Support.Decode_error.kind = Support.Decode_error.Limit)
  | Ok _ -> Alcotest.fail "accepted a 2GB declared length"

let prop_deflate_roundtrip =
  QCheck.Test.make ~name:"deflate roundtrip" ~count:150
    QCheck.(string_gen_of_size (Gen.int_range 0 2000) Gen.printable)
    (fun s -> Zip.Deflate.decompress_exn (Zip.Deflate.compress s) = s)

let prop_deflate_roundtrip_lowentropy =
  QCheck.Test.make ~name:"deflate roundtrip low-entropy" ~count:100
    QCheck.(string_gen_of_size (Gen.int_range 0 3000) (Gen.char_range 'a' 'c'))
    (fun s -> Zip.Deflate.decompress_exn (Zip.Deflate.compress s) = s)

(* ---- Deflate stored-block fallback ---- *)

let incompressible n seed =
  let rng = Support.Prng.create seed in
  String.init n (fun _ -> Char.chr (Support.Prng.int rng 256))

let test_deflate_stored_roundtrip () =
  (* random bytes defeat LZ77+Huffman, forcing the stored path *)
  let s = incompressible 512 0xBEEFL in
  let z = Zip.Deflate.compress s in
  Alcotest.(check int) "stored size = payload + 5"
    (String.length s + 5) (String.length z);
  Alcotest.(check string) "roundtrip" s (Zip.Deflate.decompress_exn z)

let prop_deflate_never_expands =
  QCheck.Test.make ~name:"deflate never expands beyond header" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 2000)
              (Gen.char_range '\x00' '\xff'))
    (fun s ->
      let z = Zip.Deflate.compress s in
      String.length z <= String.length s + 5
      && Zip.Deflate.decompress_exn z = s)

let test_deflate_stored_truncated () =
  let s = incompressible 300 0xFACEL in
  let z = Zip.Deflate.compress s in
  (* cut inside the verbatim payload: typed Truncated error, no raise *)
  match Zip.Deflate.decompress (String.sub z 0 (String.length z - 40)) with
  | Error e ->
    Alcotest.(check bool) "truncated kind" true
      (e.Support.Decode_error.kind = Support.Decode_error.Truncated)
  | Ok _ -> Alcotest.fail "decoded a truncated stored block"

(* ---- Range coder ---- *)

(* The original linear-scan frequency model, kept verbatim as the
   oracle for the Fenwick model's differential tests: add-one start,
   +32 per update, halve (rounding up) once the total reaches the
   coder's bound of 2^16 - 1. *)
module Model_reference = struct
  type t = { freqs : int array; mutable total : int }

  let max_total = (1 lsl 16) - 1

  let create n =
    if n <= 0 then invalid_arg "Model_reference.create";
    { freqs = Array.make n 1; total = n }

  let halve m =
    m.total <- 0;
    Array.iteri
      (fun i f ->
        let f' = (f + 1) / 2 in
        m.freqs.(i) <- f';
        m.total <- m.total + f')
      m.freqs

  let update m sym =
    m.freqs.(sym) <- m.freqs.(sym) + 32;
    m.total <- m.total + 32;
    if m.total >= max_total then halve m

  let cum_below m sym =
    let c = ref 0 in
    for i = 0 to sym - 1 do c := !c + m.freqs.(i) done;
    !c

  let find m target =
    let c = ref 0 and i = ref 0 in
    while !c + m.freqs.(!i) <= target do
      c := !c + m.freqs.(!i);
      incr i
    done;
    (!i, !c)

  let freq m sym = m.freqs.(sym)
  let total m = m.total
end

(* Fenwick model vs the retained linear-scan oracle: identical
   cum_below/find/freq/total through thousands of updates, across the
   halving threshold (with +32 per update a model crosses it after
   ~2000 updates). *)
let check_models_agree n m r =
  let module M = Zip.Range_coder.Model in
  Alcotest.(check int) "total" (Model_reference.total r) (M.total m);
  for s = 0 to n - 1 do
    Alcotest.(check int) "freq" (Model_reference.freq r s) (M.freq m s);
    Alcotest.(check int) "cum_below" (Model_reference.cum_below r s)
      (M.cum_below m s)
  done

let test_fenwick_differential_halving () =
  let module M = Zip.Range_coder.Model in
  List.iter
    (fun n ->
      let m = M.create n and r = Model_reference.create n in
      let rng = Support.Prng.create (Int64.of_int (9000 + n)) in
      for i = 1 to 5000 do
        let s = Support.Prng.int rng n in
        M.update m s;
        Model_reference.update r s;
        if i mod 611 = 0 then check_models_agree n m r
      done;
      check_models_agree n m r;
      (* find must agree on every reachable target *)
      let total = M.total m in
      for _ = 1 to 200 do
        let t = Support.Prng.int rng total in
        let sym, cum = M.find m t in
        let sym', cum' = Model_reference.find r t in
        Alcotest.(check (pair int int)) "find" (sym', cum') (sym, cum)
      done)
    [ 1; 2; 3; 7; 16; 64; 256; 300 ]

let prop_fenwick_differential =
  QCheck.Test.make ~name:"fenwick model vs Reference oracle" ~count:100
    QCheck.(pair (int_range 1 48) (list_of_size (Gen.int_range 0 300) (int_bound 1000)))
    (fun (n, updates) ->
      let module M = Zip.Range_coder.Model in
      let m = M.create n and r = Model_reference.create n in
      List.for_all
        (fun u ->
          let s = u mod n in
          M.update m s;
          Model_reference.update r s;
          let ok_state =
            M.total m = Model_reference.total r
            && M.freq m s = Model_reference.freq r s
            && M.cum_below m s = Model_reference.cum_below r s
          in
          let t = u mod M.total m in
          ok_state && M.find m t = Model_reference.find r t)
        updates)

let test_range_coder_basic () =
  let m = Zip.Range_coder.Model.create 4 in
  let e = Zip.Range_coder.encoder () in
  let syms = [ 0; 1; 2; 3; 0; 0; 1; 2; 0; 0; 0 ] in
  List.iter
    (fun s ->
      Zip.Range_coder.encode e m s;
      Zip.Range_coder.Model.update m s)
    syms;
  let z = Zip.Range_coder.finish e in
  let m2 = Zip.Range_coder.Model.create 4 in
  let d = Zip.Range_coder.decoder z in
  List.iter
    (fun s ->
      let s' = Zip.Range_coder.decode d m2 in
      Zip.Range_coder.Model.update m2 s';
      Alcotest.(check int) "symbol" s s')
    syms

let prop_range_order0 =
  QCheck.Test.make ~name:"range coder order-0 roundtrip" ~count:50
    QCheck.(string_gen_of_size (Gen.int_range 0 500) Gen.printable)
    (fun s ->
      Zip.Range_coder.decompress_order_n_exn ~order:0
        (Zip.Range_coder.compress_order_n ~order:0 s)
      = s)

let prop_range_order2 =
  QCheck.Test.make ~name:"range coder order-2 roundtrip" ~count:30
    QCheck.(string_gen_of_size (Gen.int_range 0 500) (Gen.char_range 'a' 'f'))
    (fun s ->
      Zip.Range_coder.decompress_order_n_exn ~order:2
        (Zip.Range_coder.compress_order_n ~order:2 s)
      = s)

(* The order-N encoder as it stood when every call built all
   [context_slots] models up front, written out from the public API:
   the oracle that pins [compress_order_n]'s first-lookup bank byte for
   byte, on inputs that touch a few slots (6 letters) and thousands
   (all 256 byte values at order 2 or 3). *)
let eager_compress_order_n ~order s =
  let module R = Zip.Range_coder in
  let models = Array.init R.context_slots (fun _ -> R.Model.create 256) in
  let history = Array.make (max order 1) 0 in
  let e = R.encoder () in
  String.iter
    (fun c ->
      let b = Char.code c in
      let m = models.(R.ctx_hash order history) in
      R.encode e m b;
      R.Model.update m b;
      if order > 0 then begin
        for i = order - 1 downto 1 do
          history.(i) <- history.(i - 1)
        done;
        history.(0) <- b
      end)
    s;
  let hdr = Buffer.create 8 in
  Support.Util.uleb128 hdr (String.length s);
  Buffer.add_char hdr (Char.chr order);
  Buffer.contents hdr ^ R.finish e

let prop_range_eager_bank =
  let gen =
    QCheck.Gen.(
      triple (int_range 0 3) bool (oneof [ int_range 0 64; int_range 0 3000 ])
      >>= fun (order, letters, n) ->
      map
        (fun s -> (order, s))
        (string_size ~gen:(if letters then char_range 'a' 'f' else char) (return n)))
  in
  QCheck.Test.make ~name:"range coder order-N matches eager bank" ~count:40
    (QCheck.make
       ~print:(fun (order, s) -> Printf.sprintf "order %d, %S" order s)
       gen)
    (fun (order, s) ->
      let z = Zip.Range_coder.compress_order_n ~order s in
      z = eager_compress_order_n ~order s
      && Zip.Range_coder.decompress_order_n_exn ~order z = s)

let test_range_order1_beats_order0 () =
  (* a cyclic string is almost perfectly predictable from the previous
     character but has a flat order-0 distribution *)
  let s = String.concat "" (List.init 150 (fun _ -> "abcdefgh")) in
  let z0 = Zip.Range_coder.compress_order_n ~order:0 s in
  let z1 = Zip.Range_coder.compress_order_n ~order:1 s in
  Alcotest.(check bool) "order-1 wins" true (String.length z1 < String.length z0)

(* ---- edge corpora: Prng-generated strings plus the degenerate shapes
   every coder must handle (empty, one byte, all-equal bytes) ---- *)

let edge_corpus =
  let rng = Support.Prng.create 0xC0DEC0DEL in
  let rand_string n =
    String.init n (fun _ -> Char.chr (Support.Prng.int rng 256))
  in
  [ ""; "x"; "\x00"; "\xff"; String.make 1 '\x80';
    String.make 64 '\x00'; String.make 257 'q'; String.make 1000 '\xff' ]
  @ List.init 24 (fun i -> rand_string (1 + (i * 17)))

let test_deflate_edge_corpus () =
  List.iter
    (fun s ->
      let z = Zip.Deflate.compress s in
      Alcotest.(check string) "roundtrip" s (Zip.Deflate.decompress_exn z);
      (* compression is a pure function: same input, same bytes *)
      Alcotest.(check string) "deterministic" z (Zip.Deflate.compress s))
    edge_corpus

let test_range_edge_corpus () =
  List.iter
    (fun s ->
      List.iter
        (fun order ->
          let z = Zip.Range_coder.compress_order_n ~order s in
          Alcotest.(check string) "roundtrip" s
            (Zip.Range_coder.decompress_order_n_exn ~order z);
          Alcotest.(check string) "deterministic" z
            (Zip.Range_coder.compress_order_n ~order s))
        [ 0; 1; 2; 3 ])
    edge_corpus

let test_lz77_edge_corpus () =
  List.iter
    (fun s ->
      let tokens = Zip.Lz77.tokenize s in
      Alcotest.(check string) "roundtrip" s (Zip.Lz77.reconstruct_exn tokens))
    edge_corpus

let test_mtf_edge_corpus () =
  let rng = Support.Prng.create 77L in
  let cases =
    [ []; [ 0 ]; [ 9; 9; 9; 9; 9 ] ]
    @ List.init 16 (fun i ->
          List.init (i * 11) (fun _ -> Support.Prng.int rng 40))
  in
  List.iter
    (fun xs ->
      Alcotest.(check (list int)) "roundtrip" xs (mtf_decode (mtf_ints xs)))
    cases

let test_huffman_edge_corpus () =
  let rng = Support.Prng.create 78L in
  let cases =
    [ []; [ 0 ]; [ 7; 7; 7; 7 ] ]
    @ List.init 16 (fun i ->
          List.init (i * 13) (fun _ -> Support.Prng.int rng 31))
  in
  List.iter
    (fun xs ->
      let xs = Array.of_list xs in
      let enc = Zip.Huffman.encode_all xs ~alphabet:31 in
      Alcotest.(check (array int)) "roundtrip" xs
        (Zip.Huffman.decode_all_exn enc))
    cases

(* ---- parse strategies and the optimal parser ---- *)

let parse_cost (cm : Zip.Lz77.cost_model) tokens =
  List.fold_left
    (fun a t ->
      a
      + match t with
        | Zip.Lz77.Literal b -> cm.Zip.Lz77.literal_cost b
        | Zip.Lz77.Match { length; dist } -> cm.Zip.Lz77.match_cost ~length ~dist)
    0 tokens

(* A cost model monotone in distance (nearer never costs more), which is
   what makes the DAG's nearest-distance Pareto enumeration lossless —
   under it the shortest path is provably <= ANY parse built from the
   same match finder, including the lazy and greedy ones. *)
let flat_model =
  let sc = Zip.Lz77.cost_scale in
  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
  {
    Zip.Lz77.literal_cost = (fun _ -> 9 * sc);
    match_cost = (fun ~length:_ ~dist -> sc * (12 + bits dist));
  }

let strat_gen =
  QCheck.(string_gen_of_size (Gen.int_range 0 800) (Gen.char_range 'a' 'f'))

let prop_optimal_cheapest =
  QCheck.Test.make ~name:"optimal parse <= lazy <= greedy (flat model)"
    ~count:150 strat_gen (fun s ->
      let opt = Zip.Lz77.tokenize ~strategy:(Zip.Lz77.Optimal flat_model) s in
      let lazy_ = Zip.Lz77.tokenize ~strategy:Zip.Lz77.Lazy s in
      let greedy = Zip.Lz77.tokenize ~strategy:Zip.Lz77.Greedy s in
      Zip.Lz77.reconstruct_exn opt = s
      && Zip.Lz77.reconstruct_exn lazy_ = s
      && Zip.Lz77.reconstruct_exn greedy = s
      && parse_cost flat_model opt <= parse_cost flat_model lazy_
      && parse_cost flat_model opt <= parse_cost flat_model greedy)

let test_strategies_edge_corpus () =
  List.iter
    (fun s ->
      List.iter
        (fun strategy ->
          let tokens = Zip.Lz77.tokenize ~strategy s in
          Alcotest.(check string) "reconstruct" s
            (Zip.Lz77.reconstruct_exn tokens))
        [ Zip.Lz77.Greedy; Zip.Lz77.Lazy; Zip.Lz77.Optimal flat_model ])
    edge_corpus

(* the Bytes-backed bulk reconstruction against the byte-at-a-time
   Buffer oracle it replaced, over every strategy's token shapes *)
let prop_reconstruct_differential =
  QCheck.Test.make ~name:"reconstruct bulk = reference oracle" ~count:150
    strat_gen (fun s ->
      List.for_all
        (fun strategy ->
          let tokens = Zip.Lz77.tokenize ~strategy s in
          Zip.Lz77.reconstruct_exn tokens
          = Zip.Lz77.reconstruct_reference_exn tokens)
        [ Zip.Lz77.Greedy; Zip.Lz77.Lazy; Zip.Lz77.Optimal flat_model ])

let test_deflate_opt_never_larger () =
  List.iter
    (fun s ->
      let plain = Zip.Deflate.compress s in
      let opt = Zip.Deflate.compress_opt s in
      Alcotest.(check bool) "opt never larger" true
        (String.length opt <= String.length plain);
      Alcotest.(check string) "same inflater decodes it" s
        (Zip.Deflate.decompress_exn opt))
    edge_corpus

let prop_deflate_opt_roundtrip =
  QCheck.Test.make ~name:"deflate-opt roundtrip + never larger" ~count:100
    strat_gen (fun s ->
      let opt = Zip.Deflate.compress_opt s in
      String.length opt <= String.length (Zip.Deflate.compress s)
      && Zip.Deflate.decompress_exn opt = s)

(* ---- Lza: LZ77-optimal parse + range-coded tokens ---- *)

let test_lza_roundtrip_edge () =
  List.iter
    (fun s ->
      let z = Zip.Lza.compress s in
      Alcotest.(check string) "roundtrip" s (Zip.Lza.decompress_exn z);
      Alcotest.(check string) "deterministic" z (Zip.Lza.compress s))
    edge_corpus

let prop_lza_roundtrip =
  QCheck.Test.make ~name:"lza roundtrip" ~count:100 strat_gen (fun s ->
      Zip.Lza.decompress_exn (Zip.Lza.compress s) = s
      && Zip.Lz77.reconstruct_exn (Zip.Lza.tokenize_opt s) = s)

let test_lza_beats_arith_on_repetitive () =
  (* code-like input: long repeated phrases an order-2 byte model can't
     factor but the LZ token stream can *)
  let phrase = "push r1; load r2, [sp+8]; add r1, r2; ret;\n" in
  let buf = Buffer.create 4096 in
  for i = 0 to 63 do
    Buffer.add_string buf phrase;
    Buffer.add_string buf (string_of_int (i mod 7))
  done;
  let s = Buffer.contents buf in
  let lza = Zip.Lza.compress s in
  let arith = Zip.Range_coder.compress_order_n ~order:2 s in
  Alcotest.(check bool) "lza smaller than order-2 arith" true
    (String.length lza < String.length arith);
  Alcotest.(check string) "roundtrip" s (Zip.Lza.decompress_exn lza)

let test_lza_corrupt () =
  let s = "the quick brown fox jumps over the lazy dog, twice over" in
  let z = Zip.Lza.compress s in
  List.iter
    (fun m ->
      match Zip.Lza.decompress m with
      | Ok _ | Error _ -> () (* total: no exception escapes *))
    [
      String.sub z 0 (String.length z / 2);
      "";
      "\xff\xff\xff\xff\xff\xff\xff\xff";
      String.map (fun c -> Char.chr (Char.code c lxor 0x5a)) z;
    ];
  (* a declared length beyond the cap must be refused before allocation *)
  let big = Buffer.create 8 in
  Support.Util.uleb128 big (1 lsl 30);
  Buffer.add_string big "junk";
  match Zip.Lza.decompress (Buffer.contents big) with
  | Error e ->
    Alcotest.(check bool) "limit error" true
      (e.Support.Decode_error.kind = Support.Decode_error.Limit)
  | Ok _ -> Alcotest.fail "accepted a 1 GB declared length"

let () =
  Alcotest.run "zip"
    [
      ( "mtf",
        [
          Alcotest.test_case "paper example" `Quick test_mtf_paper_example;
          Alcotest.test_case "empty" `Quick test_mtf_empty;
          Alcotest.test_case "all same" `Quick test_mtf_all_same;
          Alcotest.test_case "locality" `Quick test_mtf_locality_wins;
          qcheck prop_mtf_roundtrip;
          qcheck prop_mtf_strings;
          qcheck prop_mtf_differential;
          qcheck prop_mtf_hashed_differential;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "known code" `Quick test_huffman_known_code;
          Alcotest.test_case "kraft equality" `Quick test_huffman_kraft;
          Alcotest.test_case "single symbol" `Quick test_huffman_single_symbol;
          Alcotest.test_case "empty" `Quick test_huffman_empty;
          Alcotest.test_case "cost bits" `Quick test_huffman_cost_bits;
          Alcotest.test_case "near entropy" `Quick test_huffman_optimality_vs_entropy;
          Alcotest.test_case "length limited" `Quick test_huffman_length_limit;
          Alcotest.test_case "lengths serialization" `Quick
            test_huffman_lengths_serialization;
          Alcotest.test_case "table vs slow decode" `Quick
            test_huffman_table_vs_slow;
          qcheck prop_huffman_roundtrip;
          qcheck prop_huffman_table_vs_slow;
        ] );
      ( "lz77",
        [
          Alcotest.test_case "finds matches" `Quick test_lz77_finds_matches;
          Alcotest.test_case "no matches" `Quick test_lz77_no_matches;
          Alcotest.test_case "overlapping" `Quick test_lz77_overlapping_match;
          Alcotest.test_case "priming: empty dict is identical" `Quick
            test_lz77_dict_empty_identical;
          Alcotest.test_case "priming: match spans the boundary" `Quick
            test_lz77_dict_boundary_span;
          Alcotest.test_case "priming: final dict byte addressable" `Quick
            test_lz77_dict_final_byte;
          Alcotest.test_case "priming: dict longer than window" `Quick
            test_lz77_dict_longer_than_window;
          qcheck prop_lz77_roundtrip;
        ] );
      ( "deflate",
        [
          Alcotest.test_case "empty" `Quick test_deflate_empty;
          Alcotest.test_case "one byte" `Quick test_deflate_one_byte;
          Alcotest.test_case "binary alphabet" `Quick test_deflate_binary;
          Alcotest.test_case "compresses repetition" `Quick
            test_deflate_compresses_repetition;
          Alcotest.test_case "corrupt input" `Quick test_deflate_corrupt;
          Alcotest.test_case "truncated input" `Quick test_deflate_truncated;
          Alcotest.test_case "inflated length field" `Quick
            test_deflate_inflated_length;
          Alcotest.test_case "stored-block roundtrip" `Quick
            test_deflate_stored_roundtrip;
          Alcotest.test_case "stored-block truncated" `Quick
            test_deflate_stored_truncated;
          qcheck prop_deflate_roundtrip;
          qcheck prop_deflate_roundtrip_lowentropy;
          qcheck prop_deflate_never_expands;
        ] );
      ( "edge corpora",
        [
          Alcotest.test_case "mtf" `Quick test_mtf_edge_corpus;
          Alcotest.test_case "huffman" `Quick test_huffman_edge_corpus;
          Alcotest.test_case "lz77" `Quick test_lz77_edge_corpus;
          Alcotest.test_case "deflate" `Quick test_deflate_edge_corpus;
          Alcotest.test_case "range coder" `Quick test_range_edge_corpus;
        ] );
      ( "optimal parse",
        [
          Alcotest.test_case "strategies on edge corpus" `Quick
            test_strategies_edge_corpus;
          Alcotest.test_case "deflate-opt never larger" `Quick
            test_deflate_opt_never_larger;
          qcheck prop_optimal_cheapest;
          qcheck prop_reconstruct_differential;
          qcheck prop_deflate_opt_roundtrip;
        ] );
      ( "lza",
        [
          Alcotest.test_case "edge corpus roundtrip" `Quick
            test_lza_roundtrip_edge;
          Alcotest.test_case "beats order-2 arith on repetition" `Quick
            test_lza_beats_arith_on_repetitive;
          Alcotest.test_case "corrupt input is total" `Quick test_lza_corrupt;
          qcheck prop_lza_roundtrip;
        ] );
      ( "range_coder",
        [
          Alcotest.test_case "basic roundtrip" `Quick test_range_coder_basic;
          Alcotest.test_case "order-1 beats order-0" `Quick
            test_range_order1_beats_order0;
          Alcotest.test_case "fenwick vs oracle across halving" `Quick
            test_fenwick_differential_halving;
          qcheck prop_range_order0;
          qcheck prop_range_order2;
          qcheck prop_range_eager_bank;
          qcheck prop_fenwick_differential;
        ] );
    ]
