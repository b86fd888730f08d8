(* Move-to-front coding.

   Hot-path engineering (DESIGN.md §10): the table is a flat int array
   of dense symbol ids with the front at index 0. A lookup scans ints
   (cache-friendly, no closure calls); a move-to-front is one
   overlapping [Array.blit], with no allocation per symbol, unlike the
   original linked-list [List.filter] coder, which the differential
   tests in test/test_zip.ml keep as their oracle. Ids are assigned by
   first occurrence, so the id stream determines both the MTF indices
   and the novel-symbol order, and the outputs are byte-identical to
   the list coder's. *)

let fail ~pos kind msg = Support.Decode_error.fail ~decoder:"mtf" ~kind ~pos msg

(* ---- the array engine over dense first-occurrence ids ---- *)

(* [encode_ids ids] MTF-codes a stream of dense ids: the k-th distinct
   value to appear must be k (first-occurrence numbering). Index 0 means
   "not seen previously"; index i >= 1 refers to the 1-based position in
   the current table. *)
let encode_ids (ids : int array) : int array =
  let n = Array.length ids in
  let out = Array.make n 0 in
  let table = ref (Array.make 64 0) in
  let tlen = ref 0 in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get ids i in
    let t = !table in
    let p = ref 0 in
    while !p < !tlen && Array.unsafe_get t !p <> id do incr p done;
    if !p = !tlen then begin
      (* novel: grow if needed, then insert at the front *)
      let t =
        if !tlen = Array.length t then begin
          let nt = Array.make (2 * !tlen) 0 in
          Array.blit t 0 nt 0 !tlen;
          table := nt;
          nt
        end
        else t
      in
      Array.blit t 0 t 1 !tlen;
      Array.unsafe_set t 0 id;
      incr tlen
      (* out.(i) is already 0 *)
    end
    else begin
      Array.unsafe_set out i (!p + 1);
      Array.blit t 0 t 1 !p;
      Array.unsafe_set t 0 id
    end
  done;
  out

(* Inverse: rebuild the id stream. Total — a bad index or an index
   stream that introduces more novels than [max_novel] (when given)
   yields a typed error at the element position. *)
let decode_ids ?max_novel (indices : int array) : int array =
  let n = Array.length indices in
  let out = Array.make n 0 in
  let table = ref (Array.make 64 0) in
  let tlen = ref 0 in
  let next_id = ref 0 in
  for pos = 0 to n - 1 do
    let i = Array.unsafe_get indices pos in
    if i < 0 then
      fail ~pos Support.Decode_error.Bad_value
        (Printf.sprintf "negative index %d" i)
    else if i = 0 then begin
      (match max_novel with
      | Some m when !next_id >= m ->
        fail ~pos Support.Decode_error.Inconsistent "novel list exhausted"
      | _ -> ());
      let t =
        if !tlen = Array.length !table then begin
          let nt = Array.make (2 * !tlen) 0 in
          Array.blit !table 0 nt 0 !tlen;
          table := nt;
          nt
        end
        else !table
      in
      Array.blit t 0 t 1 !tlen;
      Array.unsafe_set t 0 !next_id;
      Array.unsafe_set out pos !next_id;
      incr next_id;
      incr tlen
    end
    else if i > !tlen then
      fail ~pos Support.Decode_error.Bad_value
        (Printf.sprintf "index %d exceeds table of %d" i !tlen)
    else begin
      let t = !table in
      let id = Array.unsafe_get t (i - 1) in
      Array.blit t 0 t 1 (i - 1);
      Array.unsafe_set t 0 id;
      Array.unsafe_set out pos id
    end
  done;
  out

(* ---- symbol interning ---- *)

(* Dense first-occurrence ids for an arbitrary symbol stream, resolved
   through user hash/eq ([hash] must agree with [eq]). Buckets are keyed
   by the hash value in a plain int-keyed Hashtbl; collisions fall back
   to [eq]. Returns the id stream plus the distinct symbols in id
   order — exactly the novel table the wire format transmits. *)
let intern_hashed ~hash ~eq xs =
  let buckets : (int, ('a * int) list) Hashtbl.t = Hashtbl.create 256 in
  let novel = ref [] in
  let count = ref 0 in
  let id_of x =
    let h = hash x in
    let bucket = try Hashtbl.find buckets h with Not_found -> [] in
    match List.find_opt (fun (y, _) -> eq x y) bucket with
    | Some (_, id) -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.replace buckets h ((x, id) :: bucket);
      novel := x :: !novel;
      id
  in
  let ids = Array.of_list (List.map id_of xs) in
  (ids, List.rev !novel)
