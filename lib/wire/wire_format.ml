let magic = "WIR1"

type final_stage =
  | Deflate
  | Arith of int
  | Lz_arith
  | Shared_deflate of string
      (* deflate primed with a pre-agreed dictionary; the bytes are the
         context, only a crc of them travels on the wire *)

let wfail r kind msg = Support.Frame.fail r kind msg

let ty_code = function
  | Ir.Op.I -> 0
  | Ir.Op.C -> 1
  | Ir.Op.S -> 2
  | Ir.Op.P -> 3
  | Ir.Op.V -> 4

let ty_of_code r = function
  | 0 -> Ir.Op.I
  | 1 -> Ir.Op.C
  | 2 -> Ir.Op.S
  | 3 -> Ir.Op.P
  | 4 -> Ir.Op.V
  | c -> wfail r Support.Decode_error.Bad_value (Printf.sprintf "bad type code %d" c)

(* Literal-class key used when streams are split; a single shared key
   otherwise. *)
let class_key ~split cls =
  if split then Ir.Op.lit_class_name cls else "ALL"

(* ---- stage 1: patternize ----

   Split every statement into a shape (spat) and its literal operands,
   the operands fanning out into per-class streams (§3 step 2). The
   result carries everything the bundle writer needs, so the two stages
   can be timed and sized independently by the codec layer. *)

type patternized = {
  prog : Ir.Tree.program;
  use_mtf : bool;
  split : bool;
  pattern_seq : Ir.Pattern.spat list;           (* statement order *)
  lit_streams : (string * Ir.Pattern.lit list) list;  (* first-use order *)
  symbols : int;  (* patterns + literals: the stage's output "bytes" *)
}

type streams = {
  mutable pattern_seq : Ir.Pattern.spat list;  (* reversed *)
  lit_seqs : (string, Ir.Pattern.lit list ref) Hashtbl.t;  (* reversed *)
  mutable lit_keys : string list;  (* in first-use order, reversed *)
}

let push_lit st key v =
  (match Hashtbl.find_opt st.lit_seqs key with
  | Some r -> r := v :: !r
  | None ->
    Hashtbl.add st.lit_seqs key (ref [ v ]);
    st.lit_keys <- key :: st.lit_keys)

let patternize ?(use_mtf = true) ?(split_streams = true)
    (p : Ir.Tree.program) : patternized =
  let st =
    { pattern_seq = []; lit_seqs = Hashtbl.create 16; lit_keys = [] }
  in
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          let sp, lits = Ir.Pattern.of_stmt s in
          st.pattern_seq <- sp :: st.pattern_seq;
          List.iter
            (fun (cls, v) -> push_lit st (class_key ~split:split_streams cls) v)
            lits)
        f.Ir.Tree.body)
    p.Ir.Tree.funcs;
  let pattern_seq = List.rev st.pattern_seq in
  let lit_streams =
    List.rev_map
      (fun key -> (key, List.rev !(Hashtbl.find st.lit_seqs key)))
      st.lit_keys
  in
  let symbols =
    List.fold_left
      (fun a (_, l) -> a + List.length l)
      (List.length pattern_seq) lit_streams
  in
  { prog = p; use_mtf; split = split_streams; pattern_seq; lit_streams;
    symbols }

let symbols pz = pz.symbols

(* ---- stage 2: MTF + Huffman into the bundle ---- *)

(* Stream indices from the dense first-occurrence ids ([Mtf.intern_hashed]):
   MTF-coded normally, or — the ablation — the plain first-occurrence
   position (id + 1; 0 still introduces the next novel symbol). Ids are
   numbered by first occurrence, so "seen before" is exactly
   [id < distinct-so-far]. *)
let indices_of_ids ~use_mtf ids =
  if use_mtf then Zip.Mtf.encode_ids ids
  else begin
    let n = Array.length ids in
    let out = Array.make n 0 in
    let seen = ref 0 in
    for i = 0 to n - 1 do
      let id = ids.(i) in
      if id < !seen then out.(i) <- id + 1 else incr seen
    done;
    out
  end

(* Inverse of [indices_of_ids] plus the novel-table lookup: the
   stream's symbols. Total: an index past the table, or one that
   introduces more novel symbols than [novel] holds, is a typed error
   at its element position. *)
let symbols_of_indices ~use_mtf indices novel =
  let max_novel = Array.length novel in
  let ids =
    if use_mtf then Zip.Mtf.decode_ids ~max_novel indices
    else begin
      let fail ~pos msg =
        Support.Decode_error.fail ~decoder:"wire"
          ~kind:Support.Decode_error.Bad_value ~pos msg
      in
      let seen = ref 0 in
      Array.init (Array.length indices) (fun pos ->
          let i = indices.(pos) in
          if i = 0 then begin
            if !seen >= max_novel then fail ~pos "novel list exhausted";
            incr seen;
            !seen - 1
          end
          else if i < 0 || i > !seen then
            fail ~pos
              (Printf.sprintf "index %d exceeds table of %d" i !seen)
          else i - 1)
    end
  in
  Array.map (fun id -> novel.(id)) ids

let encode_indices buf indices =
  let alphabet = Array.fold_left max 0 indices + 1 in
  let bytes = Zip.Huffman.encode_all indices ~alphabet in
  Support.Frame.put_bytes buf bytes

let decode_indices r =
  let raw = Support.Frame.str ~what:"bundle" r in
  Zip.Huffman.decode_all_exn (Bytes.of_string raw)

(* One stream's part of the bundle: whatever [buf] already holds (a
   literal stream's class key), the Huffman-coded indices, then the
   novel table (its count, then each symbol by [put] in first-occurrence
   order). [index_bytes] is the length through the indices and
   [distinct] the novel count, for {!stats}. *)
type segment = { bytes : string; index_bytes : int; distinct : int }

let stream_segment ~use_mtf ~hash ~eq ~put buf seq =
  let ids, novel = Zip.Mtf.intern_hashed ~hash ~eq seq in
  encode_indices buf (indices_of_ids ~use_mtf ids);
  let index_bytes = Buffer.length buf in
  let distinct = List.length novel in
  Support.Util.uleb128 buf distinct;
  List.iter (put buf) novel;
  { bytes = Buffer.contents buf; index_bytes; distinct }

let pattern_segment (pz : patternized) =
  stream_segment ~use_mtf:pz.use_mtf ~hash:Ir.Pattern.hash
    ~eq:Ir.Pattern.equal
    ~put:(fun buf sp -> Support.Frame.put_str buf (Ir.Pattern.encode sp))
    (Buffer.create 1024) pz.pattern_seq

let lit_segment ~use_mtf (key, seq) =
  let buf = Buffer.create 256 in
  Support.Frame.put_str buf key;
  stream_segment ~use_mtf ~hash:Hashtbl.hash ~eq:( = )
    ~put:(fun buf -> function
      | Ir.Pattern.Lint v ->
        Buffer.add_char buf '\000';
        Support.Util.sleb_of_int buf v
      | Ir.Pattern.Lsym s ->
        Buffer.add_char buf '\001';
        Support.Frame.put_str buf s)
    buf seq

(* The stream segments, each a pure function of [pz] alone: the pattern
   stream, then the literal streams in first-use order. With [pool]
   they are coded concurrently; [Pool.run_list] joins them in input
   order, so the bundle never depends on scheduling. *)
let segments ?pool (pz : patternized) =
  let jobs =
    (fun () -> pattern_segment pz)
    :: List.map (fun s () -> lit_segment ~use_mtf:pz.use_mtf s) pz.lit_streams
  in
  let segs =
    match pool with
    | Some pool when List.length jobs > 1 -> Support.Pool.run_list pool jobs
    | _ -> List.map (fun f -> f ()) jobs
  in
  match segs with
  | pat :: lits -> (pat, lits)
  | [] -> assert false

(* magic, flags, globals and function headers: the bundle before its
   streams *)
let put_header buf (pz : patternized) =
  let p = pz.prog in
  Buffer.add_string buf magic;
  Buffer.add_char buf (if pz.use_mtf then '\001' else '\000');
  Buffer.add_char buf (if pz.split then '\001' else '\000');
  (* globals *)
  Support.Util.uleb128 buf (List.length p.Ir.Tree.globals);
  List.iter
    (fun g ->
      Support.Frame.put_str buf g.Ir.Tree.gname;
      Support.Util.uleb128 buf g.Ir.Tree.gsize;
      match g.Ir.Tree.ginit with
      | None -> Support.Util.uleb128 buf 0
      | Some bytes ->
        Support.Util.uleb128 buf (List.length bytes + 1);
        List.iter (fun b -> Buffer.add_char buf (Char.chr (b land 0xff))) bytes)
    p.Ir.Tree.globals;
  (* function headers *)
  Support.Util.uleb128 buf (List.length p.Ir.Tree.funcs);
  List.iter
    (fun f ->
      Support.Frame.put_str buf f.Ir.Tree.fname;
      Support.Util.uleb128 buf (List.length f.Ir.Tree.formals);
      List.iter
        (fun (n, ty) ->
          Support.Frame.put_str buf n;
          Buffer.add_char buf (Char.chr (ty_code ty)))
        f.Ir.Tree.formals;
      Support.Util.uleb128 buf f.Ir.Tree.frame_size;
      Support.Util.uleb128 buf (List.length f.Ir.Tree.body))
    p.Ir.Tree.funcs

(* header, pattern segment, literal-stream count, literal segments *)
let assemble pz (pat, lits) =
  let buf = Buffer.create 4096 in
  put_header buf pz;
  Buffer.add_string buf pat.bytes;
  Support.Util.uleb128 buf (List.length lits);
  List.iter (fun s -> Buffer.add_string buf s.bytes) lits;
  Buffer.contents buf

let bundle_of_patternized ?pool pz = assemble pz (segments ?pool pz)

(* ---- stage 3: the final entropy stage, tagged ---- *)

let dict_crc_be dict =
  let c = Support.Util.crc32 dict in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((c lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((c lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((c lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (c land 0xff));
  Bytes.to_string b

let apply_final_stage stage bundle =
  match stage with
  | Deflate -> "D" ^ Zip.Deflate.compress bundle
  | Arith order ->
    if order < 0 || order > 3 then invalid_arg "Wire.compress: bad order";
    Printf.sprintf "A%d" order
    ^ Zip.Range_coder.compress_order_n ~order bundle
  | Lz_arith -> "L" ^ Zip.Lza.compress bundle
  | Shared_deflate dict ->
    (* seal the dictionary pairing in-band: 4 crc bytes after the tag,
       so decoding against the wrong/absent dictionary is a typed
       error, never silent garbage *)
    "S" ^ dict_crc_be dict ^ Zip.Deflate.compress ~dict bundle

(* body (everything behind the CRC seal) -> bundle. [dict] is the
   pre-agreed priming dictionary for the ['S'] stage; the other stages
   ignore it. *)
let unwrap_final_stage_exn ?dict body =
  let fail0 kind msg =
    Support.Decode_error.fail ~decoder:"wire" ~kind ~pos:0 msg
  in
  if String.length body < 1 then
    fail0 Support.Decode_error.Truncated "missing final-stage tag";
  match body.[0] with
  | 'D' -> Zip.Deflate.decompress_exn (String.sub body 1 (String.length body - 1))
  | 'A' ->
    if String.length body < 2 then
      fail0 Support.Decode_error.Truncated "truncated header";
    let order = Char.code body.[1] - Char.code '0' in
    if order < 0 || order > 3 then
      fail0 Support.Decode_error.Bad_value "bad arith order";
    Zip.Range_coder.decompress_order_n_exn ~order
      (String.sub body 2 (String.length body - 2))
  | 'L' -> Zip.Lza.decompress_exn (String.sub body 1 (String.length body - 1))
  | 'S' -> (
    if String.length body < 5 then
      fail0 Support.Decode_error.Truncated "truncated shared-stage header";
    (* [None] means no dictionary was supplied; [Some ""] is a real
       (empty) dictionary and must still pass the CRC pairing check *)
    match dict with
    | None ->
      fail0 Support.Decode_error.Bad_value
        "shared final stage requires a dictionary context"
    | Some dict ->
      if String.sub body 1 4 <> dict_crc_be dict then
        fail0 Support.Decode_error.Inconsistent
          "shared-stage dictionary crc mismatch";
      Zip.Deflate.decompress_exn ~dict
        (String.sub body 5 (String.length body - 5)))
  | _ -> fail0 Support.Decode_error.Bad_value "unknown final stage"

(* ---- the whole pipeline ---- *)

let compress ?pool ?use_mtf ?split_streams ?(final_stage = Deflate)
    (p : Ir.Tree.program) =
  let pz = patternize ?use_mtf ?split_streams p in
  let bundle = bundle_of_patternized ?pool pz in
  (* integrity frame: 4-byte big-endian CRC-32 of the body, so a
     damaged or truncated image is rejected before any parsing *)
  Support.Frame.seal (apply_final_stage final_stage bundle)

(* ---- decompression ---- *)

let program_of_bundle_exn bundle : Ir.Tree.program =
  let r = Support.Frame.reader ~decoder:"wire" bundle in
  Support.Frame.expect_magic r magic;
  let use_mtf = Support.Frame.raw r ~what:"bundle" 1 = "\001" in
  let split_streams = Support.Frame.raw r ~what:"bundle" 1 = "\001" in
  let get_uleb () = Support.Frame.u r in
  let get_str () = Support.Frame.str ~what:"bundle" r in
  let get_byte () = Support.Frame.byte r ~what:"bundle" () in
  let check_count n what = Support.Frame.check_count r n what in
  (* globals *)
  let nglob = get_uleb () in
  check_count nglob "global";
  let globals =
    List.init nglob (fun _ ->
        let gname = get_str () in
        let gsize = get_uleb () in
        let initlen = get_uleb () in
        if initlen > 0 then check_count (initlen - 1) "global initializer";
        let ginit =
          if initlen = 0 then None
          else
            Some (List.init (initlen - 1) (fun _ -> Char.code (get_byte ())))
        in
        { Ir.Tree.gname; gsize; ginit })
  in
  (* function headers *)
  let nfun = get_uleb () in
  check_count nfun "function";
  let headers =
    List.init nfun (fun _ ->
        let fname = get_str () in
        let nformals = get_uleb () in
        check_count nformals "formal";
        let formals =
          List.init nformals (fun _ ->
              let n = get_str () in
              let ty = ty_of_code r (Char.code (get_byte ())) in
              (n, ty))
        in
        let frame_size = get_uleb () in
        let nstmts = get_uleb () in
        (fname, formals, frame_size, nstmts))
  in
  (* pattern stream *)
  let pat_indices = decode_indices r in
  let n_novel = get_uleb () in
  check_count n_novel "novel pattern";
  let novel_pats =
    Array.init n_novel (fun _ ->
        let s = get_str () in
        let pos = ref 0 in
        let sp = Ir.Pattern.decode s pos in
        if !pos <> String.length s then
          wfail r Support.Decode_error.Inconsistent "trailing pattern bytes";
        sp)
  in
  let pattern_seq = symbols_of_indices ~use_mtf pat_indices novel_pats in
  (* literal streams *)
  let nstreams = get_uleb () in
  check_count nstreams "literal stream";
  let lit_streams : (string, Ir.Pattern.lit array * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  for _ = 1 to nstreams do
    let key = get_str () in
    let indices = decode_indices r in
    let n_novel = get_uleb () in
    check_count n_novel "novel literal";
    let novel =
      Array.init n_novel (fun _ ->
          match get_byte () with
          | '\000' -> Ir.Pattern.Lint (Support.Frame.sleb r)
          | '\001' -> Ir.Pattern.Lsym (get_str ())
          | _ -> wfail r Support.Decode_error.Bad_value "bad literal tag")
    in
    Hashtbl.add lit_streams key
      (symbols_of_indices ~use_mtf indices novel, ref 0)
  done;
  let next_lit cls =
    let key = class_key ~split:split_streams cls in
    match Hashtbl.find_opt lit_streams key with
    | Some (seq, next) when !next < Array.length seq ->
      incr next;
      seq.(!next - 1)
    | Some _ ->
      wfail r Support.Decode_error.Inconsistent
        ("literal stream exhausted: " ^ key)
    | None ->
      wfail r Support.Decode_error.Inconsistent
        ("missing literal stream: " ^ key)
  in
  (* reassemble functions *)
  let next_pat = ref 0 in
  let take_pattern () =
    if !next_pat >= Array.length pattern_seq then
      wfail r Support.Decode_error.Inconsistent "pattern stream exhausted";
    incr next_pat;
    pattern_seq.(!next_pat - 1)
  in
  let funcs =
    List.map
      (fun (fname, formals, frame_size, nstmts) ->
        let body =
          List.init nstmts (fun _ ->
              let sp = take_pattern () in
              let slots = Ir.Pattern.lit_slots sp in
              let lits = List.map (fun cls -> (cls, next_lit cls)) slots in
              Ir.Pattern.to_stmt sp lits)
        in
        { Ir.Tree.fname; formals; frame_size; body })
      headers
  in
  if !next_pat <> Array.length pattern_seq then
    wfail r Support.Decode_error.Inconsistent "leftover patterns";
  { Ir.Tree.globals; funcs }

let decompress_exn ?dict z =
  let off = Support.Frame.verify ~decoder:"wire" z in
  let body = String.sub z off (String.length z - off) in
  program_of_bundle_exn (unwrap_final_stage_exn ?dict body)

let decompress ?dict z =
  Support.Decode_error.guard ~decoder:"wire" (fun () -> decompress_exn ?dict z)

(* ---- stats ---- *)

type stats = {
  wire_bytes : int;
  bundle_bytes : int;
  header_bytes : int;
  pattern_count : int;
  distinct_patterns : int;
  pattern_stream_bytes : int;
  novel_table_bytes : int;
  literal_stream_bytes : (string * int) list;
}

(* sizes of what [bundle_of_patternized] and [compress] write for [pz]:
   the segments themselves, and a header measured by the writer that
   emits it *)
let stats (pz : patternized) =
  let ((pat, lits) as segs) = segments pz in
  let bundle = assemble pz segs in
  let header = Buffer.create 256 in
  put_header header pz;
  Support.Util.uleb128 header (List.length lits);
  {
    wire_bytes =
      String.length (Support.Frame.seal (apply_final_stage Deflate bundle));
    bundle_bytes = String.length bundle;
    header_bytes = Buffer.length header;
    pattern_count = List.length pz.pattern_seq;
    distinct_patterns = pat.distinct;
    pattern_stream_bytes = pat.index_bytes;
    novel_table_bytes = String.length pat.bytes - pat.index_bytes;
    literal_stream_bytes =
      List.map2
        (fun (key, _) s -> (key, String.length s.bytes))
        pz.lit_streams lits;
  }
