(* The codec layer: golden-pinned byte identity for every registered
   representation, registry-driven round-trips, compose/trace sanity,
   and registry invariants.

   The golden digests below were computed from the pre-codec pipelines
   (Wire.compress, Brisc.to_bytes ∘ Brisc.compress, ...) at the commit
   that introduced lib/codec — they pin the refactor to the historical
   formats byte-for-byte. *)

let digest s = Digest.to_hex (Digest.string s)

type prog = { pname : string; ir : Ir.Tree.program; vp : Vm.Isa.vprogram;
              native : string }

let prog pname src =
  let ir = Cc.Lower.compile src in
  let vp = Vm.Codegen.gen_program ir in
  let native = Native.Mach.encode_program (Native.Compile.compile_program vp) in
  { pname; ir; vp; native }

let progs =
  lazy
    [ prog "wc" Corpus.Programs.wc.Corpus.Programs.source;
      prog "qsort" Corpus.Programs.qsort.Corpus.Programs.source;
      prog "calc" Corpus.Programs.calc.Corpus.Programs.source ]

let source_of p = Codec.Source.of_ir ~vm:p.vp ~native:p.native p.ir

(* the context each registry entry needs, mirroring how the server
   supplies it: shared-dictionary codecs get the committed builtin
   dictionary; the delta update channel gets another corpus program as
   the held base artifact *)
let base_prog_for p =
  match List.filter (fun q -> q.pname <> p.pname) (Lazy.force progs) with
  | q :: _ -> q
  | [] -> assert false

let ctx_for (e : Codec.entry) ~base =
  match e.Codec.needs with
  | `None -> None
  | `Shared_dict _ -> Some (Codec.Context.builtin ())
  | `Base _ ->
    Some (Codec.Context.base ~ir_text:(Ir.Printer.program_to_string base.ir))

let builtin_pats () =
  match Codec.Context.builtin () with
  | Codec.Context.Shared_dict s -> s.Codec.Context.pats
  | Codec.Context.Base _ -> assert false

(* (program, codec name, md5 of the encoded bytes)

   Re-pinned once: the deflate format gained a 1-bit block type after
   the 32-bit length header (stored-block fallback so compression never
   expands — see Zip.Deflate). That bit shifts every deflate stream, so
   the gzip+native, wire and chunked-wire digests changed in lock-step;
   native, wire+range and brisc contain no deflate stream and kept their
   original pins.

   Chunked-wire re-pinned again for WCH3: the container grew an explicit
   per-chunk (name, length) index ahead of a contiguous data region so
   the demand pager's random access is O(1) instead of a header scan
   (see Wire.Chunked). The chunk payloads themselves are byte-identical
   to WCH2's; only the framing moved, so the other digests held.

   The three wire+range-opt pins were computed while every order-2
   call still built all 4096 context models up front. All three images
   take the Lza final stage ([L]), so they hold Zip.Lza's output to that
   eager bank byte for byte. *)
let golden =
  [ ("wc", "native", "3c413a67213331d484a919a0aae89001");
    ("wc", "gzip+native", "31686d15c0f7579b4805eb50bdcb0735");
    ("wc", "wire", "08edbda94475356f2cc79a10a35a2ab8");
    ("wc", "wire+range", "425dd7b3ae495f47768e33a140b2d068");
    ("wc", "chunked-wire", "d0d394d50ae0b98842dd4a42d46c9553");
    ("wc", "brisc", "03ef78bbb491e2b7d522a7139c26203b");
    ("qsort", "native", "7c649fc4d4403644a00339c3c073af31");
    ("qsort", "gzip+native", "020f8e68c17f230db866196e6cabe213");
    ("qsort", "wire", "dd7a7b2c1003262bd22495d8fef65c7f");
    ("qsort", "wire+range", "85411fb6a381dee016c2a7dcd6a97915");
    ("qsort", "chunked-wire", "b3500ae1f7933da5ddf11a3676c317a8");
    ("qsort", "brisc", "2fa334732af01718ea2d186a57aa06f5");
    ("calc", "native", "4c4bcc0fdadf5a775efec41b592a744d");
    ("calc", "gzip+native", "9cec19be4dac678e8bf223f51b6b25f9");
    ("calc", "wire", "b22f213721d50f8bb583365014e95a01");
    ("calc", "wire+range", "eba14c37c4fab7a8a4467e4e74f29735");
    ("calc", "chunked-wire", "7c292ed888435afc070e774df4c4f253");
    ("calc", "brisc", "864bcab5e9416b18f3802fe1d95b1755");
    ("wc", "wire+range-opt", "23755a6748534d2771052f737b4ead3c");
    ("qsort", "wire+range-opt", "1f5f88873d7a758737fd151cbe0e973b");
    ("calc", "wire+range-opt", "bfa78e7c67fe4b2e8cd1145ded49f1e5") ]

let test_golden_pins () =
  List.iter
    (fun (pn, cn, want) ->
      let p = List.find (fun p -> p.pname = pn) (Lazy.force progs) in
      let c = (Codec.find_exn cn).Codec.codec in
      let bytes, _ = Codec.encode c (source_of p) in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s byte-identical to pre-codec pipeline" pn cn)
        want (digest bytes))
    golden

(* the canonical expansion each codec's decode is documented to return *)
let expected_expansion p (e : Codec.entry) encoded =
  match Codec.name e.Codec.codec with
  | "native" | "brisc" -> encoded
  | "gzip+native" | "deflate" | "deflate-opt" -> p.native
  | "wire" | "wire+range" | "wire+range-opt" | "chunked-wire" | "wire+shared"
  | "delta" ->
    Ir.Printer.program_to_string p.ir
  | "brisc+shared" ->
    Brisc.to_bytes (Brisc.compress_shared ~shared:(builtin_pats ()) p.vp)
  | other -> Alcotest.failf "no canonical expansion known for codec %s" other

let test_registry_round_trips () =
  List.iter
    (fun p ->
      let src = source_of p in
      let base = base_prog_for p in
      List.iter
        (fun (e : Codec.entry) ->
          let c = e.Codec.codec in
          let n = Codec.name c in
          let ctx = ctx_for e ~base in
          let bytes, etr = Codec.encode ?ctx c src in
          Alcotest.(check bool)
            (p.pname ^ "/" ^ n ^ " encode non-empty") true
            (String.length bytes > 0);
          Alcotest.(check bool)
            (p.pname ^ "/" ^ n ^ " encode trace non-empty") true (etr <> []);
          List.iter
            (fun (s : Codec.stage) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s stage %s sane" p.pname n s.Codec.stage)
                true
                (s.Codec.bytes_in >= 0 && s.Codec.bytes_out >= 0
                && s.Codec.wall_s >= 0.0))
            etr;
          (* the final stage's output footprint is the encoded image *)
          let last = List.nth etr (List.length etr - 1) in
          Alcotest.(check int)
            (p.pname ^ "/" ^ n ^ " trace ends at encoded size")
            (String.length bytes) last.Codec.bytes_out;
          match Codec.decode ?ctx c bytes with
          | Error err ->
            Alcotest.failf "%s/%s decode failed: %s" p.pname n
              (Support.Decode_error.to_string err)
          | Ok (out, dtr) ->
            Alcotest.(check bool)
              (p.pname ^ "/" ^ n ^ " decode trace non-empty") true (dtr <> []);
            Alcotest.(check string)
              (p.pname ^ "/" ^ n ^ " canonical expansion")
              (digest (expected_expansion p e bytes))
              (digest out))
        (Codec.all ()))
    (Lazy.force progs)

(* decode must reject obvious corruption with a typed error, never an
   exception (the fuzz suite hammers this; here a deterministic smoke) *)
let test_decode_totality () =
  let p = List.hd (Lazy.force progs) in
  let src = source_of p in
  List.iter
    (fun (e : Codec.entry) ->
      let c = e.Codec.codec in
      let n = Codec.name c in
      let ctx = ctx_for e ~base:(base_prog_for p) in
      let bytes, _ = Codec.encode ?ctx c src in
      let flipped =
        let b = Bytes.of_string bytes in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
        Bytes.to_string b
      in
      let truncated = String.sub bytes 0 (String.length bytes / 2) in
      List.iter
        (fun m ->
          match Codec.decode ?ctx c m with
          | Ok _ | Error _ -> ())
        [ flipped; truncated; ""; "garbage input that is not a container" ];
      (* CRC/magic-framed formats must actually notice a flipped leading byte *)
      if
        List.mem n
          [ "wire"; "wire+range"; "chunked-wire"; "wire+shared";
            "brisc+shared"; "delta" ]
      then
        match Codec.decode ?ctx c flipped with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s accepted a corrupted leading byte" n)
    (Codec.all ())

let test_compose () =
  let z = Codec.deflate_codec in
  let c = Codec.compose ~name:"native|z" ~tag:"T" Codec.native_codec z in
  Alcotest.(check string) "composed name" "native|z" (Codec.name c);
  let p = List.hd (Lazy.force progs) in
  let bytes, tr = Codec.encode c (source_of p) in
  let _, tr_n = Codec.encode Codec.native_codec (source_of p) in
  let _, tr_z = Codec.encode_bytes z p.native in
  Alcotest.(check int) "trace concatenates in work order"
    (List.length tr_n + List.length tr_z)
    (List.length tr);
  (* identical pipeline to gzip+native, so identical bytes *)
  let g, _ = Codec.encode Codec.gzip_native_codec (source_of p) in
  Alcotest.(check string) "compose equals built-in gzip+native"
    (digest g) (digest bytes);
  match Codec.decode c bytes with
  | Error e -> Alcotest.failf "compose decode: %s" (Support.Decode_error.to_string e)
  | Ok (out, _) ->
    Alcotest.(check string) "compose decode inverts back then front"
      (digest p.native) (digest out)

(* the acceptance bar for the bit-optimal parse: across the whole named
   corpus, deflate-opt must never emit more bytes than deflate, and must
   be strictly smaller on at least 80% of the points — anything less
   means the cost model stopped paying for its encode time *)
let test_deflate_opt_ratio () =
  let points =
    List.map
      (fun (e : Corpus.Programs.entry) ->
        let ir = Cc.Lower.compile e.Corpus.Programs.source in
        let vp = Vm.Codegen.gen_program ir in
        let native =
          Native.Mach.encode_program (Native.Compile.compile_program vp)
        in
        (e.Corpus.Programs.name, native))
      Corpus.Programs.all
  in
  let strictly_smaller = ref 0 in
  List.iter
    (fun (name, native) ->
      let plain, _ = Codec.encode_bytes Codec.deflate_codec native in
      let opt, _ = Codec.encode_bytes Codec.deflate_opt_codec native in
      let lp = String.length plain and lo = String.length opt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: deflate-opt (%d B) never larger than deflate (%d B)"
           name lo lp)
        true (lo <= lp);
      if lo < lp then incr strictly_smaller)
    points;
  let n = List.length points in
  Alcotest.(check bool)
    (Printf.sprintf "deflate-opt strictly smaller on %d/%d points (need 80%%)"
       !strictly_smaller n)
    true
    (float_of_int !strictly_smaller >= 0.8 *. float_of_int n)

(* the update channel end to end: a patch against a held base must
   decode to the exact bytes of the full wire serve, the all-unchanged
   patch must be tiny (pure 'C' ops), and a patch applied against the
   wrong — or no — base must fail with a typed error, never garbage *)
let test_delta_channel () =
  let v1 = List.hd (Lazy.force progs) in
  let v2 = base_prog_for v1 in
  let base_ctx =
    Codec.Context.base ~ir_text:(Ir.Printer.program_to_string v1.ir)
  in
  let c = Codec.delta_codec in
  (* disjoint programs: every function ships as a compressed 'N' op *)
  let patch, _ = Codec.encode ~ctx:base_ctx c (source_of v2) in
  (match Codec.decode ~ctx:base_ctx c patch with
  | Error e ->
    Alcotest.failf "delta decode: %s" (Support.Decode_error.to_string e)
  | Ok (out, _) ->
    Alcotest.(check string) "patch reconstructs the exact full serve"
      (digest (Ir.Printer.program_to_string v2.ir))
      (digest out));
  (* identical program: all 'C' ops, far below the full wire artifact *)
  let self_patch, _ = Codec.encode ~ctx:base_ctx c (source_of v1) in
  (match Codec.decode ~ctx:base_ctx c self_patch with
  | Error e ->
    Alcotest.failf "self-patch decode: %s" (Support.Decode_error.to_string e)
  | Ok (out, _) ->
    Alcotest.(check string) "self-patch reconstructs the base"
      (digest (Ir.Printer.program_to_string v1.ir))
      (digest out));
  let full, _ =
    Codec.encode (Codec.find_exn "wire").Codec.codec (source_of v1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "all-unchanged patch (%d B) under half the full serve (%d B)"
       (String.length self_patch) (String.length full))
    true
    (String.length self_patch * 2 < String.length full);
  (* hostile application: wrong base, absent base *)
  let wrong_ctx =
    Codec.Context.base ~ir_text:(Ir.Printer.program_to_string v2.ir)
  in
  (match Codec.decode ~ctx:wrong_ctx c patch with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "patch applied against the wrong base");
  (match Codec.decode c patch with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "patch applied with no base at all");
  (* encode without a base is a programming error, not a silent default *)
  Alcotest.check_raises "delta encode requires a base"
    (Invalid_argument "delta: encode requires a base-artifact context")
    (fun () -> ignore (Codec.encode c (source_of v1)))

(* shared-dictionary streams are pinned to their dictionary: decoding
   under a different (or no) dictionary is a typed error *)
let test_shared_dict_mismatch () =
  let p = List.hd (Lazy.force progs) in
  let src = source_of p in
  (* a dictionary trained on a single program differs from the
     committed corpus dictionary in both the LZ window and the BRISC
     prefix, whatever the committed one currently is *)
  let other = Codec.Context.train [ p.ir ] in
  List.iter
    (fun name ->
      let c = (Codec.find_exn name).Codec.codec in
      let bytes, _ = Codec.encode c src in
      (match Codec.decode ~ctx:other c bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded under the wrong dictionary" name);
      match Codec.decode c bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded with no dictionary" name)
    [ "wire+shared"; "brisc+shared" ]

(* [make dict] commits the trained dictionary; this pin fails the suite
   whenever the corpus and the committed bytes drift apart *)
let test_dict_digest_pin () =
  let irs =
    List.map
      (fun (e : Corpus.Programs.entry) -> Cc.Lower.compile e.Corpus.Programs.source)
      Corpus.Programs.all
  in
  let trained = Codec.Context.train irs in
  Alcotest.(check string) "committed dictionary = trained dictionary"
    (Codec.Context.digest trained)
    (Codec.Context.builtin_digest ())

let test_registry_invariants () =
  let es = Codec.all () in
  let names = List.map (fun e -> Codec.name e.Codec.codec) es in
  let tags = List.map (fun e -> Codec.tag e.Codec.codec) es in
  Alcotest.(check int) "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "tags unique"
    (List.length tags)
    (List.length (List.sort_uniq compare tags));
  (* every delivery mode is served by some registered artifact *)
  List.iter
    (fun mode ->
      Alcotest.(check bool)
        ("mode served: " ^ Scenario.Delivery.repr_name mode)
        true
        (List.exists (fun e -> List.mem mode e.Codec.modes) (Codec.artifacts ())))
    [ Scenario.Delivery.Raw_native; Scenario.Delivery.Gzipped_native;
      Scenario.Delivery.Wire_format; Scenario.Delivery.Brisc_jit;
      Scenario.Delivery.Brisc_interp ];
  (* a streamable codec is an artifact even with no whole-image modes *)
  Alcotest.(check bool) "chunked-wire is an artifact" true
    (List.exists
       (fun e -> Codec.name e.Codec.codec = "chunked-wire")
       (Codec.artifacts ()));
  (* exactly the demand-pageable executables carry the flag: the
     chunked container (random-access decompression) and BRISC
     (interpretable in place under a budget) *)
  Alcotest.(check (list string)) "pageable entries"
    [ "chunked-wire"; "brisc" ]
    (List.filter_map
       (fun e ->
         if e.Codec.pageable then Some (Codec.name e.Codec.codec) else None)
       es);
  (* lookups *)
  Alcotest.(check bool) "find wire" true (Codec.find "wire" <> None);
  Alcotest.(check bool) "find unknown" true (Codec.find "nope" = None);
  (match Codec.find_tag "r" with
  | Some e -> Alcotest.(check string) "tag r is wire+range" "wire+range"
                (Codec.name e.Codec.codec)
  | None -> Alcotest.fail "find_tag r");
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Codec.register: duplicate name wire")
    (fun () -> Codec.register (Codec.find_exn "wire").Codec.codec)

let () =
  Alcotest.run "codec"
    [
      ( "codec",
        [
          Alcotest.test_case "golden byte-identity pins" `Quick test_golden_pins;
          Alcotest.test_case "registry round-trips" `Quick
            test_registry_round_trips;
          Alcotest.test_case "decode totality smoke" `Quick test_decode_totality;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "deflate-opt ratio floor over corpus" `Slow
            test_deflate_opt_ratio;
          Alcotest.test_case "delta update channel" `Quick test_delta_channel;
          Alcotest.test_case "shared-dict mismatch rejected" `Quick
            test_shared_dict_mismatch;
          Alcotest.test_case "shared dictionary digest pin" `Quick
            test_dict_digest_pin;
          Alcotest.test_case "registry invariants" `Quick
            test_registry_invariants;
        ] );
    ]
