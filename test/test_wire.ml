(* Tests for the wire format (§3): exact round-trips, ablation variants,
   stream statistics, and the paper's qualitative size claims. *)

let compile src = Cc.Lower.compile src

let roundtrip ?use_mtf ?split_streams ir =
  let z = Wire.compress ?use_mtf ?split_streams ir in
  let ir' = Wire.decompress_exn z in
  Ir.Tree.equal_program ir ir'

let check_roundtrip name (e : Corpus.Programs.entry) () =
  ignore name;
  let ir = compile e.Corpus.Programs.source in
  Alcotest.(check bool) "default pipeline" true (roundtrip ir);
  Alcotest.(check bool) "without mtf" true (roundtrip ~use_mtf:false ir);
  Alcotest.(check bool) "without stream split" true
    (roundtrip ~split_streams:false ir)

let corpus_cases =
  List.map
    (fun (e : Corpus.Programs.entry) ->
      Alcotest.test_case e.Corpus.Programs.name `Quick
        (check_roundtrip e.Corpus.Programs.name e))
    Corpus.Programs.all

let test_empty_program () =
  let ir = { Ir.Tree.globals = []; funcs = [] } in
  Alcotest.(check bool) "empty" true (roundtrip ir)

let test_globals_only () =
  let ir = compile "int g = 5; char buf[100]; int t[2] = {1,2};" in
  Alcotest.(check bool) "globals only" true (roundtrip ir)

let test_void_function () =
  let ir = compile "void nop() { } int main() { nop(); return 0; }" in
  Alcotest.(check bool) "void fn" true (roundtrip ir)

let test_preserves_semantics () =
  (* decompressed program must run identically, not just be equal *)
  let e = Corpus.Programs.calc in
  let ir = compile e.Corpus.Programs.source in
  let ir' = Wire.decompress_exn (Wire.compress ir) in
  let run p = Vm.Interp.run ~input:e.Corpus.Programs.input (Vm.Codegen.gen_program p) in
  let a = run ir and b = run ir' in
  Alcotest.(check string) "same output" a.Vm.Interp.output b.Vm.Interp.output;
  Alcotest.(check int) "same exit" a.Vm.Interp.exit_code b.Vm.Interp.exit_code

let frame body =
  (* the CRC-32 header Wire.compress prepends (big-endian) *)
  let crc = Support.Util.crc32 body in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((crc lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (crc land 0xff));
  Bytes.to_string hdr ^ body

let test_corrupt_magic () =
  let ir = compile "int main() { return 0; }" in
  let z = Wire.compress ir in
  (* a well-formed frame (valid CRC, valid deflate) around a corrupted
     bundle: the parser itself must still reject the bad magic. The
     image is [crc32][tag][deflate(bundle)]. *)
  let body = String.sub z 4 (String.length z - 4) in
  let bundle =
    Zip.Deflate.decompress_exn (String.sub body 1 (String.length body - 1))
  in
  let mangled = Bytes.of_string bundle in
  Bytes.set mangled 0 'X';
  let z' = frame ("D" ^ Zip.Deflate.compress (Bytes.to_string mangled)) in
  match Wire.decompress z' with
  | Error e ->
    Alcotest.(check bool) "bad-magic kind" true
      (e.Support.Decode_error.kind = Support.Decode_error.Bad_magic)
  | Ok _ -> Alcotest.fail "bad magic must be rejected"

let test_truncated_input () =
  let ir = compile "int main() { return 0; }" in
  let z = Wire.compress ir in
  let truncated = String.sub z 0 (String.length z / 2) in
  match Wire.decompress truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input must be rejected"

(* ---- corruption: the CRC frame must catch every single-byte error ---- *)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x41));
  Bytes.to_string b

let small_ir = lazy (compile Corpus.Programs.calc.Corpus.Programs.source)

let test_wire_flip_every_byte () =
  (* exhaustive, not sampled: CRC-32 detects any error burst <= 32 bits,
     so every possible single-byte flip must yield a typed error —
     never an exception, never a silent Ok *)
  let z = Wire.compress (Lazy.force small_ir) in
  for i = 0 to String.length z - 1 do
    match Wire.decompress (flip z i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "byte %d: corruption undetected" i)
  done

let test_wire_every_truncation () =
  let z = Wire.compress (Lazy.force small_ir) in
  for len = 0 to String.length z - 1 do
    match Wire.decompress (String.sub z 0 len) with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.fail (Printf.sprintf "length %d: truncation undetected" len)
  done

let test_chunked_flip_every_byte () =
  let img = Wire.Chunked.to_bytes (Wire.Chunked.compress (Lazy.force small_ir)) in
  for i = 0 to String.length img - 1 do
    match Wire.Chunked.of_bytes (flip img i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "byte %d: corruption undetected" i)
  done

let test_chunked_every_truncation () =
  let img = Wire.Chunked.to_bytes (Wire.Chunked.compress (Lazy.force small_ir)) in
  for len = 0 to String.length img - 1 do
    match Wire.Chunked.of_bytes (String.sub img 0 len) with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.fail (Printf.sprintf "length %d: truncation undetected" len)
  done

(* ---- statistics / size claims ---- *)

let medium_ir = lazy (compile (Corpus.Gen.generate Corpus.Gen.medium).Corpus.Programs.source)

let test_stats_consistency () =
  let ir = Lazy.force medium_ir in
  let s = Wire.stats (Wire.patternize ir) in
  Alcotest.(check bool) "wire smaller than bundle" true
    (s.Wire.wire_bytes < s.Wire.bundle_bytes);
  Alcotest.(check bool) "has patterns" true (s.Wire.pattern_count > 1000);
  Alcotest.(check bool) "patterns repeat" true
    (s.Wire.distinct_patterns < s.Wire.pattern_count / 2);
  Alcotest.(check bool) "has literal streams" true
    (List.length s.Wire.literal_stream_bytes > 3)

(* the numbers describe the image the same flags write: its length, and
   a bundle that is exactly the header plus the measured segments *)
let test_stats_describe_image () =
  let ir = compile Corpus.Programs.calc.Corpus.Programs.source in
  List.iter
    (fun (label, use_mtf, split_streams) ->
      let pz = Wire.patternize ~use_mtf ~split_streams ir in
      let s = Wire.stats pz in
      Alcotest.(check int) (label ^ ": wire bytes")
        (String.length (Wire.compress ~use_mtf ~split_streams ir))
        s.Wire.wire_bytes;
      Alcotest.(check int) (label ^ ": bundle bytes")
        (String.length (Wire.bundle_of_patternized pz))
        s.Wire.bundle_bytes;
      Alcotest.(check int) (label ^ ": header + segments") s.Wire.bundle_bytes
        (s.Wire.header_bytes + s.Wire.pattern_stream_bytes
        + s.Wire.novel_table_bytes
        + List.fold_left (fun a (_, b) -> a + b) 0 s.Wire.literal_stream_bytes);
      Alcotest.(check bool) (label ^ ": one pooled literal stream")
        (not split_streams)
        (List.map fst s.Wire.literal_stream_bytes = [ "ALL" ]))
    [ ("default", true, true); ("no-mtf", false, true);
      ("no-split", true, false) ]

let test_beats_gzip_on_medium () =
  (* the paper's table: wire beats gzipped conventional code except on
     the smallest input *)
  let ir = Lazy.force medium_ir in
  let vp = Vm.Codegen.gen_program ir in
  let sparc = Native.Sparc.encode_program vp in
  let gz = Zip.Deflate.compress sparc in
  let wire = Wire.compress ir in
  Alcotest.(check bool) "wire < gzip(sparc)" true
    (String.length wire < String.length gz);
  (* and the headline factor is substantial *)
  Alcotest.(check bool) "factor > 3" true
    (float_of_int (String.length sparc) /. float_of_int (String.length wire)
     > 3.0)

let test_mtf_effect_bounded () =
  (* On this corpus MTF before the final deflate is roughly neutral (the
     deflate stage already exploits the locality MTF would expose); the
     ablation bench reports the exact numbers. Here we only pin that it
     stays within 10% either way. *)
  let ir = Lazy.force medium_ir in
  let with_mtf = String.length (Wire.compress ir) in
  let without = String.length (Wire.compress ~use_mtf:false ir) in
  Alcotest.(check bool) "mtf within 10%" true
    (float_of_int with_mtf <= 1.10 *. float_of_int without
    && float_of_int without <= 1.10 *. float_of_int with_mtf)

let test_split_streams_help () =
  (* the paper's stream-separation insight must show: pooling all literal
     classes into one stream compresses worse *)
  let ir = Lazy.force medium_ir in
  let split = String.length (Wire.compress ir) in
  let pooled = String.length (Wire.compress ~split_streams:false ir) in
  Alcotest.(check bool) "splitting wins" true (split < pooled)

let test_arith_final_stage () =
  let ir = compile Corpus.Programs.qsort.Corpus.Programs.source in
  List.iter
    (fun order ->
      let z = Wire.compress ~final_stage:(Wire.Arith order) ir in
      Alcotest.(check bool)
        (Printf.sprintf "arith order-%d roundtrip" order)
        true
        (Ir.Tree.equal_program ir (Wire.decompress_exn z)))
    [ 0; 1; 2; 3 ]

let test_arith_competitive () =
  (* the design-space claim: a context-modelling arithmetic final stage
     is competitive with deflate on a large bundle *)
  let ir = Lazy.force medium_ir in
  let d = String.length (Wire.compress ir) in
  let a = String.length (Wire.compress ~final_stage:(Wire.Arith 2) ir) in
  Alcotest.(check bool) "within 15% of deflate" true
    (float_of_int a <= 1.15 *. float_of_int d)

let test_bad_order_rejected () =
  let ir = compile "int main() { return 0; }" in
  match Wire.compress ~final_stage:(Wire.Arith 9) ir with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "order 9 must be rejected"

(* ---- chunked (function-at-a-time) ---- *)

let test_chunked_roundtrip () =
  let ir = compile Corpus.Programs.calc.Corpus.Programs.source in
  let c =
    Wire.Chunked.of_bytes_exn
      (Wire.Chunked.to_bytes (Wire.Chunked.compress ir))
  in
  Alcotest.(check bool) "whole program" true
    (Ir.Tree.equal_program ir (Wire.Chunked.decompress_all c))

let test_chunked_single_function () =
  let ir = compile Corpus.Programs.qsort.Corpus.Programs.source in
  let c = Wire.Chunked.compress ir in
  let f = Wire.Chunked.decompress_function c "partition" in
  let orig = List.find (fun (g : Ir.Tree.func) -> g.Ir.Tree.fname = "partition") ir.Ir.Tree.funcs in
  Alcotest.(check bool) "one function materializes exactly" true (f = orig);
  Alcotest.(check bool) "unknown name" true
    (match Wire.Chunked.decompress_function c "ghost" with
    | exception Not_found -> true
    | _ -> false)

let test_chunked_tradeoff () =
  (* per-function chunks lose cross-function sharing: bigger than the
     monolithic wire image, smaller than uncompressed SPARC *)
  let ir = Lazy.force medium_ir in
  let mono = String.length (Wire.compress ir) in
  let chunked = Wire.Chunked.size (Wire.Chunked.compress ir) in
  let sparc = Native.Sparc.program_size (Vm.Codegen.gen_program ir) in
  Alcotest.(check bool) "chunked > monolithic" true (chunked > mono);
  Alcotest.(check bool) "chunked < sparc" true (chunked < sparc)

let test_chunked_names () =
  let ir = compile "int a() { return 1; } int b() { return 2; } int main() { return a() + b(); }" in
  let c = Wire.Chunked.compress ir in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "main" ]
    (Wire.Chunked.function_names c);
  Alcotest.(check bool) "chunk sizes positive" true
    (List.for_all (fun n -> Wire.Chunked.chunk_size c n > 0)
       (Wire.Chunked.function_names c))

(* parallel stream encode must be a pure speedup: identical bytes to
   the sequential path, for both the flat bundle and the chunked
   container, across ablation variants *)
let test_pool_byte_identical () =
  let pool = Support.Pool.create ~domains:4 in
  List.iter
    (fun (e : Corpus.Programs.entry) ->
      let ir = compile e.Corpus.Programs.source in
      Alcotest.(check string) "wire" (Wire.compress ir)
        (Wire.compress ~pool ir);
      Alcotest.(check string) "wire no-mtf"
        (Wire.compress ~use_mtf:false ir)
        (Wire.compress ~use_mtf:false ~pool ir);
      Alcotest.(check string) "chunked"
        (Wire.Chunked.to_bytes (Wire.Chunked.compress ir))
        (Wire.Chunked.to_bytes (Wire.Chunked.compress ~pool ir)))
    Corpus.Programs.all;
  Support.Pool.shutdown pool

let test_deterministic () =
  let ir = compile Corpus.Programs.strlib.Corpus.Programs.source in
  Alcotest.(check bool) "same bytes" true (Wire.compress ir = Wire.compress ir)

let () =
  Alcotest.run "wire"
    [
      ("roundtrip", corpus_cases);
      ( "edge_cases",
        [
          Alcotest.test_case "empty program" `Quick test_empty_program;
          Alcotest.test_case "globals only" `Quick test_globals_only;
          Alcotest.test_case "void function" `Quick test_void_function;
          Alcotest.test_case "preserves semantics" `Quick test_preserves_semantics;
          Alcotest.test_case "corrupt magic" `Quick test_corrupt_magic;
          Alcotest.test_case "truncated" `Quick test_truncated_input;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "pool byte-identical" `Quick
            test_pool_byte_identical;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "wire: flip every byte" `Quick
            test_wire_flip_every_byte;
          Alcotest.test_case "wire: every truncation" `Quick
            test_wire_every_truncation;
          Alcotest.test_case "chunked: flip every byte" `Quick
            test_chunked_flip_every_byte;
          Alcotest.test_case "chunked: every truncation" `Quick
            test_chunked_every_truncation;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "stats consistency" `Slow test_stats_consistency;
          Alcotest.test_case "stats describe the image" `Quick
            test_stats_describe_image;
          Alcotest.test_case "beats gzip (medium)" `Slow test_beats_gzip_on_medium;
          Alcotest.test_case "mtf effect bounded" `Slow test_mtf_effect_bounded;
          Alcotest.test_case "stream split effect" `Slow test_split_streams_help;
          Alcotest.test_case "arith final stage" `Quick test_arith_final_stage;
          Alcotest.test_case "arith competitive" `Slow test_arith_competitive;
          Alcotest.test_case "bad arith order" `Quick test_bad_order_rejected;
        ] );
      ( "chunked",
        [
          Alcotest.test_case "roundtrip" `Quick test_chunked_roundtrip;
          Alcotest.test_case "single function" `Quick test_chunked_single_function;
          Alcotest.test_case "size trade-off" `Slow test_chunked_tradeoff;
          Alcotest.test_case "names and sizes" `Quick test_chunked_names;
        ] );
    ]
