(* Fuzz layer: seeded mutations through Support.Fault against every
   untrusted-input decoder. The single property under test is totality:
   whatever the mutation, a decoder must return [Ok] or a typed
   [Error] — an escaped exception (or an OOM-scale allocation, which
   the bounded-allocation checks turn into [Error]) fails the run.

   Iteration count per decoder comes from FUZZ_ITERS (default 10_000;
   `make fuzz-quick` runs a bounded pass with 1_500). *)

let iters =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 10_000)
  | None -> 10_000

(* ---- seed corpus: valid artifacts to mutate ---- *)

let programs =
  [ "int main() { return 0; }";
    "int f(int x) { return x * 3 + 1; }\n\
     int main() { int i; int s; s = 0; for (i = 0; i < 9; i++) s = s + f(i);\n\
     print_int(s); return s; }";
    Corpus.Programs.calc.Corpus.Programs.source ]

let irs = List.map Cc.Lower.compile programs
let vps = List.map Vm.Codegen.gen_program irs

let texts =
  [ ""; "x"; String.make 400 'a';
    String.concat "" (List.map string_of_int (List.init 120 (fun i -> i * 7))) ]

(* run [decode] over [iters] mutants drawn from [seeds]; [decode] does
   its own result match and Ok-side checks, and must never raise *)
let fuzz name seed seeds decode () =
  let rng = Support.Prng.create seed in
  let seeds = Array.of_list seeds in
  for i = 1 to iters do
    let mutant = Support.Fault.mutate rng (Support.Prng.pick rng seeds) in
    try decode rng mutant
    with e ->
      Alcotest.fail
        (Printf.sprintf "%s: iteration %d: exception escaped: %s" name i
           (Printexc.to_string e))
  done

(* ---- zip stack ---- *)

let fuzz_huffman =
  let seeds =
    List.map
      (fun t ->
        Bytes.to_string
          (Zip.Huffman.encode_all
             (Array.init (String.length t) (fun i -> Char.code t.[i] land 31))
             ~alphabet:32))
      texts
  in
  fuzz "huffman" 101L seeds (fun _ m ->
      match Zip.Huffman.decode_all (Bytes.of_string m) with
      | Ok _ | Error _ -> ())

(* seeds whose code pushes past the 10-bit root table (skewed,
   wide-alphabet frequencies force 11..15-bit words), so mutants drive
   both the table hit and the slow-path fallback of the table-driven
   decoder; surviving mutants must decode identically on both paths *)
let fuzz_huffman_decode_table =
  let skewed =
    let rng = Support.Prng.create 0x7AB1EL in
    List.init 3
      (fun k ->
        Array.init (600 + (k * 200)) (fun i ->
            if i land 7 = 0 then Support.Prng.int rng 200
            else Support.Prng.int rng 4))
  in
  let seeds =
    List.map (fun syms -> Bytes.to_string (Zip.Huffman.encode_all syms ~alphabet:200)) skewed
  in
  fuzz "huffman decode-table" 114L seeds (fun _ m ->
      match Zip.Huffman.decode_all (Bytes.of_string m) with
      | Error _ -> ()
      | Ok syms ->
        (* accepted mutants re-encode and decode to the same stream *)
        let alphabet = Array.fold_left max 0 syms + 1 in
        let z = Zip.Huffman.encode_all syms ~alphabet in
        assert (Zip.Huffman.decode_all_exn z = syms))

let fuzz_deflate =
  let seeds = List.map Zip.Deflate.compress texts in
  fuzz "deflate" 102L seeds (fun _ m ->
      match Zip.Deflate.decompress m with
      | Error _ -> ()
      | Ok s ->
        (* a mutant that still decodes must round-trip through our own
           compressor *)
        if String.length s < 1_000_000 then
          assert (Zip.Deflate.decompress_exn (Zip.Deflate.compress s) = s))

let fuzz_range order seed =
  let seeds = List.map (Zip.Range_coder.compress_order_n ~order) texts in
  fuzz
    (Printf.sprintf "range order-%d" order)
    seed seeds
    (fun _ m ->
      match Zip.Range_coder.decompress_order_n ~order m with
      | Ok _ | Error _ -> ())

(* ---- wire ---- *)

let fuzz_wire =
  let seeds = List.map Wire.compress irs in
  fuzz "wire" 104L seeds (fun _ m ->
      match Wire.decompress m with
      | Ok _ | Error _ -> ())

(* mutate the bundle *behind* the CRC frame and re-frame it validly, so
   the parser itself — not just the checksum — faces hostile input *)
let frame body =
  let crc = Support.Util.crc32 body in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((crc lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (crc land 0xff));
  Bytes.to_string hdr ^ body

let fuzz_wire_bundle ?use_mtf name seed =
  let seeds =
    List.map
      (fun ir ->
        let z = Wire.compress ?use_mtf ir in
        let body = String.sub z 4 (String.length z - 4) in
        Zip.Deflate.decompress_exn (String.sub body 1 (String.length body - 1)))
      irs
  in
  fuzz name seed seeds (fun _ bundle ->
      let z = frame ("D" ^ Zip.Deflate.compress bundle) in
      match Wire.decompress z with
      | Ok _ | Error _ -> ())

let fuzz_chunked =
  let seeds =
    List.map (fun ir -> Wire.Chunked.to_bytes (Wire.Chunked.compress ir)) irs
  in
  fuzz "chunked" 106L seeds (fun _ m ->
      match Wire.Chunked.of_bytes m with
      | Error _ -> ()
      | Ok c ->
        (* container framing survived; each chunk is opaque payload the
           client expands with the total Wire decoder *)
        List.iter
          (fun n ->
            match Wire.decompress (Wire.Chunked.chunk c n) with
            | Ok _ | Error _ -> ())
          (Wire.Chunked.function_names c))

(* the chunked body behind its own CRC: mutate, recompute the checksum,
   reassemble — forcing the container parser past the integrity check *)
let frame_with ~magic body = magic ^ frame body

let fuzz_chunked_body =
  let seeds =
    List.map
      (fun ir ->
        let img = Wire.Chunked.to_bytes (Wire.Chunked.compress ir) in
        String.sub img 8 (String.length img - 8))
      irs
  in
  fuzz "chunked inner body" 107L seeds (fun _ body ->
      match Wire.Chunked.of_bytes (frame_with ~magic:"WCH3" body) with
      | Ok _ | Error _ -> ())

(* the WCH3 random-access index under mutation: any container the
   parser accepts must serve the whole O(1) access surface — names,
   sizes, chunk bytes, per-chunk decompression — without an exception
   escaping (corrupt chunk payloads surface as typed decode errors) *)
let fuzz_chunked_index =
  let seeds =
    List.map
      (fun ir ->
        let img = Wire.Chunked.to_bytes (Wire.Chunked.compress ir) in
        String.sub img 8 (String.length img - 8))
      irs
  in
  fuzz "chunked index" 115L seeds (fun _ body ->
      match Wire.Chunked.of_bytes (frame_with ~magic:"WCH3" body) with
      | Error _ -> ()
      | Ok c ->
        for i = 0 to Wire.Chunked.chunk_count c - 1 do
          let name = Wire.Chunked.name_at c i in
          (match Wire.Chunked.index_of c name with
          | Some j -> assert (Wire.Chunked.name_at c j = name)
          | None -> assert false);
          assert (
            String.length (Wire.Chunked.chunk_at c i)
            = Wire.Chunked.chunk_size_at c i);
          match Wire.Chunked.decompress_at c i with
          | _ -> ()
          | exception Support.Decode_error.Fail _ -> ()
        done)

(* demand-paged execution over corrupt chunks: the pager's fault path
   decompresses mid-run, so a hostile chunk must surface as
   [Error (Decode _)] (or a trap), never as an exception escaping the
   engine — the budget is kept below one page so eviction and re-fault
   paths run too *)
let fuzz_paged_exec =
  let seeds =
    List.map
      (fun ir ->
        let img = Wire.Chunked.to_bytes (Wire.Chunked.compress ir) in
        String.sub img 8 (String.length img - 8))
      irs
  in
  fuzz "paged exec" 116L seeds (fun _ body ->
      match Wire.Chunked.of_bytes (frame_with ~magic:"WCH3" body) with
      | Error _ -> ()
      | Ok c -> (
        let cfg =
          Scenario.Paged.config ~page_bytes:64 ~budget_bytes:48 ()
        in
        match Scenario.Paged.run_vm ~cfg ~fuel:20_000 c with
        | Ok _ | Error _ -> ()))

(* ---- brisc ---- *)

let fuzz_brisc_container =
  let seeds = List.map (fun vp -> Brisc.to_bytes (Brisc.compress vp)) vps in
  fuzz "brisc container" 108L seeds (fun _ m ->
      match Brisc.of_bytes m with
      | Error _ -> ()
      | Ok img -> (
        (* a surviving container must also decompress totally *)
        match Brisc.Decomp.decompress img with Ok _ | Error _ -> ()))

(* structured: corrupt one function's code stream inside an otherwise
   valid image — exercises the Markov walker and the fuel guard rather
   than the container parser *)
let fuzz_brisc_decomp =
  let images = List.map Brisc.compress vps in
  fuzz "brisc decomp" 109L [ "" ] (fun rng _ ->
      let img = Support.Prng.pick rng (Array.of_list images) in
      let n = Array.length img.Brisc.Emit.ifuncs in
      if n > 0 then begin
        let k = Support.Prng.int rng n in
        let ifuncs =
          Array.mapi
            (fun i (f : Brisc.Emit.ifunc) ->
              if i = k then
                { f with Brisc.Emit.code = Support.Fault.mutate rng f.Brisc.Emit.code }
              else f)
            img.Brisc.Emit.ifuncs
        in
        match Brisc.Decomp.decompress { img with Brisc.Emit.ifuncs } with
        | Ok _ | Error _ -> ()
      end)

(* ---- vm ---- *)

let fuzz_vm_encode =
  let seeds = List.map Vm.Encode.encode_program vps in
  fuzz "vm encode" 110L seeds (fun _ m ->
      match Vm.Encode.decode_program m with
      | Error _ -> ()
      | Ok vp ->
        (* anything the decoder accepts must re-encode canonically *)
        assert (Vm.Encode.decode_program_exn (Vm.Encode.encode_program vp) = vp))

(* ---- structured hostile inputs (no byte container to mutate) ---- *)

let fuzz_mtf_structured =
  fuzz "mtf structured" 111L [ "" ] (fun rng _ ->
      let len = Support.Prng.int rng 40 in
      let indices =
        Array.init len (fun _ -> Support.Prng.int rng 50 - 3)  (* incl. negatives *)
      in
      let max_novel = Support.Prng.int rng 8 in
      match
        Support.Decode_error.guard ~decoder:"mtf" (fun () ->
            Zip.Mtf.decode_ids ~max_novel indices)
      with
      | Ok _ | Error _ -> ())

(* ---- registry-driven: one mutation row per registered codec ----

   Seeds come from [Codec.encode] on the same programs, so the rows
   track the registry: registering a new representation adds its
   totality row here with no edits. Context-requiring codecs encode
   under the context the server would supply, and their mutants are
   additionally decoded under the wrong context and under none —
   a hostile patch against an absent or mismatched base must come back
   as a typed error, never an exception. *)

let codec_rows =
  let sources =
    lazy
      (List.map2 (fun ir vp -> Codec.Source.of_ir ~vm:vp ir) irs vps)
  in
  let ctx_of (e : Codec.entry) =
    match e.Codec.needs with
    | `None -> None
    | `Shared_dict _ -> Some (Codec.Context.builtin ())
    | `Base _ ->
      Some
        (Codec.Context.base
           ~ir_text:(Ir.Printer.program_to_string (List.hd irs)))
  in
  let wrong_ctx_of (e : Codec.entry) =
    match e.Codec.needs with
    | `None -> None
    | `Shared_dict _ ->
      Some (Codec.Context.shared ~lz:"not the committed dictionary" ~pats_bytes:"")
    | `Base _ ->
      Some
        (Codec.Context.base
           ~ir_text:(Ir.Printer.program_to_string (List.nth irs 1)))
  in
  List.mapi
    (fun i (e : Codec.entry) ->
      let c = e.Codec.codec in
      let name = "codec:" ^ Codec.name c in
      let run () =
        let ctx = ctx_of e and wrong = wrong_ctx_of e in
        let seeds =
          List.map (fun src -> fst (Codec.encode ?ctx c src)) (Lazy.force sources)
        in
        fuzz name (Int64.of_int (200 + i)) seeds
          (fun _ m ->
            (match Codec.decode ?ctx c m with Ok _ | Error _ -> ());
            if ctx <> None then begin
              (match Codec.decode c m with Ok _ | Error _ -> ());
              match Codec.decode ?ctx:wrong c m with Ok _ | Error _ -> ()
            end)
          ()
      in
      Alcotest.test_case name `Quick run)
    (Codec.all ())

(* ---- simulator trace format ---- *)

(* seeds: one valid rendered trace per scenario generator, so the
   mutations walk headers, meta lines, event rows and fault clauses *)
let fuzz_trace =
  let seeds =
    lazy
      (List.map
         (fun (s : Sim.Gen.spec) ->
           let t =
             s.Sim.Gen.generate ~seed:7L ~events:60
               ~keys:[ "wc"; "sieve"; "calc"; "crc" ]
           in
           Sim.Trace.to_string { t with Sim.Trace.catalog = "mini" })
         Sim.Gen.all)
  in
  fun () ->
    fuzz "trace" 131L (Lazy.force seeds)
      (fun _ m -> match Sim.Trace.of_string m with Ok _ | Error _ -> ())
      ()

let fuzz_lz77_structured =
  fuzz "lz77 structured" 112L [ "" ] (fun rng _ ->
      let len = Support.Prng.int rng 40 in
      let tokens =
        List.init len (fun _ ->
            if Support.Prng.bool rng then
              Zip.Lz77.Literal (Support.Prng.int rng 600 - 100)
            else
              Zip.Lz77.Match
                {
                  length = Support.Prng.int rng 1000 - 100;
                  dist = Support.Prng.int rng 100_000 - 1000;
                })
      in
      match Zip.Lz77.reconstruct tokens with Ok _ | Error _ -> ())

let () =
  Printf.printf "fuzz: %d iterations per decoder\n%!" iters;
  Alcotest.run "fuzz"
    [
      ( "totality",
        [
          Alcotest.test_case "huffman" `Quick fuzz_huffman;
          Alcotest.test_case "huffman decode-table" `Quick
            fuzz_huffman_decode_table;
          Alcotest.test_case "deflate" `Quick fuzz_deflate;
          Alcotest.test_case "range order-0" `Quick (fuzz_range 0 103L);
          Alcotest.test_case "range order-2" `Quick (fuzz_range 2 113L);
          Alcotest.test_case "wire" `Quick fuzz_wire;
          Alcotest.test_case "wire inner bundle" `Quick
            (fuzz_wire_bundle "wire inner bundle" 105L);
          (* the MTF ablation's bundles take the first-occurrence
             branch of the symbol decoder *)
          Alcotest.test_case "wire no-mtf inner bundle" `Quick
            (fuzz_wire_bundle ~use_mtf:false "wire no-mtf inner bundle" 117L);
          Alcotest.test_case "chunked" `Quick fuzz_chunked;
          Alcotest.test_case "chunked inner body" `Quick fuzz_chunked_body;
          Alcotest.test_case "chunked index" `Quick fuzz_chunked_index;
          Alcotest.test_case "paged exec" `Quick fuzz_paged_exec;
          Alcotest.test_case "brisc container" `Quick fuzz_brisc_container;
          Alcotest.test_case "brisc decomp" `Quick fuzz_brisc_decomp;
          Alcotest.test_case "vm encode" `Quick fuzz_vm_encode;
          Alcotest.test_case "mtf structured" `Quick fuzz_mtf_structured;
          Alcotest.test_case "lz77 structured" `Quick fuzz_lz77_structured;
          Alcotest.test_case "sim trace" `Quick fuzz_trace;
        ]
        @ codec_rows );
    ]
