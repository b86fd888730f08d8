(* wirec — wire-format compressor / decompressor (paper §3).

     wirec compress prog.c -o prog.wire [--stats] [--no-mtf] [--no-split]
     wirec decompress prog.wire          (prints the recovered IR)
*)

let do_compress file out stats no_mtf no_split =
  let ir = Cc.Lower.compile (Cli.read_file file) in
  let use_mtf = not no_mtf and split_streams = not no_split in
  let z = Wire.compress ~use_mtf ~split_streams ir in
  let out = match out with Some o -> o | None -> file ^ ".wire" in
  Cli.write_file out z;
  Printf.printf "%s -> %s (%d bytes)\n" file out (String.length z);
  if stats then begin
    let s = Wire.stats (Wire.patternize ~use_mtf ~split_streams ir) in
    Printf.printf "  statements: %d (%d distinct patterns)\n" s.Wire.pattern_count
      s.Wire.distinct_patterns;
    Printf.printf "  header %d B\n" s.Wire.header_bytes;
    Printf.printf "  pattern stream %d B + novel table %d B\n"
      s.Wire.pattern_stream_bytes s.Wire.novel_table_bytes;
    List.iter
      (fun (cls, bytes) -> Printf.printf "  literal stream %-10s %6d B\n" cls bytes)
      s.Wire.literal_stream_bytes;
    Printf.printf "  bundle %d B -> deflated %d B\n" s.Wire.bundle_bytes
      s.Wire.wire_bytes
  end;
  0

let do_decompress file =
  match Wire.decompress (Cli.read_file file) with
  | Ok ir ->
    print_string (Ir.Printer.program_to_string ir);
    0
  | Error e ->
    Printf.eprintf "wirec: %s: %s\n" file (Support.Decode_error.to_string e);
    1

open Cmdliner

let file0 = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print stream statistics.")
let no_mtf = Arg.(value & flag & info [ "no-mtf" ] ~doc:"Skip move-to-front coding (ablation).")
let no_split = Arg.(value & flag & info [ "no-split" ] ~doc:"Pool all literal streams (ablation).")

let compress_cmd =
  Cmd.v (Cmd.info "compress" ~doc:"Compile MiniC and compress to the wire format")
    Term.(const do_compress $ file0 $ out $ stats $ no_mtf $ no_split)

let decompress_cmd =
  Cmd.v (Cmd.info "decompress" ~doc:"Decompress and print the recovered IR")
    Term.(const do_decompress $ file0)

let cmd =
  Cmd.group
    (Cmd.info "wirec" ~doc:"Wire-format code compressor (PLDI'97 section 3)"
       ~man:Cli.man_codecs)
    [ compress_cmd; decompress_cmd ]

let () =
  Cli.handle_list_codecs ();
  exit (Cmd.eval' cmd)
