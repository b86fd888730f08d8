(* Shared helpers for the driver CLIs (briscc, wirec, briscrun, mccd).

   One place for file I/O, the codec-registry listing every tool offers
   behind [--list-codecs], and the man-page section describing it — so
   the four tools parse flags, print help, and exit the same way
   (cmdliner conventions: 0 success, 1 tool failure, 124 usage). *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* one row of the registry listing: name, tag, how it is served *)
let codec_rows () =
  List.map
    (fun (e : Codec.entry) ->
      let modes =
        List.map Scenario.Delivery.repr_name e.Codec.modes
        @ (if e.Codec.streamable then [ "streamed chunks" ] else [])
      in
      let served =
        match modes with [] -> "stage/bench only" | ms -> String.concat ", " ms
      in
      (Codec.name e.Codec.codec, Codec.tag e.Codec.codec, served))
    (Codec.all ())

let print_codecs () =
  Printf.printf "%-14s %-4s %s\n" "codec" "tag" "served as";
  List.iter
    (fun (name, tag, served) -> Printf.printf "%-14s %-4s %s\n" name tag served)
    (codec_rows ())

(* the same listing as a markdown table — the README representation
   table is generated from this (`mccd --list-codecs-md`) *)
let print_codecs_md () =
  print_string "| codec | tag | served as |\n|---|---|---|\n";
  List.iter
    (fun (name, tag, served) ->
      Printf.printf "| `%s` | `%s` | %s |\n" name tag served)
    (codec_rows ())

(* per-stage trace lines, the same shape mccd's stats report prints *)
let print_trace (trace : Codec.trace) =
  List.iter
    (fun (s : Codec.stage) ->
      Printf.printf "  stage %-12s %8d B in -> %8d B out  %.3fs\n"
        s.Codec.stage s.Codec.bytes_in s.Codec.bytes_out s.Codec.wall_s)
    trace

(* [--list-codecs] must work without the tool's positional arguments,
   so it is handled before cmdliner parsing. *)
let handle_list_codecs () =
  if Array.exists (( = ) "--list-codecs") Sys.argv then begin
    print_codecs ();
    exit 0
  end;
  if Array.exists (( = ) "--list-codecs-md") Sys.argv then begin
    print_codecs_md ();
    exit 0
  end

let man_codecs =
  [ `S "CODECS";
    `P
      "$(b,--list-codecs) prints the codec registry (name, tag, how each \
       is served) and exits; $(b,--list-codecs-md) prints it as a \
       markdown table. The registry is the single source of the \
       delivery server's representation menu." ]

(* Publish the corpus catalog the serve daemon serves. The flavors live
   in Sim.Catalog so traces can name the key space they were cut
   against; generated programs get stable short names (gen24, gen40,
   ...) so logs and traces can refer to them. *)
let publish_catalog ?(quick = false) engine =
  Sim.Catalog.publish engine
    (if quick then Sim.Catalog.Quick else Sim.Catalog.Full)
