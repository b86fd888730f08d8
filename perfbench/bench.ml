(* bench.exe --workload W --seed N --seconds S --trace 0|1 --mccd PATH

   Runs one workload of the repository benchmark and prints, as its last
   line, one JSON object: correct, attempted, failed, and the metrics —
   the end-to-end ones with --trace 0, the per-layer ones with
   --trace 1. run.py builds this and mccd and is what callers run. *)

open Perfbench

(* why a per-layer metric has no value on a workload *)
let why_absent workload name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if workload = "paged-exec" then "paged-exec runs in process, with no daemon"
  else if List.exists has [ "cc."; "brisc."; "chunked."; "layout."; "paged."; "pager."; "vm." ] then
    "only paged-exec executes code"
  else if has "server.fetch" then "no fetch took this path"
  else if has "codec.decode_ms." then "codec not served"
  else if has "codec." then "codec not compressed"
  else if name = "store.useful_compress_ratio" then "no compressions in the phase"
  else "not measured on this workload"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and mccd = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME serve-hot | paged-exec");
      ("--seed", Arg.Set_int seed, "N op-list and program seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--mccd", Arg.Set_string mccd, "PATH the daemon executable") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --mccd PATH";
  let trace = !trace = 1 and seed = Int64.of_int !seed in
  let r =
    match !workload with
    | "paged-exec" -> Paged.run ~seed ~seconds:!seconds ~trace
    | "serve-hot" ->
      if !mccd = "" then failwith "--mccd is required";
      Serve.run ~exe:!mccd ~seed ~seconds:!seconds ~trace
    | w -> failwith ("unknown workload " ^ w)
  in
  let absent =
    if trace then
      List.filter_map
        (fun (n, _) -> if List.mem_assoc n r.Report.values then None else Some (n, why_absent !workload n))
        Report.per_layer
    else []
  in
  Report.print ~trace { r with Report.absent }
