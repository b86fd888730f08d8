(* Metric names, units and the result line. The lists here are the ones
   BENCHMARK.json declares; run.py checks the two agree on every run. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_ms", "ms"); ("tail_ms", "ms");
    ("bytes_per_op", "B"); ("peak_rss_mb", "MB") ]

(* codecs whose decode the serve workloads time (the ones the stock
   profiles are served), and the artifact menu whose encode the store
   pays, with the costliest stages of each *)
let decoded_codecs = [ "native"; "brisc"; "wire-range-opt" ]

let encoded_codecs =
  [ "native"; "gzip-native"; "wire"; "wire-range"; "chunked-wire"; "brisc"; "deflate-opt";
    "wire-range-opt" ]

let costly_stages =
  [ ("wire", "mtf-huffman"); ("wire-range", "mtf-huffman"); ("wire-range", "range-2");
    ("wire-range-opt", "mtf-huffman"); ("wire-range-opt", "range-opt");
    ("brisc", "dict-markov"); ("chunked-wire", "chunk-wire") ]

let per_layer =
  [ ("load.rpc_ms", "ms"); ("load.verify_us", "us"); ("load.late_ms", "ms");
    ("net.resp_encode_us", "us"); ("net.resp_decode_us", "us"); ("net.resp_bytes", "B");
    ("net.served_frames", "count"); ("net.shed", "count"); ("net.bad_frames", "count");
    ("daemon.cache_hits", "count"); ("daemon.cache_misses", "count");
    ("daemon.cache_evictions", "count");
    ("server.fetch_hit_ms", "ms"); ("server.fetch_hits", "count");
    ("server.fetch_miss_ms", "ms"); ("server.fetch_misses", "count");
    ("server.open_ms", "ms"); ("server.chunk_us", "us"); ("chunk.decompress_us", "us");
    ("store.hit_ratio", "ratio"); ("store.evictions", "count"); ("store.compressions", "count");
    ("store.compress_s", "s"); ("store.useful_compress_ratio", "ratio") ]
  @ List.map (fun c -> ("codec.decode_ms." ^ c, "ms")) decoded_codecs
  @ List.map (fun c -> ("codec.encode_ms." ^ c, "ms")) encoded_codecs
  @ List.map (fun (c, s) -> (Printf.sprintf "codec.stage_ms.%s.%s" c s, "ms")) costly_stages
  @ [ ("cc.compile_ms", "ms"); ("brisc.compress_s", "s"); ("chunked.compress_ms", "ms");
      ("layout.profile_ms", "ms"); ("paged.run_vm_ms", "ms"); ("paged.run_brisc_ms", "ms");
      ("chunked.decompress_at_us", "us"); ("pager.faults", "count"); ("pager.hits", "count");
      ("pager.evictions", "count"); ("pager.stall_cycles", "cycles"); ("pager.hit_ratio", "ratio");
      ("paged.stall_overhead", "ratio"); ("paged.code_bytes", "B"); ("vm.resident_run_ms", "ms");
      ("trace.untraced_ops_per_s", "1/s"); ("trace.traced_ops_per_s", "1/s");
      ("trace.overhead", "ratio") ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* ---- latency summaries ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = Support.Quantile.percentile (sorted xs) 0.5

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* The tail: the highest percentile of the ladder, at most [cap], with
   at least ten samples beyond it. Returns (percentile, value, samples). *)
let tail ~cap xs =
  let a = sorted xs in
  let n = Array.length a in
  let p =
    List.find_opt
      (fun p -> p <= cap && float n *. (100. -. p) /. 100. >= 10.)
      [ 99.9; 99.; 95.; 90.; 75.; 50. ]
    |> Option.value ~default:50.
  in
  (p, Support.Quantile.percentile a (p /. 100.), n)

(* ---- the result line ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  absent : (string * string) list;  (** per-layer metric, why it has no value *)
}

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the notes, then the JSON line; every metric of the selected
   list must have a value, or (per-layer only) a stated reason *)
let print ~trace r =
  let declared = if trace then per_layer else end_to_end in
  List.iter
    (fun why ->
      let names = List.filter_map (fun (n, w) -> if w = why then Some n else None) r.absent in
      Printf.printf "absent (%s): %s\n" why (String.concat " " names))
    (List.sort_uniq compare (List.map snd r.absent));
  let field (name, unit) =
    let v =
      match List.assoc_opt name r.values with
      | Some v when Float.is_finite v -> v
      | Some _ -> failwith ("metric " ^ name ^ " is not finite")
      | None when trace && List.mem_assoc name r.absent -> 0.
      | None -> failwith ("metric " ^ name ^ " has no value")
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct (max 1 r.attempted) r.failed
    (String.concat ", " (List.map field declared))
