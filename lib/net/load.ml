(* Closed- and open-loop load generator for the mccd daemon.

   N clients share one op counter. In closed-loop mode (qps = 0) each
   client fires its next request the moment the previous response
   lands, so the measured rate is the server's max sustained
   throughput. In open-loop mode op [i] is *scheduled* at
   [t0 + i / qps] and latency is measured from the scheduled instant,
   not the send instant — queueing delay the server causes shows up in
   the percentiles instead of silently stretching the run
   (closed-loop generators hide overload; open-loop ones expose it).

   The workload mirrors [Sim.Gen]'s steady fleet: Zipf-ish program
   popularity (weight 1000/(rank+1) in catalog order), a profile drawn
   per fetch, and a configurable slice of streaming clients that open a
   chunked session and page functions in. Everything is seeded
   [Support.Prng], so a run is reproducible.

   Every response is verified end-to-end when [verify] is set: whole
   artifacts go through their named codec's total decoder, chunk
   payloads through [Wire.decompress]. A response that fails to decode
   counts as [corrupt] — the bench gate requires that count to be
   zero. *)

type config = {
  port : int;
  clients : int;
  requests : int;            (* total ops across all clients *)
  qps : float;               (* 0. = closed loop *)
  seed : int64;
  stream_pct : int;          (* % of non-session ops that open a session *)
  chunks_per_session : int;
  domains : int;             (* client threads are spread over domains *)
  profiles : string list;    (* profile names Fetch draws from *)
  verify : bool;
}

let default_config =
  {
    port = 0;
    clients = 16;
    requests = 2000;
    qps = 0.;
    seed = 42L;
    stream_pct = 25;
    chunks_per_session = 6;
    domains = 4;
    profiles = [ "modem-jit"; "lan-jit"; "embedded"; "datacenter" ];
    verify = true;
  }

(* quantile math lives in Support.Quantile (the simulator and benches
   use it without a net dependency); re-exported here for the report
   types and historical callers *)
type bucket = Support.Quantile.bucket = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

let empty_bucket = Support.Quantile.empty_bucket
let percentile = Support.Quantile.percentile
let bucket_of_ms = Support.Quantile.bucket_of_ms

type report = {
  sent : int;
  ok : int;
  errors : int;          (* typed Err responses + transport failures *)
  shed : int;            (* Overloaded responses *)
  corrupt : int;         (* responses that failed verification *)
  bytes : int;           (* artifact and chunk payload bytes received *)
  wall_s : float;
  achieved_qps : float;
  lat_all : bucket;
  lat_fetch : bucket;
  lat_open : bucket;
  lat_chunk : bucket;
  error_samples : string list;
}

(* ---- per-client state ---- *)

type op_kind = Fetch_op | Open_op | Chunk_op

type session_state = {
  token : string;
  names : string array;       (* the session's index *)
  mutable seq : int;
  mutable left : int;         (* chunks still to pull in this session *)
}

type client_acc = {
  mutable c_sent : int;
  mutable c_ok : int;
  mutable c_errors : int;
  mutable c_shed : int;
  mutable c_corrupt : int;
  mutable c_bytes : int;
  mutable c_samples : string list;
  mutable lat : (op_kind * float) list;  (* latency in ms *)
}

let new_acc () =
  { c_sent = 0; c_ok = 0; c_errors = 0; c_shed = 0; c_corrupt = 0;
    c_bytes = 0; c_samples = []; lat = [] }

let verify_artifact ~codec body =
  match Codec.find codec with
  | None -> false
  | Some e -> (
    match Codec.decode e.Codec.codec body with Ok _ -> true | Error _ -> false)

let verify_chunk payload =
  match Wire.decompress payload with Ok _ -> true | Error _ -> false

let zipf_weights catalog =
  List.mapi (fun rank row -> (1000 / (rank + 1), row)) catalog

let run (cfg : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* one bootstrap connection pulls the catalog all clients share *)
  let catalog =
    let c = Client.connect ~port:cfg.port in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.rpc c Protocol.List with
        | Ok (Protocol.Catalog rows) -> rows
        | Ok _ -> failwith "Load.run: unexpected response to List"
        | Error e ->
          failwith ("Load.run: catalog fetch failed: "
                    ^ Support.Decode_error.to_string e))
  in
  if catalog = [] then failwith "Load.run: server catalog is empty";
  let weights = zipf_weights catalog in
  let profiles = Array.of_list cfg.profiles in
  let ops = Atomic.make 0 in
  let accs = Array.init cfg.clients (fun _ -> new_acc ()) in
  let t0 = Unix.gettimeofday () in

  let run_client idx =
    let acc = accs.(idx) in
    let prng = Support.Prng.create (Int64.add cfg.seed (Int64.of_int idx)) in
    let conn = ref (Some (Client.connect ~port:cfg.port)) in
    let session = ref None in
    let reconnect () =
      (match !conn with Some c -> Client.close c | None -> ());
      conn :=
        (try Some (Client.connect ~port:cfg.port)
         with Unix.Unix_error _ -> None)
    in
    let record kind ms = acc.lat <- (kind, ms) :: acc.lat in
    let sample msg =
      if List.length acc.c_samples < 4 then
        acc.c_samples <- msg :: acc.c_samples
    in
    let finished = ref false in
    while not !finished do
      let i = Atomic.fetch_and_add ops 1 in
      if i >= cfg.requests then finished := true
      else begin
        (* open loop: wait for the op's scheduled arrival; latency is
           measured from that instant so queueing delay counts *)
        let scheduled =
          if cfg.qps > 0. then begin
            let s = t0 +. (float_of_int i /. cfg.qps) in
            let now = Unix.gettimeofday () in
            if s > now then Unix.sleepf (s -. now);
            s
          end
          else Unix.gettimeofday ()
        in
        (if !conn = None then reconnect ());
        match !conn with
        | None ->
          acc.c_sent <- acc.c_sent + 1;
          acc.c_errors <- acc.c_errors + 1;
          sample "connect refused"
        | Some c ->
          let kind, req =
            match !session with
            | Some s when s.left > 0 && Array.length s.names > 0 ->
              let name = s.names.(Support.Prng.int prng (Array.length s.names)) in
              (Chunk_op, Protocol.Chunk { token = s.token; seq = s.seq; name })
            | _ ->
              let row = Support.Prng.weighted prng weights in
              if Support.Prng.int prng 100 < cfg.stream_pct then
                (Open_op,
                 Protocol.Open
                   { codec = ""; digest = row.Protocol.prog_digest;
                     resume = ""; held = [] })
              else
                let profile =
                  profiles.(Support.Prng.int prng (Array.length profiles))
                in
                (Fetch_op,
                 Protocol.Fetch
                   { profile; digest = row.Protocol.prog_digest; held = [] })
          in
          acc.c_sent <- acc.c_sent + 1;
          (match Client.rpc c req with
          | Error e ->
            acc.c_errors <- acc.c_errors + 1;
            sample (Support.Decode_error.to_string e);
            session := None;
            reconnect ()
          | Ok resp -> (
            let ms = (Unix.gettimeofday () -. scheduled) *. 1000. in
            record kind ms;
            match resp with
            | Protocol.Overloaded ->
              acc.c_shed <- acc.c_shed + 1;
              session := None;
              reconnect ()
            | Protocol.Err (code, msg) ->
              acc.c_errors <- acc.c_errors + 1;
              sample (Protocol.err_code_name code ^ ": " ^ msg);
              if code = Protocol.Bad_session || code = Protocol.Bad_seq then
                session := None
            | Protocol.Artifact { codec; body; _ } ->
              acc.c_ok <- acc.c_ok + 1;
              acc.c_bytes <- acc.c_bytes + String.length body;
              if cfg.verify && not (verify_artifact ~codec body) then
                acc.c_corrupt <- acc.c_corrupt + 1
            | Protocol.Index { token; next_seq; rows; _ } ->
              acc.c_ok <- acc.c_ok + 1;
              session :=
                Some
                  {
                    token;
                    names = Array.of_list (List.map fst rows);
                    seq = next_seq;
                    left = cfg.chunks_per_session;
                  }
            | Protocol.Chunk_data payload ->
              acc.c_ok <- acc.c_ok + 1;
              acc.c_bytes <- acc.c_bytes + String.length payload;
              (match !session with
              | Some s ->
                s.seq <- s.seq + 1;
                s.left <- s.left - 1;
                if s.left <= 0 then session := None
              | None -> ());
              if cfg.verify && not (verify_chunk payload) then
                acc.c_corrupt <- acc.c_corrupt + 1
            | Protocol.Pong | Protocol.Catalog _ | Protocol.Dict_data _ ->
              acc.c_ok <- acc.c_ok + 1))
      end
    done;
    match !conn with Some c -> Client.close c | None -> ()
  in

  (* Spread the clients over domains, each domain running its share as
     systhreads: blocked IO releases the domain, so a domain drives
     many connections, and the domains give true parallelism. *)
  let n_domains = max 1 (min cfg.domains cfg.clients) in
  let group d =
    (* client indices d, d + n_domains, d + 2*n_domains, ... *)
    let rec ids i = if i >= cfg.clients then [] else i :: ids (i + n_domains) in
    ids d
  in
  let pool = Support.Pool.create ~domains:n_domains in
  Fun.protect
    ~finally:(fun () -> Support.Pool.shutdown pool)
    (fun () ->
      ignore
        (Support.Pool.run_list pool
           (List.init n_domains (fun d () ->
                let threads =
                  List.map (fun i -> Thread.create run_client i) (group d)
                in
                List.iter Thread.join threads))));
  let wall_s = Unix.gettimeofday () -. t0 in

  (* ---- merge ---- *)
  let bucket kind =
    bucket_of_ms
      (Array.to_list accs
      |> List.concat_map (fun a ->
             List.filter_map
               (fun (k, v) ->
                 if kind = None || kind = Some k then Some v else None)
               a.lat))
  in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 accs in
  let ok = sum (fun a -> a.c_ok) in
  {
    sent = sum (fun a -> a.c_sent);
    ok;
    errors = sum (fun a -> a.c_errors);
    shed = sum (fun a -> a.c_shed);
    corrupt = sum (fun a -> a.c_corrupt);
    bytes = sum (fun a -> a.c_bytes);
    wall_s;
    achieved_qps = (if wall_s > 0. then float_of_int ok /. wall_s else 0.);
    lat_all = bucket None;
    lat_fetch = bucket (Some Fetch_op);
    lat_open = bucket (Some Open_op);
    lat_chunk = bucket (Some Chunk_op);
    error_samples =
      List.concat_map (fun a -> List.rev a.c_samples) (Array.to_list accs);
  }

(* ---- reporting ---- *)

let print_bucket oc label b =
  if b.count > 0 then
    Printf.fprintf oc
      "  %-6s %6d ops   p50 %7.2f ms   p95 %7.2f ms   p99 %7.2f ms   max %7.2f ms\n"
      label b.count b.p50_ms b.p95_ms b.p99_ms b.max_ms

let print_human oc (r : report) =
  Printf.fprintf oc
    "%d ops in %.2f s  (%.0f QPS)   ok %d  errors %d  shed %d  corrupt %d   %.1f MiB received\n"
    r.sent r.wall_s r.achieved_qps r.ok r.errors r.shed r.corrupt
    (float_of_int r.bytes /. 1048576.);
  print_bucket oc "all" r.lat_all;
  print_bucket oc "fetch" r.lat_fetch;
  print_bucket oc "open" r.lat_open;
  print_bucket oc "chunk" r.lat_chunk;
  List.iteri
    (fun i msg -> if i < 4 then Printf.fprintf oc "  error: %s\n" msg)
    r.error_samples

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_bucket b =
  Printf.sprintf
    "{\"count\": %d, \"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}"
    b.count b.mean_ms b.p50_ms b.p95_ms b.p99_ms b.max_ms

let print_json oc (cfg : config) (r : report) =
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"config\": {\"clients\": %d, \"requests\": %d, \"qps\": %.1f, \"stream_pct\": %d, \"domains\": %d, \"seed\": %Ld},\n"
    cfg.clients cfg.requests cfg.qps cfg.stream_pct cfg.domains cfg.seed;
  Printf.fprintf oc "  \"sent\": %d,\n" r.sent;
  Printf.fprintf oc "  \"ok\": %d,\n" r.ok;
  Printf.fprintf oc "  \"errors\": %d,\n" r.errors;
  Printf.fprintf oc "  \"shed\": %d,\n" r.shed;
  Printf.fprintf oc "  \"corrupt\": %d,\n" r.corrupt;
  Printf.fprintf oc "  \"bytes\": %d,\n" r.bytes;
  Printf.fprintf oc "  \"wall_s\": %.3f,\n" r.wall_s;
  Printf.fprintf oc "  \"qps\": %.1f,\n" r.achieved_qps;
  Printf.fprintf oc "  \"latency_ms\": {\n";
  Printf.fprintf oc "    \"all\": %s,\n" (json_bucket r.lat_all);
  Printf.fprintf oc "    \"fetch\": %s,\n" (json_bucket r.lat_fetch);
  Printf.fprintf oc "    \"open\": %s,\n" (json_bucket r.lat_open);
  Printf.fprintf oc "    \"chunk\": %s\n" (json_bucket r.lat_chunk);
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"error_samples\": [%s]\n"
    (String.concat ", "
       (List.filteri (fun i _ -> i < 4) r.error_samples
       |> List.map (fun s -> "\"" ^ json_escape s ^ "\"")));
  Printf.fprintf oc "}\n"
