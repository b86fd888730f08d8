(* Tests for the network layer: protocol totality, the daemon end to
   end over real loopback sockets, session resume across reconnects,
   the bounded session table, overload shedding, registry gating on the
   serve path, graceful drain, and concurrent clients. *)

let prog src = Cc.Lower.compile src

let multi_fn_src =
  "int a(int x) { return x + 1; }\n\
   int b(int x) { return x * 2; }\n\
   int c(int x) { return x - 3; }\n\
   int main() { return a(1) + b(2) + c(3); }"

(* ---- protocol: encode/decode round trips ---- *)

(* encode_* emit the full frame (length prefix included); decode_*
   take the body after the prefix *)
let body_of frame = String.sub frame 4 (String.length frame - 4)

let roundtrip_req r =
  match Net.Protocol.decode_req (body_of (Net.Protocol.encode_req r)) with
  | Ok r' -> r' = r
  | Error _ -> false

let roundtrip_resp r =
  match Net.Protocol.decode_resp (body_of (Net.Protocol.encode_resp r)) with
  | Ok r' -> r' = r
  | Error _ -> false

let test_req_roundtrip () =
  List.iter
    (fun r -> Alcotest.(check bool) "request round-trips" true (roundtrip_req r))
    [
      Net.Protocol.Ping;
      Net.Protocol.List;
      Net.Protocol.Dict;
      Net.Protocol.Fetch
        { profile = "modem-jit"; digest = "abc123"; held = [] };
      Net.Protocol.Fetch
        { profile = "lan-jit"; digest = "abc123"; held = [ "d1"; "d2" ] };
      Net.Protocol.Open
        { codec = ""; digest = "abc123"; resume = ""; held = [] };
      Net.Protocol.Open
        { codec = "chunked-wire"; digest = "d"; resume = "s7";
          held = [ "sd-digest" ] };
      Net.Protocol.Chunk { token = "s0"; seq = 42; name = "main" };
    ]

let test_resp_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "response round-trips" true (roundtrip_resp r))
    [
      Net.Protocol.Pong;
      Net.Protocol.Catalog [];
      Net.Protocol.Catalog
        [
          { Net.Protocol.prog_name = "wc"; prog_digest = "d1"; fn_count = 3 };
          { Net.Protocol.prog_name = "gen24"; prog_digest = "d2"; fn_count = 24 };
        ];
      Net.Protocol.Dict_data
        { lz = String.init 256 Char.chr; pats = "\x02ab\x00"; sd_digest = "sd" };
      Net.Protocol.Artifact
        { label = "wire+JIT"; codec = "wire"; cache_hit = true;
          degraded_from = ""; context = ""; body = String.init 256 Char.chr };
      Net.Protocol.Artifact
        { label = "delta+JIT"; codec = "delta"; cache_hit = false;
          degraded_from = "wire+JIT"; context = "base-digest"; body = "" };
      Net.Protocol.Index
        { token = "s3"; next_seq = 2; context = "";
          rows = [ ("main", 120); ("a", 33) ] };
      Net.Protocol.Index
        { token = "s4"; next_seq = 0; context = "sd-digest"; rows = [] };
      Net.Protocol.Chunk_data "\x00\xff payload";
      Net.Protocol.Err (Net.Protocol.Bad_session, "unknown token");
      Net.Protocol.Err (Net.Protocol.Server_error, "");
      Net.Protocol.Overloaded;
    ]

(* ---- protocol: hostile input is a typed error, never an exception ---- *)

let decode_fails ?kind body =
  match Net.Protocol.decode_req body with
  | Ok _ -> false
  | Error e -> (
    match kind with None -> true | Some k -> e.Support.Decode_error.kind = k)

let test_hostile_requests () =
  let good =
    body_of (Net.Protocol.encode_req
               (Net.Protocol.Fetch { profile = "p"; digest = "d"; held = [] }))
  in
  Alcotest.(check bool) "empty input" true
    (decode_fails ~kind:Support.Decode_error.Bad_magic "");
  Alcotest.(check bool) "wrong magic" true
    (decode_fails ~kind:Support.Decode_error.Bad_magic
       ("XXX" ^ String.sub good 3 (String.length good - 3)));
  Alcotest.(check bool) "truncated" true
    (decode_fails (String.sub good 0 (String.length good - 2)));
  (let corrupt = Bytes.of_string good in
   Bytes.set corrupt (String.length good - 1)
     (Char.chr (Char.code good.[String.length good - 1] lxor 1));
   Alcotest.(check bool) "flipped payload byte fails the CRC" true
     (decode_fails ~kind:Support.Decode_error.Checksum
        (Bytes.to_string corrupt)));
  Alcotest.(check bool) "trailing garbage" true
    (decode_fails ~kind:Support.Decode_error.Checksum (good ^ "junk"));
  (* unknown tag inside a correctly sealed frame *)
  Alcotest.(check bool) "unknown tag" true
    (decode_fails ~kind:Support.Decode_error.Bad_value
       (Support.Frame.seal ~magic:Net.Protocol.magic "Znonsense"));
  (* a length-prefixed string claiming more bytes than the frame has *)
  let b = Buffer.create 16 in
  Buffer.add_char b 'F';
  Support.Util.uleb128 b 1000;
  Buffer.add_string b "short";
  Alcotest.(check bool) "oversized string length" true
    (decode_fails (Support.Frame.seal ~magic:Net.Protocol.magic
                     (Buffer.contents b)));
  (* a held set claiming more digests than the cap is refused before
     any allocation *)
  let b = Buffer.create 16 in
  Buffer.add_char b 'F';
  Support.Frame.put_str b "p";
  Support.Frame.put_str b "d";
  Support.Util.uleb128 b (Net.Protocol.max_held + 1);
  Alcotest.(check bool) "held set over the cap" true
    (decode_fails ~kind:Support.Decode_error.Limit
       (Support.Frame.seal ~magic:Net.Protocol.magic (Buffer.contents b)));
  (* and the encoder refuses to build such a frame at all *)
  Alcotest.(check bool) "encoder refuses an oversized held set" true
    (match
       Net.Protocol.encode_req
         (Net.Protocol.Fetch
            {
              profile = "p";
              digest = "d";
              held = List.init (Net.Protocol.max_held + 1) string_of_int;
            })
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_hostile_responses () =
  let check name body =
    Alcotest.(check bool) name true
      (match Net.Protocol.decode_resp body with Ok _ -> false | Error _ -> true)
  in
  check "empty" "";
  check "unknown tag"
    (Support.Frame.seal ~magic:Net.Protocol.magic "qnonsense");
  check "error code out of domain"
    (Support.Frame.seal ~magic:Net.Protocol.magic "e\x63\x00");
  check "unassigned error code 5"
    (Support.Frame.seal ~magic:Net.Protocol.magic "e\x05\x00");
  check "cache flag out of domain"
    (Support.Frame.seal ~magic:Net.Protocol.magic
       (let b = Buffer.create 16 in
        Buffer.add_char b 'a';
        Support.Frame.put_str b "l";
        Support.Frame.put_str b "wire";
        Buffer.add_char b '\x07';
        Support.Frame.put_str b "";
        Support.Frame.put_str b "x";
        Buffer.contents b));
  (* catalog count larger than the remaining frame *)
  check "oversized catalog count"
    (Support.Frame.seal ~magic:Net.Protocol.magic
       (let b = Buffer.create 8 in
        Buffer.add_char b 'l';
        Support.Util.uleb128 b 100000;
        Buffer.contents b))

(* ---- daemon end to end over real sockets ---- *)

type harness = {
  daemon : Net.Daemon.t;
  runner : unit Domain.t;
  digest : string;
  engine : Server.t;
}

let start ?(domains = 2) ?(queue_depth = 8)
    ?(max_sessions = Net.Daemon.default_config.max_sessions) () =
  let engine = Server.create ~shards:domains () in
  let digest = Server.publish engine ~run_cycles:1_000_000 (prog multi_fn_src) in
  let catalog =
    [ { Net.Protocol.prog_name = "multi"; prog_digest = digest; fn_count = 4 } ]
  in
  let cfg =
    { Net.Daemon.default_config with
      port = 0; domains; queue_depth; max_sessions }
  in
  let daemon = Net.Daemon.create engine ~catalog cfg in
  let runner = Domain.spawn (fun () -> Net.Daemon.run daemon) in
  { daemon; runner; digest; engine }

let stop h =
  Net.Daemon.request_stop h.daemon;
  Domain.join h.runner

let rpc_ok c req =
  match Net.Client.rpc c req with
  | Ok resp -> resp
  | Error e -> Alcotest.fail (Support.Decode_error.to_string e)

let test_daemon_ping_list_fetch () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let c = Net.Client.connect ~port:(Net.Daemon.port h.daemon) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  (match rpc_ok c Net.Protocol.Ping with
  | Net.Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  (match rpc_ok c Net.Protocol.List with
  | Net.Protocol.Catalog [ row ] ->
    Alcotest.(check string) "catalog digest" h.digest
      row.Net.Protocol.prog_digest
  | _ -> Alcotest.fail "expected one catalog row");
  (match
     rpc_ok c
       (Net.Protocol.Fetch
          { profile = "modem-jit"; digest = h.digest; held = [] })
   with
  | Net.Protocol.Artifact { codec; body; _ } ->
    (* round-trip corruption check: the served bytes must decode
       through the codec the response names *)
    let e = Codec.find_exn codec in
    (match Codec.decode e.Codec.codec body with
    | Ok _ -> ()
    | Error err ->
      Alcotest.fail ("served artifact does not decode: "
                     ^ Support.Decode_error.to_string err))
  | _ -> Alcotest.fail "expected Artifact");
  (match
     rpc_ok c
       (Net.Protocol.Fetch
          { profile = "modem-jit"; digest = "nope"; held = [] })
   with
  | Net.Protocol.Err (Net.Protocol.Unknown_name, _) -> ()
  | _ -> Alcotest.fail "unknown digest must be a typed error");
  match
    rpc_ok c
      (Net.Protocol.Fetch { profile = "never"; digest = h.digest; held = [] })
  with
  | Net.Protocol.Err (Net.Protocol.Unknown_name, _) -> ()
  | _ -> Alcotest.fail "unknown profile must be a typed error"

let open_session ?(held = []) c digest =
  match
    rpc_ok c (Net.Protocol.Open { codec = ""; digest; resume = ""; held })
  with
  | Net.Protocol.Index { token; next_seq; rows; _ } -> (token, next_seq, rows)
  | _ -> Alcotest.fail "expected Index"

let get_chunk c token seq name =
  match rpc_ok c (Net.Protocol.Chunk { token; seq; name }) with
  | Net.Protocol.Chunk_data payload -> payload
  | Net.Protocol.Err (_, m) -> Alcotest.fail ("chunk refused: " ^ m)
  | _ -> Alcotest.fail "expected Chunk_data"

let test_daemon_streaming_session () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let c = Net.Client.connect ~port:(Net.Daemon.port h.daemon) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let token, next_seq, rows = open_session c h.digest in
  Alcotest.(check int) "fresh session starts at 0" 0 next_seq;
  Alcotest.(check bool) "index has rows" true (List.length rows >= 4);
  List.iteri
    (fun i (name, size) ->
      let payload = get_chunk c token i name in
      Alcotest.(check int) ("index size of " ^ name) size
        (String.length payload);
      (* every chunk is a complete, decodable single-function image *)
      match Wire.decompress payload with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail ("chunk does not decode: "
                       ^ Support.Decode_error.to_string e))
    rows;
  (* session-level refusals surface as typed wire errors *)
  (match rpc_ok c (Net.Protocol.Chunk { token; seq = 99; name = "main" }) with
  | Net.Protocol.Err (Net.Protocol.Bad_seq, _) -> ()
  | _ -> Alcotest.fail "bad seq must be a typed error");
  match
    rpc_ok c (Net.Protocol.Chunk { token = "s999"; seq = 0; name = "main" })
  with
  | Net.Protocol.Err (Net.Protocol.Bad_session, _) -> ()
  | _ -> Alcotest.fail "unknown token must be a typed error"

(* the tentpole resume scenario: kill the TCP connection mid-stream,
   reconnect, resume by token, and verify the replay table retransmits
   previously served seqs byte-for-byte *)
let test_daemon_resume_across_reconnect () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let port = Net.Daemon.port h.daemon in
  let c1 = Net.Client.connect ~port in
  let token, _, rows = open_session c1 h.digest in
  let names = Array.of_list (List.map fst rows) in
  let p0 = get_chunk c1 token 0 names.(0) in
  let p1 = get_chunk c1 token 1 names.(1) in
  (* connection dies mid-stream (no goodbye) *)
  Net.Client.close c1;
  let c2 = Net.Client.connect ~port in
  Fun.protect ~finally:(fun () -> Net.Client.close c2) @@ fun () ->
  (match
     rpc_ok c2
       (Net.Protocol.Open
          { codec = ""; digest = h.digest; resume = token; held = [] })
   with
  | Net.Protocol.Index { token = t'; next_seq; _ } ->
    Alcotest.(check string) "same session" token t';
    Alcotest.(check int) "window preserved across reconnect" 2 next_seq
  | _ -> Alcotest.fail "expected Index on resume");
  (* replayed seqs come back byte-for-byte *)
  Alcotest.(check string) "seq 0 retransmitted byte-for-byte" p0
    (get_chunk c2 token 0 names.(0));
  Alcotest.(check string) "seq 1 retransmitted byte-for-byte" p1
    (get_chunk c2 token 1 names.(1));
  (* and the stream continues where it left off *)
  let p2 = get_chunk c2 token 2 names.(2) in
  Alcotest.(check bool) "stream continues" true (String.length p2 > 0);
  match
    rpc_ok c2
      (Net.Protocol.Open
         { codec = ""; digest = h.digest; resume = "s999"; held = [] })
  with
  | Net.Protocol.Err (Net.Protocol.Bad_session, _) -> ()
  | _ -> Alcotest.fail "bogus resume token must be a typed error"

(* the session table is an LRU at max_sessions: opens past the cap
   evict the least recently used session instead of being refused *)
let test_daemon_session_table_bounded () =
  let h = start ~max_sessions:8 () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  Alcotest.check_raises "max_sessions < 1 is refused"
    (Invalid_argument "Daemon.create: max_sessions < 1") (fun () ->
      ignore
        (Net.Daemon.create h.engine ~catalog:[]
           { Net.Daemon.default_config with max_sessions = 0 }));
  let c = Net.Client.connect ~port:(Net.Daemon.port h.daemon) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let opened = Array.init 80 (fun _ -> open_session c h.digest) in
  let s = Net.Daemon.stats h.daemon in
  Alcotest.(check int) "resident sessions held at the cap" 8
    s.Net.Daemon.c_sessions;
  let token i = let t, _, _ = opened.(i) in t in
  let _, _, rows = opened.(0) in
  let name seq = fst (List.nth rows seq) in
  let evicted i =
    match
      rpc_ok c (Net.Protocol.Chunk { token = token i; seq = 0; name = name 0 })
    with
    | Net.Protocol.Err (Net.Protocol.Bad_session, _) -> ()
    | _ -> Alcotest.fail "an evicted token must answer Bad_session"
  in
  evicted 0;
  Alcotest.(check bool) "the newest session is served" true
    (String.length (get_chunk c (token 79) 0 (name 0)) > 0);
  (* a chunk request is a use: it saves the oldest resident session
     from the next eviction, which takes the one after it instead *)
  ignore (get_chunk c (token 72) 0 (name 0));
  ignore (open_session c h.digest);
  ignore (get_chunk c (token 72) 1 (name 1));
  evicted 73

(* ---- context negotiation over the wire ---- *)

(* Dict hands out the committed shared dictionary: its digest is what a
   holder advertises in [held], and the transportable byte forms
   rebuild a context with that exact digest *)
let test_daemon_dict () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let c = Net.Client.connect ~port:(Net.Daemon.port h.daemon) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  match rpc_ok c Net.Protocol.Dict with
  | Net.Protocol.Dict_data { lz; pats; sd_digest } ->
    Alcotest.(check string) "digest is the committed dictionary's"
      (Codec.Context.builtin_digest ()) sd_digest;
    Alcotest.(check string) "byte forms rebuild the same context" sd_digest
      (Codec.Context.digest (Codec.Context.shared ~lz ~pats_bytes:pats))
  | _ -> Alcotest.fail "expected Dict_data"

(* a client that fetched the dictionary and advertises its digest may
   be served a contexted representation; the response names the context
   it was encoded against, and the body decodes only under it *)
let test_daemon_fetch_with_held_dict () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let c = Net.Client.connect ~port:(Net.Daemon.port h.daemon) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let sd =
    match rpc_ok c Net.Protocol.Dict with
    | Net.Protocol.Dict_data { sd_digest; _ } -> sd_digest
    | _ -> Alcotest.fail "expected Dict_data"
  in
  let fetch held =
    match
      rpc_ok c
        (Net.Protocol.Fetch { profile = "modem-jit"; digest = h.digest; held })
    with
    | Net.Protocol.Artifact { codec; context; body; _ } ->
      (codec, context, body)
    | _ -> Alcotest.fail "expected Artifact"
  in
  let base_codec, base_ctx, base_body = fetch [] in
  Alcotest.(check string) "no held set means a context-free serve" ""
    base_ctx;
  let codec, context, body = fetch [ sd ] in
  if context = "" then begin
    (* the engine may still prefer a context-free representation for
       this profile; the serve must then match the no-held serve *)
    Alcotest.(check string) "same codec as the context-free serve"
      base_codec codec;
    Alcotest.(check string) "same bytes as the context-free serve"
      base_body body
  end
  else begin
    Alcotest.(check string) "context names the advertised dictionary" sd
      context;
    let e = Codec.find_exn codec in
    (match Codec.decode ~ctx:(Codec.Context.builtin ()) e.Codec.codec body with
    | Ok _ -> ()
    | Error err ->
      Alcotest.fail
        ("contexted serve does not decode under its context: "
        ^ Support.Decode_error.to_string err));
    match Codec.decode e.Codec.codec body with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.fail "contexted serve decoded without its context"
  end

(* the negotiated context survives a reconnect: a session opened with a
   held dictionary reports the same context on resume, the resume's own
   held set ignored *)
let test_daemon_session_context_across_reconnect () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let port = Net.Daemon.port h.daemon in
  let sd = Codec.Context.builtin_digest () in
  let c1 = Net.Client.connect ~port in
  let token, ctx1 =
    match
      rpc_ok c1
        (Net.Protocol.Open
           { codec = ""; digest = h.digest; resume = ""; held = [ sd ] })
    with
    | Net.Protocol.Index { token; context; _ } -> (token, context)
    | _ -> Alcotest.fail "expected Index"
  in
  Alcotest.(check string) "session negotiated the dictionary" sd ctx1;
  Net.Client.close c1;
  let c2 = Net.Client.connect ~port in
  Fun.protect ~finally:(fun () -> Net.Client.close c2) @@ fun () ->
  (match
     rpc_ok c2
       (Net.Protocol.Open
          { codec = ""; digest = h.digest; resume = token; held = [] })
   with
  | Net.Protocol.Index { token = t'; context; _ } ->
    Alcotest.(check string) "same session" token t';
    Alcotest.(check string) "context survives the reconnect" sd context
  | _ -> Alcotest.fail "expected Index on resume");
  (* digests the server does not recognize negotiate nothing *)
  match
    rpc_ok c2
      (Net.Protocol.Open
         { codec = ""; digest = h.digest; resume = ""; held = [ "bogus" ] })
  with
  | Net.Protocol.Index { context; _ } ->
    Alcotest.(check string) "unknown held digests negotiate nothing" ""
      context
  | _ -> Alcotest.fail "expected Index"

(* overload: with every worker at queue_depth, a new connection gets the
   typed Overloaded frame, and existing connections keep working *)
let test_daemon_sheds_when_full () =
  let h = start ~domains:1 ~queue_depth:1 () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let port = Net.Daemon.port h.daemon in
  let c1 = Net.Client.connect ~port in
  Fun.protect ~finally:(fun () -> Net.Client.close c1) @@ fun () ->
  (match rpc_ok c1 Net.Protocol.Ping with
  | Net.Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  let c2 = Net.Client.connect ~port in
  (match Net.Client.rpc c2 Net.Protocol.Ping with
  | Ok Net.Protocol.Overloaded -> ()
  | Ok _ -> Alcotest.fail "expected Overloaded shed"
  | Error e -> Alcotest.fail (Support.Decode_error.to_string e));
  Net.Client.close c2;
  (* the resident connection is unaffected by the shed *)
  (match rpc_ok c1 Net.Protocol.Ping with
  | Net.Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected Pong after shed");
  let s = Net.Daemon.stats h.daemon in
  Alcotest.(check bool) "shed counted" true (s.Net.Daemon.c_shed >= 1)

(* hostile bytes on the socket: typed error reply, then disconnect —
   the daemon survives *)
let test_daemon_rejects_bad_frames () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let port = Net.Daemon.port h.daemon in
  let raw () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  (* garbage with a plausible length prefix *)
  let fd = raw () in
  Unix.write_substring fd "\x00\x00\x00\x08AAAAAAAA" 0 12 |> ignore;
  (match Net.Protocol.read_frame fd with
  | Ok (Some body) -> (
    match Net.Protocol.decode_resp body with
    | Ok (Net.Protocol.Err (Net.Protocol.Bad_request, _)) -> ()
    | _ -> Alcotest.fail "expected Bad_request for garbage")
  | _ -> Alcotest.fail "expected an error frame");
  (match Net.Protocol.read_frame fd with
  | Ok None -> ()  (* server hung up after the typed error *)
  | _ -> Alcotest.fail "expected disconnect after bad frame");
  Unix.close fd;
  (* a length prefix over the request cap is refused before allocation *)
  let fd = raw () in
  Unix.write_substring fd "\x7f\xff\xff\xff" 0 4 |> ignore;
  (match Net.Protocol.read_frame fd with
  | Ok (Some body) -> (
    match Net.Protocol.decode_resp body with
    | Ok (Net.Protocol.Err (Net.Protocol.Bad_request, _)) -> ()
    | _ -> Alcotest.fail "expected Bad_request for oversized frame")
  | _ -> Alcotest.fail "expected an error frame");
  Unix.close fd;
  (* the daemon still serves *)
  let c = Net.Client.connect ~port in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  (match rpc_ok c Net.Protocol.Ping with
  | Net.Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected Pong after hostile clients");
  let s = Net.Daemon.stats h.daemon in
  Alcotest.(check bool) "bad frames counted" true
    (s.Net.Daemon.c_bad_frames >= 2)

(* registry hygiene on the serve path: every registered codec's
   streamable flag decides whether a chunked session may open over it *)
let test_streamable_gating_per_registry_entry () =
  let engine = Server.create () in
  let digest = Server.publish engine ~run_cycles:1_000_000 (prog multi_fn_src) in
  List.iter
    (fun (e : Codec.entry) ->
      let name = Codec.name e.Codec.codec in
      match Server.open_session_for engine ~codec:name digest with
      | Ok _ ->
        Alcotest.(check bool) (name ^ " opened because streamable") true
          e.Codec.streamable
      | Error (`Not_streamable n) ->
        Alcotest.(check bool) (name ^ " refused because not streamable") false
          e.Codec.streamable;
        Alcotest.(check string) "refusal names the codec" name n
      | Error (`Unknown_codec _) ->
        Alcotest.fail (name ^ ": registered codec reported unknown"))
    (Codec.all ());
  match Server.open_session_for engine ~codec:"no-such-codec" digest with
  | Error (`Unknown_codec _) -> ()
  | _ -> Alcotest.fail "unknown codec must be a typed error"

(* the same gate at the wire level *)
let test_daemon_open_gating () =
  let h = start () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let c = Net.Client.connect ~port:(Net.Daemon.port h.daemon) in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  (match
     rpc_ok c
       (Net.Protocol.Open
          { codec = "wire"; digest = h.digest; resume = ""; held = [] })
   with
  | Net.Protocol.Err (Net.Protocol.Not_streamable, _) -> ()
  | _ -> Alcotest.fail "non-streamable codec must be refused");
  match
    rpc_ok c
      (Net.Protocol.Open
         { codec = "no-such-codec"; digest = h.digest; resume = "";
           held = [] })
  with
  | Net.Protocol.Err (Net.Protocol.Unknown_name, _) -> ()
  | _ -> Alcotest.fail "unknown codec must be refused"

(* graceful drain: request_stop is exactly what the SIGINT/SIGTERM
   handlers call; the daemon must stop accepting and run must return *)
let test_daemon_drains_on_stop () =
  let h = start () in
  let port = Net.Daemon.port h.daemon in
  let c = Net.Client.connect ~port in
  (match rpc_ok c Net.Protocol.Ping with
  | Net.Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  Net.Client.close c;
  stop h;  (* request_stop + join: run returned, workers drained *)
  (match Net.Client.connect ~port with
  | c ->
    (* a connect may still succeed briefly (TCP races a closing
       listener); the next rpc must observe the shutdown *)
    (match Net.Client.rpc c Net.Protocol.Ping with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "daemon answered after drain");
    Net.Client.close c
  | exception Unix.Unix_error _ -> ());
  let s = Net.Daemon.stats h.daemon in
  Alcotest.(check bool) "served before drain" true (s.Net.Daemon.c_served >= 1)

(* four clients, each on its own connection, against two worker lanes.
   Every round fetches under each profile and streams one whole
   session; every artifact must decode through the codec its response
   names and every chunk through the wire decoder. Failures are counted
   per thread and checked after the joins, since an Alcotest failure
   raised inside a thread would not fail the test. *)
let test_load_concurrent_clients () =
  let h = start ~domains:2 () in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let port = Net.Daemon.port h.daemon in
  let profiles =
    List.map
      (fun p -> p.Server.Profile.name)
      Net.Daemon.default_config.Net.Daemon.profiles
  in
  let client failures () =
    let fail () = incr failures in
    let decodes = function Ok _ -> () | Error _ -> fail () in
    let rpc c req = Result.to_option (Net.Client.rpc c req) in
    let round c =
      List.iter
        (fun profile ->
          match
            rpc c (Net.Protocol.Fetch { profile; digest = h.digest; held = [] })
          with
          | Some (Net.Protocol.Artifact { codec; body; _ }) -> (
            match Codec.find codec with
            | Some e -> decodes (Codec.decode e.Codec.codec body)
            | None -> fail ())
          | _ -> fail ())
        profiles;
      match
        rpc c
          (Net.Protocol.Open
             { codec = ""; digest = h.digest; resume = ""; held = [] })
      with
      | Some (Net.Protocol.Index { token; rows; _ }) ->
        List.iteri
          (fun seq (name, _) ->
            match rpc c (Net.Protocol.Chunk { token; seq; name }) with
            | Some (Net.Protocol.Chunk_data payload) ->
              decodes (Wire.decompress payload)
            | _ -> fail ())
          rows
      | _ -> fail ()
    in
    match Net.Client.connect ~port with
    | c ->
      Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
          for _ = 1 to 6 do
            try round c with _ -> fail ()
          done)
    | exception _ -> fail ()
  in
  let failures = Array.init 4 (fun _ -> ref 0) in
  Array.map (fun f -> Thread.create (client f) ()) failures
  |> Array.iter Thread.join;
  Array.iteri
    (fun i f ->
      Alcotest.(check int) (Printf.sprintf "client %d failures" i) 0 !f)
    failures

let () =
  Alcotest.run "net"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_req_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_resp_roundtrip;
          Alcotest.test_case "hostile requests" `Quick test_hostile_requests;
          Alcotest.test_case "hostile responses" `Quick test_hostile_responses;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "ping, list, fetch" `Quick
            test_daemon_ping_list_fetch;
          Alcotest.test_case "streaming session" `Quick
            test_daemon_streaming_session;
          Alcotest.test_case "resume across reconnect" `Quick
            test_daemon_resume_across_reconnect;
          Alcotest.test_case "session table bounded" `Quick
            test_daemon_session_table_bounded;
          Alcotest.test_case "shared dictionary handout" `Quick
            test_daemon_dict;
          Alcotest.test_case "held dictionary unlocks contexted serves"
            `Quick test_daemon_fetch_with_held_dict;
          Alcotest.test_case "session context across reconnect" `Quick
            test_daemon_session_context_across_reconnect;
          Alcotest.test_case "sheds when full" `Quick
            test_daemon_sheds_when_full;
          Alcotest.test_case "rejects bad frames" `Quick
            test_daemon_rejects_bad_frames;
          Alcotest.test_case "drains on stop" `Quick
            test_daemon_drains_on_stop;
        ] );
      ( "gating",
        [
          Alcotest.test_case "streamable flag per registry entry" `Quick
            test_streamable_gating_per_registry_entry;
          Alcotest.test_case "gate at the wire level" `Quick
            test_daemon_open_gating;
        ] );
      ( "load",
        [
          Alcotest.test_case "concurrent clients" `Quick
            test_load_concurrent_clients;
        ] );
    ]
