(* The mccd wire protocol: length-prefixed, CRC-sealed frames.

   Layout of one frame, both directions:

     u32be length | "MN1" | crc32be(payload) | payload

   The 4-byte length covers everything after itself (magic + CRC +
   payload) and is bounded before any allocation; the magic/CRC seal
   and the payload reader are the shared [Support.Frame] machinery, so
   request parsing inherits the totality guarantees of every other
   untrusted-input decoder in the tree: truncation, bad magic, CRC
   damage, oversized counts and trailing garbage all surface as typed
   [Support.Decode_error] values, never exceptions.

   The payload is a one-byte tag plus ULEB128/length-prefixed fields.
   Request tags are uppercase, response tags lowercase. *)

let magic = "MN1"

(* Responses carry whole compressed artifacts; requests never should.
   Both bounds are checked before allocating the frame body. *)
let max_frame = 64 * 1024 * 1024
let max_request_frame = 1024 * 1024

(* A held set is a negotiation, not a payload: a client advertising
   thousands of digests is hostile, and the engine would score a
   candidate per held base anyway. Checked before allocation. *)
let max_held = 64

type req =
  | Ping
  | List
      (** the published catalog: what a client can ask for *)
  | Dict
      (** the server's shared dictionary, so the client can hold it *)
  | Fetch of { profile : string; digest : string; held : string list }
      (** one whole-image request as the named client profile; [held]
          advertises digests the client already holds (the shared
          dictionary and/or previously fetched programs), unlocking
          contexted representations *)
  | Open of {
      codec : string;
      digest : string;
      resume : string;
      held : string list;
    }
      (** open a chunked session ([codec] names a registered streamable
          codec; [""] means chunked-wire). A non-empty [resume] token
          re-attaches to an existing session after a dropped
          connection instead of opening a new one; the session keeps
          the held set it was opened with ([held] on a resume is
          ignored — the negotiated context survives the reconnect). *)
  | Chunk of { token : string; seq : int; name : string }
      (** one function chunk of an open session *)

type catalog_row = { prog_name : string; prog_digest : string; fn_count : int }

type err_code =
  | Bad_request     (** the request frame did not decode *)
  | Unknown_name    (** digest, profile or codec the server has never seen *)
  | Not_streamable  (** the named codec is not registered streamable *)
  | Bad_session     (** unknown or evicted session token *)
  | Bad_seq         (** session-level refusal (bad seq / unknown function) *)
  | Server_error    (** the engine failed internally *)

let err_code_byte = function
  | Bad_request -> 0
  | Unknown_name -> 1
  | Not_streamable -> 2
  | Bad_session -> 3
  | Bad_seq -> 4
  | Server_error -> 6  (* 5 is unassigned and decodes as unknown *)

let err_code_of_byte = function
  | 0 -> Some Bad_request
  | 1 -> Some Unknown_name
  | 2 -> Some Not_streamable
  | 3 -> Some Bad_session
  | 4 -> Some Bad_seq
  | 6 -> Some Server_error
  | _ -> None

let err_code_name = function
  | Bad_request -> "bad-request"
  | Unknown_name -> "unknown-name"
  | Not_streamable -> "not-streamable"
  | Bad_session -> "bad-session"
  | Bad_seq -> "bad-seq"
  | Server_error -> "server-error"

type resp =
  | Pong
  | Catalog of catalog_row list
  | Dict_data of {
      lz : string;             (** LZ77 priming window bytes *)
      pats : string;           (** BRISC shared-entry prefix, byte form *)
      sd_digest : string;      (** what [Fetch.held] should advertise *)
    }
  | Artifact of {
      label : string;          (** engine's (artifact, mode) label *)
      codec : string;          (** registry name — names the verifier *)
      cache_hit : bool;
      degraded_from : string;  (** [""] when the first choice served *)
      context : string;        (** digest of the held context the body
                                   was encoded against; [""] when
                                   context-free *)
      body : string;           (** the compressed artifact image *)
    }
  | Index of {
      token : string;          (** session token; resume with this *)
      next_seq : int;          (** where the session's window stands *)
      context : string;        (** the session's negotiated dictionary
                                   digest ([""] when none); identical
                                   after a resume *)
      rows : (string * int) list;  (** function name, chunk bytes *)
    }
  | Chunk_data of string
      (** one complete single-function wire image *)
  | Err of err_code * string
  | Overloaded
      (** typed shed: the daemon refused the connection under load *)

(* ---- encoding ---- *)

let frame_of_payload payload =
  let body = Support.Frame.seal ~magic payload in
  let n = String.length body in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  Bytes.to_string hdr ^ body

let put_held b held =
  if List.length held > max_held then
    invalid_arg
      (Printf.sprintf "Net.Protocol: held set exceeds %d digests" max_held);
  Support.Util.uleb128 b (List.length held);
  List.iter (Support.Frame.put_str b) held

let encode_req (r : req) =
  let b = Buffer.create 64 in
  (match r with
  | Ping -> Buffer.add_char b 'P'
  | List -> Buffer.add_char b 'L'
  | Dict -> Buffer.add_char b 'D'
  | Fetch { profile; digest; held } ->
    Buffer.add_char b 'F';
    Support.Frame.put_str b profile;
    Support.Frame.put_str b digest;
    put_held b held
  | Open { codec; digest; resume; held } ->
    Buffer.add_char b 'O';
    Support.Frame.put_str b codec;
    Support.Frame.put_str b digest;
    Support.Frame.put_str b resume;
    put_held b held
  | Chunk { token; seq; name } ->
    Buffer.add_char b 'C';
    Support.Frame.put_str b token;
    Support.Util.uleb128 b seq;
    Support.Frame.put_str b name);
  frame_of_payload (Buffer.contents b)

let encode_resp (r : resp) =
  let b = Buffer.create 256 in
  (match r with
  | Pong -> Buffer.add_char b 'p'
  | Catalog rows ->
    Buffer.add_char b 'l';
    Support.Util.uleb128 b (List.length rows);
    List.iter
      (fun row ->
        Support.Frame.put_str b row.prog_name;
        Support.Frame.put_str b row.prog_digest;
        Support.Util.uleb128 b row.fn_count)
      rows
  | Dict_data { lz; pats; sd_digest } ->
    Buffer.add_char b 'd';
    Support.Frame.put_str b lz;
    Support.Frame.put_str b pats;
    Support.Frame.put_str b sd_digest
  | Artifact { label; codec; cache_hit; degraded_from; context; body } ->
    Buffer.add_char b 'a';
    Support.Frame.put_str b label;
    Support.Frame.put_str b codec;
    Buffer.add_char b (if cache_hit then '\001' else '\000');
    Support.Frame.put_str b degraded_from;
    Support.Frame.put_str b context;
    Support.Frame.put_str b body
  | Index { token; next_seq; context; rows } ->
    Buffer.add_char b 'i';
    Support.Frame.put_str b token;
    Support.Util.uleb128 b next_seq;
    Support.Frame.put_str b context;
    Support.Util.uleb128 b (List.length rows);
    List.iter
      (fun (name, size) ->
        Support.Frame.put_str b name;
        Support.Util.uleb128 b size)
      rows
  | Chunk_data payload ->
    Buffer.add_char b 'c';
    Support.Frame.put_str b payload
  | Err (code, msg) ->
    Buffer.add_char b 'e';
    Buffer.add_char b (Char.chr (err_code_byte code));
    Support.Frame.put_str b msg
  | Overloaded -> Buffer.add_char b 'v');
  frame_of_payload (Buffer.contents b)

(* ---- decoding (total) ---- *)

(* [body] is the frame after the length prefix: magic + CRC + payload. *)

let reader ~decoder body =
  let off = Support.Frame.verify ~decoder ~magic body in
  Support.Frame.reader ~decoder ~pos:off body

(* total held-set reader: count bounded by [max_held] before any
   allocation, each digest an ordinary length-prefixed string *)
let read_held r =
  let n = Support.Frame.u r in
  if n > max_held then
    Support.Frame.fail r Support.Decode_error.Limit
      (Printf.sprintf "held set claims %d digests (cap %d)" n max_held);
  Support.Frame.check_count r n "held digest";
  List.init n (fun _ -> Support.Frame.str ~what:"held digest" r)

let decode_req body : (req, Support.Decode_error.t) result =
  Support.Decode_error.guard ~decoder:"net-req" @@ fun () ->
  let r = reader ~decoder:"net-req" body in
  let tag = Support.Frame.byte r ~what:"request tag" () in
  let req =
    match tag with
    | 'P' -> Ping
    | 'L' -> List
    | 'D' -> Dict
    | 'F' ->
      let profile = Support.Frame.str ~what:"profile" r in
      let digest = Support.Frame.str ~what:"digest" r in
      let held = read_held r in
      Fetch { profile; digest; held }
    | 'O' ->
      let codec = Support.Frame.str ~what:"codec" r in
      let digest = Support.Frame.str ~what:"digest" r in
      let resume = Support.Frame.str ~what:"resume token" r in
      let held = read_held r in
      Open { codec; digest; resume; held }
    | 'C' ->
      let token = Support.Frame.str ~what:"session token" r in
      let seq = Support.Frame.u r in
      let name = Support.Frame.str ~what:"function name" r in
      Chunk { token; seq; name }
    | c ->
      Support.Frame.fail r Support.Decode_error.Bad_value
        (Printf.sprintf "unknown request tag %C" c)
  in
  Support.Frame.expect_end r "request";
  req

let decode_resp body : (resp, Support.Decode_error.t) result =
  Support.Decode_error.guard ~decoder:"net-resp" @@ fun () ->
  let r = reader ~decoder:"net-resp" body in
  let tag = Support.Frame.byte r ~what:"response tag" () in
  let resp =
    match tag with
    | 'p' -> Pong
    | 'l' ->
      let n = Support.Frame.u r in
      Support.Frame.check_count r n "catalog row";
      Catalog
        (List.init n (fun _ ->
             let prog_name = Support.Frame.str ~what:"program name" r in
             let prog_digest = Support.Frame.str ~what:"digest" r in
             let fn_count = Support.Frame.u r in
             { prog_name; prog_digest; fn_count }))
    | 'd' ->
      let lz = Support.Frame.str ~what:"dictionary lz bytes" r in
      let pats = Support.Frame.str ~what:"dictionary patterns" r in
      let sd_digest = Support.Frame.str ~what:"dictionary digest" r in
      Dict_data { lz; pats; sd_digest }
    | 'a' ->
      let label = Support.Frame.str ~what:"label" r in
      let codec = Support.Frame.str ~what:"codec" r in
      let hit = Support.Frame.byte r ~what:"cache flag" () in
      if hit <> '\000' && hit <> '\001' then
        Support.Frame.fail r Support.Decode_error.Bad_value
          "cache flag out of domain";
      let degraded_from = Support.Frame.str ~what:"degraded-from" r in
      let context = Support.Frame.str ~what:"context digest" r in
      let body = Support.Frame.str ~what:"artifact body" r in
      Artifact
        { label; codec; cache_hit = hit = '\001'; degraded_from; context;
          body }
    | 'i' ->
      let token = Support.Frame.str ~what:"session token" r in
      let next_seq = Support.Frame.u r in
      let context = Support.Frame.str ~what:"context digest" r in
      let n = Support.Frame.u r in
      Support.Frame.check_count r n "index row";
      Index
        {
          token;
          next_seq;
          context;
          rows =
            List.init n (fun _ ->
                let name = Support.Frame.str ~what:"function name" r in
                let size = Support.Frame.u r in
                (name, size));
        }
    | 'c' -> Chunk_data (Support.Frame.str ~what:"chunk payload" r)
    | 'e' ->
      let code = Support.Frame.byte r ~what:"error code" () in
      let msg = Support.Frame.str ~what:"error message" r in
      (match err_code_of_byte (Char.code code) with
      | Some c -> Err (c, msg)
      | None ->
        Support.Frame.fail r Support.Decode_error.Bad_value
          "error code out of domain")
    | 'v' -> Overloaded
    | c ->
      Support.Frame.fail r Support.Decode_error.Bad_value
        (Printf.sprintf "unknown response tag %C" c)
  in
  Support.Frame.expect_end r "response";
  resp

(* ---- blocking IO helpers (client side and tests) ---- *)

let really_write fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let write_frame fd frame = really_write fd frame

(* [Ok None] is a clean EOF before any byte of the next frame; EOF in
   the middle of a frame is a typed [Truncated] error. *)
let read_frame ?(max = max_frame) fd :
    (string option, Support.Decode_error.t) result =
  let buf = Bytes.create 4 in
  let rec fill off len started =
    if len = 0 then Ok ()
    else
      match Unix.read fd buf off len with
      | 0 ->
        if started then
          Error
            {
              Support.Decode_error.decoder = "net-frame";
              kind = Support.Decode_error.Truncated;
              pos = off;
              msg = "connection closed mid-frame";
            }
        else Ok ()
      | n -> fill (off + n) (len - n) true
  in
  match Unix.read fd buf 0 1 with
  | 0 -> Ok None  (* clean EOF between frames *)
  | _ -> (
    match fill 1 3 true with
    | Error e -> Error e
    | Ok () ->
      let n =
        (Char.code (Bytes.get buf 0) lsl 24)
        lor (Char.code (Bytes.get buf 1) lsl 16)
        lor (Char.code (Bytes.get buf 2) lsl 8)
        lor Char.code (Bytes.get buf 3)
      in
      if n <= 0 || n > max then
        Error
          {
            Support.Decode_error.decoder = "net-frame";
            kind = Support.Decode_error.Limit;
            pos = 0;
            msg = Printf.sprintf "frame length %d exceeds cap %d" n max;
          }
      else begin
        let body = Bytes.create n in
        let rec fill_body off len =
          if len = 0 then Ok (Some (Bytes.to_string body))
          else
            match Unix.read fd body off len with
            | 0 ->
              Error
                {
                  Support.Decode_error.decoder = "net-frame";
                  kind = Support.Decode_error.Truncated;
                  pos = 4 + off;
                  msg = "connection closed mid-frame";
                }
            | k -> fill_body (off + k) (len - k)
        in
        fill_body 0 n
      end)
