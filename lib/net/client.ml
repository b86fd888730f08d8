(* Minimal blocking client for the mccd protocol: one connection, one
   request in flight. *)

type t = { fd : Unix.file_descr }

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let closed_error msg =
  {
    Support.Decode_error.decoder = "net-client";
    kind = Support.Decode_error.Truncated;
    pos = 0;
    msg;
  }

let rpc t (req : Protocol.req) : (Protocol.resp, Support.Decode_error.t) result
    =
  match Protocol.write_frame t.fd (Protocol.encode_req req) with
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    Error (closed_error "connection closed on write")
  | () -> (
    match Protocol.read_frame t.fd with
    | Error e -> Error e
    | Ok None -> Error (closed_error "connection closed before response")
    | Ok (Some body) -> Protocol.decode_resp body)
