(* Streaming chunked-delivery session.

   Protocol, one function chunk per request:

   - handshake: the client opens a session on a digest and receives the
     index — every function name with its compressed chunk size (plus
     the globals, which ride along with the handshake);
   - requests: the client asks for (seq, name); the server answers with
     the function's chunk, a complete single-function wire image the
     client expands with [Wire.decompress];
   - resume: requests carry a sequence number. A client that never saw
     the answer to seq N just asks for N again and the server
     retransmits the saved response byte-for-byte; only a new answered
     request advances the window. Retransmits are accepted for ANY
     previously answered sequence number, not just the last one — a
     client draining a reorder buffer may repeat an old request after
     newer ones succeeded, and that must not disturb the session's
     offset. A request that is neither a faithful repeat nor the next
     sequence number is rejected.

   A paging client therefore materializes exactly the functions it
   calls: the bytes on the wire are the handshake plus the chunks
   actually requested, which the stats layer compares against shipping
   the monolithic wire image. *)

type t = {
  digest : string;
  image : Wire.Chunked.t;
  stats : Stats.t;
  mutable next_seq : int;
  served : (int, string * string) Hashtbl.t;  (* seq -> name, payload *)
  delivered : (string, unit) Hashtbl.t;
}

(* What the handshake costs on the wire: each index row is a
   length-prefixed name plus a uleb-ish size field; the globals of the
   chunked image travel with it. *)
let handshake_bytes image =
  let row name =
    String.length name + 1 + 4 (* length prefix + chunk size field *)
  in
  List.fold_left (fun a n -> a + row n) 8 (Wire.Chunked.function_names image)

(* Verify the chunked artifact before trusting it with a session. A
   corrupt cached image is quarantined and rebuilt fresh from the
   published IR — one retry heals cache-level damage; a second failure
   means the source itself can't produce a sane image, so it escapes as
   the typed decode error. *)
let chunked_image store stats digest artifact =
  let decode () =
    let bytes, _hit = Store.materialize store digest artifact in
    Wire.Chunked.of_bytes bytes
  in
  match decode () with
  | Ok image -> image
  | Error e ->
    Stats.record_decode_failure stats ~digest artifact e;
    Store.quarantine store digest artifact;
    (match decode () with
    | Ok image -> image
    | Error e -> raise (Support.Decode_error.Fail e))

let open_artifact store stats digest artifact =
  (* the registry's streamable flag is the contract: a codec that is
     not registered streamable has no function-at-a-time container, so
     a chunked session over it must be refused, not attempted *)
  if not (Artifact.streamable artifact) then
    invalid_arg
      (Printf.sprintf "Session.open_artifact: codec %S is not streamable"
         (Artifact.name artifact));
  let m = Store.meta store digest in
  let image = chunked_image store stats digest artifact in
  let hs = handshake_bytes image in
  Stats.record_session_opened stats ~handshake_bytes:hs
    ~wire_equiv_bytes:(Store.size_of m Artifact.wire);
  {
    digest;
    image;
    stats;
    next_seq = 0;
    served = Hashtbl.create 16;
    delivered = Hashtbl.create 16;
  }

let open_ store stats digest =
  open_artifact store stats digest Artifact.chunked_wire

let digest t = t.digest

let index t =
  List.map
    (fun n -> (n, Wire.Chunked.chunk_size t.image n))
    (Wire.Chunked.function_names t.image)

let delivered t = Hashtbl.length t.delivered
let next_seq t = t.next_seq

let request t ~seq name =
  match Hashtbl.find_opt t.served seq with
  | Some (n, payload) ->
    if n <> name then
      Error
        (Printf.sprintf "retransmit of seq %d must repeat %S, got %S" seq n
           name)
    else begin
      (* a response was lost in flight (possibly several requests ago);
         resend it verbatim without touching the session offset *)
      Stats.record_chunk t.stats ~bytes:(String.length payload)
        ~retransmit:true;
      Ok payload
    end
  | None ->
    if seq <> t.next_seq then
      Error
        (Printf.sprintf "bad sequence number %d (expected %d)" seq t.next_seq)
    else begin
      match Wire.Chunked.chunk t.image name with
      | exception Not_found ->
        Error (Printf.sprintf "no function %S in %s" name t.digest)
      | payload ->
        Stats.record_chunk t.stats ~bytes:(String.length payload)
          ~retransmit:false;
        Hashtbl.replace t.delivered name ();
        Hashtbl.replace t.served seq (name, payload);
        t.next_seq <- seq + 1;
        Ok payload
    end
