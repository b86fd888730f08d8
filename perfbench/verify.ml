(* Client-side verification of every served body, against references
   the decoder cannot fake:

   - a wire-family artifact (wire*, chunked-wire) decodes to printed IR
     whose MD5 must equal the digest the client asked for — the
     catalog's content address;
   - any other artifact, and any chunk, must decode and be
     byte-identical to the first serve of the same (digest, codec) or
     (digest, function).

   Verdicts are cached by body MD5, so a repeated body costs one hash
   instead of a full decode. A body that differs from its reference is
   decoded in full only to name the failure. *)

type t = {
  mu : Mutex.t;
  good : (string * string * string, unit) Hashtbl.t;
      (** (digest, codec or function, body MD5) already verified *)
  first : (string * string, string) Hashtbl.t;
      (** (digest, codec or function) -> body MD5 of its first serve *)
}

let create () = { mu = Mutex.create (); good = Hashtbl.create 256; first = Hashtbl.create 256 }

let wire_family codec =
  codec = "chunked-wire" || (String.length codec >= 4 && String.sub codec 0 4 = "wire")

let md5 s = Digest.to_hex (Digest.string s)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* [check] decodes the body and says whether it is acceptable on its
   own; a body passing it becomes the first serve of [key] if there was
   none, and must equal that first serve otherwise *)
let verdict t ~key ~self_check ~check body =
  let bm = md5 body in
  let digest, what = key in
  if locked t (fun () -> Hashtbl.mem t.good (digest, what, bm)) then Ok ()
  else
    let decoded = check body in
    match decoded with
    | Error e -> Error e
    | Ok () -> (
      let first =
        locked t (fun () ->
            match Hashtbl.find_opt t.first key with
            | Some f -> f
            | None ->
              Hashtbl.replace t.first key bm;
              bm)
      in
      if self_check || first = bm then begin
        locked t (fun () -> Hashtbl.replace t.good (digest, what, bm) ());
        Ok ()
      end
      else Error (Printf.sprintf "%s of %s differs from its first serve" what digest))

let decode_with codec body =
  match Codec.find codec with
  | None -> Error ("unknown codec " ^ codec)
  | Some e -> (
    match Codec.decode e.Codec.codec body with
    | Ok (txt, _) -> Ok txt
    | Error err -> Error (codec ^ ": " ^ Support.Decode_error.to_string err))

let artifact t ~digest ~codec body =
  if wire_family codec then
    verdict t ~key:(digest, codec) ~self_check:true body ~check:(fun body ->
        match decode_with codec body with
        | Error e -> Error e
        | Ok txt when md5 txt = digest -> Ok ()
        | Ok _ -> Error (codec ^ " body does not decode to " ^ digest))
  else
    verdict t ~key:(digest, codec) ~self_check:false body ~check:(fun body ->
        Result.map ignore (decode_with codec body))

let chunk t ~digest ~name payload =
  verdict t ~key:(digest, name) ~self_check:false payload ~check:(fun payload ->
      match Wire.decompress payload with
      | Error err -> Error ("chunk " ^ name ^ ": " ^ Support.Decode_error.to_string err)
      | Ok p when List.exists (fun f -> f.Ir.Tree.fname = name) p.Ir.Tree.funcs -> Ok ()
      | Ok _ -> Error ("chunk does not carry function " ^ name))
