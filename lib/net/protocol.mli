(** The mccd wire protocol: 4-byte big-endian length prefix, then a
    {!Support.Frame}-sealed body ([magic ^ crc32 ^ payload]). Requests
    and responses are decoded exclusively through the shared total
    decoder machinery — hostile bytes surface as typed
    {!Support.Decode_error} values, never exceptions. *)

val magic : string

val max_frame : int
(** Response frame cap (64 MiB) — responses carry whole artifacts. *)

val max_request_frame : int
(** Request frame cap (1 MiB) — checked before allocation; a client
    that claims a bigger request is refused and disconnected. *)

val max_held : int
(** Cap (64) on the held-digest set a request may advertise — checked
    before allocation, and {!encode_req} refuses to build a frame over
    it. *)

type req =
  | Ping
  | List  (** the published catalog *)
  | Dict  (** the server's shared dictionary, so the client can hold it *)
  | Fetch of { profile : string; digest : string; held : string list }
      (** [held] advertises digests the client already holds (the
          shared dictionary and/or previously fetched programs),
          unlocking contexted representations; at most {!max_held} *)
  | Open of {
      codec : string;
      digest : string;
      resume : string;
      held : string list;
    }
      (** [codec = ""] means chunked-wire; non-empty [resume]
          re-attaches to an existing session after a reconnect, keeping
          the held set the session was opened with ([held] on a resume
          is ignored) *)
  | Chunk of { token : string; seq : int; name : string }

type catalog_row = { prog_name : string; prog_digest : string; fn_count : int }

type err_code =
  | Bad_request
  | Unknown_name
  | Not_streamable
  | Bad_session
  | Bad_seq
  | Server_error

val err_code_name : err_code -> string

type resp =
  | Pong
  | Catalog of catalog_row list
  | Dict_data of { lz : string; pats : string; sd_digest : string }
      (** the shared dictionary's transportable byte forms plus the
          digest a holder should advertise in [Fetch.held] *)
  | Artifact of {
      label : string;
      codec : string;
      cache_hit : bool;
      degraded_from : string;  (** [""] when the first choice served *)
      context : string;
          (** digest of the held context the body was encoded against;
              [""] for context-free representations *)
      body : string;
    }
  | Index of {
      token : string;
      next_seq : int;
      context : string;
          (** the session's negotiated dictionary digest ([""] when
              none); identical after a resume *)
      rows : (string * int) list;
    }
  | Chunk_data of string
  | Err of err_code * string
  | Overloaded  (** typed shed under overload *)

val encode_req : req -> string
(** The full on-wire frame, length prefix included. *)

val encode_resp : resp -> string

val decode_req : string -> (req, Support.Decode_error.t) result
(** Decode a frame body (everything after the length prefix). Total:
    magic, CRC, field bounds and trailing bytes all checked. *)

val decode_resp : string -> (resp, Support.Decode_error.t) result

(** {2 Blocking IO helpers} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write a complete encoded frame, looping over short writes. *)

val read_frame :
  ?max:int ->
  Unix.file_descr ->
  (string option, Support.Decode_error.t) result
(** Read one length-prefixed frame body. [Ok None] is a clean EOF
    between frames; EOF mid-frame is a [Truncated] error and a length
    above [max] a [Limit] error (refused before allocation). *)
