(** Client profiles: what the engine knows about who is fetching. *)

type t = {
  name : string;
  link_bps : float;
  can_jit : bool;            (** can run the wire/BRISC JIT *)
  accepts_native : bool;     (** matches the server's native target *)
  memory_bytes : int option; (** resident-code budget; [None] = ample *)
  prefers_streaming : bool;
      (** paging client: materialize functions lazily over a chunked
          session instead of fetching the whole image *)
}

val make :
  ?can_jit:bool ->
  ?accepts_native:bool ->
  ?memory_bytes:int ->
  ?prefers_streaming:bool ->
  string ->
  link_bps:float ->
  t
(** Defaults: JIT-capable, not native-compatible, ample memory, no
    streaming. *)

val modem : t
(** 28.8k link, JIT-capable — the wire format's home turf. *)

val lan : t
(** 10 Mbit link, JIT-capable — where BRISC wins. *)

val embedded : t
(** ISDN link, no JIT, 32 KB code budget, pages functions in lazily
    over a chunked session. *)

val datacenter : t
(** 100 Mbit link, native-compatible — raw native code territory. *)

val mode_feasible :
  t -> mode:Scenario.Delivery.representation -> artifact_bytes:int ->
  native_bytes:int -> bool
(** Whether this client can use one concrete artifact in one delivery
    mode. Modes that materialize native code must accept native code
    (raw or gzipped) or JIT (wire, BRISC) and fit the native image in
    memory; in-place interpretation only has to fit the artifact.
    [Engine.fetch] scores every (codec, mode) candidate that passes. *)
