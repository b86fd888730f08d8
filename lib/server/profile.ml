(* Client profiles.

   A profile is what the server knows about a client: its link speed,
   whether it can JIT, whether our native images even run there, and
   its memory budget. [mode_feasible] gates each (artifact, mode)
   candidate; [Engine.fetch] then picks the one minimizing total time
   (transfer + prepare + run) at the client's link speed — the paper's
   modem/LAN crossover, applied per request. *)

type t = {
  name : string;
  link_bps : float;
  can_jit : bool;          (* client can run the wire/BRISC JIT *)
  accepts_native : bool;   (* client matches our native target *)
  memory_bytes : int option;  (* resident-code budget; None = ample *)
  prefers_streaming : bool;
      (* paging client: materialize functions lazily over a chunked
         session instead of fetching the whole image *)
}

let make ?(can_jit = true) ?(accepts_native = false) ?memory_bytes
    ?(prefers_streaming = false) name ~link_bps =
  { name; link_bps; can_jit; accepts_native; memory_bytes; prefers_streaming }

(* The default client population, spanning the paper's crossover. *)
let modem = make "modem-jit" ~link_bps:Scenario.Delivery.modem_bps
let lan = make "lan-jit" ~link_bps:Scenario.Delivery.lan_bps

let embedded =
  make "embedded" ~link_bps:Scenario.Delivery.isdn_bps ~can_jit:false
    ~memory_bytes:(32 * 1024) ~prefers_streaming:true

let datacenter =
  make "datacenter" ~link_bps:Scenario.Delivery.fast_lan_bps
    ~accepts_native:true

(* Per-mode gating for one concrete artifact: whole-image modes that
   materialize native code are bounded by the native image's resident
   size; in-place interpretation only by the artifact itself. *)
let mode_feasible p ~mode ~artifact_bytes ~native_bytes =
  let fits resident =
    match p.memory_bytes with None -> true | Some m -> resident <= m
  in
  match (mode : Scenario.Delivery.representation) with
  | Scenario.Delivery.Raw_native | Scenario.Delivery.Gzipped_native ->
    p.accepts_native && fits native_bytes
  | Scenario.Delivery.Wire_format | Scenario.Delivery.Brisc_jit ->
    p.can_jit && fits native_bytes
  | Scenario.Delivery.Brisc_interp -> fits artifact_bytes
