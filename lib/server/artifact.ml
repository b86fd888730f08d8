(* The representations the delivery server stores and serves — a thin
   veneer over the [Codec] registry. A repr is just a registered
   codec's (name, tag), so it compares structurally (safe as a Hashtbl
   key), and the full menu is derived from the registry: adding a
   representation to the server is one [Codec.register] call. *)

type repr = { name : string; tag : string }

let of_entry (e : Codec.entry) =
  { name = Codec.name e.Codec.codec; tag = Codec.tag e.Codec.codec }

(* every context-free artifact the server materializes unprompted, in
   registry (= serving tie-break) order. Context-requiring entries are
   deliberately NOT here: publish, the first-miss menu prefetch, the
   fault injector and the stats report all iterate this list, and a
   contexted representation only exists for clients that advertise the
   matching held digest (see [contexted] and the engine's held-aware
   candidate enumeration). *)
let all () =
  List.filter_map
    (fun (e : Codec.entry) ->
      match e.Codec.needs with `None -> Some (of_entry e) | _ -> None)
    (Codec.artifacts ())

(* the servable context-requiring entries (shared-dictionary codecs and
   the per-request delta channel), with what each one needs. Drawn from
   the full registry, not [Codec.artifacts]: `Base entries are not
   storable artifacts, but they are servable representations. *)
let contexted () =
  List.filter_map
    (fun (e : Codec.entry) ->
      match e.Codec.needs with
      | `None -> None
      | needs when e.Codec.modes <> [] || e.Codec.streamable ->
        Some (of_entry e, needs)
      | _ -> None)
    (Codec.all ())

let name r = r.name
let tag r = r.tag

let entry r = Codec.find_exn r.name
let codec r = (entry r).Codec.codec
let modes r = (entry r).Codec.modes
let streamable r = (entry r).Codec.streamable
let needs r = (entry r).Codec.needs

let by_name n =
  match Codec.find n with
  | Some e -> of_entry e
  | None -> invalid_arg ("Artifact.by_name: unknown codec " ^ n)

(* The built-ins, by name; [by_name] validates against the registry at
   module init. *)
let native = by_name "native"
let gzip_native = by_name "gzip+native"
let wire = by_name "wire"
let wire_range = by_name "wire+range"
let wire_range_opt = by_name "wire+range-opt"
let deflate_opt = by_name "deflate-opt"
let chunked_wire = by_name "chunked-wire"
let brisc = by_name "brisc"

(* the contexted representations (served only against held digests) *)
let wire_shared = by_name "wire+shared"
let brisc_shared = by_name "brisc+shared"
let delta = by_name "delta"
