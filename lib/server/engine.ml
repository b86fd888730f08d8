(* The code-delivery engine: content-addressed store + cache behind an
   adaptive, per-request representation selector.

   [fetch] is the whole-image path: enumerate every (artifact, mode)
   candidate the codec registry offers, keep those the client profile
   can use, pick the one minimizing modelled total time (transfer of
   the artifact's actual stored bytes + preparation + run), materialize
   it (compressing on a cache miss), verify it decodes, and account for
   it. [open_session] is the streaming path for paging clients.

   The candidate menu is registry-derived: a newly registered codec
   with delivery modes enters selection, degradation, and stats with no
   engine changes. *)

type t = {
  store : Store.t;
  stats : Stats.t;
  rates : Scenario.Delivery.rates;
  min_session_cycles : int;
}

(* Corpus drivers finish in milliseconds, but a delivered program runs
   for a real session; like the bench's Table 2, model at least one
   nominal CPU-second at the paper's 120 MHz so preparation cost
   amortizes believably. *)
let default_min_session_cycles = 120_000_000

let default_budget_bytes = 256 * 1024

let create ?pool ?shards ?(budget_bytes = default_budget_bytes)
    ?(rates = Scenario.Delivery.default_rates)
    ?(min_session_cycles = default_min_session_cycles) () =
  let stats = Stats.create () in
  let pool = match pool with Some p -> p | None -> Support.Pool.shared () in
  { store = Store.create ~pool ?shards ~budget_bytes ~stats (); stats; rates;
    min_session_cycles }

let publish t ?run_cycles ?input p = Store.publish t.store ?run_cycles ?input p
let digests t = Store.digests t.store
let store t = t.store

(* How a response describes itself: the artifact's registry name plus
   the delivery mode's preparation verb. *)
let label_of artifact (mode : Scenario.Delivery.representation) =
  match mode with
  | Scenario.Delivery.Raw_native | Scenario.Delivery.Gzipped_native ->
    Artifact.name artifact
  | Scenario.Delivery.Wire_format | Scenario.Delivery.Brisc_jit ->
    Artifact.name artifact ^ "+JIT"
  | Scenario.Delivery.Brisc_interp -> Artifact.name artifact ^ " interp"

type response = {
  digest : string;
  chosen : Scenario.Delivery.representation;
  artifact : Artifact.repr;
  label : string;
  bytes : string;
  size : int;
  cache_hit : bool;
  outcome : Scenario.Delivery.outcome;
  degraded_from : string option;
  context : string option;
      (* digest of the held context the serve was encoded against
         (shared dictionary or delta base); None for context-free *)
}

let session_cycles t (m : Store.meta) =
  max m.Store.run_cycles t.min_session_cycles

(* Every (artifact, mode) pair the registry offers this client, minus
   artifacts that already failed verification this fetch. Feasibility is
   per concrete artifact: the mode's resident-memory rule applied to the
   artifact's actual stored size.

   Context-requiring representations join the menu only for what the
   client advertises as held (by digest): shared-dictionary codecs when
   the held set names the dictionary, and the delta update channel when
   it names a previously published program — then the patch against
   that base competes on its actual bytes like any other candidate. *)
let candidates t (m : Store.meta) (profile : Profile.t) ~held ~failed digest =
  let native_bytes = Store.size_of m Artifact.native in
  let feasible r mode artifact_bytes ctx =
    if Profile.mode_feasible profile ~mode ~artifact_bytes ~native_bytes then
      Some (r, mode, artifact_bytes, ctx)
    else None
  in
  let context_free =
    List.concat_map
      (fun r ->
        if List.mem (Artifact.name r) failed then []
        else
          let artifact_bytes = Store.size_of m r in
          List.filter_map
            (fun mode -> feasible r mode artifact_bytes None)
            (Artifact.modes r))
      (Artifact.all ())
  in
  let contexted =
    if held = [] then []
    else
      List.concat_map
        (fun (r, needs) ->
          if List.mem (Artifact.name r) failed then []
          else
            match needs with
            | `Shared_dict d when List.mem d held ->
              let ctx = Codec.Context.builtin () in
              let artifact_bytes =
                Store.contexted_size t.store digest r ~ctx
              in
              List.filter_map
                (fun mode -> feasible r mode artifact_bytes (Some ctx))
                (Artifact.modes r)
            | `Base _ ->
              (* the update channel: one candidate per held base the
                 store still knows (skipping the degenerate self-patch) *)
              List.concat_map
                (fun h ->
                  if h = digest then []
                  else
                    match Store.find_meta t.store h with
                    | None -> []
                    | Some bm ->
                      let ctx =
                        Codec.Context.base
                          ~ir_text:
                            (Ir.Printer.program_to_string bm.Store.ir)
                      in
                      let artifact_bytes =
                        Store.contexted_size t.store digest r ~ctx
                      in
                      List.filter_map
                        (fun mode ->
                          feasible r mode artifact_bytes (Some ctx))
                        (Artifact.modes r))
                held
            | _ -> [])
        (Artifact.contexted ())
  in
  context_free @ contexted

(* In-place interpretation is the mode of last resort: when nothing fits
   the client's constraints, serve any live artifact that can be
   interpreted, memory rule waived. *)
let last_resort (m : Store.meta) ~failed =
  List.filter_map
    (fun r ->
      if
        (not (List.mem (Artifact.name r) failed))
        && List.mem Scenario.Delivery.Brisc_interp (Artifact.modes r)
      then Some (r, Scenario.Delivery.Brisc_interp, Store.size_of m r, None)
      else None)
    (Artifact.all ())

let fetch ?(held = []) t digest (profile : Profile.t) =
  Stats.record_request t.stats;
  let m = Store.meta t.store digest in
  let native_bytes = Store.size_of m Artifact.native in
  let run_cycles = session_cycles t m in
  (* Degradation loop: when the chosen artifact fails verification,
     quarantine it (the store rebuilds it fresh on the next request)
     and re-select over the remaining candidates — the session degrades
     to the next-best choice instead of dropping. *)
  let rec attempt failed first_choice =
    let cands =
      match candidates t m profile ~held ~failed digest with
      | [] -> last_resort m ~failed
      | cs -> cs
    in
    if cands = [] then
      failwith
        (Printf.sprintf "Engine.fetch: no servable representation for %s"
           digest);
    let score (r, mode, artifact_bytes, ctx) =
      ( (r, mode, ctx),
        Scenario.Delivery.total_time_for ~rates:t.rates ~mode ~artifact_bytes
          ~native_bytes ~run_cycles ~link_bps:profile.Profile.link_bps () )
    in
    let scored = List.map score cands in
    (* strict-min fold: ties keep the earlier (registry-order) entry *)
    let (artifact, chosen, ctx), outcome =
      List.fold_left
        (fun (bc, bo) (c, o) ->
          if o.Scenario.Delivery.total_s < bo.Scenario.Delivery.total_s then
            (c, o)
          else (bc, bo))
        (List.hd scored) (List.tl scored)
    in
    let label = label_of artifact chosen in
    let bytes, cache_hit = Store.materialize ?ctx t.store digest artifact in
    (* verify with the context the client will decode under — a
       contexted serve that does not decode against its own context is
       exactly as poisoned as a corrupt context-free one *)
    match Codec.decode ?ctx (Artifact.codec artifact) bytes with
    | Ok _ ->
      let size = String.length bytes in
      Stats.record_served t.stats artifact size;
      let degraded_from =
        match first_choice with
        | Some l when l <> label -> Some l
        | _ -> None
      in
      if degraded_from <> None then Stats.record_degraded t.stats;
      { digest; chosen; artifact; label; bytes; size; cache_hit; outcome;
        degraded_from; context = Option.map Codec.Context.digest ctx }
    | Error e ->
      Stats.record_decode_failure t.stats ~digest artifact e;
      Store.quarantine ?ctx t.store digest artifact;
      attempt
        (Artifact.name artifact :: failed)
        (match first_choice with None -> Some label | s -> s)
  in
  attempt [] None

let open_session t digest =
  Stats.record_request t.stats;
  Session.open_ t.store t.stats digest

(* The serve path's registry-hygiene gate: a chunked session may only
   stream a codec the registry marked streamable; everything else is a
   typed refusal, not an attempt. *)
let open_session_for t ~codec digest =
  Stats.record_request t.stats;
  match Codec.find codec with
  | None -> Error (`Unknown_codec codec)
  | Some e when not e.Codec.streamable -> Error (`Not_streamable codec)
  | Some _ ->
    Ok (Session.open_artifact t.store t.stats digest (Artifact.by_name codec))

let session_request t sess ~seq name =
  Stats.record_request t.stats;
  Session.request sess ~seq name

let report t = Stats.report t.stats ~cache:(Store.cache_stats t.store)
