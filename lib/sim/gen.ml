(* Scenario generators for the golden trace corpus.

   Each generator is a pure function of (seed, events, keys): clients
   are synthetic ("c0".."cN"), each pinned to a profile; program
   popularity is Zipf-weighted (weight 1000/(rank+1) in key order);
   timestamps advance by seeded gaps, so every cut of a scenario is
   byte-identical for a given seed.

   Streaming ops go to clients whose profile prefers streaming
   (embedded): a Stream event is a handshake on first touch and the
   next chunk afterwards, and roughly a tenth of them are followed by a
   Resume — the retransmit path a dropped response forces. *)

type spec = {
  sname : string;
  sdesc : string;
  generate : seed:int64 -> events:int -> keys:string list -> Trace.t;
}

let profile_names =
  List.map
    (fun (p : Server.Profile.t) -> p.Server.Profile.name)
    Server.Workload.default_profiles

let is_streaming_profile name =
  List.exists
    (fun (p : Server.Profile.t) ->
      p.Server.Profile.name = name && p.Server.Profile.prefers_streaming)
    Server.Workload.default_profiles

(* List.init with a guaranteed left-to-right evaluation order — the
   PRNG is threaded through f, so the order IS the scenario *)
let tabulate n f =
  let rec go i = if i >= n then [] else let e = f i in e :: go (i + 1) in
  go 0

(* clients c0..c(n-1), profile assigned round-robin from [profiles] *)
let make_clients ~n profiles =
  let profs = Array.of_list profiles in
  Array.init n (fun i ->
      (Printf.sprintf "c%d" i, profs.(i mod Array.length profs)))

let zipf_pop keys =
  List.mapi (fun rank k -> (max 1 (1000 / (rank + 1)), k)) keys

(* tail-heavy popularity: old clients keep asking for the cold keys.
   Weights attach to reversed ranks; the assoc order itself is
   irrelevant to Prng.weighted. *)
let reverse_zipf_pop keys = zipf_pop (List.rev keys)

let event rng ~t ~client ~profile ~key ?fault () =
  let op =
    if is_streaming_profile profile then
      if Support.Prng.int rng 10 = 0 then Trace.Resume else Trace.Stream
    else Trace.Fetch
  in
  { Trace.t_ms = t; client; profile; op; key; fault }

let cut ~sname ~seed evs =
  { Trace.scenario = sname; catalog = ""; seed; events = evs }

(* ---- steady ---- *)

let steady_step rng clients pop t =
  let client, profile = Support.Prng.pick rng clients in
  let key = Support.Prng.weighted rng pop in
  event rng ~t ~client ~profile ~key ()

let gen_steady ~seed ~events ~keys =
  let rng = Support.Prng.create seed in
  let clients = make_clients ~n:12 profile_names in
  let pop = zipf_pop keys in
  let t = ref 0 in
  let evs =
    tabulate events (fun _ ->
        t := !t + Support.Prng.int rng 40;
        steady_step rng clients pop !t)
  in
  cut ~sname:"steady" ~seed evs

(* ---- flash crowd ---- *)

(* A calm fleet, then a thundering herd on the hottest program at
   near-zero gaps (a release announcement), then calm again. *)
let gen_flash_crowd ~seed ~events ~keys =
  let rng = Support.Prng.create seed in
  let calm = make_clients ~n:12 profile_names in
  let crowd = make_clients ~n:24 [ "modem-jit"; "lan-jit" ] in
  let crowd =
    Array.map (fun (c, p) -> ("crowd-" ^ c, p)) crowd
  in
  let pop = zipf_pop keys in
  let hot = List.hd keys in
  let n1 = events * 3 / 10 and n2 = events / 2 in
  let t = ref 0 in
  let evs =
    tabulate events (fun i ->
        if i < n1 || i >= n1 + n2 then begin
          t := !t + Support.Prng.int rng 40;
          steady_step rng calm pop !t
        end
        else begin
          t := !t + Support.Prng.int rng 3;
          let client, profile = Support.Prng.pick rng crowd in
          event rng ~t:!t ~client ~profile ~key:hot ()
        end)
  in
  cut ~sname:"flash-crowd" ~seed evs

(* ---- corruption burst ---- *)

(* Steady traffic whose middle third carries fault directives: cached
   artifacts of the event's key are mutated just before the request, so
   verify-before-serve, quarantine, degradation and the eventual heals
   all fire — deterministically, because each fault carries its own
   mutation seed. *)
let gen_corruption_burst ~seed ~events ~keys =
  let rng = Support.Prng.create seed in
  let clients = make_clients ~n:12 profile_names in
  let pop = zipf_pop keys in
  let t = ref 0 in
  let kinds = Support.Fault.kinds in
  let evs =
    tabulate events (fun i ->
        t := !t + Support.Prng.int rng 40;
        let in_burst = i >= events / 3 && i < events * 2 / 3 in
        let fault =
          if in_burst && Support.Prng.int rng 4 = 0 then
            Some
              {
                Trace.fkind = kinds.(Support.Prng.int rng (Array.length kinds));
                fseed = Support.Prng.next64 rng;
              }
          else None
        in
        let client, profile = Support.Prng.pick rng clients in
        let key = Support.Prng.weighted rng pop in
        event rng ~t:!t ~client ~profile ~key ?fault ())
  in
  cut ~sname:"corruption-burst" ~seed evs

(* ---- mixed profiles ---- *)

(* Half the fleet is legacy (modem links, embedded pagers) pulling the
   catalog tail, half is modern (lan, datacenter) on the hot head —
   the heterogeneous mix where per-profile representation picks
   diverge the most. *)
let gen_mixed_profiles ~seed ~events ~keys =
  let rng = Support.Prng.create seed in
  let legacy = make_clients ~n:8 [ "modem-jit"; "embedded" ] in
  let legacy = Array.map (fun (c, p) -> ("old-" ^ c, p)) legacy in
  let modern = make_clients ~n:8 [ "lan-jit"; "datacenter" ] in
  let modern = Array.map (fun (c, p) -> ("new-" ^ c, p)) modern in
  let hot_pop = zipf_pop keys in
  let cold_pop = reverse_zipf_pop keys in
  let t = ref 0 in
  let evs =
    tabulate events (fun _ ->
        t := !t + Support.Prng.int rng 40;
        if Support.Prng.bool rng then
          let client, profile = Support.Prng.pick rng legacy in
          event rng ~t:!t ~client ~profile
            ~key:(Support.Prng.weighted rng cold_pop)
            ()
        else
          let client, profile = Support.Prng.pick rng modern in
          event rng ~t:!t ~client ~profile
            ~key:(Support.Prng.weighted rng hot_pop)
            ())
  in
  cut ~sname:"mixed-profiles" ~seed evs

(* ---- update storm ---- *)

(* A fleet on mixed old versions upgrading at once. Cut against the
   "versioned" catalog (keys [X] plus their old versions [X@1]).

   Phase 1 (rollout): each client fetches the old version of most
   programs — a seeded ~1-in-5 of the (client, program) pairs is
   skipped, so the fleet is genuinely mixed: some clients will have no
   base to patch against. Phase 2 (the storm): a release lands and
   every event is an Update on a current key at near-zero gaps — the
   thundering upgrade herd. Clients holding the old version advertise
   it (plus the shared dictionary) and can be served the delta update
   channel; the rest get full redelivery. *)
let gen_update_storm ~seed ~events ~keys =
  let rng = Support.Prng.create seed in
  (* the herd that matters for an update channel is the fleet behind
     real links: JIT clients on modem/lan (flash-crowd's crowd) —
     datacenter peers just re-pull natively and embedded pagers
     stream, so neither exercises the patch path *)
  let clients = make_clients ~n:16 [ "modem-jit"; "lan-jit" ] in
  let current = List.filter (fun k -> not (Catalog.is_old_version k)) keys in
  let t = ref 0 in
  let rollout =
    Array.to_list clients
    |> List.concat_map (fun (client, profile) ->
           List.filter_map
             (fun k ->
               if Support.Prng.int rng 5 = 0 then None
               else begin
                 t := !t + Support.Prng.int rng 40;
                 Some
                   {
                     Trace.t_ms = !t;
                     client;
                     profile;
                     op = Trace.Fetch;
                     key = Catalog.old_version_key k;
                     fault = None;
                   }
               end)
             current)
  in
  let pop = zipf_pop current in
  let storm =
    tabulate
      (max 0 (events - List.length rollout))
      (fun _ ->
        t := !t + Support.Prng.int rng 3;
        let client, profile = Support.Prng.pick rng clients in
        {
          Trace.t_ms = !t;
          client;
          profile;
          op = Trace.Update;
          key = Support.Prng.weighted rng pop;
          fault = None;
        })
  in
  cut ~sname:"update-storm" ~seed (rollout @ storm)

(* ---- paging ---- *)

(* A memory-constrained fleet: embedded pagers and modem JIT clients
   whose device RAM holds only a few programs, so each client cycles a
   small per-client working set — exactly the re-reference pattern a
   demand pager rewards — with seeded one-shot excursions into the
   catalog tail (the cold faults). Halfway through, every working set
   rotates to a different catalog window: the fleet-wide workload shift
   that forces full cache turnover. *)
let gen_paging ~seed ~events ~keys =
  let rng = Support.Prng.create seed in
  let clients = make_clients ~n:10 [ "embedded"; "modem-jit" ] in
  let karr = Array.of_list keys in
  let nk = Array.length karr in
  let wset_size = min 3 nk in
  (* client ci's resident window into the catalog during [phase] *)
  let wset phase ci =
    let base = ((ci * wset_size) + (phase * max 1 (nk / 2))) mod nk in
    Array.init wset_size (fun j -> karr.((base + j) mod nk))
  in
  let t = ref 0 in
  let evs =
    tabulate events (fun i ->
        t := !t + Support.Prng.int rng 25;
        let ci = Support.Prng.int rng (Array.length clients) in
        let client, profile = clients.(ci) in
        let phase = if i < events / 2 then 0 else 1 in
        let key =
          if Support.Prng.int rng 6 = 0 then
            karr.(Support.Prng.int rng nk)  (* cold-tail excursion *)
          else Support.Prng.pick rng (wset phase ci)
        in
        event rng ~t:!t ~client ~profile ~key ())
  in
  cut ~sname:"paging" ~seed evs

let all =
  [
    { sname = "steady"; sdesc = "steady-state Zipf mix over all profiles";
      generate = gen_steady };
    { sname = "flash-crowd";
      sdesc = "calm fleet, then a thundering herd on the hottest program";
      generate = gen_flash_crowd };
    { sname = "corruption-burst";
      sdesc = "steady mix whose middle third corrupts cached artifacts";
      generate = gen_corruption_burst };
    { sname = "mixed-profiles";
      sdesc = "legacy clients on the catalog tail vs modern on the head";
      generate = gen_mixed_profiles };
    { sname = "update-storm";
      sdesc =
        "fleet on mixed old versions upgrading at once (cut against the \
         versioned catalog)";
      generate = gen_update_storm };
    { sname = "paging";
      sdesc =
        "memory-constrained fleet cycling small working sets with cold-tail \
         excursions, rotating the sets mid-run";
      generate = gen_paging };
  ]

let find name = List.find_opt (fun s -> s.sname = name) all
