(* Trace replay: the simulator's deterministic core.

   Everything observable is derived from the trace and the engine's
   own deterministic behavior: the event log renders what was served
   (label, size, cache hit, degradation) but never wall-clock, and
   latency is modelled (delivery model for fetches, link transfer time
   for session legs), so a replay is byte-identical across runs and
   across pool sizes. One loop drives every event; its backend is either
   the engine itself or RPCs to a loopback daemon serving that engine. *)

type opstats = { ops : int; bytes : int; lat : Support.Quantile.bucket }

type report = {
  r_label : string;
  r_scenario : string;
  r_catalog : string;
  r_seed : int64;
  r_events : int;
  r_bytes_on_wire : int;
  r_cache_hit_rate : float;
  r_degraded : int;
  r_decode_failures : int;
  r_quarantine_heals : int;
  r_fetch : opstats;
  r_stream : opstats;
  r_resume : opstats;
  r_update : opstats;
  r_update_corrupt : int;
  r_all : opstats;
  r_event_crc : int;
  r_serve_crc : int;
  r_log : string;
  r_stats : Server.Stats.report;
}

type config = {
  label : string;
  budget_bytes : int;
  pool : Support.Pool.t option;
  contexted : bool;
}

let default_config =
  { label = "replay"; budget_bytes = 256 * 1024; pool = None; contexted = true }

(* ---- shared plumbing ---- *)

let find_profile name =
  match
    List.find_opt
      (fun (p : Server.Profile.t) -> p.Server.Profile.name = name)
      Server.Workload.default_profiles
  with
  | Some p -> p
  | None -> failwith ("Sim.Replay: unknown profile " ^ name)

let catalog_for (trace : Trace.t) engine =
  let flavor =
    match Catalog.flavor_of_name trace.Trace.catalog with
    | Some f -> f
    | None ->
      failwith ("Sim.Replay: unknown catalog flavor " ^ trace.Trace.catalog)
  in
  let entries = Catalog.publish engine flavor in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (e : Server.Workload.entry) ->
      Hashtbl.replace by_name e.Server.Workload.name e)
    entries;
  (entries, by_name)

let entry_of by_name key : Server.Workload.entry =
  match Hashtbl.find_opt by_name key with
  | Some e -> e
  | None -> failwith ("Sim.Replay: trace key not in catalog: " ^ key)

(* chained CRC over served payloads: order-sensitive, O(total bytes) *)
let chain crc s = Support.Util.crc32 (Printf.sprintf "%08x:" crc ^ s)

(* what the handshake ships: the session index (same formula as
   Session.handshake_bytes, recomputed from the index rows so the
   daemon path can derive it from the Index frame alone) *)
let handshake_of_rows rows =
  List.fold_left (fun a (n, _) -> a + String.length n + 1 + 4) 8 rows

let render_rows rows =
  String.concat ";" (List.map (fun (n, sz) -> Printf.sprintf "%s:%d" n sz) rows)

(* modelled transfer time of [bytes] at the profile's link, in ms *)
let transfer_ms (p : Server.Profile.t) bytes =
  float_of_int (bytes * 8) /. p.Server.Profile.link_bps *. 1000.

(* ---- accumulation ---- *)

type acc = {
  log : Buffer.t;
  mutable serve_crc : int;
  mutable lat : (Trace.op * float) list;  (* newest first *)
  mutable bytes_by_op : (Trace.op * int) list;
  mutable upd_corrupt : int;
      (* update serves that failed client-side decode verification *)
}

let new_acc () =
  { log = Buffer.create 4096; serve_crc = 0; lat = []; bytes_by_op = [];
    upd_corrupt = 0 }

let logf acc fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string acc.log s;
      Buffer.add_char acc.log '\n')
    fmt

(* one response: [shown] feeds the serve CRC, [bytes] is what it put on
   the wire *)
let served acc op ~latency ~bytes shown =
  acc.serve_crc <- chain acc.serve_crc shown;
  acc.lat <- (op, latency) :: acc.lat;
  acc.bytes_by_op <- (op, bytes) :: acc.bytes_by_op

let opstats_of acc op =
  let lats =
    List.rev_map snd (List.filter (fun (o, _) -> o = op) acc.lat)
  in
  {
    ops = List.length lats;
    bytes =
      List.fold_left
        (fun a (o, n) -> if o = op then a + n else a)
        0 acc.bytes_by_op;
    lat = Support.Quantile.bucket_of_ms lats;
  }

let all_stats acc =
  {
    ops = List.length acc.lat;
    bytes = List.fold_left (fun a (_, n) -> a + n) 0 acc.bytes_by_op;
    lat = Support.Quantile.bucket_of_ms (List.rev_map snd acc.lat);
  }

let finish ~(config : config) ~(trace : Trace.t) ~before ~after acc =
  let d = Server.Stats.diff ~before after in
  {
    r_label = config.label;
    r_scenario = trace.Trace.scenario;
    r_catalog = trace.Trace.catalog;
    r_seed = trace.Trace.seed;
    r_events = List.length trace.Trace.events;
    r_bytes_on_wire = d.Server.Stats.total_bytes_served;
    r_cache_hit_rate = d.Server.Stats.cache_hit_rate;
    r_degraded = d.Server.Stats.degraded_fetches;
    r_decode_failures = d.Server.Stats.decode_failures;
    r_quarantine_heals = d.Server.Stats.quarantine_heals;
    r_fetch = opstats_of acc Trace.Fetch;
    r_stream = opstats_of acc Trace.Stream;
    r_resume = opstats_of acc Trace.Resume;
    r_update = opstats_of acc Trace.Update;
    r_update_corrupt = acc.upd_corrupt;
    r_all = all_stats acc;
    r_event_crc = Support.Util.crc32 (Buffer.contents acc.log);
    r_serve_crc = acc.serve_crc;
    r_log = Buffer.contents acc.log;
    r_stats = d;
  }

(* ---- the update channel ---- *)

(* What an Update event advertises as held: the shared dictionary plus
   the key's old version, when this client fetched it earlier in the
   trace. [holds] maps "client:key" to the digest that client last
   received for the key. *)
let held_for ~(config : config) holds ev =
  if not config.contexted then []
  else
    Codec.Context.builtin_digest ()
    :: (match
          Hashtbl.find_opt holds
            (ev.Trace.client ^ ":" ^ Catalog.old_version_key ev.Trace.key)
        with
       | Some d -> [ d ]
       | None -> [])

(* Client-side decode verification of an update serve: a contexted body
   must decode under the context the response names, and a delta patch
   must expand to the exact printed IR a full wire serve decodes to —
   byte equality against the new version held by the store, not just
   "some successful decode". *)
let update_serve_ok store ~codec ~context ~digest body =
  if context = "" then true (* context-free: the engine decode-verified it *)
  else
    let e = Codec.find_exn codec in
    let ctx =
      if context = Codec.Context.builtin_digest () then Codec.Context.builtin ()
      else
        match Server.Store.find_meta store context with
        | Some bm ->
          Codec.Context.base
            ~ir_text:(Ir.Printer.program_to_string bm.Server.Store.ir)
        | None ->
          failwith ("Sim.Replay: served context digest unknown: " ^ context)
    in
    match Codec.decode ~ctx e.Codec.codec body with
    | Error _ -> false
    | Ok (expansion, _) ->
      codec <> "delta"
      || expansion
         = Ir.Printer.program_to_string
             (Server.Store.meta store digest).Server.Store.ir

(* ---- faults ---- *)

(* One directive corrupts ONE cached non-native artifact of the key —
   the repr picked and the mutation both drawn from the directive's own
   seed, so the damage is reproducible. Verify-before-serve catches it,
   the fetch degrades, and the store heals the quarantined artifact on
   its next request. *)
let apply_fault store digest (f : Trace.fault) =
  let rng = Support.Prng.create f.Trace.fseed in
  let reprs =
    Array.of_list
      (List.filter (fun r -> r <> Server.Artifact.native) (Server.Artifact.all ()))
  in
  let repr = reprs.(Support.Prng.int rng (Array.length reprs)) in
  if
    Server.Store.corrupt_cached store digest repr
      ~f:(fun s -> Support.Fault.apply rng f.Trace.fkind s)
  then 1
  else 0

(* ---- backends ---- *)

(* One whole-image serve as the replay loop sees it; absent response
   fields are [""], as on the wire. [ms] is the serve's latency. *)
type fetched = {
  label : string;
  codec : string;
  cache_hit : bool;
  degraded_from : string;
  context : string;
  body : string;
  ms : float;
}

(* An open chunked session: its index, the window's first sequence
   number, the handshake's latency, and the session's own chunk
   request, answering (payload, latency ms). *)
type stream = {
  rows : (string * int) list;
  first_seq : int;
  open_ms : float;
  chunk : seq:int -> string -> string * float;
}

(* The two requests a replay makes: direct engine calls with modelled
   latencies, or RPCs to a loopback daemon with measured ones. *)
type backend = {
  fetch : Server.Profile.t -> held:string list -> string -> fetched;
  open_stream : Server.Profile.t -> string -> stream;
}

let in_process engine =
  let fetch profile ~held digest =
    let r = Server.fetch ~held engine digest profile in
    {
      label = r.Server.label;
      codec = Server.Artifact.name r.Server.artifact;
      cache_hit = r.Server.cache_hit;
      degraded_from = Option.value ~default:"" r.Server.degraded_from;
      context = Option.value ~default:"" r.Server.context;
      body = r.Server.bytes;
      ms = r.Server.outcome.Scenario.Delivery.total_s *. 1000.;
    }
  in
  let open_stream profile digest =
    let sess = Server.open_session engine digest in
    let rows = Server.Session.index sess in
    let chunk ~seq name =
      match Server.session_request engine sess ~seq name with
      | Ok payload -> (payload, transfer_ms profile (String.length payload))
      | Error msg -> failwith ("Sim.Replay: session error: " ^ msg)
    in
    {
      rows;
      first_seq = Server.Session.next_seq sess;
      open_ms = transfer_ms profile (handshake_of_rows rows);
      chunk;
    }
  in
  { fetch; open_stream }

let refused what = function
  | Net.Protocol.Err (c, m) ->
    failwith
      (Printf.sprintf "Sim.Replay: %s refused: %s: %s" what
         (Net.Protocol.err_code_name c) m)
  | _ -> failwith ("Sim.Replay: unexpected response to " ^ what)

(* one connection, one op in flight: latency is the RPC's wall time *)
let over_daemon client =
  let timed req =
    let t0 = Unix.gettimeofday () in
    match Net.Client.rpc client req with
    | Ok resp -> (resp, (Unix.gettimeofday () -. t0) *. 1000.)
    | Error e ->
      failwith ("Sim.Replay: rpc failed: " ^ Support.Decode_error.to_string e)
  in
  let fetch (profile : Server.Profile.t) ~held digest =
    match
      timed
        (Net.Protocol.Fetch
           { profile = profile.Server.Profile.name; digest; held })
    with
    | ( Net.Protocol.Artifact
          { label; codec; cache_hit; degraded_from; context; body },
        ms ) ->
      { label; codec; cache_hit; degraded_from; context; body; ms }
    | resp, _ -> refused "fetch" resp
  in
  let open_stream _profile digest =
    match
      timed (Net.Protocol.Open { codec = ""; digest; resume = ""; held = [] })
    with
    | Net.Protocol.Index { token; next_seq; rows; _ }, open_ms ->
      let chunk ~seq name =
        match timed (Net.Protocol.Chunk { token; seq; name }) with
        | Net.Protocol.Chunk_data payload, ms -> (payload, ms)
        | resp, _ -> refused "chunk" resp
      in
      { rows; first_seq = next_seq; open_ms; chunk }
    | resp, _ -> refused "open" resp
  in
  { fetch; open_stream }

(* ---- the request loop ---- *)

type stream_state = {
  s : stream;
  mutable pending : string list;
  mutable next_seq : int;
  mutable last : (int * string) option;  (* last served (seq, name) *)
}

(* Drive every event through [backend], in order. Fault directives hit
   [engine]'s store between requests — the daemon backend serves from
   that same engine, one op at a time, so injections land exactly where
   they do in process. Returns the accumulator and the stats snapshot
   taken before the first event. *)
let replay ~config (trace : Trace.t) engine by_name backend =
  let store = Server.store engine in
  let acc = new_acc () in
  let streams : (string, stream_state) Hashtbl.t = Hashtbl.create 16 in
  let holds : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let before = Server.report engine in
  let open_stream ev skey (e : Server.Workload.entry) profile =
    let s = backend.open_stream profile e.Server.Workload.digest in
    let hs = handshake_of_rows s.rows in
    logf acc "open %s %s %s rows=%d %dB" ev.Trace.client ev.Trace.profile
      ev.Trace.key (List.length s.rows) hs;
    served acc Trace.Stream ~latency:s.open_ms ~bytes:hs (render_rows s.rows);
    Hashtbl.replace streams skey
      { s; pending = e.Server.Workload.wanted; next_seq = s.first_seq;
        last = None }
  in
  let chunk verb op ev st ~seq name =
    let payload, ms = st.s.chunk ~seq name in
    logf acc "%s %s %s %s seq=%d %s %dB" verb ev.Trace.client
      ev.Trace.profile ev.Trace.key seq name (String.length payload);
    served acc op ~latency:ms ~bytes:(String.length payload) payload
  in
  let rec step ev =
    let e = entry_of by_name ev.Trace.key in
    let digest = e.Server.Workload.digest in
    let profile = find_profile ev.Trace.profile in
    let skey = ev.Trace.client ^ ":" ^ ev.Trace.key in
    match ev.Trace.op with
    | (Trace.Fetch | Trace.Update) as op ->
      let held = if op = Trace.Update then held_for ~config holds ev else [] in
      let f = backend.fetch profile ~held digest in
      let shown s = if s = "" then "-" else s in
      if op = Trace.Fetch then
        logf acc "fetch %s %s %s -> %s %dB hit=%d degraded=%s" ev.Trace.client
          ev.Trace.profile ev.Trace.key f.label (String.length f.body)
          (Bool.to_int f.cache_hit) (shown f.degraded_from)
      else begin
        if
          not
            (update_serve_ok store ~codec:f.codec ~context:f.context ~digest
               f.body)
        then acc.upd_corrupt <- acc.upd_corrupt + 1;
        logf acc "update %s %s %s -> %s %dB hit=%d ctx=%s" ev.Trace.client
          ev.Trace.profile ev.Trace.key f.label (String.length f.body)
          (Bool.to_int f.cache_hit) (shown f.context)
      end;
      Hashtbl.replace holds skey digest;
      served acc op ~latency:f.ms ~bytes:(String.length f.body) f.body
    | Trace.Stream -> (
      match Hashtbl.find_opt streams skey with
      | Some ({ pending = name :: rest; _ } as st) ->
        let seq = st.next_seq in
        chunk "chunk" Trace.Stream ev st ~seq name;
        st.next_seq <- seq + 1;
        st.last <- Some (seq, name);
        st.pending <- rest
      | _ ->
        (* first touch, or the session is exhausted: (re)open *)
        open_stream ev skey e profile)
    | Trace.Resume -> (
      match Hashtbl.find_opt streams skey with
      | Some ({ last = Some (seq, name); _ } as st) ->
        (* dropped response: repeat the same seq, byte-for-byte *)
        chunk "resume" Trace.Resume ev st ~seq name
      | _ ->
        (* nothing to resume yet: behaves as the stream leg it retries *)
        step { ev with Trace.op = Trace.Stream })
  in
  List.iter
    (fun ev ->
      (match ev.Trace.fault with
      | None -> ()
      | Some f ->
        let e = entry_of by_name ev.Trace.key in
        let hit = apply_fault store e.Server.Workload.digest f in
        logf acc "fault %s %s hit=%d"
          (Support.Fault.kind_name f.Trace.fkind)
          ev.Trace.key hit);
      step ev)
    trace.Trace.events;
  (acc, before)

let engine_for (config : config) trace =
  let engine =
    Server.create ?pool:config.pool ~budget_bytes:config.budget_bytes ()
  in
  let entries, by_name = catalog_for trace engine in
  (engine, entries, by_name)

let run ?(config = default_config) (trace : Trace.t) =
  let engine, _entries, by_name = engine_for config trace in
  let acc, before = replay ~config trace engine by_name (in_process engine) in
  finish ~config ~trace ~before ~after:(Server.report engine) acc

let via_daemon ?(config = default_config) (trace : Trace.t) =
  let engine, entries, by_name = engine_for config trace in
  let rows =
    List.map
      (fun (e : Server.Workload.entry) ->
        {
          Net.Protocol.prog_name = e.Server.Workload.name;
          prog_digest = e.Server.Workload.digest;
          fn_count = e.Server.Workload.fn_count;
        })
      entries
  in
  let daemon =
    Net.Daemon.create engine ~catalog:rows
      { Net.Daemon.default_config with domains = 1 }
  in
  let dom = Domain.spawn (fun () -> Net.Daemon.run daemon) in
  let acc, before =
    Fun.protect
      ~finally:(fun () ->
        Net.Daemon.request_stop daemon;
        Domain.join dom)
      (fun () ->
        let client = Net.Client.connect ~port:(Net.Daemon.port daemon) in
        Fun.protect
          ~finally:(fun () -> Net.Client.close client)
          (fun () -> replay ~config trace engine by_name (over_daemon client)))
  in
  finish ~config ~trace ~before ~after:(Server.report engine) acc

(* ---- rendering ---- *)

let render_opstats name (o : opstats) =
  Printf.sprintf
    "lat %-7s %5d ops %9dB  p50 %8.2f  p95 %8.2f  p99 %8.2f ms" name o.ops
    o.bytes o.lat.Support.Quantile.p50_ms o.lat.Support.Quantile.p95_ms o.lat.Support.Quantile.p99_ms

let render (r : report) =
  String.concat "\n"
    [
      "mcc-sim replay 1";
      Printf.sprintf "label            %s" r.r_label;
      Printf.sprintf "scenario         %s" r.r_scenario;
      Printf.sprintf "catalog          %s" r.r_catalog;
      Printf.sprintf "seed             %Ld" r.r_seed;
      Printf.sprintf "events           %d" r.r_events;
      Printf.sprintf "bytes on wire    %d" r.r_bytes_on_wire;
      Printf.sprintf "cache hit rate   %.4f" r.r_cache_hit_rate;
      Printf.sprintf "degraded         %d" r.r_degraded;
      Printf.sprintf "decode failures  %d" r.r_decode_failures;
      Printf.sprintf "quarantine heals %d" r.r_quarantine_heals;
      render_opstats "fetch" r.r_fetch;
      render_opstats "stream" r.r_stream;
      render_opstats "resume" r.r_resume;
      render_opstats "update" r.r_update;
      Printf.sprintf "update corrupt   %d" r.r_update_corrupt;
      render_opstats "all" r.r_all;
      Printf.sprintf "event crc        %08x" r.r_event_crc;
      Printf.sprintf "serve crc        %08x" r.r_serve_crc;
      "";
    ]

let json_opstats (o : opstats) =
  Printf.sprintf
    "{\"ops\": %d, \"bytes\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}"
    o.ops o.bytes o.lat.Support.Quantile.p50_ms o.lat.Support.Quantile.p95_ms
    o.lat.Support.Quantile.p99_ms

let to_json (r : report) =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"label\": \"%s\"," r.r_label;
      Printf.sprintf "  \"scenario\": \"%s\"," r.r_scenario;
      Printf.sprintf "  \"catalog\": \"%s\"," r.r_catalog;
      Printf.sprintf "  \"seed\": %Ld," r.r_seed;
      Printf.sprintf "  \"events\": %d," r.r_events;
      Printf.sprintf "  \"bytes_on_wire\": %d," r.r_bytes_on_wire;
      Printf.sprintf "  \"cache_hit_rate\": %.4f," r.r_cache_hit_rate;
      Printf.sprintf "  \"degraded\": %d," r.r_degraded;
      Printf.sprintf "  \"decode_failures\": %d," r.r_decode_failures;
      Printf.sprintf "  \"quarantine_heals\": %d," r.r_quarantine_heals;
      Printf.sprintf "  \"fetch\": %s," (json_opstats r.r_fetch);
      Printf.sprintf "  \"stream\": %s," (json_opstats r.r_stream);
      Printf.sprintf "  \"resume\": %s," (json_opstats r.r_resume);
      Printf.sprintf "  \"update\": %s," (json_opstats r.r_update);
      Printf.sprintf "  \"update_corrupt\": %d," r.r_update_corrupt;
      Printf.sprintf "  \"all\": %s," (json_opstats r.r_all);
      Printf.sprintf "  \"event_crc\": \"%08x\"," r.r_event_crc;
      Printf.sprintf "  \"serve_crc\": \"%08x\"" r.r_serve_crc;
      "}";
    ]
