(* serve-hot: the daemon workload.

   Each run spawns fresh daemons: [setups] of them one after the other,
   timing each from spawn to first Pong (setup_s is their median); the
   last one takes the load. An untimed warm-up deck precedes the timed
   phases. Phase A is a closed loop at two connections (ops_per_s);
   phase B an open loop at a fixed offered rate (p50_ms, tail_ms,
   bytes_per_op). Phase B issues whole decks of its own op list, so its
   units and bytes are the same on every seed and commit.

   peak_rss_mb is the median over the daemons of each one's VmHWM, read
   before its drain: publishing the catalog sets the peak, and where it
   lands varies by up to 30% from one daemon to the next.

   The traced run splits phase A into an untraced and a traced half,
   for the tracing overhead, records client spans, and then replays
   everything the daemon served in process (Replay). *)

(* the daemon's catalog flavour and cache budget (mccd's default): the
   Quick catalog's 97 KB of artifacts fit, so every fetch hits *)
let flavour = Sim.Catalog.Quick
let budget = 256 * 1024

let setups = 5
let conns = 2
let tail_cap = 99.

(* rank r appears round(6/(r+1)) times a deck: 24 ranks x 6 profile
   slots = 144 units, 24 of them sessions. A run opens well under the
   daemon's 1024-entry session table, which never shrinks (a daemon
   past it answers Busy to every open); each run's daemon is fresh. *)
let deck_w = 6

(* Phase B's rate is fixed, so every commit is offered the same load:
   about a third of the phase A rate on a 2-core x86-64 host. At half,
   a slow stretch of a shared host pushed the daemon near saturation
   and the tail measured the host. *)
let rate = 45.
let b_share = 0.7

(* an open loop whose generator woke this late (p99) did not offer the
   load it claims, and the run is invalid *)
let late_limit_ms = 100.

(* the traced run's per-layer metrics: client spans [sp], the
   in-process replay [r], the daemon's exit report, and the open loop's
   lateness *)
let layer_metrics ~sp ~(r : Replay.t) ~(exit_report : Mccd.exit_report) ~late =
  let ms = 1000. and us = 1e6 in
  let phase = r.Replay.phase and life = r.Replay.lifetime in
  let cache = phase.Server.Stats.cache in
  let sum_phase f = List.fold_left (fun a x -> a +. f x) 0. phase.Server.Stats.by_repr in
  let compressions = sum_phase (fun x -> float x.Server.Stats.compressions) in
  let useful =
    sum_phase (fun x ->
        if x.Server.Stats.responses > 0 then float x.Server.Stats.compressions else 0.)
  in
  let by_codec c =
    List.find_opt
      (fun x -> Replay.metric_codec (Server.Artifact.name x.Server.Stats.repr) = c)
      life.Server.Stats.by_repr
  in
  (* mean per compression over the replay server's life, publishing
     included, so the menu's encode cost shows on every workload *)
  let encode c =
    match by_codec c with
    | Some x when x.Server.Stats.compressions > 0 ->
      [ ("codec.encode_ms." ^ c,
         ms *. x.Server.Stats.compress_total_s /. float x.Server.Stats.compressions) ]
    | _ -> []
  in
  let stage (c, st) =
    match Option.map (fun x -> x.Server.Stats.stages) (by_codec c) with
    | None -> []
    | Some stages -> (
      match List.find_opt (fun g -> Replay.metric_codec g.Server.Stats.stage_name = st) stages with
      | Some g when g.Server.Stats.calls > 0 ->
        [ (Printf.sprintf "codec.stage_ms.%s.%s" c st,
           ms *. g.Server.Stats.wall_s /. float g.Server.Stats.calls) ]
      | _ -> [])
  in
  let spanned metric name scale =
    if Spans.count r.Replay.spans name > 0 then [ (metric, Spans.mean r.Replay.spans ~scale name) ]
    else []
  in
  let count name = float (Spans.count r.Replay.spans name) in
  [ ("load.rpc_ms", Spans.mean sp ~scale:ms "load.rpc");
    ("load.verify_us", Spans.mean sp ~scale:us "load.verify") ]
  @ [ ("load.late_ms", late) ]
  @ spanned "net.resp_encode_us" "net.resp_encode" us
  @ spanned "net.resp_decode_us" "net.resp_decode" us
  @ [ ("net.resp_bytes", Report.mean (List.map float r.Replay.resp_bytes));
      ("net.served_frames", float exit_report.Mccd.served_frames);
      ("net.shed", float exit_report.Mccd.shed);
      ("net.bad_frames", float exit_report.Mccd.bad_frames);
      ("daemon.cache_hits", float exit_report.Mccd.cache_hits);
      ("daemon.cache_misses", float exit_report.Mccd.cache_misses);
      ("daemon.cache_evictions", float exit_report.Mccd.cache_evictions);
      ("server.fetch_hits", count "server.fetch_hit");
      ("server.fetch_misses", count "server.fetch_miss") ]
  @ spanned "server.fetch_hit_ms" "server.fetch_hit" ms
  @ spanned "server.fetch_miss_ms" "server.fetch_miss" ms
  @ spanned "server.open_ms" "server.open" ms
  @ spanned "server.chunk_us" "server.chunk" us
  @ spanned "chunk.decompress_us" "chunk.decompress" us
  @ [ ("store.hit_ratio", Server.Cache.hit_rate cache);
      ("store.evictions", float cache.Server.Cache.evictions);
      ("store.compressions", compressions);
      ("store.compress_s", sum_phase (fun x -> x.Server.Stats.compress_total_s)) ]
  @ (if compressions > 0. then [ ("store.useful_compress_ratio", useful /. compressions) ] else [])
  @ List.concat_map
      (fun c -> spanned ("codec.decode_ms." ^ c) ("codec.decode." ^ c) ms)
      Report.decoded_codecs
  @ List.concat_map encode Report.encoded_codecs
  @ List.concat_map stage Report.costly_stages

let run ~exe ~seed ~seconds ~trace =
  let spare =
    List.init (setups - 1) (fun _ ->
        let d = Mccd.spawn ~exe ~budget in
        let rss = Mccd.rss_mb d in
        ignore (Mccd.stop d);
        (d.Mccd.setup_s, rss))
  in
  let d = Mccd.spawn ~exe ~budget in
  let spans = if trace then Some (Spans.create ()) else None in
  let plain = Drive.create ~port:d.Mccd.port in
  let traced = { plain with Drive.spans } in
  let progs = Array.length plain.Drive.digests in
  let units ~seed ~decks = Ops.units ~seed ~progs ~w:deck_w ~decks in
  let stride = Array.length (units ~seed ~decks:1) in
  let decks_b = max 1 (Float.to_int (Float.round (b_share *. seconds *. rate /. float stride))) in
  let warm = units ~seed:(Ops.warmup_seed seed) ~decks:1 in
  let units_a = units ~seed ~decks:100 in
  let units_b = units ~seed:(Ops.open_loop_seed seed) ~decks:decks_b in
  ignore (Drive.closed plain ~conns ~units:warm ~from:0 ~seconds:infinity);
  (* phase A; the traced run times an untraced half and a traced half *)
  let a_s = (1. -. b_share) *. seconds in
  let closed ctx ~from ~seconds = Drive.closed ~stride ctx ~conns ~units:units_a ~from ~seconds in
  let a, a_rate = closed plain ~from:0 ~seconds:(if trace then a_s /. 2. else a_s) in
  let t = if trace then Some (closed traced ~from:a.Drive.units ~seconds:(a_s /. 2.)) else None in
  let b = Drive.open_loop traced ~conns ~units:units_b ~rate in
  let rss = Report.median (Mccd.rss_mb d :: List.map snd spare) in
  let exit_report = Mccd.stop d in
  let all = Drive.merge ((a :: Option.to_list (Option.map fst t)) @ [ b ]) in
  let p, tail_v, n = Report.tail ~cap:tail_cap b.Drive.lat in
  let _, late, _ = Report.tail ~cap:99. b.Drive.late in
  Printf.printf "serve-hot: seed %Ld, %d requests (%d failed, %d failed verification)\n" seed
    all.Drive.requests all.Drive.failed all.Drive.bad;
  Printf.printf "tail_ms: p%g of %d units\n" p n;
  List.iter (Printf.printf "failure: %s\n") all.Drive.samples;
  let on_time = late <= late_limit_ms in
  if not on_time then Printf.printf "invalid: the open loop ran late (p99 %.1f ms)\n" late;
  let correct = all.Drive.bad = 0 && exit_report.Mccd.bad_frames = 0 && on_time in
  let values =
    match t with
    | None ->
      [ ("setup_s", Report.median (d.Mccd.setup_s :: List.map fst spare)); ("ops_per_s", a_rate);
        ("p50_ms", Report.median b.Drive.lat); ("tail_ms", tail_v);
        ("bytes_per_op", float b.Drive.bytes /. float (Array.length units_b));
        ("peak_rss_mb", rss) ]
    | Some (t, t_rate) ->
      let r =
        Replay.run ~flavour ~budget ~warmup:warm
          ~units:(Array.append (Array.sub units_a 0 t.Drive.units) units_b)
      in
      layer_metrics ~sp:(Option.get spans) ~r ~exit_report ~late
      @ [ ("trace.untraced_ops_per_s", a_rate); ("trace.traced_ops_per_s", t_rate);
          ("trace.overhead", 1. -. (t_rate /. a_rate)) ]
  in
  { Report.correct; attempted = all.Drive.requests; failed = all.Drive.failed; values; absent = [] }
