(* The traced run's in-process replay: the same op list, issued in list
   order against a [Server] built here with the daemon's catalog flavour
   and cache budget, with spans around the engine calls
   ([Engine.fetch], [open_session], [session_request]) and around the
   work on each served body ([Codec.decode], [Wire.decompress] of a
   chunk, [Protocol.encode_resp] / [decode_resp]). Store and codec
   counters come from [Server.report], differenced over the replayed
   phase with [Stats.diff]. *)

type t = {
  spans : Spans.t;
  phase : Server.Stats.report;     (** counters of the replayed phase *)
  lifetime : Server.Stats.report;  (** everything, publishing included *)
  resp_bytes : int list;           (** encoded response frame sizes *)
}

let profile name =
  List.find (fun p -> p.Server.Profile.name = name) Server.Workload.default_profiles

(* encode a response frame and decode it back, as the daemon and the
   client do; returns the frame size *)
let round_trip spans ~op resp =
  let spans = Some spans in
  let frame = Spans.time spans ~op "net.resp_encode" (fun () -> Net.Protocol.encode_resp resp) in
  let body = String.sub frame 4 (String.length frame - 4) in
  (match Spans.time spans ~op "net.resp_decode" (fun () -> Net.Protocol.decode_resp body) with
  | Ok _ -> ()
  | Error e -> failwith ("replay: response does not decode: " ^ Support.Decode_error.to_string e));
  String.length frame

let metric_codec name = String.map (fun c -> if c = '+' then '-' else c) name

let run ~flavour ~budget ~warmup ~units =
  let engine = Server.create ~budget_bytes:budget () in
  let catalog = Array.of_list (Sim.Catalog.publish engine flavour) in
  let digest prog = catalog.(prog).Server.Workload.digest in
  let spans = Spans.create () in
  let sp = Some spans in
  let resp_bytes = ref [] in
  let op = ref 0 in
  let issue ~traced (u : Ops.unit_) =
    let sp = if traced then sp else None in
    let next () = incr op; !op in
    match u with
    | Ops.Fetch { prog; profile = p } ->
      let op = next () in
      let digest = digest prog in
      let t0 = Spans.now () in
      let r = Server.fetch engine digest (profile p) in
      let codec = Server.Artifact.name r.Server.artifact in
      if traced then begin
        Spans.add spans
          { Spans.op; name = (if r.Server.cache_hit then "server.fetch_hit" else "server.fetch_miss");
            t0; t1 = Spans.now () };
        let resp =
          Net.Protocol.Artifact
            { label = r.Server.label; codec; cache_hit = r.Server.cache_hit; degraded_from = "";
              context = ""; body = r.Server.bytes }
        in
        resp_bytes := round_trip spans ~op resp :: !resp_bytes;
        match
          Spans.time sp ~op ("codec.decode." ^ metric_codec codec) (fun () ->
              Codec.decode (Server.Artifact.codec r.Server.artifact) r.Server.bytes)
        with
        | Ok _ -> ()
        | Error e -> failwith ("replay: " ^ codec ^ ": " ^ Support.Decode_error.to_string e)
      end
    | Ops.Session { prog; picks } ->
      let op0 = next () in
      let sess = Spans.time sp ~op:op0 "server.open" (fun () -> Server.open_session engine (digest prog)) in
      let names = Array.of_list (List.map fst (Server.Session.index sess)) in
      Array.iter
        (fun pick ->
          let op = next () in
          let name = names.(pick mod Array.length names) in
          let seq = Server.Session.next_seq sess in
          match Spans.time sp ~op "server.chunk" (fun () -> Server.session_request engine sess ~seq name) with
          | Error msg -> failwith ("replay: chunk: " ^ msg)
          | Ok payload ->
            if traced then begin
              resp_bytes := round_trip spans ~op (Net.Protocol.Chunk_data payload) :: !resp_bytes;
              match Spans.time sp ~op "chunk.decompress" (fun () -> Wire.decompress payload) with
              | Ok _ -> ()
              | Error e -> failwith ("replay: chunk: " ^ Support.Decode_error.to_string e)
            end)
        picks
  in
  Array.iter (issue ~traced:false) warmup;
  let before = Server.report engine in
  Array.iter (issue ~traced:true) units;
  let lifetime = Server.report engine in
  { spans; phase = Server.Stats.diff ~before lifetime; lifetime; resp_bytes = !resp_bytes }
