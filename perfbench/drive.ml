(* The load: one process, at most two connections, each on its own
   thread (blocked reads release the runtime, so the client uses about
   one core and the single-domain daemon the other). Connections take
   units from the op list in order; a unit (a fetch, or a whole chunked
   session) is the op that latency and throughput count, while
   [attempted] and [failed] count requests.

   Closed loop: a connection sends its next request when the previous
   one is answered, until the phase's deadline. Open loop: unit [i] is
   due at [t0 + i/rate] and its latency runs from that instant, so a
   stall delays every unit queued behind it; [late] records how far
   past its due time the generator woke for a unit it was waiting on
   (its own lateness, not queueing behind a busy connection). *)

type acc = {
  mutable requests : int;
  mutable failed : int;
  mutable bad : int;      (** failed verification *)
  mutable bytes : int;    (** verified artifact and chunk payload bytes *)
  mutable lat : float list;   (** per-unit latency, ms *)
  mutable late : float list;  (** open-loop wake lateness, ms *)
  mutable samples : string list;
  mutable units : int;    (** units consumed: a prefix of the list *)
  mutable finished : (int * float) list;  (** (unit index, completion time) *)
}

let new_acc () =
  { requests = 0; failed = 0; bad = 0; bytes = 0; lat = []; late = []; samples = []; units = 0;
    finished = [] }

type ctx = {
  port : int;
  digests : string array;  (** the daemon's catalog, in rank order *)
  verify : Verify.t;
  spans : Spans.t option;
  op_seq : int Atomic.t;  (** request index shared by a request's spans *)
}

let digests ~port =
  let c = Net.Client.connect ~port in
  Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
      match Net.Client.rpc c Net.Protocol.List with
      | Ok (Net.Protocol.Catalog rows) ->
        Array.of_list (List.map (fun r -> r.Net.Protocol.prog_digest) rows)
      | _ -> failwith "load: no catalog")

let create ~port =
  { port; digests = digests ~port; verify = Verify.create (); spans = None; op_seq = Atomic.make 0 }

(* a connection, [None] after a failure until the next request
   reconnects *)
type conn = Net.Client.t option ref

let close (conn : conn) =
  Option.iter Net.Client.close !conn;
  conn := None

let sample acc msg = if List.length acc.samples < 4 then acc.samples <- msg :: acc.samples

let fail acc msg =
  acc.failed <- acc.failed + 1;
  sample acc msg

(* one request; [Some (index, resp)] unless it was refused, shed or
   errored, which counts as a failure *)
let rpc ctx conn acc req =
  let op = Atomic.fetch_and_add ctx.op_seq 1 in
  acc.requests <- acc.requests + 1;
  if Option.is_none !conn then
    conn := (try Some (Net.Client.connect ~port:ctx.port) with Unix.Unix_error _ -> None);
  match !conn with
  | None -> fail acc "connect refused"; None
  | Some c -> (
    match Spans.time ctx.spans ~op "load.rpc" (fun () -> Net.Client.rpc c req) with
    | Error e ->
      close conn;
      fail acc (Support.Decode_error.to_string e);
      None
    | Ok Net.Protocol.Overloaded ->
      close conn;
      fail acc "shed";
      None
    | Ok (Net.Protocol.Err (code, msg)) ->
      fail acc (Net.Protocol.err_code_name code ^ ": " ^ msg);
      None
    | Ok resp -> Some (op, resp))

(* count a verified payload, or a verification failure *)
let delivered acc what payload = function
  | Ok () ->
    acc.bytes <- acc.bytes + String.length payload;
    true
  | Error msg ->
    acc.bad <- acc.bad + 1;
    fail acc (what ^ ": " ^ msg);
    false

let unexpected acc what = delivered acc what "" (Error "unexpected response")

(* issue one unit; true when every request of it was answered and
   verified *)
let issue ctx conn acc (u : Ops.unit_) =
  match u with
  | Ops.Fetch { prog; profile } -> (
    let digest = ctx.digests.(prog) in
    match rpc ctx conn acc (Net.Protocol.Fetch { profile; digest; held = [] }) with
    | Some (op, Net.Protocol.Artifact { codec; body; _ }) ->
      delivered acc "artifact" body
        (Spans.time ctx.spans ~op "load.verify" (fun () ->
             Verify.artifact ctx.verify ~digest ~codec body))
    | Some _ -> unexpected acc "fetch"
    | None -> false)
  | Ops.Session { prog; picks } -> (
    let digest = ctx.digests.(prog) in
    match rpc ctx conn acc (Net.Protocol.Open { codec = ""; digest; resume = ""; held = [] }) with
    | Some (_, Net.Protocol.Index { token; next_seq; rows; _ }) ->
      let names = Array.of_list (List.map fst rows) in
      let seq = ref next_seq in
      Array.for_all
        (fun pick ->
          let name = names.(pick mod Array.length names) in
          match rpc ctx conn acc (Net.Protocol.Chunk { token; seq = !seq; name }) with
          | Some (op, Net.Protocol.Chunk_data payload) ->
            incr seq;
            delivered acc "chunk" payload
              (Spans.time ctx.spans ~op "load.verify" (fun () ->
                   Verify.chunk ctx.verify ~digest ~name payload))
          | Some _ -> unexpected acc "chunk"
          | None -> false)
        picks
    | Some _ -> unexpected acc "open"
    | None -> false)

(* issue unit [i]; its latency runs from [t0] (the send instant, or the
   open-loop due time) and is kept when the whole unit succeeded *)
let run_unit ctx conn acc ~t0 i u =
  if issue ctx conn acc u then acc.lat <- ((Spans.now () -. t0) *. 1000.) :: acc.lat;
  acc.units <- i + 1;
  acc.finished <- (i, Spans.now ()) :: acc.finished

let merge accs =
  let m = new_acc () in
  List.iter
    (fun a ->
      m.requests <- m.requests + a.requests;
      m.failed <- m.failed + a.failed;
      m.bad <- m.bad + a.bad;
      m.bytes <- m.bytes + a.bytes;
      m.lat <- List.rev_append a.lat m.lat;
      m.late <- List.rev_append a.late m.late;
      m.samples <- m.samples @ a.samples;
      m.units <- max m.units a.units;
      m.finished <- List.rev_append a.finished m.finished)
    accs;
  m

(* run [body conn acc] on [conns] threads and merge what they did *)
let on_threads ctx ~conns body =
  let accs = List.init conns (fun _ -> new_acc ()) in
  let threads =
    List.map
      (fun acc ->
        Thread.create
          (fun acc ->
            let conn = ref (Some (Net.Client.connect ~port:ctx.port)) in
            Fun.protect ~finally:(fun () -> close conn) (fun () -> body conn acc))
          acc)
      accs
  in
  List.iter Thread.join threads;
  merge accs

(* Throughput as the median over windows of [stride] consecutive units:
   window k ends when its last unit completes and starts where window
   k-1 ended, so a burst of interference from outside moves a few
   windows, not the result. Units/wall when no window completed. *)
let window_rate acc ~from ~stride ~t0 ~wall =
  let n = (acc.units - from) / stride in
  if n = 0 then float (acc.units - from) /. wall
  else begin
    let ends = Array.make n neg_infinity in
    List.iter
      (fun (i, t) ->
        let k = (i - from) / stride in
        if k < n then ends.(k) <- Float.max ends.(k) t)
      acc.finished;
    Report.median
      (List.filter
         (fun r -> r > 0. && Float.is_finite r)
         (List.init n (fun k -> float stride /. (ends.(k) -. if k = 0 then t0 else ends.(k - 1)))))
  end

(* closed loop over [units] from index [from], in whole strides of
   [stride] units: once [seconds] have passed, no unit that starts a new
   stride is taken. Returns the merged counters and the throughput in
   units per second ([window_rate]). *)
let closed ?(stride = 1) ctx ~conns ~units ~from ~seconds =
  let next = Atomic.make from in
  let t0 = Spans.now () in
  let deadline = t0 +. seconds in
  let acc =
    on_threads ctx ~conns (fun conn acc ->
        let rec loop () =
          let i = Atomic.get next in
          let over = (i - from) mod stride = 0 && Spans.now () >= deadline in
          if i < Array.length units && not over then
            if Atomic.compare_and_set next i (i + 1) then begin
              run_unit ctx conn acc ~t0:(Spans.now ()) i units.(i);
              loop ()
            end
            else loop ()
        in
        loop ())
  in
  (acc, window_rate acc ~from ~stride ~t0 ~wall:(Spans.now () -. t0))

(* open loop: every unit of [units], unit [i] due at [t0 + i/rate] *)
let open_loop ctx ~conns ~units ~rate =
  let next = Atomic.make 0 in
  let t0 = Spans.now () +. 0.05 in
  on_threads ctx ~conns (fun conn acc ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length units then begin
          let due = t0 +. (float i /. rate) in
          let wait = due -. Spans.now () in
          if wait > 0. then begin
            Thread.delay wait;
            acc.late <- ((Spans.now () -. due) *. 1000.) :: acc.late
          end;
          run_unit ctx conn acc ~t0:due i units.(i);
          loop ()
        end
      in
      loop ())
