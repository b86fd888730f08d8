(* Server observability: every counter the driver's report prints.

   Mutable counters live in [t]; [report] takes an immutable snapshot
   (folding in the cache's own counters) so callers can diff two
   snapshots across a workload phase.

   The network daemon records from several domains at once, so every
   mutation and the snapshot itself run under one mutex. The critical
   sections are a handful of integer bumps (and one bounded list
   splice), far cheaper than the compression/decode work around them,
   so a single lock never shows up next to the request path it
   accounts. *)

(* log10 buckets for compression wall-clock: <1ms, <10ms, <100ms, <1s, >=1s *)
let histo_buckets = 5

let bucket_of_seconds s =
  if s < 0.001 then 0
  else if s < 0.01 then 1
  else if s < 0.1 then 2
  else if s < 1.0 then 3
  else 4

let bucket_label = function
  | 0 -> "<1ms"
  | 1 -> "1-10ms"
  | 2 -> "10-100ms"
  | 3 -> "0.1-1s"
  | _ -> ">=1s"

(* accumulated totals for one pipeline stage of one codec *)
type stage_acc = {
  mutable stage_calls : int;
  mutable stage_bytes_in : int;
  mutable stage_bytes_out : int;
  mutable stage_wall_s : float;
}

type repr_counters = {
  mutable responses : int;
  mutable bytes_served : int;
  mutable compressions : int;
  mutable compress_s : float;
  mutable compress_max_s : float;
  histogram : int array;  (* compression times, log buckets *)
  stage_accs : (string, stage_acc) Hashtbl.t;
  mutable stage_names : string list;  (* pipeline order, reversed *)
}

let fresh_counters () =
  {
    responses = 0;
    bytes_served = 0;
    compressions = 0;
    compress_s = 0.0;
    compress_max_s = 0.0;
    histogram = Array.make histo_buckets 0;
    stage_accs = Hashtbl.create 8;
    stage_names = [];
  }

(* one quarantined artifact: which digest/representation failed
   verification, and the typed decode error that condemned it *)
type failure = {
  fail_digest : string;
  fail_repr : Artifact.repr;
  fail_kind : string;     (* Decode_error.kind_name *)
  fail_msg : string;      (* Decode_error.to_string *)
}

let max_recent_failures = 8

type t = {
  mu : Mutex.t;  (* guards every mutable field below; domain-safe *)
  per_repr : (Artifact.repr, repr_counters) Hashtbl.t;
  mutable requests : int;
  mutable publishes : int;
  mutable sessions_opened : int;
  mutable chunks_served : int;
  mutable retransmits : int;
  mutable session_bytes : int;       (* handshake + chunk bytes on the wire *)
  mutable session_wire_equiv : int;  (* monolithic wire bytes the same
                                        requests would have shipped *)
  mutable decode_failures : int;
  failures_by_kind : (string, int) Hashtbl.t;
  mutable degraded_fetches : int;    (* fetches served by a lower-ranked
                                        repr after the chosen one failed *)
  mutable quarantine_heals : int;    (* quarantined artifacts rebuilt
                                        fresh and served again *)
  mutable recent_failures : failure list;  (* newest first, bounded *)
}

let create () =
  {
    mu = Mutex.create ();
    per_repr = Hashtbl.create 8;
    requests = 0;
    publishes = 0;
    sessions_opened = 0;
    chunks_served = 0;
    retransmits = 0;
    session_bytes = 0;
    session_wire_equiv = 0;
    decode_failures = 0;
    failures_by_kind = Hashtbl.create 8;
    degraded_fetches = 0;
    quarantine_heals = 0;
    recent_failures = [];
  }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let counters t repr =
  match Hashtbl.find_opt t.per_repr repr with
  | Some c -> c
  | None ->
    let c = fresh_counters () in
    Hashtbl.add t.per_repr repr c;
    c

let record_request t = locked t (fun () -> t.requests <- t.requests + 1)
let record_publish t = locked t (fun () -> t.publishes <- t.publishes + 1)

let record_served t repr bytes =
  locked t (fun () ->
      let c = counters t repr in
      c.responses <- c.responses + 1;
      c.bytes_served <- c.bytes_served + bytes)

let record_compress t repr ?(trace = []) seconds =
  locked t @@ fun () ->
  let c = counters t repr in
  c.compressions <- c.compressions + 1;
  c.compress_s <- c.compress_s +. seconds;
  if seconds > c.compress_max_s then c.compress_max_s <- seconds;
  let b = bucket_of_seconds seconds in
  c.histogram.(b) <- c.histogram.(b) + 1;
  List.iter
    (fun (s : Codec.stage) ->
      let acc =
        match Hashtbl.find_opt c.stage_accs s.Codec.stage with
        | Some a -> a
        | None ->
          let a =
            { stage_calls = 0; stage_bytes_in = 0; stage_bytes_out = 0;
              stage_wall_s = 0.0 }
          in
          Hashtbl.add c.stage_accs s.Codec.stage a;
          c.stage_names <- s.Codec.stage :: c.stage_names;
          a
      in
      acc.stage_calls <- acc.stage_calls + 1;
      acc.stage_bytes_in <- acc.stage_bytes_in + s.Codec.bytes_in;
      acc.stage_bytes_out <- acc.stage_bytes_out + s.Codec.bytes_out;
      acc.stage_wall_s <- acc.stage_wall_s +. s.Codec.wall_s)
    trace

let record_session_opened t ~handshake_bytes ~wire_equiv_bytes =
  locked t (fun () ->
      t.sessions_opened <- t.sessions_opened + 1;
      t.session_bytes <- t.session_bytes + handshake_bytes;
      t.session_wire_equiv <- t.session_wire_equiv + wire_equiv_bytes)

let record_chunk t ~bytes ~retransmit =
  locked t (fun () ->
      if retransmit then t.retransmits <- t.retransmits + 1
      else t.chunks_served <- t.chunks_served + 1;
      t.session_bytes <- t.session_bytes + bytes)

let record_decode_failure t ~digest repr (e : Support.Decode_error.t) =
  locked t @@ fun () ->
  t.decode_failures <- t.decode_failures + 1;
  let kind = Support.Decode_error.kind_name e.Support.Decode_error.kind in
  Hashtbl.replace t.failures_by_kind kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.failures_by_kind kind));
  let f =
    {
      fail_digest = digest;
      fail_repr = repr;
      fail_kind = kind;
      fail_msg = Support.Decode_error.to_string e;
    }
  in
  (* hard cap: the list can never exceed [max_recent_failures] no
     matter how many domains are recording — the trim runs under the
     same lock as the cons *)
  let keep =
    if List.length t.recent_failures >= max_recent_failures then
      List.filteri (fun i _ -> i < max_recent_failures - 1) t.recent_failures
    else t.recent_failures
  in
  t.recent_failures <- f :: keep

let record_degraded t =
  locked t (fun () -> t.degraded_fetches <- t.degraded_fetches + 1)

let record_quarantine_heal t =
  locked t (fun () -> t.quarantine_heals <- t.quarantine_heals + 1)

(* ---- snapshot ---- *)

(* one pipeline stage's accumulated totals in a snapshot *)
type stage_report = {
  stage_name : string;
  calls : int;
  bytes_in : int;
  bytes_out : int;
  wall_s : float;
}

type repr_report = {
  repr : Artifact.repr;
  responses : int;
  bytes_served : int;
  compressions : int;
  compress_total_s : float;
  compress_max_s : float;
  compress_histogram : (string * int) list;
  stages : stage_report list;  (* pipeline order *)
}

type report = {
  requests : int;
  publishes : int;
  cache : Cache.stats;
  cache_hit_rate : float;
  by_repr : repr_report list;
  total_bytes_served : int;
  sessions_opened : int;
  chunks_served : int;
  retransmits : int;
  session_bytes : int;
  session_wire_equiv : int;
  decode_failures : int;
  failures_by_kind : (string * int) list;
  degraded_fetches : int;
  quarantine_heals : int;
  recent_failures : failure list;
}

let report t ~cache:cs =
  locked t @@ fun () ->
  let by_repr =
    List.filter_map
      (fun repr ->
        match Hashtbl.find_opt t.per_repr repr with
        | None -> None
        | Some c ->
          Some
            {
              repr;
              responses = c.responses;
              bytes_served = c.bytes_served;
              compressions = c.compressions;
              compress_total_s = c.compress_s;
              compress_max_s = c.compress_max_s;
              compress_histogram =
                List.filter
                  (fun (_, n) -> n > 0)
                  (List.init histo_buckets (fun i ->
                       (bucket_label i, c.histogram.(i))));
              stages =
                List.rev_map
                  (fun name ->
                    let a = Hashtbl.find c.stage_accs name in
                    {
                      stage_name = name;
                      calls = a.stage_calls;
                      bytes_in = a.stage_bytes_in;
                      bytes_out = a.stage_bytes_out;
                      wall_s = a.stage_wall_s;
                    })
                  c.stage_names;
            })
      (Artifact.all ())
  in
  {
    requests = t.requests;
    publishes = t.publishes;
    cache = cs;
    cache_hit_rate = Cache.hit_rate cs;
    by_repr;
    total_bytes_served =
      List.fold_left (fun a r -> a + r.bytes_served) t.session_bytes by_repr;
    sessions_opened = t.sessions_opened;
    chunks_served = t.chunks_served;
    retransmits = t.retransmits;
    session_bytes = t.session_bytes;
    session_wire_equiv = t.session_wire_equiv;
    decode_failures = t.decode_failures;
    failures_by_kind =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.failures_by_kind []);
    degraded_fetches = t.degraded_fetches;
    quarantine_heals = t.quarantine_heals;
    recent_failures = t.recent_failures;
  }

(* ---- snapshot difference ---- *)

(* counter-wise [after - before]: what one workload phase did on its
   own. Reprs are matched by tag; a repr absent from [before]
   contributes its [after] totals unchanged. Derived rates are
   recomputed from the differenced counters; the recent-failures log
   (a bounded window, not a counter) is taken from [after]. *)
let diff ~(before : report) (after : report) =
  let d_stage (b : stage_report option) (a : stage_report) =
    match b with
    | None -> a
    | Some b ->
      {
        a with
        calls = a.calls - b.calls;
        bytes_in = a.bytes_in - b.bytes_in;
        bytes_out = a.bytes_out - b.bytes_out;
        wall_s = a.wall_s -. b.wall_s;
      }
  in
  let d_repr (a : repr_report) =
    match List.find_opt (fun r -> r.repr = a.repr) before.by_repr with
    | None -> a
    | Some b ->
      {
        a with
        responses = a.responses - b.responses;
        bytes_served = a.bytes_served - b.bytes_served;
        compressions = a.compressions - b.compressions;
        compress_total_s = a.compress_total_s -. b.compress_total_s;
        compress_histogram =
          List.filter
            (fun (_, n) -> n > 0)
            (List.map
               (fun (l, n) ->
                 match List.assoc_opt l b.compress_histogram with
                 | Some m -> (l, n - m)
                 | None -> (l, n))
               a.compress_histogram);
        stages =
          List.map
            (fun (s : stage_report) ->
              d_stage
                (List.find_opt
                   (fun (x : stage_report) -> x.stage_name = s.stage_name)
                   b.stages)
                s)
            a.stages;
      }
  in
  let by_repr =
    List.filter
      (fun (r : repr_report) ->
        r.responses > 0 || r.bytes_served > 0 || r.compressions > 0)
      (List.map d_repr after.by_repr)
  in
  let cache =
    {
      after.cache with
      Cache.hits = after.cache.Cache.hits - before.cache.Cache.hits;
      misses = after.cache.Cache.misses - before.cache.Cache.misses;
      evictions = after.cache.Cache.evictions - before.cache.Cache.evictions;
    }
  in
  {
    requests = after.requests - before.requests;
    publishes = after.publishes - before.publishes;
    cache;
    cache_hit_rate = Cache.hit_rate cache;
    by_repr;
    total_bytes_served = after.total_bytes_served - before.total_bytes_served;
    sessions_opened = after.sessions_opened - before.sessions_opened;
    chunks_served = after.chunks_served - before.chunks_served;
    retransmits = after.retransmits - before.retransmits;
    session_bytes = after.session_bytes - before.session_bytes;
    session_wire_equiv = after.session_wire_equiv - before.session_wire_equiv;
    decode_failures = after.decode_failures - before.decode_failures;
    failures_by_kind =
      List.filter
        (fun (_, n) -> n > 0)
        (List.map
           (fun (k, n) ->
             match List.assoc_opt k before.failures_by_kind with
             | Some m -> (k, n - m)
             | None -> (k, n))
           after.failures_by_kind);
    degraded_fetches = after.degraded_fetches - before.degraded_fetches;
    quarantine_heals = after.quarantine_heals - before.quarantine_heals;
    recent_failures = after.recent_failures;
  }

let print (r : report) =
  Printf.printf "requests            %d (programs published: %d)\n" r.requests
    r.publishes;
  Printf.printf "cache               %d hits / %d misses (%.1f%% hit rate), %d evictions\n"
    r.cache.Cache.hits r.cache.Cache.misses (100.0 *. r.cache_hit_rate)
    r.cache.Cache.evictions;
  Printf.printf "cache residency     %s of %s budget in %d artifacts\n"
    (Support.Util.human_bytes r.cache.Cache.resident_bytes)
    (Support.Util.human_bytes r.cache.Cache.budget_bytes)
    r.cache.Cache.resident_count;
  Printf.printf "bytes on the wire   %s total\n"
    (Support.Util.human_bytes r.total_bytes_served);
  List.iter
    (fun rr ->
      Printf.printf "  %-14s %6d responses  %10s served  %3d compressions (%.3fs total, %.3fs max)\n"
        (Artifact.name rr.repr) rr.responses
        (Support.Util.human_bytes rr.bytes_served)
        rr.compressions rr.compress_total_s rr.compress_max_s;
      (match rr.compress_histogram with
      | [] -> ()
      | h ->
        Printf.printf "  %-14s %s\n" ""
          (String.concat "  "
             (List.map (fun (l, n) -> Printf.sprintf "%s:%d" l n) h)));
      List.iter
        (fun s ->
          Printf.printf
            "    stage %-12s %3d calls  %10s in -> %10s out  %.3fs\n"
            s.stage_name s.calls
            (Support.Util.human_bytes s.bytes_in)
            (Support.Util.human_bytes s.bytes_out)
            s.wall_s)
        rr.stages)
    r.by_repr;
  if r.decode_failures > 0 then begin
    Printf.printf
      "artifact faults     %d decode failures quarantined, %d fetches degraded\n"
      r.decode_failures r.degraded_fetches;
    if r.quarantine_heals > 0 then
      Printf.printf "  healed            %d quarantined artifacts rebuilt fresh\n"
        r.quarantine_heals;
    Printf.printf "  by kind           %s\n"
      (String.concat "  "
         (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n)
            r.failures_by_kind));
    List.iter
      (fun f ->
        Printf.printf "  %-14s %s %s\n"
          (Artifact.name f.fail_repr)
          (String.sub f.fail_digest 0 (min 8 (String.length f.fail_digest)))
          f.fail_msg)
      r.recent_failures
  end;
  if r.sessions_opened > 0 then begin
    Printf.printf
      "chunked sessions    %d opened, %d chunks served, %d retransmits\n"
      r.sessions_opened r.chunks_served r.retransmits;
    Printf.printf
      "  streamed %s vs %s as whole wire images (%.1f%% of full)\n"
      (Support.Util.human_bytes r.session_bytes)
      (Support.Util.human_bytes r.session_wire_equiv)
      (100.0
      *. Support.Util.ratio r.session_bytes r.session_wire_equiv)
  end
