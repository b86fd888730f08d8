(* Content-addressed artifact store.

   A program is published once, keyed by a digest of its IR text; the
   store keeps only small per-digest metadata (the IR itself, the size
   card for the delivery model, measured run cycles) permanently.
   Compressed artifact bytes live in the byte-budgeted LRU cache: a hot
   program is compressed once and served many times, a cold one that
   gets evicted is recompressed on its next request — exactly the
   trade-off the stats layer measures against the always-recompress
   baseline.

   The artifact menu is the codec registry: publish and the first-miss
   prefetch iterate [Artifact.all ()], so a newly registered codec is
   stored, sized, timed (with its per-stage trace) and served with no
   store changes.

   With a parallel domain pool the expensive paths fan out: publish
   compresses the whole representation menu concurrently, and the first
   cache miss for a digest prefetches whatever part of the menu is
   missing. Compression thunks are pure — all Stats/Cache mutation
   happens sequentially afterwards in fixed registry order, so counters
   and cache contents are deterministic at any pool size.

   Shared-state concurrency (the network daemon's workers hit one store
   from several domains at once):

   - the cache is lock-striped into [shards] independent LRU shards
     (key-hash -> shard, each with its own mutex and budget slice), so
     hits on different artifacts never contend on one lock. The default
     is a single shard, which is byte- and counter-identical to the
     historical serial store;
   - metadata and publish order sit behind one small mutex (lookups are
     a hashtable probe);
   - materialization is single-flight: a thundering herd of cold
     requests for the same (digest, repr) elects one builder — everyone
     else blocks on the flight's condition variable and shares the one
     compression. Publish is single-flight per digest the same way. *)

type meta = {
  ir : Ir.Tree.program;
  sizes_by : (string * int) list;  (* artifact name -> stored bytes *)
  run_cycles : int;         (* measured (or estimated) native cycles *)
  fn_names : string list;
}

type shard = { smu : Mutex.t; cache : string Cache.t }

(* One in-flight build (a materialization or a publish). The winner
   computes, then parks the result here and broadcasts; late arrivals
   found the flight in the table and wait on [fc] instead of repeating
   the work. *)
type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable outcome : (string, exn) result option;
}

type t = {
  shards : shard array;
  stats : Stats.t;
  pool : Support.Pool.t option;
  meta_mu : Mutex.t;   (* guards metas, prefetched, quarantined, order *)
  metas : (string, meta) Hashtbl.t;
  prefetched : (string, unit) Hashtbl.t;
      (* digests whose menu a miss already prefetched once; bounds the
         recompression blow-up when the budget can't hold a menu *)
  quarantined : (string, unit) Hashtbl.t;
      (* cache keys dropped by [quarantine] and not yet rebuilt; a
         fresh build of a marked key counts as a heal in the stats *)
  flights_mu : Mutex.t;
  flights : (string, flight) Hashtbl.t;
  mutable order : string list;  (* publish order, reversed *)
}

let create ?pool ?(shards = 1) ~budget_bytes ~stats () =
  let shards = max 1 shards in
  let slice = budget_bytes / shards in
  {
    shards =
      Array.init shards (fun i ->
          (* shard 0 absorbs the division remainder so the summed
             budget is exactly the requested one *)
          let budget_bytes =
            if i = 0 then budget_bytes - (slice * (shards - 1)) else slice
          in
          {
            smu = Mutex.create ();
            cache = Cache.create ~size:String.length ~budget_bytes;
          });
    stats;
    pool;
    meta_mu = Mutex.create ();
    metas = Hashtbl.create 16;
    prefetched = Hashtbl.create 16;
    quarantined = Hashtbl.create 8;
    flights_mu = Mutex.create ();
    flights = Hashtbl.create 8;
    order = [];
  }

let parallel_pool t =
  match t.pool with
  | Some p when Support.Pool.size p > 1 -> Some p
  | _ -> None

let digest_of_program (p : Ir.Tree.program) =
  Digest.to_hex (Digest.string (Ir.Printer.program_to_string p))

(* ---- locked cache access (striped) ---- *)

let shard_of t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

let with_shard t key f =
  let s = shard_of t key in
  Mutex.lock s.smu;
  match f s.cache with
  | v ->
    Mutex.unlock s.smu;
    v
  | exception e ->
    Mutex.unlock s.smu;
    raise e

let cache_find t key = with_shard t key (fun c -> Cache.find c key)
let cache_peek t key = with_shard t key (fun c -> Cache.peek c key)
let cache_add t key v = with_shard t key (fun c -> Cache.add c key v)
let cache_remove t key = with_shard t key (fun c -> Cache.remove c key)

let cache_stats t =
  Array.fold_left
    (fun (acc : Cache.stats) s ->
      Mutex.lock s.smu;
      let cs = Cache.stats s.cache in
      Mutex.unlock s.smu;
      {
        Cache.hits = acc.Cache.hits + cs.Cache.hits;
        misses = acc.Cache.misses + cs.Cache.misses;
        evictions = acc.Cache.evictions + cs.Cache.evictions;
        resident_bytes = acc.Cache.resident_bytes + cs.Cache.resident_bytes;
        resident_count = acc.Cache.resident_count + cs.Cache.resident_count;
        budget_bytes = acc.Cache.budget_bytes + cs.Cache.budget_bytes;
      })
    {
      Cache.hits = 0; misses = 0; evictions = 0; resident_bytes = 0;
      resident_count = 0; budget_bytes = 0;
    }
    t.shards

(* ---- locked metadata access ---- *)

let with_meta_mu t f =
  Mutex.lock t.meta_mu;
  let v = f () in
  Mutex.unlock t.meta_mu;
  v

let find_meta t digest =
  with_meta_mu t (fun () -> Hashtbl.find_opt t.metas digest)

let meta t digest =
  match find_meta t digest with
  | Some m -> m
  | None -> raise Not_found

let size_of (m : meta) repr =
  match List.assoc_opt (Artifact.name repr) m.sizes_by with
  | Some n -> n
  | None -> 0

let digests t = with_meta_mu t (fun () -> List.rev t.order)

(* first caller wins the right (and the duty) to prefetch the menu *)
let claim_prefetch t digest =
  with_meta_mu t (fun () ->
      if Hashtbl.mem t.prefetched digest then false
      else begin
        Hashtbl.add t.prefetched digest ();
        true
      end)

(* ---- single flight ---- *)

let single_flight t key (build : unit -> string) =
  Mutex.lock t.flights_mu;
  match Hashtbl.find_opt t.flights key with
  | Some fl ->
    (* join the herd: someone is already building this key *)
    Mutex.unlock t.flights_mu;
    Mutex.lock fl.fm;
    while fl.outcome = None do
      Condition.wait fl.fc fl.fm
    done;
    let r = fl.outcome in
    Mutex.unlock fl.fm;
    (match r with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false)
  | None ->
    let fl = { fm = Mutex.create (); fc = Condition.create (); outcome = None } in
    Hashtbl.add t.flights key fl;
    Mutex.unlock t.flights_mu;
    let finish r =
      (* unpublish first: anyone arriving after this point re-checks the
         cache (the build filled it) instead of joining a dead flight *)
      Mutex.lock t.flights_mu;
      Hashtbl.remove t.flights key;
      Mutex.unlock t.flights_mu;
      Mutex.lock fl.fm;
      fl.outcome <- Some r;
      Condition.broadcast fl.fc;
      Mutex.unlock fl.fm
    in
    (match build () with
    | v ->
      finish (Ok v);
      v
    | exception e ->
      finish (Error e);
      raise e)

(* ---- artifact production ---- *)

(* Contexted artifacts are cached per (digest, repr, context): the
   same program served against two different held bases (or dictionary
   generations) is two distinct cache entries, each quarantinable and
   healable on its own. *)
let cache_key ?ctx digest repr =
  let k = digest ^ ":" ^ Artifact.tag repr in
  match ctx with
  | None -> k
  | Some c -> k ^ "@" ^ Codec.Context.digest c

(* a fresh build of a key that [quarantine] condemned is a heal: the
   poisoned bytes are gone and servable bytes exist again *)
let note_rebuilt t key =
  let healed =
    with_meta_mu t (fun () ->
        if Hashtbl.mem t.quarantined key then begin
          Hashtbl.remove t.quarantined key;
          true
        end
        else false)
  in
  if healed then Stats.record_quarantine_heal t.stats

let timed f =
  let t0 = Unix.gettimeofday () in
  let bytes = f () in
  (bytes, Unix.gettimeofday () -. t0)

(* run the (repr, thunk) batch — concurrently when a parallel pool is
   available — then record timings/traces and fill the cache
   sequentially in list order. Thunks return (bytes, trace). *)
let run_batch t digest tasks =
  let results =
    let thunks = List.map (fun (_, f) () -> timed f) tasks in
    match parallel_pool t with
    | Some p -> Support.Pool.run_list p thunks
    | None -> List.map (fun f -> f ()) thunks
  in
  List.map2
    (fun (repr, _) ((bytes, trace), dt) ->
      Stats.record_compress t.stats repr ~trace dt;
      cache_add t (cache_key digest repr) bytes;
      note_rebuilt t (cache_key digest repr);
      (repr, bytes))
    tasks results

(* Flight keys live in two namespaces: "mat:" for materialize's
   whole-miss-path flights and "img:" for the native image builder —
   materialize(native)'s menu prefetch forces the native view from
   inside its own flight, so the two must never share a key. *)

let native_image t digest (m : meta) =
  match cache_find t (cache_key digest Artifact.native) with
  | Some bytes -> bytes
  | None ->
    single_flight t ("img:" ^ cache_key digest Artifact.native) @@ fun () ->
    (* the build re-checks residency without touching hit/miss
       counters: a flight that lost the cache race just returns the
       winner's bytes *)
    (match cache_peek t (cache_key digest Artifact.native) with
    | Some bytes -> bytes
    | None ->
      let (bytes, trace), dt =
        timed (fun () ->
            Codec.encode (Artifact.codec Artifact.native)
              (Codec.Source.of_ir m.ir))
      in
      Stats.record_compress t.stats Artifact.native ~trace dt;
      cache_add t (cache_key digest Artifact.native) bytes;
      note_rebuilt t (cache_key digest Artifact.native);
      bytes)

(* the shared lazy source sibling codecs encode from; the native view
   goes through the cache so the machine image is built at most once,
   and only when a codec actually needs it *)
let source_for t digest (m : meta) =
  Codec.Source.of_ir_lazy ?pool:t.pool
    ~native:(lazy (native_image t digest m))
    m.ir

(* Build (or reuse) a contexted artifact. Peek-based residency checks,
   so the engine can size candidates without perturbing hit/miss
   accounting; [materialize ~ctx] layers the counters on top. No menu
   prefetch — a contexted representation exists only for the client
   that advertised the context. *)
let build_ctx t digest repr ~ctx =
  let m = meta t digest in
  let key = cache_key ~ctx digest repr in
  match cache_peek t key with
  | Some bytes -> bytes
  | None ->
    single_flight t ("mat:" ^ key) @@ fun () ->
    (match cache_peek t key with
    | Some bytes -> bytes
    | None ->
      let src = source_for t digest m in
      let (bytes, trace), dt =
        timed (fun () -> Codec.encode ~ctx (Artifact.codec repr) src)
      in
      Stats.record_compress t.stats repr ~trace dt;
      cache_add t key bytes;
      note_rebuilt t key;
      bytes)

let contexted_size t digest repr ~ctx =
  String.length (build_ctx t digest repr ~ctx)

let materialize ?ctx t digest repr =
  match ctx with
  | Some ctx -> (
    let key = cache_key ~ctx digest repr in
    match cache_find t key with
    | Some bytes -> (bytes, true)
    | None -> (build_ctx t digest repr ~ctx, false))
  | None ->
  let m = meta t digest in
  let key = cache_key digest repr in
  match cache_find t key with
  | Some bytes -> (bytes, true)
  | None ->
    let bytes =
      single_flight t ("mat:" ^ key) @@ fun () ->
      (if claim_prefetch t digest then begin
         (* first miss on this digest: rebuild the whole missing menu —
            concurrently when a pool is available, serially otherwise,
            with identical cache contents and counters either way, so a
            replay's stats are invariant under the pool size. A parallel
            batch pays roughly the slowest single compression instead of
            a serial sum, and sibling representations are warm for the
            next request. *)
         let src = source_for t digest m in
         (* force the shared native view before fanning out, so parallel
            thunks stay pure (no cache/stats mutation from pool lanes) *)
         ignore (Codec.Source.native src);
         let missing =
           List.filter
             (fun r ->
               r <> Artifact.native
               && cache_find t (cache_key digest r) = None)
             (Artifact.all ())
         in
         ignore
           (run_batch t digest
              (List.map
                 (fun r ->
                   (r, fun () -> Codec.encode (Artifact.codec r) src))
                 missing))
       end);
      match cache_find t key with
      | Some bytes -> bytes   (* compressed by the prefetch (or a racer) *)
      | None ->
        if repr = Artifact.native then native_image t digest m
        else begin
          let src = source_for t digest m in
          let (bytes, trace), dt =
            timed (fun () -> Codec.encode (Artifact.codec repr) src)
          in
          Stats.record_compress t.stats repr ~trace dt;
          cache_add t key bytes;
          note_rebuilt t key;
          bytes
        end
    in
    (bytes, false)

(* ---- fault handling ---- *)

(* Quarantine = drop the poisoned bytes. The store keeps no other copy:
   the next materialize for this (digest, repr) rebuilds from the
   metadata's IR, so a corrupted cache entry self-heals while the bad
   bytes can never be served twice. The key is marked so the eventual
   rebuild is counted as a heal. *)
let quarantine ?ctx t digest repr =
  let key = cache_key ?ctx digest repr in
  with_meta_mu t (fun () -> Hashtbl.replace t.quarantined key ());
  cache_remove t key

(* Fault-injection hook for tests and the driver's --faults mode:
   mutate the cached artifact in place (false when it isn't resident).
   Uses peek/add so the injection itself is invisible to hit/miss
   accounting. *)
let corrupt_cached ?ctx t digest repr ~f =
  let key = cache_key ?ctx digest repr in
  match cache_peek t key with
  | None -> false
  | Some bytes ->
    cache_add t key (f bytes);
    true

(* ---- publish ---- *)

(* When the publisher gives neither measured cycles nor an input to
   simulate with, charge a nominal 30 cycles per native code byte — the
   order of one trip through the program. *)
let estimated_cycles_per_byte = 30

let publish t ?run_cycles ?(input = "") (p : Ir.Tree.program) =
  let digest = digest_of_program p in
  if find_meta t digest <> None then digest
  else
    (* concurrent publishes of the same program compress the menu once;
       the "publish:" prefix keeps the key clear of the cache_key
       namespace (digest ^ ":" ^ one-char tag) *)
    single_flight t ("publish:" ^ digest) @@ fun () ->
    if find_meta t digest <> None then digest
    else begin
      let vp = Vm.Codegen.gen_program p in
      let np = Native.Compile.compile_program vp in
      let native_img = Native.Mach.encode_program np in
      let run_cycles =
        match run_cycles with
        | Some c -> c
        | None -> (
          try (Native.Sim.run ~input np).Native.Sim.cycles
          with _ -> String.length native_img * estimated_cycles_per_byte)
      in
      (* compress the whole registry menu once, timed, to record the
         stored sizes the engine scores; the bytes warm the cache. All
         source views are prefilled values, so the parallel batch shares
         them race-free. *)
      let src = Codec.Source.of_ir ?pool:t.pool ~vm:vp ~native:native_img p in
      let produced =
        run_batch t digest
          (List.map
             (fun r -> (r, fun () -> Codec.encode (Artifact.codec r) src))
             (Artifact.all ()))
      in
      let m =
        {
          ir = p;
          sizes_by =
            List.map
              (fun (r, bytes) -> (Artifact.name r, String.length bytes))
              produced;
          run_cycles;
          fn_names = List.map (fun f -> f.Ir.Tree.fname) p.Ir.Tree.funcs;
        }
      in
      with_meta_mu t (fun () ->
          Hashtbl.add t.metas digest m;
          t.order <- digest :: t.order);
      Stats.record_publish t.stats;
      digest
    end
