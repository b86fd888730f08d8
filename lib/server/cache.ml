(* Budgeted LRU cache: compressed artifacts in the store (cost = bytes)
   and the daemon's resumable sessions (cost = 1, budget = the session
   cap).

   Entries form an intrusive doubly-linked recency list threaded through
   a hashtable, so lookup, insert and evict are all O(1): the server
   must stay cheap per request even with a large catalog resident. *)

type 'v entry = {
  key : string;
  value : 'v;
  mutable prev : 'v entry option;  (* towards most-recently-used *)
  mutable next : 'v entry option;  (* towards least-recently-used *)
}

type 'v t = {
  size : 'v -> int;
  budget_bytes : int;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable mru : 'v entry option;
  mutable lru : 'v entry option;
  mutable resident_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  resident_bytes : int;
  resident_count : int;
  budget_bytes : int;
}

let create ~size ~budget_bytes =
  if budget_bytes < 0 then invalid_arg "Cache.create: negative budget";
  {
    size;
    budget_bytes;
    tbl = Hashtbl.create 64;
    mru = None;
    lru = None;
    resident_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink (t : _ t) e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front (t : _ t) e =
  e.next <- t.mru;
  e.prev <- None;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

let find (t : _ t) key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.hits <- t.hits + 1;
    unlink t e;
    push_front t e;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

let remove_entry (t : _ t) e =
  unlink t e;
  Hashtbl.remove t.tbl e.key;
  t.resident_bytes <- t.resident_bytes - t.size e.value

let evict_to_budget (t : _ t) =
  while t.resident_bytes > t.budget_bytes && t.lru <> None do
    match t.lru with
    | None -> ()
    | Some victim ->
      remove_entry t victim;
      t.evictions <- t.evictions + 1
  done

let add (t : _ t) key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some old -> remove_entry t old
  | None -> ());
  (* a value costing more than the whole budget passes through uncached
     rather than flushing everything else *)
  let cost = t.size value in
  if cost <= t.budget_bytes then begin
    let e = { key; value; prev = None; next = None } in
    Hashtbl.add t.tbl key e;
    push_front t e;
    t.resident_bytes <- t.resident_bytes + cost;
    evict_to_budget t
  end

let mem (t : _ t) key = Hashtbl.mem t.tbl key

(* quarantine path: dropping a poisoned artifact is not an eviction —
   evictions measure budget pressure, not hostile input *)
let remove (t : _ t) key =
  match Hashtbl.find_opt t.tbl key with
  | Some e -> remove_entry t e
  | None -> ()

let peek (t : _ t) key =
  match Hashtbl.find_opt t.tbl key with
  | Some e -> Some e.value
  | None -> None

let stats (t : _ t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    resident_bytes = t.resident_bytes;
    resident_count = Hashtbl.length t.tbl;
    budget_bytes = t.budget_bytes;
  }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
