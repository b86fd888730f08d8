(* In-memory spans recorded from outside the program, around calls into
   its public functions. A span is (op index, layer name, start, end);
   spans of one op share the op's index. Nothing is written while a run
   is timed: the spans are summarized once it ends. *)

type span = { op : int; name : string; t0 : float; t1 : float }

type t = { mu : Mutex.t; mutable spans : span list }

let create () = { mu = Mutex.create (); spans = [] }

(* monotonic clock, seconds *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let add t s =
  Mutex.lock t.mu;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mu

(* time [f] as span [name] of op [op]; with no recorder, just run it *)
let time t ~op name f =
  match t with
  | None -> f ()
  | Some t ->
    let t0 = now () in
    let r = f () in
    add t { op; name; t0; t1 = now () };
    r

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) t.spans

let count t name = List.length (durations t name)

(* mean duration of [name] spans, in [scale] units per second (0 when
   none were recorded) *)
let mean t ~scale name =
  match durations t name with
  | [] -> 0.
  | ds -> scale *. List.fold_left ( +. ) 0. ds /. float (List.length ds)
