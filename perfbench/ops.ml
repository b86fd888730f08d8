(* The op list: every unit of work a run issues, generated from the seed
   before any timing starts, so the timed run, the traced run and the
   in-process replay all issue the same units in the same order.

   A unit is one whole-image fetch or one whole chunked session (an
   open followed by its chunk requests); connections take units in list
   order. Programs are named by catalog rank, not digest, so the list
   does not depend on the compiler's output.

   Popularity is Zipf (weight 1/(rank+1)) drawn as a deck: each rank
   appears a fixed number of times per deck, under every profile, and
   the seed shuffles every deck. A run that issues whole decks
   therefore issues the same multiset of requests on every seed; the
   seed decides their order. *)

(* The four stock profiles, with their weight in a deck. JIT clients
   (both served wire+range-opt, the one codec whose verify-decode is
   costly) come twice as often, so a median latency falls inside that
   cluster rather than on its edge with the cheap serves. The embedded
   profile is the paging client: it opens a chunked session and reads
   the first [session_chunks] functions of the index instead of
   fetching the whole image. *)
let profiles = [ ("modem-jit", 2); ("lan-jit", 2); ("embedded", 1); ("datacenter", 1) ]
let session_chunks = 8

type unit_ =
  | Fetch of { prog : int; profile : string }
  | Session of { prog : int; picks : int array }
      (** [picks.(k) mod (index length)] is the [k]th chunk read *)

(* program ranks of one deck: rank r appears round(w/(r+1)) times, at
   least once *)
let deck ~progs ~w =
  List.concat
    (List.init progs (fun r ->
         let c = max 1 (int_of_float (Float.round (float w /. float (r + 1)))) in
         List.init c (fun _ -> r)))

let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Support.Prng.int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [decks] shuffled decks of units *)
let units ~seed ~progs ~w ~decks =
  let prng = Support.Prng.create seed in
  let unit_of prog = function
    | "embedded" -> Session { prog; picks = Array.init session_chunks Fun.id }
    | profile -> Fetch { prog; profile }
  in
  let one =
    Array.of_list
      (List.concat_map
         (fun prog ->
           List.concat_map
             (fun (profile, weight) -> List.init weight (fun _ -> unit_of prog profile))
             profiles)
         (deck ~progs ~w))
  in
  Array.concat
    (List.init decks (fun _ ->
         let d = Array.copy one in
         shuffle prng d;
         d))

(* the warm-up and open-loop lists are drawn from streams of their own,
   so neither shifts the closed loop's list *)
let warmup_seed seed = Int64.logxor seed 0x5741524D5550L
let open_loop_seed seed = Int64.logxor seed 0x4F50454EL
