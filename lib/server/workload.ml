(* The catalog the simulator, the daemon and the benches publish: one
   entry per program with its digest, function count and the functions
   a real run touches (the paging trace a streaming client follows),
   plus the default client population spanning the paper's delivery
   crossover. *)

type entry = {
  name : string;
  digest : string;
  fn_count : int;
  wanted : string list;
      (* functions a real run references, in first-reference order *)
}

let dedup_keep_order xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let catalog_entry engine (e : Corpus.Programs.entry) =
  let ir = Cc.Lower.compile e.Corpus.Programs.source in
  let input = e.Corpus.Programs.input in
  let digest = Engine.publish engine ~input ir in
  let vp = Vm.Codegen.gen_program ir in
  let names =
    Array.of_list (List.map (fun f -> f.Vm.Isa.name) vp.Vm.Isa.funcs)
  in
  let wanted =
    match Scenario.Paging.trace_of_program ~input vp with
    | exception _ -> Array.to_list names
    | trace -> dedup_keep_order (List.map (fun i -> names.(i)) trace)
  in
  {
    name = e.Corpus.Programs.name;
    digest;
    fn_count = Array.length names;
    wanted;
  }

(* Many-function generated programs whose drivers call a sample of the
   pool — the partial-call workloads where chunked delivery pays. *)
let default_generated =
  [ { Corpus.Gen.functions = 24; seed = 1017L; bias16 = false };
    { Corpus.Gen.functions = 40; seed = 2029L; bias16 = false } ]

let build_catalog ?(generated = default_generated) engine =
  List.map (catalog_entry engine) Corpus.Programs.all
  @ List.map
      (fun prof -> catalog_entry engine (Corpus.Gen.generate prof))
      generated

let default_profiles =
  [ Profile.modem; Profile.lan; Profile.embedded; Profile.datacenter ]
