(** The published catalog: one entry per program, the default client
    population, and the corpus the drivers publish. [Sim.Catalog]
    names the flavors traces are cut against. *)

type entry = {
  name : string;
  digest : string;
  fn_count : int;
  wanted : string list;
      (** functions a real run references, in first-reference order *)
}

val catalog_entry : Engine.t -> Corpus.Programs.entry -> entry
(** Publish one corpus program and derive its entry: digest, function
    count, and the functions a real run touches (the paging trace). *)

val build_catalog : ?generated:Corpus.Gen.profile list -> Engine.t -> entry list
(** Publish every hand-written corpus program plus [generated]
    many-function programs (default: a 24- and a 40-function program —
    the partial-call workloads where chunked delivery pays). *)

val default_generated : Corpus.Gen.profile list

val default_profiles : Profile.t list
(** modem, lan, embedded (streaming), datacenter. *)
