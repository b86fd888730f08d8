(** Named catalog flavors the simulator (and the drivers) publish.

    A trace records which flavor it was cut against, so replay can
    rebuild the same key space without shipping digests (content
    addresses change whenever the compiler does; program names don't). *)

type flavor =
  | Mini   (** four small corpus programs — unit-test sized *)
  | Quick  (** the whole hand-written corpus plus one generated program *)
  | Full   (** the corpus plus the 24- and 40-function generated programs *)
  | Versioned
      (** the mini programs under their current keys, plus an old
          version of each under [key@1] — the update channel's key
          space (see {!old_version_key}) *)

val flavor_name : flavor -> string
val flavor_of_name : string -> flavor option

val old_version_key : string -> string
(** [old_version_key k] is the catalog key of [k]'s previous version in
    the {!Versioned} flavor ([k ^ "@1"]). *)

val is_old_version : string -> bool

val publish : Server.t -> flavor -> Server.Workload.entry list
(** Publish the flavor's programs and return the catalog. Generated
    programs get their stable [genN] names, exactly as [mccd serve]
    publishes them. *)
