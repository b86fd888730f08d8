(** Demand-paged execution of compressed code, end to end.

    Binds the chunked-wire container's random-access index
    ({!Wire.Chunked}) to the VM's paged dispatch loop
    ({!Vm.Interp.run_code} over a {!Vm.Pager}): consecutive chunks pack
    into pages by compressed size, a fault decompresses just the
    faulting page's chunks, and LRU eviction holds the decompressed
    resident set under a hard byte budget. Fault counts, modelled
    decompression stall cycles and the resident high-water mark come
    back with the run — all deterministic (no wall clocks), so the
    bench's paging sweep ([make paging-bench]) holds ceilings on them
    in CI.

    Function order in the image decides page sharing; that is the lever
    {!Vm.Layout.reorder_ir} turns to cut faults (measured in
    [BENCH_paging.json]). *)

type config = {
  page_bytes : int;      (** compressed bytes packed per page *)
  budget_bytes : int;    (** decompressed resident-set budget *)
}

val config : ?page_bytes:int -> budget_bytes:int -> unit -> config
(** Default: 1 KiB pages. A fault stalls 2000 cycles plus 40 cycles per
    compressed byte decompressed. *)

type run = {
  res : Vm.Interp.result;  (** the last repeat's result *)
  stats : Vm.Pager.stats;
  total_steps : int;     (** VM steps summed across all repeats *)
  overhead : float;
      (** paged cycles over the fully-resident baseline:
          [(steps + fault stalls) / (steps + whole-image upfront
          decompression)]. Fully resident is not free — it expands
          every page once at startup — so a paged run that skips
          enough cold code comes in under 1.0. *)
}

type error =
  | Decode of Support.Decode_error.t
      (** a chunk failed to decompress — surfaces mid-execution, typed *)
  | Trap of string  (** VM trap (bad program, fuel, codegen reject) *)

val error_to_string : error -> string

val vm_image_bytes : Wire.Chunked.t -> int
(** Total decompressed VM footprint (sum of encoded function sizes) —
    what fully-resident costs, and the denominator budget fractions
    are quoted against. Decompresses every chunk; offline use.
    @raise Support.Decode_error.Fail on a corrupt chunk. *)

val run_vm :
  ?cfg:config ->
  ?repeat:int ->
  ?mem_size:int ->
  ?input:string ->
  ?fuel:int ->
  ?entry:string ->
  Wire.Chunked.t ->
  (run, error) result
(** Run a chunked image under demand paging. [repeat] (default 1)
    models a session: the program runs that many times with the code
    cache surviving across runs (memory and globals are fresh each
    time, so every repeat computes the same result) — re-reference is
    what makes capacity misses, and so layout, matter. Never raises on
    corrupt chunks or hostile programs: decompression failures surface
    as [Error (Decode _)] mid-execution, traps as [Error (Trap _)]. *)

(** {2 BRISC: interpretability-in-place under a budget}

    The compressed form is the executable form, so the paged BRISC run
    charges no decompression stall: residency counts compressed bytes,
    a fault is the fixed page-in cost, and the same working set fits a
    ~2x smaller budget than the expanded VM form needs. *)

type brisc_run = {
  bres : Brisc.Interp.result;
  bstats : Vm.Pager.stats;
  boverhead : float;  (** (vm_steps + stall) / vm_steps *)
}

val run_brisc :
  ?budget_bytes:int ->
  ?mem_size:int ->
  ?input:string ->
  ?fuel:int ->
  ?entry:string ->
  Brisc.Emit.image ->
  (brisc_run, error) result
