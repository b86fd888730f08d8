(* End-to-end demand-paged execution of compressed code.

   The chunked-wire container gives per-function random access; here it
   meets the VM: consecutive chunks are packed into pages by compressed
   size (the only size the loader knows without decompressing — it
   reads the WCH3 index, never the bodies), and the interpreter runs
   against a Vm.Pager that faults a page in on first touch of any of
   its functions, decompresses just those chunks, and evicts
   least-recently-used pages once the *decompressed* resident set
   exceeds a hard byte budget. This is the Ozturk-style
   memory-constrained client: compressed image in cheap storage, a
   small decompressed working set in RAM.

   Everything is modelled in cycles (1 VM step = 1 cycle, faults charge
   a fixed trap cost plus a per-compressed-byte decompression cost), so
   runs are deterministic and the bench's paging sweep can hold
   ceilings on the numbers without a noise opt-out. Function order in the image
   decides which functions share a page — that is the lever
   Vm.Layout.reorder_ir turns to cut faults. *)

type config = {
  page_bytes : int;  (* compressed bytes packed per page *)
  budget_bytes : int;  (* decompressed resident-set budget *)
}

let config ?(page_bytes = 1024) ~budget_bytes () = { page_bytes; budget_bytes }

(* the stall model: a fixed per-fault trap + index lookup cost, plus a
   stall per compressed byte expanded *)
let fault_cycles = 2_000
let decompress_cycles_per_byte = 40

type run = {
  res : Vm.Interp.result;  (* the last repeat's result *)
  stats : Vm.Pager.stats;
  total_steps : int;  (* across all repeats of the session *)
  overhead : float;  (* paged cycles / fully-resident cycles *)
}

type error =
  | Decode of Support.Decode_error.t
  | Trap of string

let error_to_string = function
  | Decode e -> Support.Decode_error.to_string e
  | Trap m -> "trap: " ^ m

(* decompressed VM footprint of the whole image: what "fully resident"
   costs, and the denominator budget fractions are quoted against *)
let vm_image_bytes (t : Wire.Chunked.t) =
  let total = ref 0 in
  for i = 0 to Wire.Chunked.chunk_count t - 1 do
    let f = Wire.Chunked.decompress_at t i in
    let solo = { Ir.Tree.globals = []; funcs = [] } in
    total := !total + Vm.Encode.func_size (Vm.Codegen.gen_func solo f)
  done;
  !total

let run_vm ?(cfg = config ~budget_bytes:(64 * 1024) ()) ?(repeat = 1)
    ?mem_size ?input ?fuel ?entry (t : Wire.Chunked.t) : (run, error) result =
  let n = Wire.Chunked.chunk_count t in
  let names = Array.init n (Wire.Chunked.name_at t) in
  let compressed = Array.init n (Wire.Chunked.chunk_size_at t) in
  let layout = Paging.layout_of_sizes ~page_bytes:cfg.page_bytes compressed in
  let page_of = layout.Paging.seg_page in
  let npages = layout.Paging.pages in
  (* members of each page, in chunk order *)
  let members = Array.make npages [] in
  for i = n - 1 downto 0 do
    members.(page_of.(i)) <- i :: members.(page_of.(i))
  done;
  let ir_globals = { Ir.Tree.globals = (Wire.Chunked.globals t); funcs = [] } in
  let isa_globals =
    List.map
      (fun (g : Ir.Tree.global) -> (g.Ir.Tree.gname, g.Ir.Tree.gsize, g.Ir.Tree.ginit))
      (Wire.Chunked.globals t)
  in
  (* a page materializes as the prepared frames of its functions *)
  let load p =
    let frames =
      List.map
        (fun i ->
          let f = Wire.Chunked.decompress_at t i in
          let vf = Vm.Codegen.gen_func ir_globals f in
          (i, Vm.Encode.func_size vf, Vm.Interp.prepare_func vf))
        members.(p)
    in
    let cost = List.fold_left (fun a (_, sz, _) -> a + sz) 0 frames in
    let zbytes =
      List.fold_left (fun a i -> a + compressed.(i)) 0 members.(p)
    in
    {
      Vm.Pager.item = List.map (fun (i, _, fr) -> (i, fr)) frames;
      cost_bytes = cost;
      stall_cycles = fault_cycles + (decompress_cycles_per_byte * zbytes);
    }
  in
  let pager =
    Vm.Pager.create ~budget_bytes:cfg.budget_bytes ~items:npages load
  in
  let fetch i = List.assoc i (Vm.Pager.get pager page_of.(i)) in
  (* the fully-resident baseline is not free: it decompresses the whole
     image up front — one fault per page, whether touched or not. The
     overhead a budget costs is paged cycles over that baseline, so a
     demand-paged run that skips enough cold code can even come in
     under 1.0. *)
  let resident_stall =
    Array.fold_left
      (fun acc members ->
        let zbytes = List.fold_left (fun a i -> a + compressed.(i)) 0 members in
        acc + fault_cycles + (decompress_cycles_per_byte * zbytes))
      0 members
  in
  match
    (* a session: the program runs [repeat] times, the code cache
       surviving across runs (fresh memory and globals each time, so
       every repeat computes the same result) *)
    let res = ref None in
    for _ = 1 to repeat do
      res :=
        Some
          (Vm.Interp.run_code ?mem_size ?input ?fuel ?entry
             { Vm.Interp.names; globals = isa_globals; fetch })
    done;
    match !res with
    | Some r -> r
    | None -> invalid_arg "Paged.run_vm: repeat must be >= 1"
  with
  | res ->
    let stats = Vm.Pager.stats pager in
    let total_steps = max 1 (repeat * res.Vm.Interp.steps) in
    Ok
      {
        res;
        stats;
        total_steps;
        overhead =
          float_of_int (total_steps + stats.Vm.Pager.stall_cycles)
          /. float_of_int (total_steps + resident_stall);
      }
  | exception Support.Decode_error.Fail e -> Error (Decode e)
  | exception Vm.Interp.Runtime_error m -> Error (Trap m)
  | exception Vm.Codegen.Codegen_error m -> Error (Trap ("codegen: " ^ m))

(* ---- BRISC: interpretability-in-place under a budget ----

   BRISC's pitch is that the compressed form IS the executable form, so
   its paged story needs no decompression stall at all: residency is
   counted in compressed bytes, a fault is just the fixed page-in cost,
   and the budget an image fits in is ~2x smaller than the expanded
   VM form needs. The pager is touched per dispatch (in-place
   interpretation has no resident expanded frame to hold), so the
   executing function keeps itself hot. *)

type brisc_run = {
  bres : Brisc.Interp.result;
  bstats : Vm.Pager.stats;
  boverhead : float;  (* (vm_steps + stall) / vm_steps *)
}

let run_brisc ?(budget_bytes = 16 * 1024) ?mem_size ?input ?fuel ?entry
    (img : Brisc.Emit.image) : (brisc_run, error) result =
  let sizes =
    Array.map
      (fun (f : Brisc.Emit.ifunc) -> String.length f.Brisc.Emit.code)
      img.Brisc.Emit.ifuncs
  in
  let items = max 1 (Array.length sizes) in
  let pager =
    Vm.Pager.create ~budget_bytes ~items (fun i ->
        {
          Vm.Pager.item = ();
          cost_bytes = max 1 sizes.(i);
          stall_cycles = fault_cycles;
        })
  in
  match
    Brisc.Interp.run ?mem_size ?input ?fuel ?entry
      ~on_dispatch:(fun fidx _ _ -> Vm.Pager.get pager fidx)
      img
  with
  | bres ->
    let bstats = Vm.Pager.stats pager in
    let steps = max 1 bres.Brisc.Interp.vm_steps in
    Ok
      {
        bres;
        bstats;
        boverhead =
          float_of_int (steps + bstats.Vm.Pager.stall_cycles)
          /. float_of_int steps;
      }
  | exception Support.Decode_error.Fail e -> Error (Decode e)
  | exception Brisc.Interp.Runtime_error m -> Error (Trap m)
