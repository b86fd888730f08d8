type config = {
  page_bytes : int;
  resident_pages : int;
  fault_cost_us : float;
  decompress_us_per_page : float;
}

let default_config ~resident_pages =
  { page_bytes = 4096; resident_pages; fault_cost_us = 10_000.0;
    decompress_us_per_page = 0.0 }

type layout = { seg_page : int array; pages : int }

let layout_of_sizes ~page_bytes sizes =
  (* pack function segments onto pages first-fit in order: a function
     starts on the current page if it fits in the remainder, else on a
     fresh page; functions bigger than a page span several *)
  let n = Array.length sizes in
  let seg_page = Array.make n 0 in
  let page = ref 0 in
  let used = ref 0 in
  for f = 0 to n - 1 do
    let sz = max 1 sizes.(f) in
    if !used > 0 && !used + sz > page_bytes then begin
      incr page;
      used := 0
    end;
    seg_page.(f) <- !page;
    let total = !used + sz in
    page := !page + ((total - 1) / page_bytes);
    used := total mod page_bytes;
    if !used = 0 && total > 0 then incr page
  done;
  let pages = !page + if !used > 0 then 1 else 0 in
  { seg_page; pages = max pages 1 }

type result = {
  references : int;
  faults : int;
  fault_time_s : float;
  working_set_pages : int;
}

(* LRU over unit-cost pages: a budget of N resident pages is a
   Vm.Pager byte budget of N. The pager keeps the faulting page even
   when the budget is 0, so every budget below one page holds one. *)
let simulate cfg layout trace =
  let pages = List.map (fun f -> layout.seg_page.(f)) trace in
  let pager =
    Vm.Pager.create ~budget_bytes:cfg.resident_pages ~items:layout.pages
      (fun _ -> { Vm.Pager.item = (); cost_bytes = 1; stall_cycles = 0 })
  in
  List.iter (Vm.Pager.get pager) pages;
  let faults = (Vm.Pager.stats pager).Vm.Pager.faults in
  let per_fault = cfg.fault_cost_us +. cfg.decompress_us_per_page in
  {
    references = List.length trace;
    faults;
    fault_time_s = float_of_int faults *. per_fault /. 1.0e6;
    working_set_pages = List.length (List.sort_uniq compare pages);
  }

let trace_of_program ?input (vp : Vm.Isa.vprogram) =
  let trace = ref [] in
  let (_ : Vm.Interp.result) =
    Vm.Interp.run ?input ~on_call:(fun f -> trace := f :: !trace) vp
  in
  List.rev !trace

let func_sizes_native (vp : Vm.Isa.vprogram) =
  vp.Vm.Isa.funcs
  |> List.map (fun f -> Native.Mach.func_size (Native.Compile.compile_func f))
  |> Array.of_list

let func_sizes_brisc (img : Brisc.Emit.image) =
  Array.map (fun (f : Brisc.Emit.ifunc) -> String.length f.Brisc.Emit.code)
    img.Brisc.Emit.ifuncs
