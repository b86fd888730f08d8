(* Tests for the delivery-time model and the paging simulator. *)

(* ---- delivery ---- *)

let sizes =
  (* representative medium-program sizes, in bytes *)
  { Scenario.Delivery.native_bytes = 70_000; gzip_bytes = 30_000;
    wire_bytes = 20_000; brisc_bytes = 45_000 }

let run_cycles = 50_000_000 (* ~0.4s at the nominal clock *)

let test_components_sum () =
  let o =
    Scenario.Delivery.total_time sizes ~run_cycles
      ~link_bps:Scenario.Delivery.modem_bps Scenario.Delivery.Wire_format
  in
  Alcotest.(check (float 1e-9)) "total = transfer+prepare+run"
    (o.Scenario.Delivery.transfer_s +. o.Scenario.Delivery.prepare_s
    +. o.Scenario.Delivery.run_s)
    o.Scenario.Delivery.total_s

let test_modem_prefers_compression () =
  (* over a 28.8k modem, raw native must lose to every compressed form *)
  let at r =
    (Scenario.Delivery.total_time sizes ~run_cycles
       ~link_bps:Scenario.Delivery.modem_bps r).Scenario.Delivery.total_s
  in
  Alcotest.(check bool) "wire beats native" true
    (at Scenario.Delivery.Wire_format < at Scenario.Delivery.Raw_native);
  Alcotest.(check bool) "brisc beats native" true
    (at Scenario.Delivery.Brisc_jit < at Scenario.Delivery.Raw_native)

let test_paper_crossover () =
  (* the paper's claim: over a modem the wire format minimizes latency;
     on a LAN BRISC is a good choice (transfer no longer dominates) *)
  let best_at bps =
    fst (Scenario.Delivery.best sizes ~run_cycles ~link_bps:bps)
  in
  Alcotest.(check string) "modem -> wire" "wire+JIT"
    (Scenario.Delivery.repr_name (best_at Scenario.Delivery.modem_bps));
  let lan_best = best_at Scenario.Delivery.fast_lan_bps in
  Alcotest.(check bool) "fast LAN -> not wire" true
    (lan_best <> Scenario.Delivery.Wire_format)

let test_default_rates_crossover () =
  (* the §4.5 story pinned under the stock rate card, for the client
     population the server targets: a JIT-capable machine that cannot
     run the server's native code (so the native forms are off the
     menu, as Profile.mode_feasible rules for modem/lan).
     Over the modem, transfer dominates and the densest form — wire —
     wins; at 100 Mbit transfer is nearly free and wire's extra
     decompress-then-JIT preparation loses to BRISC's JIT-only cost. *)
  let candidates =
    [ Scenario.Delivery.Wire_format; Scenario.Delivery.Brisc_jit;
      Scenario.Delivery.Brisc_interp ]
  in
  let best bps =
    fst
      (Scenario.Delivery.best_of ~rates:Scenario.Delivery.default_rates
         candidates sizes ~run_cycles ~link_bps:bps)
  in
  Alcotest.(check string) "28.8k modem -> wire" "wire+JIT"
    (Scenario.Delivery.repr_name (best Scenario.Delivery.modem_bps));
  Alcotest.(check string) "fast LAN -> BRISC" "BRISC+JIT"
    (Scenario.Delivery.repr_name (best Scenario.Delivery.fast_lan_bps))

let test_best_of_edges () =
  let one =
    Scenario.Delivery.best_of [ Scenario.Delivery.Brisc_interp ] sizes
      ~run_cycles ~link_bps:Scenario.Delivery.lan_bps
  in
  Alcotest.(check string) "singleton candidate" "BRISC interp"
    (Scenario.Delivery.repr_name (fst one));
  (match
     Scenario.Delivery.best_of [] sizes ~run_cycles
       ~link_bps:Scenario.Delivery.lan_bps
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty candidate list must be rejected");
  (* best = best_of over all representations *)
  let a = Scenario.Delivery.best sizes ~run_cycles ~link_bps:Scenario.Delivery.modem_bps in
  let b =
    Scenario.Delivery.best_of Scenario.Delivery.all_reprs sizes ~run_cycles
      ~link_bps:Scenario.Delivery.modem_bps
  in
  Alcotest.(check string) "best is best_of all"
    (Scenario.Delivery.repr_name (fst a))
    (Scenario.Delivery.repr_name (fst b))

let test_transfer_monotone_in_bandwidth () =
  let t bps =
    (Scenario.Delivery.total_time sizes ~run_cycles ~link_bps:bps
       Scenario.Delivery.Gzipped_native).Scenario.Delivery.transfer_s
  in
  Alcotest.(check bool) "faster link, less transfer" true
    (t Scenario.Delivery.lan_bps < t Scenario.Delivery.modem_bps)

let test_interp_avoids_prepare () =
  let o =
    Scenario.Delivery.total_time sizes ~run_cycles
      ~link_bps:Scenario.Delivery.lan_bps Scenario.Delivery.Brisc_interp
  in
  Alcotest.(check (float 1e-9)) "no prepare" 0.0 o.Scenario.Delivery.prepare_s;
  let jit =
    Scenario.Delivery.total_time sizes ~run_cycles
      ~link_bps:Scenario.Delivery.lan_bps Scenario.Delivery.Brisc_jit
  in
  Alcotest.(check bool) "but slower run" true
    (o.Scenario.Delivery.run_s > jit.Scenario.Delivery.run_s)

let test_sweep_covers_all () =
  let rows =
    Scenario.Delivery.sweep sizes ~run_cycles
      ~link_bps_list:[ Scenario.Delivery.modem_bps; Scenario.Delivery.lan_bps ]
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (_, outs) -> Alcotest.(check int) "five representations" 5 (List.length outs))
    rows

(* ---- paging layout ---- *)

let test_layout_small_functions_share () =
  let l = Scenario.Paging.layout_of_sizes ~page_bytes:4096 [| 100; 100; 100 |] in
  Alcotest.(check int) "one page" 1 l.Scenario.Paging.pages;
  Alcotest.(check (array int)) "same page" [| 0; 0; 0 |] l.Scenario.Paging.seg_page

let test_layout_big_function_spans () =
  let l = Scenario.Paging.layout_of_sizes ~page_bytes:4096 [| 10000; 100 |] in
  Alcotest.(check bool) "multiple pages" true (l.Scenario.Paging.pages >= 3);
  Alcotest.(check int) "first at 0" 0 l.Scenario.Paging.seg_page.(0)

let test_layout_fresh_page_when_full () =
  let l = Scenario.Paging.layout_of_sizes ~page_bytes:100 [| 80; 50 |] in
  Alcotest.(check int) "second on page 1" 1 l.Scenario.Paging.seg_page.(1)

(* ---- LRU simulation ---- *)

let two_page_layout = { Scenario.Paging.seg_page = [| 0; 1; 2 |]; pages = 3 }

let simulate budget trace =
  Scenario.Paging.simulate
    (Scenario.Paging.default_config ~resident_pages:budget)
    two_page_layout trace

(* a budget of 0 still holds the faulting page, so only an immediate
   re-touch hits; max_int never evicts *)
let test_lru_hits_and_faults () =
  (* pages: 0 1 0 1 -> 2 faults then hits *)
  List.iter
    (fun (budget, faults) ->
      let r = simulate budget [ 0; 1; 0; 1 ] in
      Alcotest.(check int)
        (Printf.sprintf "faults at budget %d" budget)
        faults r.Scenario.Paging.faults;
      Alcotest.(check int) "4 refs" 4 r.Scenario.Paging.references)
    [ (2, 2); (0, 4); (max_int, 2) ]

let test_lru_eviction_order () =
  (* 0 1 2 evicts 0 (LRU); touching 0 again faults *)
  List.iter
    (fun (budget, faults) ->
      Alcotest.(check int)
        (Printf.sprintf "0 1 2 0 faults at budget %d" budget)
        faults (simulate budget [ 0; 1; 2; 0 ]).Scenario.Paging.faults)
    [ (2, 4); (0, 4); (max_int, 3) ];
  (* 0 1 2 1 0: after 2, resident {2,1}; 1 hits; 0 faults *)
  List.iter
    (fun (budget, faults) ->
      Alcotest.(check int)
        (Printf.sprintf "lru keeps recent at budget %d" budget)
        faults (simulate budget [ 0; 1; 2; 1; 0 ]).Scenario.Paging.faults)
    [ (2, 4); (0, 5); (max_int, 3) ]

let test_working_set_counts_distinct () =
  List.iter
    (fun budget ->
      Alcotest.(check int)
        (Printf.sprintf "two pages touched at budget %d" budget)
        2
        (simulate budget [ 0; 0; 1; 1; 0 ]).Scenario.Paging.working_set_pages)
    [ 8; 0; max_int ]

let test_fault_time_includes_decompress () =
  let base = Scenario.Paging.default_config ~resident_pages:1 in
  let cfg = { base with Scenario.Paging.decompress_us_per_page = 1000.0 } in
  let r0 = Scenario.Paging.simulate base two_page_layout [ 0; 1; 0 ] in
  let r1 = Scenario.Paging.simulate cfg two_page_layout [ 0; 1; 0 ] in
  Alcotest.(check bool) "decompression adds cost" true
    (r1.Scenario.Paging.fault_time_s > r0.Scenario.Paging.fault_time_s)

(* ---- instruction cache ---- *)

let test_icache_basics () =
  let cfg = { Scenario.Icache.line_bytes = 16; lines = 2; miss_cycles = 10 } in
  (* two fetches in the same line: one miss *)
  let r = Scenario.Icache.simulate cfg [ (0, 4); (4, 4) ] in
  Alcotest.(check int) "one miss" 1 r.Scenario.Icache.misses;
  Alcotest.(check int) "cycles" 10 r.Scenario.Icache.miss_cycles_total;
  (* a fetch spanning two lines misses both *)
  let r2 = Scenario.Icache.simulate cfg [ (12, 8) ] in
  Alcotest.(check int) "spanning fetch" 2 r2.Scenario.Icache.misses;
  (* conflict: lines 0 and 2 share slot 0 in a 2-line cache *)
  let r3 = Scenario.Icache.simulate cfg [ (0, 4); (32, 4); (0, 4) ] in
  Alcotest.(check int) "conflict misses" 3 r3.Scenario.Icache.misses

let test_icache_denser_image_wins () =
  let e = Corpus.Programs.queens in
  let vp = Vm.Codegen.gen_program (Cc.Lower.compile e.Corpus.Programs.source) in
  let np = Native.Compile.compile_program vp in
  let img = Brisc.compress vp in
  let nt = Scenario.Icache.native_fetch_trace np () in
  let bt = Scenario.Icache.brisc_fetch_trace img () in
  let cfg = Scenario.Icache.default_config ~lines:8 in
  let rn = Scenario.Icache.simulate cfg nt in
  let rb = Scenario.Icache.simulate cfg bt in
  Alcotest.(check bool) "brisc image misses less under pressure" true
    (rb.Scenario.Icache.misses < rn.Scenario.Icache.misses)

(* ---- end-to-end: compressed code shrinks the working set ---- *)

let test_brisc_working_set_shrinks () =
  (* 40 functions: enough that the later ones call into the leaf pool,
     giving a paging trace with real locality structure *)
  let e =
    Corpus.Gen.generate
      { Corpus.Gen.functions = 40; seed = 77L; bias16 = false }
  in
  let vp = Vm.Codegen.gen_program (Cc.Lower.compile e.Corpus.Programs.source) in
  let trace = Scenario.Paging.trace_of_program vp in
  Alcotest.(check bool) "trace non-trivial" true (List.length trace > 10);
  let page_bytes = 512 (* small pages so the tiny corpus exercises paging *) in
  let native = Scenario.Paging.layout_of_sizes ~page_bytes
      (Scenario.Paging.func_sizes_native vp) in
  let img = Brisc.compress vp in
  let brisc = Scenario.Paging.layout_of_sizes ~page_bytes
      (Scenario.Paging.func_sizes_brisc img) in
  Alcotest.(check bool) "brisc image needs fewer pages" true
    (brisc.Scenario.Paging.pages <= native.Scenario.Paging.pages);
  let cfg = Scenario.Paging.default_config ~resident_pages:2 in
  let rn = Scenario.Paging.simulate cfg native trace in
  let rb = Scenario.Paging.simulate cfg brisc trace in
  Alcotest.(check bool) "fewer or equal faults" true
    (rb.Scenario.Paging.faults <= rn.Scenario.Paging.faults);
  Alcotest.(check bool) "smaller or equal working set" true
    (rb.Scenario.Paging.working_set_pages <= rn.Scenario.Paging.working_set_pages)

let test_trace_of_known_program () =
  let vp =
    Vm.Codegen.gen_program
      (Cc.Lower.compile
         "int leaf(int x) { return x; } int main() { leaf(1); leaf(2); return 0; }")
  in
  let trace = Scenario.Paging.trace_of_program vp in
  (* main entry + two calls *)
  Alcotest.(check int) "three references" 3 (List.length trace)

(* ---- demand-paged execution (Scenario.Paged) ---- *)

(* one shared corpus point: 40 functions gives a multi-page image with
   cold leaves, so budgets below 100% actually evict *)
let paged_fixture =
  lazy
    (let e =
       Corpus.Gen.generate { Corpus.Gen.functions = 40; seed = 77L; bias16 = false }
     in
     let ir = Cc.Lower.compile e.Corpus.Programs.source in
     let vp = Vm.Codegen.gen_program ir in
     let input = e.Corpus.Programs.input in
     let resident = Vm.Interp.run ~input vp in
     let img = Wire.Chunked.compress ir in
     (img, input, resident, Scenario.Paged.vm_image_bytes img))

let run_paged ?repeat ~budget_bytes () =
  let img, input, _, _ = Lazy.force paged_fixture in
  match
    Scenario.Paged.run_vm
      ~cfg:(Scenario.Paged.config ~budget_bytes ())
      ?repeat ~input img
  with
  | Ok r -> r
  | Error e -> Alcotest.fail (Scenario.Paged.error_to_string e)

let test_paged_equivalence_across_budgets () =
  let _, _, resident, total = Lazy.force paged_fixture in
  let faults_at =
    List.map (fun pct ->
        let r = run_paged ~budget_bytes:(max 1 (total * pct / 100)) () in
        Alcotest.(check string)
          (Printf.sprintf "output identical at %d%% budget" pct)
          resident.Vm.Interp.output r.Scenario.Paged.res.Vm.Interp.output;
        Alcotest.(check int)
          (Printf.sprintf "exit code identical at %d%% budget" pct)
          resident.Vm.Interp.exit_code
          r.Scenario.Paged.res.Vm.Interp.exit_code;
        Alcotest.(check int)
          (Printf.sprintf "step count identical at %d%% budget" pct)
          resident.Vm.Interp.steps r.Scenario.Paged.res.Vm.Interp.steps;
        r.Scenario.Paged.stats.Vm.Pager.faults)
      [ 100; 50; 25; 10 ]
  in
  (* tighter budgets can only fault more *)
  ignore
    (List.fold_left
       (fun prev f ->
         Alcotest.(check bool) "faults monotone as budget shrinks" true
           (f >= prev);
         f)
       0 faults_at)

let test_paged_budget_below_one_page () =
  (* a 1-byte budget is below every page's decompressed size: the pager
     pins the faulting page for the duration of the dispatch and evicts
     it next fault, so execution still completes with the same result *)
  let _, _, resident, _ = Lazy.force paged_fixture in
  let r = run_paged ~budget_bytes:1 () in
  Alcotest.(check string) "output identical under thrashing"
    resident.Vm.Interp.output r.Scenario.Paged.res.Vm.Interp.output;
  Alcotest.(check bool) "resident hwm bounded by one page's content" true
    (r.Scenario.Paged.stats.Vm.Pager.resident_hwm
    < (let _, _, _, total = Lazy.force paged_fixture in
       total))

let test_paged_session_repeat () =
  let _, _, resident, total = Lazy.force paged_fixture in
  let one = run_paged ~budget_bytes:total () in
  let three = run_paged ~repeat:3 ~budget_bytes:total () in
  Alcotest.(check string) "repeat result identical"
    resident.Vm.Interp.output three.Scenario.Paged.res.Vm.Interp.output;
  Alcotest.(check int) "steps sum across repeats"
    (3 * resident.Vm.Interp.steps)
    three.Scenario.Paged.total_steps;
  (* the code cache survives across repeats: at full budget the session
     pays only the compulsory faults of the first run *)
  Alcotest.(check int) "warm cache: no new faults on later repeats"
    one.Scenario.Paged.stats.Vm.Pager.faults
    three.Scenario.Paged.stats.Vm.Pager.faults

let test_paged_corrupt_chunk_is_typed () =
  (* corrupt one byte inside main's chunk, behind a re-sealed outer CRC:
     the fault that decompresses that chunk must surface Error (Decode _),
     not an exception mid-execution *)
  let img, input, _, _ = Lazy.force paged_fixture in
  let s = Wire.Chunked.to_bytes img in
  let body = String.sub s 8 (String.length s - 8) in
  let victim = Wire.Chunked.chunk img "main" in
  let at =
    (* locate the chunk's bytes inside the body *)
    let n = String.length body and vn = String.length victim in
    let rec find i =
      if i + vn > n then Alcotest.fail "main's chunk not found in body"
      else if String.sub body i vn = victim then i
      else find (i + 1)
    in
    find 0
  in
  let mid = at + (String.length victim / 2) in
  let body' =
    String.mapi
      (fun i c -> if i = mid then Char.chr (Char.code c lxor 0x40) else c)
      body
  in
  let img' = Wire.Chunked.of_bytes_exn (Support.Frame.seal ~magic:"WCH3" body') in
  match Scenario.Paged.run_vm ~input img' with
  | Error (Scenario.Paged.Decode _) -> ()
  | Error (Scenario.Paged.Trap m) ->
    Alcotest.fail ("expected Decode error, got Trap: " ^ m)
  | Ok _ -> Alcotest.fail "corrupt chunk executed successfully"

let () =
  Alcotest.run "scenario"
    [
      ( "delivery",
        [
          Alcotest.test_case "components sum" `Quick test_components_sum;
          Alcotest.test_case "modem prefers compression" `Quick
            test_modem_prefers_compression;
          Alcotest.test_case "paper crossover" `Quick test_paper_crossover;
          Alcotest.test_case "default-rates crossover" `Quick
            test_default_rates_crossover;
          Alcotest.test_case "best_of edges" `Quick test_best_of_edges;
          Alcotest.test_case "bandwidth monotone" `Quick
            test_transfer_monotone_in_bandwidth;
          Alcotest.test_case "interp skips prepare" `Quick test_interp_avoids_prepare;
          Alcotest.test_case "sweep shape" `Quick test_sweep_covers_all;
        ] );
      ( "layout",
        [
          Alcotest.test_case "small functions share" `Quick
            test_layout_small_functions_share;
          Alcotest.test_case "big function spans" `Quick test_layout_big_function_spans;
          Alcotest.test_case "fresh page when full" `Quick
            test_layout_fresh_page_when_full;
        ] );
      ( "lru",
        [
          Alcotest.test_case "hits and faults" `Quick test_lru_hits_and_faults;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "working set" `Quick test_working_set_counts_distinct;
          Alcotest.test_case "decompress cost" `Quick test_fault_time_includes_decompress;
        ] );
      ( "icache",
        [
          Alcotest.test_case "mechanics" `Quick test_icache_basics;
          Alcotest.test_case "denser image wins" `Quick
            test_icache_denser_image_wins;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "brisc shrinks working set" `Slow
            test_brisc_working_set_shrinks;
          Alcotest.test_case "trace of known program" `Quick
            test_trace_of_known_program;
        ] );
      ( "paged execution",
        [
          Alcotest.test_case "equivalent across budgets" `Quick
            test_paged_equivalence_across_budgets;
          Alcotest.test_case "budget below one page" `Quick
            test_paged_budget_below_one_page;
          Alcotest.test_case "session repeat warms the cache" `Quick
            test_paged_session_repeat;
          Alcotest.test_case "corrupt chunk surfaces typed error" `Quick
            test_paged_corrupt_chunk_is_typed;
        ] );
    ]
