(* Fast-path scheduler validation.

   The can_fire/wakeup fast path is a pure scheduling optimization: with it
   on or off (and in every mode) the simulation must be bit-identical — same
   cycle counts, same per-rule fire counts, same architectural results. These
   tests check that equivalence at two levels (synthetic CMD systems and the
   full processor on real kernels) plus the negative direction: a lying
   [can_fire] must be caught by the audit oracle, because under the fast
   path it would silently starve the rule. *)

open Cmd

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

(* ---------------------------------------------------------------- *)
(* Sim-level equivalence on a synthetic system                        *)
(* ---------------------------------------------------------------- *)

(* A small producer/consumer system exercising every fast-path feature:
   watched parking rules (vacuous and bare), a watchless predicate rule, and
   a predicate-free rule. Returns the observable trajectory. *)
let run_synthetic ~fastpath ~mode ~cycles =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"q" ~capacity:4 () in
  let acc = Ehr.create ~name:"acc" 0 in
  let produced = ref 0 in
  let consumed = ref 0 in
  let rules =
    [
      (* bare guarded rule, watched parking: only admissible while q has data *)
      Rule.make "consume"
        ~can_fire:(fun () -> Fifo.peek_size q > 0)
        ~watches:[ Fifo.signal q ]
        (fun ctx ->
          let v = Fifo.deq ctx q in
          Mut.set ctx consumed (!consumed + v));
      (* vacuous (attempt-wrapped) watched rule on the accumulator EHR *)
      Rule.make "drain-acc" ~vacuous:true
        ~can_fire:(fun () -> Ehr.peek acc >= 10)
        ~watches:[ Ehr.signal acc ]
        (fun ctx ->
          ignore
            (Kernel.attempt ctx (fun ctx ->
                 Kernel.guard ctx (Ehr.read ctx acc 0 >= 10) "acc below threshold";
                 Ehr.write ctx acc 0 0)));
      (* watchless predicate: produced is private state of this rule *)
      Rule.make "produce"
        ~can_fire:(fun () -> !produced < 60)
        (fun ctx ->
          Kernel.guard ctx (!produced < 60) "production done";
          Fifo.enq ctx q !produced;
          Ehr.write ctx acc 0 (Ehr.read ctx acc 0 + 1);
          Mut.set ctx produced (!produced + 1));
      (* predicate-free rule: always attempted, fires every 7th value *)
      Rule.make "spill" (fun ctx ->
          Kernel.guard ctx (Fifo.can_deq ctx q) "empty";
          let v = Fifo.first ctx q in
          Kernel.guard ctx (v mod 7 = 3) "not a spill value";
          ignore (Fifo.deq ctx q));
    ]
  in
  let sim = Sim.create ~mode ~fastpath clk rules in
  for _ = 1 to cycles do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  let per_rule =
    List.map (fun (r : Rule.t) -> (r.name, r.fired, r.guard_failed, r.conflicted)) (Sim.rules sim)
  in
  (!produced, !consumed, Ehr.peek acc, Fifo.peek_list q, Sim.total_fires sim, per_rule)

let test_synthetic_equivalence () =
  List.iter
    (fun (mname, mode) ->
      let on = run_synthetic ~fastpath:true ~mode ~cycles:300 in
      let off = run_synthetic ~fastpath:false ~mode ~cycles:300 in
      let p, c, a, _, fires, _ = on in
      Alcotest.(check bool)
        (Printf.sprintf "%s: trajectories identical (p=%d c=%d acc=%d fires=%d)" mname p c a fires)
        true (on = off);
      (* the system did real work *)
      Alcotest.(check bool) (mname ^ ": produced all") true (p = 60))
    [ ("Multi", Sim.Multi); ("One_per_cycle", Sim.One_per_cycle); ("Shuffle", Sim.Shuffle 7) ]

(* A parked rule must wake when its watched signal is touched much later —
   the generation-sum comparison must not wrap into a false "unchanged". *)
let test_late_wakeup () =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"lateq" ~capacity:2 () in
  let got = ref (-1) in
  let n = ref 0 in
  let rules =
    [
      Rule.make "sink"
        ~can_fire:(fun () -> Fifo.peek_size q > 0)
        ~watches:[ Fifo.signal q ]
        (fun ctx -> Mut.set ctx got (Fifo.deq ctx q));
      Rule.make "tick" (fun ctx ->
          Kernel.guard ctx (!n = 1000) "not yet";
          Fifo.enq ctx q 42);
    ]
  in
  let sim = Sim.create clk rules in
  for _ = 1 to 1002 do
    incr n;
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "parked rule woke and consumed" 42 !got;
  let sink = List.hd (Sim.rules sim) in
  Alcotest.(check bool)
    (Printf.sprintf "sink was parked most of the run (skipped=%d)" sink.Rule.skipped)
    true
    (sink.Rule.skipped > 990)

(* ---------------------------------------------------------------- *)
(* Audit oracle: lying can_fire predicates must be caught             *)
(* ---------------------------------------------------------------- *)

let test_audit_catches_liar () =
  (* bare rule: predicate says false, body commits anyway *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let liar = Rule.make "liar" ~can_fire:(fun () -> false) (fun ctx -> Ehr.write ctx e 0 1) in
  let sim = Sim.create ~audit:true clk [ liar ] in
  Alcotest.check_raises "bare liar trips the audit"
    (Sim.Audit_fail "rule liar: can_fire returned false but the rule fired (cycle 0)")
    (fun () -> ignore (Sim.cycle sim));
  (* vacuous rule: the attempt swallows nothing — it commits state, so a
     false predicate is still a lie *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let vliar =
    Rule.make "vliar" ~vacuous:true
      ~can_fire:(fun () -> false)
      (fun ctx -> ignore (Kernel.attempt ctx (fun ctx -> Ehr.write ctx e 0 2)))
  in
  let sim = Sim.create ~audit:true clk [ vliar ] in
  Alcotest.check_raises "vacuous liar trips the audit"
    (Sim.Audit_fail "rule vliar: can_fire returned false but the rule fired (cycle 0)")
    (fun () -> ignore (Sim.cycle sim))

let test_audit_passes_honest () =
  (* a vacuous rule whose inner guard fails commits nothing: can_fire=false
     is truthful and the audit must stay quiet *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"hq" ~capacity:2 () in
  let honest =
    Rule.make "honest" ~vacuous:true
      ~can_fire:(fun () -> Fifo.peek_size q > 0)
      (fun ctx -> ignore (Kernel.attempt ctx (fun ctx -> ignore (Fifo.deq ctx q))))
  in
  let sim = Sim.create ~audit:true clk [ honest ] in
  for _ = 1 to 50 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "honest rule fired vacuously every cycle" 50 honest.Rule.fired

(* The audit also checks watch sets: it takes the fast path's real skip
   decision, parking included, as the claim. Seeded bug: [consume]'s
   predicate is honest, but it watches a signal unrelated to [flag], so
   once parked it is never re-polled when [flag] rises — the fast path
   would strand it. The audit must report it; watching [flag] passes. *)
let run_watch_audit ~watch_flag =
  let clk = Clock.create () in
  let flag = Ehr.create ~name:"flag" 0 in
  let other = Ehr.create ~name:"other" 0 in
  let n = ref 0 in
  let taken = ref 0 in
  let rules =
    [
      Rule.make "consume"
        ~can_fire:(fun () -> Ehr.peek flag = 1)
        ~watches:[ Ehr.signal (if watch_flag then flag else other) ]
        (fun ctx ->
          Kernel.guard ctx (Ehr.read ctx flag 0 = 1) "flag low";
          Ehr.write ctx flag 0 0;
          Mut.set ctx taken (!taken + 1));
      Rule.make "raise" (fun ctx ->
          Kernel.guard ctx (!n = 5) "not yet";
          Ehr.write ctx flag 1 1);
    ]
  in
  let sim = Sim.create ~audit:true clk rules in
  for _ = 1 to 10 do
    ignore (Sim.cycle sim);
    incr n
  done;
  !taken

let test_audit_checks_watches () =
  Alcotest.check_raises "a watch set that misses the wakeup trips the audit"
    (Sim.Audit_fail
       "rule consume: parked on its watch set but the rule fired (cycle 6); a watched signal misses a wakeup")
    (fun () -> ignore (run_watch_audit ~watch_flag:false));
  Alcotest.(check int) "watching the right signal passes and consumes" 1
    (run_watch_audit ~watch_flag:true)

let test_fastpath_starves_liar () =
  (* the positive justification for the audit: under the fast path a lying
     predicate silently suppresses the rule *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let liar = Rule.make "liar" ~can_fire:(fun () -> false) (fun ctx -> Ehr.write ctx e 0 1) in
  let sim = Sim.create clk [ liar ] in
  for _ = 1 to 10 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "liar never ran under the fast path" 0 (Ehr.peek e);
  Alcotest.(check int) "all ten attempts were pruned" 10 liar.Rule.skipped

(* ---------------------------------------------------------------- *)
(* Full-machine equivalence on real kernels                           *)
(* ---------------------------------------------------------------- *)

open Workloads

(* (rule name, fired count) pairs, parsed from the scheduler report. The
   skipped/guard_failed columns are scheduling detail; fired counts plus the
   architectural outcome are the equivalence contract. *)
let fired_counts m =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Machine.pp_rule_stats fmt m;
  Format.pp_print_flush fmt ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter_map (fun line ->
         match List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line)) with
         | name :: rest ->
           List.find_map
             (fun tok ->
               if String.length tok > 6 && String.sub tok 0 6 = "fired=" then Some (name, tok)
               else None)
             rest
         | [] -> None)

(* CI runs this suite at RISCYOO_JOBS=1 and =4; equivalence must hold at both. *)
let jobs =
  match Option.bind (Sys.getenv_opt "RISCYOO_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 1

let run_full ~fastpath ~mode ?(cfg = Ooo.Config.riscyoo_b) ?(ncores = 1) ~budget prog =
  let m =
    Machine.create ~paging:true ~mode ~fastpath ~jobs ~ncores (Machine.Out_of_order cfg) prog
  in
  let o = Machine.run ~max_cycles:budget m in
  Alcotest.(check bool) "run completes" false o.Machine.timed_out;
  (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, fired_counts m)

let check_equiv name (c1, x1, i1, f1) (c2, x2, i2, f2) =
  Alcotest.(check int) (name ^ ": cycles identical") c1 c2;
  Alcotest.(check (list i64)) (name ^ ": exit checksums identical") x1 x2;
  Alcotest.(check int) (name ^ ": instret identical") i1 i2;
  Alcotest.(check (list (pair string string))) (name ^ ": per-rule fire counts identical") f1 f2

let test_smoke_equivalence () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  List.iter
    (fun (mname, mode, budget) ->
      let on = run_full ~fastpath:true ~mode ~budget prog in
      let off = run_full ~fastpath:false ~mode ~budget prog in
      check_equiv ("smoke/" ^ mname) on off)
    [
      ("multi", Sim.Multi, 1_000_000);
      ("shuffle", Sim.Shuffle 20260807, 1_000_000);
      ("one-per-cycle", Sim.One_per_cycle, 60_000_000);
    ]

(* the small configuration test_workloads uses for its SPEC runs *)
let small_cfg =
  {
    Ooo.Config.riscyoo_b with
    Ooo.Config.mem =
      {
        Mem.Mem_sys.l1d_bytes = 4096;
        l1d_ways = 2;
        l1d_mshrs = 4;
        l1i_bytes = 4096;
        l1i_ways = 2;
        l2_bytes = 32768;
        l2_ways = 4;
        l2_mshrs = 8;
        l2_latency = 4;
        mesi = false;
        mem_latency = 24;
        mem_inflight = 8;
        l2_banks = 1;
        lookahead_override = None;
      };
    tlb = Tlb.Tlb_sys.nonblocking_config;
  }

let test_spec_equivalence () =
  List.iter
    (fun kernel ->
      let prog = Spec_kernels.find kernel ~scale:1 in
      let on = run_full ~fastpath:true ~mode:Sim.Multi ~cfg:small_cfg ~budget:10_000_000 prog in
      let off = run_full ~fastpath:false ~mode:Sim.Multi ~cfg:small_cfg ~budget:10_000_000 prog in
      check_equiv kernel on off)
    [ "gcc"; "gobmk" ]

(* The stalls the stall-aware predicates target never show on [small_cfg]
   (non-blocking TLB, 24-cycle memory): cover them directly — mcf on
   RiscyOO-B (blocking TLB walks, 120-cycle DRAM) and a PARSEC kernel on
   the TSO quad-core (coherence round trips through the shared L2). *)
let test_stall_equivalence () =
  let prog = Spec_kernels.find "mcf" ~scale:1 in
  let on = run_full ~fastpath:true ~mode:Sim.Multi ~budget:10_000_000 prog in
  let off = run_full ~fastpath:false ~mode:Sim.Multi ~budget:10_000_000 prog in
  check_equiv "mcf/riscyoo-b" on off;
  let cfg = Ooo.Config.multicore Ooo.Config.TSO in
  let prog = Parsec_kernels.find "streamcluster" ~harts:4 ~scale:1 in
  let on = run_full ~fastpath:true ~mode:Sim.Multi ~cfg ~ncores:4 ~budget:10_000_000 prog in
  let off = run_full ~fastpath:false ~mode:Sim.Multi ~cfg ~ncores:4 ~budget:10_000_000 prog in
  check_equiv "streamcluster/quad-tso" on off

(* The whole-processor predicate set passes the dynamic truthfulness check. *)
let test_smoke_audit_clean () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let m =
    Machine.create ~paging:true ~audit:true (Machine.Out_of_order Ooo.Config.riscyoo_b) prog
  in
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "audited run completes" false o.Machine.timed_out

(* ---------------------------------------------------------------- *)
(* Schedule compilation: compiled engine == interpreted engine        *)
(* ---------------------------------------------------------------- *)

(* Like [run_full] but selecting the engine explicitly. Jobs is pinned to 1
   because the parallel path disables compilation by design (test_par covers
   compiled-serial vs parallel-interpreted); the helper asserts the engine
   the machine actually took, so a silently-uncompiled "compiled" leg cannot
   degenerate into interpreted-vs-interpreted. *)
let run_engine ~compile ~mode ?(cfg = Ooo.Config.riscyoo_b) ~budget prog =
  let m = Machine.create ~paging:true ~mode ~jobs:1 ~compile (Machine.Out_of_order cfg) prog in
  Alcotest.(check bool)
    (Printf.sprintf "engine matches request (%s)" (Machine.compile_status m))
    (compile && mode <> Sim.One_per_cycle)
    (Machine.compiled m);
  let o = Machine.run ~max_cycles:budget m in
  Alcotest.(check bool) "run completes" false o.Machine.timed_out;
  (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, fired_counts m)

let test_smoke_compile_equivalence () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  List.iter
    (fun (mname, mode) ->
      let compiled = run_engine ~compile:true ~mode ~budget:1_000_000 prog in
      let interp = run_engine ~compile:false ~mode ~budget:1_000_000 prog in
      check_equiv ("smoke-compile/" ^ mname) compiled interp)
    [ ("multi", Sim.Multi); ("shuffle", Sim.Shuffle 20260807) ];
  (* One_per_cycle serializes the schedule and must refuse the compiled
     path (its fire-one-rule contract needs the interpreted arbiter);
     [run_engine]'s engine assertion is the whole test — no need to pay
     for the 60M-cycle serial run twice here, the fastpath suite covers
     serial-mode bit-identity. *)
  let m =
    Machine.create ~paging:true ~mode:Sim.One_per_cycle ~jobs:1
      (Machine.Out_of_order Ooo.Config.riscyoo_b)
      prog
  in
  Alcotest.(check bool) "one-per-cycle machine not compiled" false (Machine.compiled m)

let test_spec_compile_equivalence () =
  List.iter
    (fun kernel ->
      let prog = Spec_kernels.find kernel ~scale:1 in
      let compiled =
        run_engine ~compile:true ~mode:Sim.Multi ~cfg:small_cfg ~budget:10_000_000 prog
      in
      let interp =
        run_engine ~compile:false ~mode:Sim.Multi ~cfg:small_cfg ~budget:10_000_000 prog
      in
      check_equiv (kernel ^ "-compile") compiled interp)
    [ "gcc"; "gobmk" ]

(* The full processor's footprint declarations pass the dynamic obligation
   check: every tracked access lands on a declared atom, and every [~total]
   rule really never rolls back a tracked write. *)
let test_smoke_compile_audit_clean () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let m =
    Machine.create ~paging:true ~compile_audit:true
      (Machine.Out_of_order Ooo.Config.riscyoo_b)
      prog
  in
  Alcotest.(check bool) "audit mode runs interpreted" false (Machine.compiled m);
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "compile-audited run completes" false o.Machine.timed_out

let suite =
  let t = Alcotest.test_case in
  [
    t "synthetic equivalence (3 modes)" `Quick test_synthetic_equivalence;
    t "late wakeup of a parked rule" `Quick test_late_wakeup;
    t "audit catches lying can_fire" `Quick test_audit_catches_liar;
    t "audit passes honest predicates" `Quick test_audit_passes_honest;
    t "audit checks watch sets (parking)" `Quick test_audit_checks_watches;
    t "fast path starves a liar (why audit exists)" `Quick test_fastpath_starves_liar;
    t "smoke equivalence (multi/shuffle/serial)" `Slow test_smoke_equivalence;
    t "spec kernel equivalence (gcc, gobmk)" `Slow test_spec_equivalence;
    t "stall equivalence (mcf riscyoo-b, quad-tso parsec)" `Slow test_stall_equivalence;
    t "smoke audit clean" `Quick test_smoke_audit_clean;
    t "smoke compiled == interpreted (multi/shuffle)" `Slow test_smoke_compile_equivalence;
    t "spec kernel compiled == interpreted (gcc, gobmk)" `Slow test_spec_compile_equivalence;
    t "smoke compile-audit clean" `Quick test_smoke_compile_audit_clean;
  ]
