(* Tests for the CMD kernel: guarded atomic rules, EHR port semantics,
   conflict detection, FIFO conflict matrices, scheduler serializability. *)

open Cmd

let rule = Rule.make

let test_reg_read_before_write () =
  let clk = Clock.create () in
  let r = Reg.create 1 in
  let seen = ref 0 in
  let rules =
    [
      rule "reader" (fun ctx -> seen := Reg.read ctx r);
      rule "writer" (fun ctx -> Reg.write ctx r 42);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "reader saw old value" 1 !seen;
  Alcotest.(check int) "write landed" 42 (Reg.peek r);
  ignore (Sim.cycle sim);
  Alcotest.(check int) "reader sees new value next cycle" 42 !seen

let test_reg_write_blocks_read () =
  (* writer listed first: the reader must not fire in the same cycle
     (read < write in the register's CM), but fires the next cycle. *)
  let clk = Clock.create () in
  let r = Reg.create 1 in
  let reads = ref [] in
  let wrote = ref false in
  let rules =
    [
      rule "writer" (fun ctx ->
          Kernel.guard ctx (not !wrote) "once";
          Reg.write ctx r 42;
          Kernel.on_abort ctx (fun () -> wrote := false);
          wrote := true);
      rule "reader" (fun ctx -> reads := Reg.read ctx r :: !reads);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "no same-cycle read after write" [] !reads;
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "read next cycle" [ 42 ] !reads

let test_double_write_conflict () =
  let clk = Clock.create () in
  let r = Reg.create 0 in
  let sim =
    Sim.create clk
      [
        rule "bad" (fun ctx ->
            Reg.write ctx r 1;
            Reg.write ctx r 2);
      ]
  in
  try
    ignore (Sim.cycle sim);
    Alcotest.fail "expected Conflict_error"
  with Kernel.Conflict_error _ -> ()

let test_ehr_forwarding () =
  (* w0 by an earlier rule is seen by r1 of a later rule in the same cycle. *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let seen = ref (-1) in
  let rules =
    [
      rule "w0" (fun ctx -> Ehr.write ctx e 0 7);
      rule "r1" (fun ctx -> seen := Ehr.read ctx e 1);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "r1 sees w0 same cycle" 7 !seen

let test_ehr_port_order_enforced () =
  (* r1 listed first, then w0: w0 after r1 requires port 0 >= 1 — conflict,
     so the writer stalls to the next cycle. *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let fired_both = ref false in
  let rules =
    [
      rule "r1" (fun ctx -> ignore (Ehr.read ctx e 1));
      rule "w0" (fun ctx ->
          Ehr.write ctx e 0 7;
          fired_both := true);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check bool) "w0 blocked after r1" false !fired_both

let test_guard_atomicity () =
  (* A rule that writes one register and then hits a failing guard must leave
     no trace of the write. *)
  let clk = Clock.create () in
  let a = Reg.create 0 and b = Reg.create 0 in
  let rules =
    [
      rule "partial" (fun ctx ->
          Reg.write ctx a 99;
          Kernel.guard ctx (Reg.read ctx b > 0) "b not ready");
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 3;
  Alcotest.(check int) "write rolled back" 0 (Reg.peek a)

let test_attempt_partial () =
  let clk = Clock.create () in
  let a = Reg.create 0 and b = Reg.create 0 in
  let rules =
    [
      rule "two_ways" (fun ctx ->
          let (_ : unit option) = Kernel.attempt ctx (fun ctx -> Reg.write ctx a 1) in
          let (_ : unit option) =
            Kernel.attempt ctx (fun ctx ->
                Reg.write ctx b 2;
                Kernel.guard ctx false "never")
          in
          ());
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "first way committed" 1 (Reg.peek a);
  Alcotest.(check int) "second way rolled back" 0 (Reg.peek b)

let test_config_reg_cf () =
  (* Reads are CF with the write: both orders fire in one cycle and reads see
     the cycle-start value. *)
  let clk = Clock.create () in
  let c = Config_reg.create clk 5 in
  let seen1 = ref 0 and seen2 = ref 0 in
  let rules =
    [
      rule "rd1" (fun ctx -> seen1 := Config_reg.read ctx c);
      rule "wr" (fun ctx -> Config_reg.write ctx c 9);
      rule "rd2" (fun ctx -> seen2 := Config_reg.read ctx c);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "read before write sees old" 5 !seen1;
  Alcotest.(check int) "read after write sees old (CF)" 5 !seen2;
  ignore (Sim.cycle sim);
  Alcotest.(check int) "next cycle sees new" 9 !seen1

let test_wire_bypass () =
  let clk = Clock.create () in
  let w = Wire.create clk () in
  let got = ref [] in
  let rules =
    [
      rule "set" (fun ctx -> Wire.set ctx w 3);
      rule "get" (fun ctx -> match Wire.get ctx w with Some v -> got := v :: !got | None -> ());
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "wire carries within cycle" [ 3 ] !got;
  let clk2 = Clock.create () in
  let w2 = Wire.create clk2 () in
  let got2 = ref 0 in
  let sim2 =
    Sim.create clk2
      [ rule "get" (fun ctx -> match Wire.get ctx w2 with Some _ -> incr got2 | None -> ()) ]
  in
  Sim.run sim2 2;
  Alcotest.(check int) "wire empty when never set" 0 !got2

(* --- FIFO conflict matrices ------------------------------------------- *)

let test_pipeline_fifo_full_deq_enq () =
  (* capacity 1, kept full; deq listed before enq: both fire every cycle. *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~capacity:1 () in
  let out = ref [] in
  let next = ref 100 in
  let rules =
    [
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
      rule "enq" (fun ctx ->
          Fifo.enq ctx q !next;
          let old = !next in
          Kernel.on_abort ctx (fun () -> next := old);
          incr next);
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 5;
  Alcotest.(check (list int)) "pipeline sustains full throughput" [ 103; 102; 101; 100 ]
    (List.filteri (fun i _ -> i < 4) !out)

let test_pipeline_fifo_no_passthrough () =
  (* empty pipeline FIFO: a deq cannot observe the same cycle's enq. *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~capacity:2 () in
  let out = ref [] in
  let enqd = ref false in
  let rules =
    [
      rule "enq" (fun ctx ->
          Kernel.guard ctx (not !enqd) "once";
          Fifo.enq ctx q 1;
          Kernel.on_abort ctx (fun () -> enqd := false);
          enqd := true);
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "no same-cycle passthrough" [] !out;
  ignore (Sim.cycle sim);
  Alcotest.(check bool) "dequeued next cycle" true (List.mem 1 !out)

let test_bypass_fifo_passthrough () =
  let clk = Clock.create () in
  let q = Fifo.bypass ~capacity:1 () in
  let out = ref [] in
  let rules =
    [
      rule "enq" (fun ctx -> Fifo.enq ctx q 1);
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "same-cycle passthrough" [ 1 ] !out

let test_cf_fifo_either_order () =
  let clk = Clock.create () in
  let q = Fifo.cf clk ~capacity:4 () in
  let out = ref [] in
  let next = ref 0 in
  let rules =
    [
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
      rule "enq" (fun ctx ->
          Fifo.enq ctx q !next;
          let old = !next in
          Kernel.on_abort ctx (fun () -> next := old);
          incr next);
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 10;
  let got = List.rev !out in
  Alcotest.(check (list int)) "FIFO order preserved" (List.init (List.length got) Fun.id) got;
  Alcotest.(check bool) "some elements flowed" true (List.length got >= 5)

let test_fifo_clear () =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~capacity:4 () in
  let ctx = Kernel.make_ctx clk in
  Fifo.enq ctx q 1;
  Clock.tick clk;
  let ctx = Kernel.make_ctx clk in
  Fifo.enq ctx q 2;
  Fifo.clear ctx q;
  Alcotest.(check int) "cleared" 0 (Fifo.peek_size q);
  Clock.tick clk;
  let ctx = Kernel.make_ctx clk in
  Fifo.enq ctx q 3;
  Alcotest.(check (list int)) "usable after clear" [ 3 ] (Fifo.peek_list q)

let test_cf_fifo_multiport () =
  (* several enqueues and dequeues inside one atomic rule: the k-th op of a
     cycle uses EHR port k, so batches compose (the L2's unconditional
     response drain depends on this) *)
  let clk = Clock.create () in
  let q = Fifo.cf clk ~capacity:8 () in
  let drained = ref [] in
  let phase = ref `Fill in
  let rules =
    [
      rule "burst" (fun ctx ->
          match !phase with
          | `Fill ->
            for i = 1 to 5 do
              Fifo.enq ctx q i
            done;
            Kernel.on_abort ctx (fun () -> phase := `Fill);
            phase := `Drain
          | `Drain ->
            let rec go () =
              match Kernel.attempt ctx (fun ctx -> Fifo.deq ctx q) with
              | Some v ->
                drained := v :: !drained;
                go ()
              | None -> ()
            in
            go ();
            Kernel.on_abort ctx (fun () -> phase := `Drain);
            phase := `Done
          | `Done -> raise (Kernel.Guard_fail "done"));
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 3;
  Alcotest.(check (list int)) "burst drained in order" [ 1; 2; 3; 4; 5 ] (List.rev !drained)

(* --- Scheduler properties ---------------------------------------------- *)

(* Producer/consumer chain through a FIFO: under every scheduler mode, the
   consumer must observe exactly the sequence 0,1,2,... (no loss, duplication
   or reordering) — the paper's "behaviour equals one-rule-at-a-time". *)
let chain_property mode kind =
  let clk = Clock.create () in
  let cap = 3 in
  let q =
    match kind with
    | `P -> Fifo.pipeline ~capacity:cap ()
    | `B -> Fifo.bypass ~capacity:cap ()
    | `C -> Fifo.cf clk ~capacity:cap ()
  in
  let produced = ref 0 and consumed = ref [] in
  let rules =
    [
      rule "produce" (fun ctx ->
          Kernel.guard ctx (!produced < 50) "done";
          Fifo.enq ctx q !produced;
          let old = !produced in
          Kernel.on_abort ctx (fun () -> produced := old);
          incr produced);
      rule "consume" (fun ctx -> consumed := Fifo.deq ctx q :: !consumed);
    ]
  in
  let sim = Sim.create ~mode clk rules in
  Sim.run sim 500;
  List.rev !consumed = List.init 50 Fun.id

let test_chain_all_modes () =
  List.iter
    (fun (mname, mode) ->
      List.iter
        (fun (kname, kind) ->
          Alcotest.(check bool)
            (Printf.sprintf "chain intact: %s fifo under %s" kname mname)
            true (chain_property mode kind))
        [ ("pipeline", `P); ("bypass", `B); ("cf", `C) ])
    [ ("Multi", Sim.Multi); ("One_per_cycle", Sim.One_per_cycle); ("Shuffle", Sim.Shuffle 7) ]

(* qcheck: tokens moved across two FIFOs under random schedules are
   conserved. *)
let qcheck_token_conservation =
  QCheck.Test.make ~name:"token conservation under random schedules" ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, extra) ->
      let clk = Clock.create () in
      let q1 = Fifo.cf clk ~capacity:(2 + extra) () in
      let q2 = Fifo.pipeline ~capacity:(2 + extra) () in
      let src = ref 40 and sink = ref 0 in
      let rules =
        [
          rule "inject" (fun ctx ->
              Kernel.guard ctx (!src > 0) "spent";
              Fifo.enq ctx q1 1;
              let old = !src in
              Kernel.on_abort ctx (fun () -> src := old);
              decr src);
          rule "move" (fun ctx -> Fifo.enq ctx q2 (Fifo.deq ctx q1));
          rule "drain" (fun ctx ->
              let v = Fifo.deq ctx q2 in
              let old = !sink in
              Kernel.on_abort ctx (fun () -> sink := old);
              sink := !sink + v);
        ]
      in
      let sim = Sim.create ~mode:(Sim.Shuffle seed) clk rules in
      Sim.run sim 400;
      !sink = 40 && Fifo.peek_size q1 = 0 && Fifo.peek_size q2 = 0)

(* qcheck: EHR port semantics — writes at distinct ports plus one read; the
   read (scheduled last) fires iff no earlier write used a port >= its own,
   and then sees exactly the last write at a lower port. *)
let qcheck_ehr_ports =
  QCheck.Test.make ~name:"EHR read sees writes at lower ports only" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 5) (int_bound 6)) (int_bound 7))
    (fun (wports, rport) ->
      let wports = List.sort_uniq compare wports in
      let clk = Clock.create () in
      let e = Ehr.create (-1) in
      let seen = ref None in
      let rules =
        List.map (fun p -> rule (Printf.sprintf "w%d" p) (fun ctx -> Ehr.write ctx e p p)) wports
        @ [ rule "r" (fun ctx -> seen := Some (Ehr.read ctx e rport)) ]
      in
      let sim = Sim.create clk rules in
      ignore (Sim.cycle sim);
      let lower = List.filter (fun p -> p < rport) wports in
      let blocked = List.exists (fun p -> p >= rport) wports in
      match !seen with
      | None -> blocked
      | Some v ->
        (not blocked)
        && (match List.rev lower with [] -> v = -1 | last :: _ -> v = last))

(* qcheck: the untracked probes agree with the tracked guards. Random
   enq/deq/first/clear steps, each its own transaction, interleaved with
   cycle boundaries; before every step [peek_room], [peek_ready] and
   [peek_head] must equal what [can_enq], [can_deq] and [first] compute at
   that point (a probe transaction is always rolled back, so it leaves no
   port bookkeeping behind; a tracked probe that hits a port conflict gives
   no verdict). *)
let qcheck_fifo_probes =
  QCheck.Test.make ~name:"fifo probes equal the tracked guards" ~count:300
    QCheck.(
      triple (int_bound 2) (int_bound 3)
        (list_of_size Gen.(1 -- 80) (pair (int_bound 5) small_nat)))
    (fun (kind, extra, ops) ->
      let clk = Clock.create () in
      let capacity = 1 + extra in
      let q =
        match kind with
        | 0 -> Fifo.pipeline ~capacity ()
        | 1 -> Fifo.bypass ~capacity ()
        | _ -> Fifo.cf clk ~capacity ()
      in
      let ctx = Kernel.make_ctx clk in
      let tracked f =
        let out = ref `Conflict in
        ignore
          (Kernel.attempt ctx (fun ctx ->
               (match f ctx with
               | v -> out := `Val v
               | exception Kernel.Guard_fail _ -> out := `Guard);
               raise (Kernel.Guard_fail "probe only")));
        !out
      in
      let agrees () =
        (match tracked (fun ctx -> Fifo.can_enq ctx q) with
        | `Val b -> b = Fifo.peek_room q
        | `Guard | `Conflict -> true)
        && (match tracked (fun ctx -> Fifo.can_deq ctx q) with
           | `Val b -> b = Fifo.peek_ready q
           | `Guard | `Conflict -> true)
        &&
        match tracked (fun ctx -> Fifo.first ctx q) with
        | `Val v -> Fifo.peek_head q = Some v
        | `Guard -> Fifo.peek_head q = None
        | `Conflict -> true
      in
      let step (op, v) =
        match op with
        | 5 -> Clock.tick clk
        | _ ->
          let act ctx =
            match op with
            | 0 | 1 -> Fifo.enq ctx q v
            | 2 -> ignore (Fifo.deq ctx q)
            | 3 -> ignore (Fifo.first ctx q)
            | _ -> Fifo.clear ctx q
          in
          if Kernel.attempt ctx act <> None then Kernel.reset_ctx ctx
      in
      List.for_all
        (fun op ->
          let ok = agrees () in
          step op;
          ok)
        ops
      && agrees ())

let qcheck_conflict_algebra =
  QCheck.Test.make ~name:"conflict algebra: join/flip laws" ~count:200
    QCheck.(pair (int_bound 3) (int_bound 3))
    (fun (a, b) ->
      let o = function 0 -> Conflict.C | 1 -> Conflict.Lt | 2 -> Conflict.Gt | _ -> Conflict.Cf in
      let a = o a and b = o b in
      Conflict.flip (Conflict.flip a) = a
      && Conflict.join a b = Conflict.join b a
      && Conflict.join a Conflict.Cf = a
      && Conflict.flip (Conflict.join a b) = Conflict.join (Conflict.flip a) (Conflict.flip b))

let test_ehr_order_matrix () =
  let open Conflict in
  Alcotest.(check string) "r0 vs w0" "<" (to_string (ehr_order (false, 0) (true, 0)));
  Alcotest.(check string) "w0 vs r0" ">" (to_string (ehr_order (true, 0) (false, 0)));
  Alcotest.(check string) "w0 vs r1" "<" (to_string (ehr_order (true, 0) (false, 1)));
  Alcotest.(check string) "w0 vs w0" "C" (to_string (ehr_order (true, 0) (true, 0)));
  Alcotest.(check string) "w0 vs w1" "<" (to_string (ehr_order (true, 0) (true, 1)));
  Alcotest.(check string) "r0 vs r5" "CF" (to_string (ehr_order (false, 0) (false, 5)))

let test_run_until () =
  let clk = Clock.create () in
  let c = Reg.create 0 in
  let rules = [ rule "inc" (fun ctx -> Reg.modify ctx c succ) ] in
  let sim = Sim.create clk rules in
  (match Sim.run_until sim ~max_cycles:100 (fun () -> Reg.peek c >= 10) with
  | `Done n -> Alcotest.(check int) "took 10 cycles" 10 n
  | `Timeout _ -> Alcotest.fail "timeout");
  match Sim.run_until sim ~max_cycles:5 (fun () -> Reg.peek c >= 1000) with
  | `Done _ -> Alcotest.fail "should time out"
  | `Timeout n -> Alcotest.(check int) "spent the whole budget" 5 n

(* Two sims built identically with the same Shuffle seed must produce the
   same trace (per-cycle fire counts and final state): campaigns and
   schedule-robustness tests rely on this determinism. *)
let test_shuffle_deterministic () =
  let build () =
    let clk = Clock.create () in
    let a = Reg.create 0 and b = Reg.create 0 and c = Reg.create 0 in
    let rules =
      [
        rule "inc-a" (fun ctx -> Reg.modify ctx a succ);
        rule "a-to-b" (fun ctx -> Reg.write ctx b (Reg.read ctx a * 2));
        rule "b-to-c" (fun ctx -> Reg.write ctx c (Reg.read ctx b + Reg.read ctx c));
        rule "gated" (fun ctx ->
            Kernel.guard ctx (Reg.read ctx a mod 3 = 0) "mod3";
            Reg.modify ctx c succ);
      ]
    in
    let sim = Sim.create ~mode:(Sim.Shuffle 42) clk rules in
    let trace = List.init 50 (fun _ -> Sim.cycle sim) in
    (trace, Reg.peek a, Reg.peek b, Reg.peek c)
  in
  let t1 = build () and t2 = build () in
  Alcotest.(check bool) "identical traces under one seed" true (t1 = t2)

let test_one_per_cycle_fairness () =
  (* three always-ready rules, 9 cycles: the rotating start offset must give
     each exactly 3 firings (a fixed order would starve the later ones) *)
  let clk = Clock.create () in
  let counts = Array.make 3 0 in
  let rules =
    List.init 3 (fun i -> rule (Printf.sprintf "r%d" i) (fun _ -> counts.(i) <- counts.(i) + 1))
  in
  let sim = Sim.create ~mode:Sim.One_per_cycle clk rules in
  Sim.run sim 9;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "rule %d fired 3 times" i) 3 c)
    counts

let test_watchdog_trip_and_reset () =
  let clk = Clock.create () in
  let budget = ref 5 in
  let rules =
    [
      rule "pump" (fun ctx ->
          Kernel.guard ctx (!budget > 0) "dry";
          Mut.field ctx ~get:(fun () -> !budget) ~set:(fun v -> budget := v) (!budget - 1));
    ]
  in
  let sim = Sim.create clk rules in
  let wd = Verif.Watchdog.attach ~history:8 ~limit:8 sim in
  (* fires 5 cycles, then guard-fails forever: idle streak starts at cycle 5
     and the trip must come exactly 8 idle cycles later *)
  (match Sim.run_until sim ~max_cycles:100 (fun () -> false) with
  | `Done _ | `Timeout _ -> Alcotest.fail "watchdog never tripped"
  | exception Verif.Watchdog.Trip info ->
    Alcotest.(check int) "tripped after 5 live + 8 idle cycles" 13 info.at_cycle;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "report names the starved rule" true (contains info.report "pump");
    Alcotest.(check bool) "report carries guard-fail counts" true
      (contains info.report "guard-failed"));
  Alcotest.(check int) "one trip recorded" 1 (Verif.Watchdog.trips wd);
  (* catching re-arms a full window: the next trip takes 8 more cycles *)
  (match Sim.run_until sim ~max_cycles:100 (fun () -> false) with
  | `Done _ | `Timeout _ -> Alcotest.fail "watchdog did not re-trip"
  | exception Verif.Watchdog.Trip info ->
    Alcotest.(check int) "re-tripped a full window later" 21 info.at_cycle);
  Alcotest.(check int) "two trips recorded" 2 (Verif.Watchdog.trips wd)

let test_inject_registry () =
  (* disarmed: registration is a no-op *)
  Inject.disarm ();
  let r0 = Reg.create 7 in
  ignore r0;
  Alcotest.(check int) "disarmed registers nothing" 0 (Inject.n_sites ());
  (* armed: every Reg/Ehr/Fifo cell becomes a site, and firing a bit flips
     the live value *)
  Inject.arm ();
  let r = Reg.create ~name:"target" 0 in
  let sites = Inject.sites () in
  Inject.disarm ();
  Alcotest.(check bool) "site registered" true (Array.length sites >= 1);
  let site =
    match Array.to_list sites |> List.find_opt (fun s -> s.Inject.name = "target") with
    | Some s -> s
    | None -> Alcotest.fail "named site missing"
  in
  Alcotest.(check bool) "flip applied" true (Inject.fire site 3);
  Alcotest.(check int) "bit 3 flipped" 8 (Reg.peek r);
  Alcotest.(check bool) "flip back" true (Inject.fire site 3);
  Alcotest.(check int) "restored" 0 (Reg.peek r)

let suite =
  let t = Alcotest.test_case in
  [
    t "reg: read < write" `Quick test_reg_read_before_write;
    t "reg: write blocks later read" `Quick test_reg_write_blocks_read;
    t "reg: double write is a design error" `Quick test_double_write_conflict;
    t "ehr: forwarding through ports" `Quick test_ehr_forwarding;
    t "ehr: port order enforced" `Quick test_ehr_port_order_enforced;
    t "guard failure rolls back" `Quick test_guard_atomicity;
    t "attempt: partial ways" `Quick test_attempt_partial;
    t "config reg: read CF write" `Quick test_config_reg_cf;
    t "wire: intra-cycle bypass" `Quick test_wire_bypass;
    t "pipeline fifo: deq<enq when full" `Quick test_pipeline_fifo_full_deq_enq;
    t "pipeline fifo: no passthrough" `Quick test_pipeline_fifo_no_passthrough;
    t "bypass fifo: passthrough" `Quick test_bypass_fifo_passthrough;
    t "cf fifo: either order" `Quick test_cf_fifo_either_order;
    t "fifo: clear" `Quick test_fifo_clear;
    t "cf fifo: multi-ported bursts" `Quick test_cf_fifo_multiport;
    t "chain intact under all modes" `Quick test_chain_all_modes;
    t "conflict: EHR order matrix" `Quick test_ehr_order_matrix;
    t "sim: run_until" `Quick test_run_until;
    t "sim: shuffle deterministic under seed" `Quick test_shuffle_deterministic;
    t "sim: one-per-cycle round-robin fairness" `Quick test_one_per_cycle_fairness;
    t "watchdog: trip, report, re-arm" `Quick test_watchdog_trip_and_reset;
    t "inject: registry arm/fire/disarm" `Quick test_inject_registry;
    QCheck_alcotest.to_alcotest qcheck_token_conservation;
    QCheck_alcotest.to_alcotest qcheck_ehr_ports;
    QCheck_alcotest.to_alcotest qcheck_conflict_algebra;
    QCheck_alcotest.to_alcotest qcheck_fifo_probes;
  ]
