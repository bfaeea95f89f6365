type mode = Multi | One_per_cycle | Shuffle of int

exception Audit_fail of string
exception Partition_error of string

(* ---------------------------------------------------------------------- *)
(* Domain pool                                                            *)
(*                                                                        *)
(* One process-global pool, grown lazily and shared by every Sim so that  *)
(* repeated Machine builds (tests, fault campaigns) do not spawn domains  *)
(* per machine. Workers block on a condition variable between cycles: on  *)
(* few-core hosts a spinning barrier would fight the partitions for the   *)
(* CPU, and a blocked worker costs nothing. The mutex acquire/release     *)
(* around every task grab and completion also provides the happens-before *)
(* edges that make each partition's writes visible to the main domain at  *)
(* the barrier (and the main domain's inter-cycle writes visible to the   *)
(* partitions at dispatch).                                               *)
(* ---------------------------------------------------------------------- *)

module Pool = struct
  type t = {
    m : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable tasks : (unit -> unit) array;
    mutable next : int; (* index of the next unclaimed task *)
    mutable remaining : int; (* tasks not yet completed *)
    mutable max_helpers : int; (* workers allowed to participate this run *)
    mutable shutdown : bool;
    mutable nworkers : int;
    mutable domains : unit Domain.t list;
  }

  let p =
    {
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      tasks = [||];
      next = 0;
      remaining = 0;
      max_helpers = 0;
      shutdown = false;
      nworkers = 0;
      domains = [];
    }

  let finish_task () =
    Mutex.lock p.m;
    p.remaining <- p.remaining - 1;
    if p.remaining = 0 then Condition.signal p.done_cv;
    Mutex.unlock p.m

  (* Tasks trap their own exceptions (see [run_part]); the catch-all here
     only guards against a raising task deadlocking the barrier. The array
     is re-read and bounds-checked because [shutdown] may clear it between
     a worker claiming an index and executing it. *)
  let exec i =
    let ts = p.tasks in
    if i < Array.length ts then try ts.(i) () with _ -> ()

  let rec worker id =
    Mutex.lock p.m;
    while
      (not p.shutdown)
      && (id >= p.max_helpers || p.next >= Array.length p.tasks)
    do
      Condition.wait p.work_cv p.m
    done;
    if p.shutdown then Mutex.unlock p.m
    else begin
      let i = p.next in
      p.next <- i + 1;
      Mutex.unlock p.m;
      exec i;
      finish_task ();
      worker id
    end

  let shutdown_registered = ref false

  (* Idempotent and reentrancy-safe: the CAS makes a second call — from a
     signal handler interrupting the first, from [at_exit] racing an
     explicit call, or from plain double-shutdown — return immediately
     instead of double-joining the domains or deadlocking on [p.m].
     Signal handlers should still prefer setting a flag and letting the
     main loop call this (see [riscyoo farm]): a handler that interrupts
     the pool mid-cycle would block in [Domain.join] until the cycle's
     tasks drain. *)
  let in_shutdown = Atomic.make false

  let shutdown () =
    if Atomic.compare_and_set in_shutdown false true then
      Fun.protect
        ~finally:(fun () -> Atomic.set in_shutdown false)
        (fun () ->
          Mutex.lock p.m;
          p.shutdown <- true;
          (* Drop any queued work with the workers. A shutdown taken between
             runs is the common case and the queue is already empty; but a
             shutdown that interrupts a run (signal handlers) used to leave
             [tasks]/[next]/[remaining] populated, and the first worker of
             the NEXT generation would claim and execute a stale task — a
             cached per-cycle step closure of a machine that may since have
             been mutated or discarded. Clearing the queue here makes a
             restarted pool start from a blank slate; [max_helpers] is
             zeroed so freshly spawned workers stay parked until a run
             hands them work. *)
          p.tasks <- [||];
          p.next <- 0;
          p.remaining <- 0;
          p.max_helpers <- 0;
          Condition.broadcast p.work_cv;
          Mutex.unlock p.m;
          List.iter Domain.join p.domains;
          p.domains <- [];
          p.nworkers <- 0;
          p.shutdown <- false)

  let ensure_workers n =
    if not !shutdown_registered then begin
      shutdown_registered := true;
      at_exit shutdown
    end;
    while p.nworkers < n do
      let id = p.nworkers in
      p.nworkers <- p.nworkers + 1;
      p.domains <- Domain.spawn (fun () -> worker id) :: p.domains
    done

  (* Run every task to completion; the calling (main) domain participates,
     plus at most [helpers] pool workers. *)
  let run ~helpers tasks =
    ensure_workers helpers;
    Mutex.lock p.m;
    p.tasks <- tasks;
    p.next <- 0;
    p.remaining <- Array.length tasks;
    p.max_helpers <- helpers;
    if helpers > 0 then Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    let continue = ref true in
    while !continue do
      Mutex.lock p.m;
      if p.next < Array.length p.tasks then begin
        let i = p.next in
        p.next <- i + 1;
        Mutex.unlock p.m;
        exec i;
        finish_task ()
      end
      else begin
        while p.remaining > 0 do
          Condition.wait p.done_cv p.m
        done;
        p.tasks <- [||] (* don't pin dead sims via task closures *);
        continue := false;
        Mutex.unlock p.m
      end
    done
end

(* ---------------------------------------------------------------------- *)

(* One parallel partition: its rules in schedule order, a private
   transaction context (own undo arena, stats shard, partition id), and the
   per-cycle results its domain publishes at the barrier. *)
type part = {
  pid : int;
  pctx : Kernel.ctx;
  porder : Rule.t array; (* refilled in place in Shuffle mode *)
  mutable pfired : int;
  mutable pexn : exn option;
  pfires : int array; (* epoch mode: fires per local window cycle *)
}

(* One cross-partition boundary FIFO under epoch execution. [eb_fwd] says
   the partition owns the enq side (requests flowing into the uncore);
   otherwise the partition owns the deq side (responses flowing out).
   During a partition's free-run its domain records the own-side total
   after every local cycle into [eb_traj]; the uncore replay then installs
   the value as the other side's cycle-start snapshot, cycle by cycle, so
   the uncore sees each message appear at exactly the cycle it was enqueued
   (and each slot freed at exactly the cycle it was dequeued). *)
type ebnd = {
  eb_ops : Boundary.ops;
  eb_fwd : bool;
  eb_pid : int; (* the non-uncore side's partition *)
  eb_traj : int array;
  mutable eb_start : int; (* own-side total at window start *)
  mutable eb_vis : int; (* visibility value currently installed *)
}

type t = {
  clk : Clock.t;
  rule_list : Rule.t list;
  order : Rule.t array; (* attempt order; permuted in Shuffle mode *)
  mode : mode;
  mutable rng : Random.State.t option; (* mutable for [reseed] and restore *)
  ctx : Kernel.ctx; (* one reusable transaction context for all attempts *)
  fastpath : bool; (* consult can_fire / park on watches *)
  audit : bool; (* never skip; dynamically check the can_fire contract *)
  jobs : int;
  paudit : bool; (* serial execution + per-partition cell-touch audit *)
  par : bool; (* partitioned parallel execution active *)
  stats : Stats.t option; (* merged at the cycle barrier when [par] *)
  parts : part array; (* parallel partitions (pid >= 1), ascending *)
  order_of_pid : Rule.t array array; (* pid -> that partition's order *)
  fill : int array; (* scratch fill pointers for Shuffle refills *)
  mutable tasks : (unit -> unit) array; (* one per part, reused *)
  (* Epoch execution (lookahead windows). [elen] > 1 activates the window
     engine: partitions free-run [elen] cycles between barriers, then the
     uncore replays the window cycle-by-cycle against the recorded boundary
     trajectories. [epar] adds pool dispatch; with it off (jobs 1, or the
     partition audit) the same engine runs inline in pid order, which is
     what makes results bit-identical at any [--jobs]. *)
  elen : int;
  epar : bool;
  ebnds : ebnd array; (* all cross-partition boundaries *)
  ebnds_of_pid : ebnd array array; (* boundaries owned by each partition *)
  gorders : Rule.t array array; (* per window cycle: global order *)
  eorders : Rule.t array array array; (* per window cycle: per-pid orders *)
  mutable efmask : int array; (* by rid: bitmask of window cycles fired *)
  mutable n_cycles : int;
  mutable fires : int;
  mutable rr : int; (* rotating start offset for One_per_cycle fairness *)
  (* Schedule compilation (serial Multi/Shuffle with the fast path only).
     [crunners] holds one specialized per-rule step closure per rule,
     indexed by [Rule.rid]; empty = interpreted. [cfired]/[cnames] are the
     compiled cycle's scratch accumulators (the closures write them
     directly instead of threading refs). *)
  caudit : bool; (* compile-audit: interpreted run verifying declarations *)
  mutable crunners : (unit -> unit) array;
  mutable cfired : int;
  mutable cnames : string list;
  mutable cstats : int * int * int; (* rules in tier A / tier B / interpreted *)
  mutable cwhy : string; (* one-line compile status for reports *)
  mutable creport : string; (* tier table + conflict-matrix dump *)
  mutable cchk_free : bool array; (* by rid; consulted by the compile audit *)
  mutable cfp_hooks : (Kernel.cell -> write:bool -> unit) option array; (* by rid *)
  (* observability (verification layer): a ring buffer of which rules fired
     each cycle, monitors that watch liveness, and post-cycle checks *)
  mutable history : (int * string list) array; (* (cycle, fired rule names) *)
  mutable history_depth : int;
  mutable monitors_rev : (t -> int -> unit) list; (* newest-first *)
  mutable post_cycle_rev : (int -> unit) list; (* newest-first *)
  mutable hooks_cache : (int -> int -> unit) array option;
      (* post-cycle checks then monitors, registration order, as one array *)
  (* rule-level trace sink (observability layer). A flat bool guards every
     call site so the disabled cost is one load+branch per fire; the callback
     runs on whichever domain fired the rule, so a sink must write only
     per-partition state (see lib/obs). Skipped-but-vacuous rules are traced
     exactly like real fires, mirroring the fire-count accounting, so traces
     are bit-identical with the fast path on or off. *)
  mutable rtrace_on : bool;
  mutable rtrace : Rule.t -> int -> unit;
}

(* Static partition checker: prove, from the declared boundary tokens and
   watch sets, that no primitive is reachable from two different partitions.
   Rules declare the boundary primitives they touch ([Rule.make ~touches]);
   partition-private state is implicit and backstopped by the dynamic
   [partition_audit]. A conflict-free FIFO contributes one primitive per
   side, so its enq and deq halves may live in different partitions; a ring
   FIFO is a single primitive and is confined to one partition. *)
let check_partitions rules =
  let owner : (int, int * string * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Rule.t) ->
      Array.iter
        (fun tk ->
          let prim = Partition.prim tk in
          match Hashtbl.find_opt owner prim with
          | None -> Hashtbl.add owner prim (r.part, r.name, Partition.name tk)
          | Some (p0, r0, tk0) ->
            if p0 <> r.part then
              raise
                (Partition_error
                   (Printf.sprintf
                      "primitive %s is touched from partition %d (rule %s) and partition %d (rule %s, token %s); only the two sides of a conflict-free FIFO may cross a partition boundary"
                      tk0 p0 r0 r.part r.name (Partition.name tk))))
        r.touches)
    rules;
  List.iter
    (fun (r : Rule.t) ->
      if r.part > 0 then
        Array.iter
          (fun s ->
            let o = Wakeup.owner s in
            if o <> r.part && o <> Partition.uncore then
              raise
                (Partition_error
                   (Printf.sprintf
                      "rule %s (partition %d) watches a signal owned by partition %d; parallel rules may only watch their own partition's signals (or the uncore's, which are quiescent during the parallel phase)"
                      r.name r.part o)))
          r.watches)
    rules;
  owner

(* Classify the boundary FIFOs the elaboration registered against the
   rule-ownership table: a FIFO whose sides are claimed from two different
   partitions is a cross-partition boundary. Epoch execution requires one
   side to be the uncore (partition-to-partition traffic would need a
   second synchronization tier), and requires the FIFO to have been
   constructed in the non-uncore partition's scope so its cycle-end
   snapshot hook runs during that partition's free-run. An unclaimed side
   (no rule declares the token) is treated as uncore: only harness code
   outside the rule set can touch it, and that runs at the barrier. *)
let classify_boundaries owner boundaries =
  List.filter_map
    (fun (o : Boundary.ops) ->
      let part_of tk =
        match Hashtbl.find_opt owner tk with Some (p, _, _) -> p | None -> Partition.uncore
      in
      let pe = part_of o.Boundary.bo_enq_tk and pd = part_of o.Boundary.bo_deq_tk in
      if pe = pd then None
      else if pe <> Partition.uncore && pd <> Partition.uncore then
        raise
          (Partition_error
             (Printf.sprintf
                "epoch mode: boundary FIFO %s links partitions %d and %d; every cross-partition boundary must touch the uncore"
                o.Boundary.bo_name pe pd))
      else begin
        let fwd = pe <> Partition.uncore in
        let pid = if fwd then pe else pd in
        if o.Boundary.bo_ctor_part <> pid then
          raise
            (Partition_error
               (Printf.sprintf
                  "epoch mode: boundary FIFO %s was constructed in partition %d but its partition-side lives in partition %d; construct boundary FIFOs inside the non-uncore partition's scope so their cycle hook free-runs with it"
                  o.Boundary.bo_name o.Boundary.bo_ctor_part pid));
        Some (o, fwd, pid)
      end)
    boundaries

(* Refill per-partition order arrays from a (possibly just shuffled) global
   order, one pass, preserving relative order — so the parallel schedule
   permutes exactly like the serial one. *)
let refill_orders t (src : Rule.t array) (dst : Rule.t array array) =
  Array.fill t.fill 0 (Array.length t.fill) 0;
  for i = 0 to Array.length src - 1 do
    let r = Array.unsafe_get src i in
    let pid = r.Rule.part in
    let k = t.fill.(pid) in
    dst.(pid).(k) <- r;
    t.fill.(pid) <- k + 1
  done

let refill_partition_orders t = refill_orders t t.order t.order_of_pid

(* ---------------------------------------------------------------------- *)
(* Schedule compilation                                                   *)
(*                                                                        *)
(* At elaboration, derive the pairwise conflict matrix from the rules'    *)
(* declared footprints and classify every rule:                           *)
(*                                                                        *)
(*   tier A  — conflict-admissible in the static order AND declared       *)
(*             [~total]: runs with neither port bookkeeping nor undo      *)
(*             logging (a wrong totality claim is a hard error, not a     *)
(*             silent divergence — see [Kernel.attempt]);                 *)
(*   tier B  — conflict-admissible: port bookkeeping off, undo log on     *)
(*             (guard aborts still roll back);                            *)
(*   interp  — everything else falls back to the fully checked path.      *)
(*                                                                       *)
(* "Conflict-admissible" means: the rule's own atoms admit an execution   *)
(* order, and every pair it forms with another rule is admissible in the  *)
(* schedule's order (canonical order under Multi; both orders — i.e. CF — *)
(* under Shuffle). Any pair that could ever [Retry] keeps BOTH endpoints  *)
(* checked, so the per-cell summaries that checked rules consult remain   *)
(* consistent even though unchecked rules stop contributing to them.      *)
(* A single rule without a footprint disables compilation for the whole   *)
(* design: an opaque body may touch any primitive.                        *)
(* ---------------------------------------------------------------------- *)

type analysis = {
  an_chk_free : bool array;
  an_reasons : string array; (* why a rule stays interpreted; "" otherwise *)
  an_rel : Conflict.order array array;
  an_opaque : string option; (* first footprint-less rule, if any *)
}

let analyze_schedule ~shuffled (rules_arr : Rule.t array) =
  let n = Array.length rules_arr in
  let opaque = ref None in
  Array.iter
    (fun (r : Rule.t) -> if r.Rule.fp = None && !opaque = None then opaque := Some r.Rule.name)
    rules_arr;
  match !opaque with
  | Some _ as o ->
    {
      an_chk_free = Array.make n false;
      an_reasons = Array.make n "opaque footprint in design";
      an_rel = [||];
      an_opaque = o;
    }
  | None ->
    let fp = Array.map (fun (r : Rule.t) -> Option.get r.Rule.fp) rules_arr in
    let relm = Array.make_matrix n n Conflict.Cf in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let r = Conflict.rel fp.(i) fp.(j) in
        relm.(i).(j) <- r;
        relm.(j).(i) <- Conflict.flip r
      done
    done;
    let chk_free = Array.make n true in
    let reasons = Array.make n "" in
    for i = 0 to n - 1 do
      (match Conflict.self_compatible fp.(i) with
      | Some (a, b) ->
        chk_free.(i) <- false;
        reasons.(i) <-
          Printf.sprintf "own atoms %s and %s conflict" (Conflict.atom_name a)
            (Conflict.atom_name b)
      | None -> ());
      let j = ref 0 in
      while chk_free.(i) && !j < n do
        if !j <> i then begin
          let ok =
            if shuffled then relm.(i).(!j) = Conflict.Cf
            else if i < !j then Conflict.allows_before relm.(i).(!j)
            else Conflict.allows_before relm.(!j).(i)
          in
          if not ok then begin
            chk_free.(i) <- false;
            reasons.(i) <-
              Printf.sprintf "%s %s in schedule order vs %s"
                (Conflict.to_string relm.(i).(!j))
                (if shuffled then "(needs CF under Shuffle)" else "inadmissible")
                rules_arr.(!j).Rule.name
          end
        end;
        incr j
      done
    done;
    { an_chk_free = chk_free; an_reasons = reasons; an_rel = relm; an_opaque = None }

let render_compile_report (rules_arr : Rule.t array) an ~tier =
  let b = Buffer.create 4096 in
  Buffer.add_string b "rule tiers (A = unchecked+unlogged, B = unchecked, I = interpreted):\n";
  Array.iteri
    (fun i (r : Rule.t) ->
      Buffer.add_string b
        (Printf.sprintf "  %c %-28s%s\n" (tier i)
           r.Rule.name
           (if an.an_reasons.(i) = "" then "" else "  [" ^ an.an_reasons.(i) ^ "]")))
    rules_arr;
  if an.an_rel <> [||] then begin
    let n = Array.length rules_arr in
    Buffer.add_string b "\nconflict matrix (row rel column, schedule order = listing order):\n";
    Buffer.add_string b "      ";
    for j = 0 to n - 1 do
      Buffer.add_string b (Printf.sprintf "%3d" j)
    done;
    Buffer.add_char b '\n';
    for i = 0 to n - 1 do
      Buffer.add_string b (Printf.sprintf "  %3d " i);
      for j = 0 to n - 1 do
        Buffer.add_string b
          (Printf.sprintf "%3s" (if i = j then "." else Conflict.to_string an.an_rel.(i).(j)))
      done;
      Buffer.add_string b (Printf.sprintf "  %s\n" rules_arr.(i).Rule.name)
    done
  end;
  Buffer.contents b

(* Fast-path decision: should [r] be skipped without an attempt this cycle?
   Only rules carrying a [can_fire] predicate are ever skipped. A skippable
   rule with a (non-empty) watch set parks: while parked, the per-cycle cost
   is one generation-sum comparison; the predicate is re-evaluated only when
   a watched signal was touched. Watchless rules re-evaluate the predicate
   every cycle (still far cheaper than a transactional attempt). *)
let should_skip (r : Rule.t) =
  match r.Rule.can_fire with
  | None -> false
  | Some p ->
    if r.Rule.parked then
      if Wakeup.sum r.Rule.watches = r.Rule.park_sum then true
      else if p () then begin
        r.Rule.parked <- false;
        false
      end
      else begin
        r.Rule.park_sum <- Wakeup.sum r.Rule.watches;
        true
      end
    else if p () then false
    else begin
      if Array.length r.Rule.watches > 0 then begin
        r.Rule.parked <- true;
        r.Rule.park_sum <- Wakeup.sum r.Rule.watches
      end;
      true
    end

(* Per-rule footprint-coverage hook for the compile audit: every tracked
   access must fall on a primitive the rule declared, in the declared
   direction. *)
let mk_fp_hook (r : Rule.t) =
  match r.Rule.fp with
  | None -> None
  | Some atoms ->
    let allowed : (int, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (a : Conflict.atom) ->
        List.iter
          (fun (acc : Conflict.acc) ->
            let bit = if acc.Conflict.awrite then 2 else 1 in
            let prev = Option.value (Hashtbl.find_opt allowed a.Conflict.ap.Conflict.pid) ~default:0 in
            Hashtbl.replace allowed a.Conflict.ap.Conflict.pid (prev lor bit))
          a.Conflict.accs)
      atoms;
    Some
      (fun c ~write ->
        let pid = Kernel.cell_prim c in
        if pid < 0 then
          raise
            (Kernel.Compile_audit_fail
               (Printf.sprintf "rule %s: cell %s has no owning primitive" r.Rule.name
                  (Kernel.cell_name c)));
        let need = if write then 2 else 1 in
        let have = Option.value (Hashtbl.find_opt allowed pid) ~default:0 in
        if have land need = 0 then
          raise
            (Kernel.Compile_audit_fail
               (Printf.sprintf
                  "rule %s: undeclared %s of cell %s (prim #%d) — footprint is under-declared"
                  r.Rule.name
                  (if write then "write" else "read")
                  (Kernel.cell_name c) pid)))

(* One specialized per-rule step closure. [chk]/[log] are the kernel tier
   flags this rule runs under (both true = interpreted-but-compiled: the
   closure still saves the per-rule dispatch work of the generic loop).
   Compilation requires [fastpath] and excludes audit modes and
   One_per_cycle, so the skip path applies unconditionally and there is no
   [stop] bookkeeping. Accounting mirrors [cycle_serial] exactly — fire
   counts, history, rule traces and the fired-nothing [Conflict_error]
   escalation — which is what makes compiled runs bit-identical. *)
let mk_runner t (r : Rule.t) ~chk ~log =
  let ctx = t.ctx in
  fun () ->
    if should_skip r then begin
      r.Rule.skipped <- r.Rule.skipped + 1;
      if r.Rule.vacuous then begin
        r.Rule.fired <- r.Rule.fired + 1;
        t.cfired <- t.cfired + 1;
        if t.rtrace_on then t.rtrace r t.n_cycles;
        if t.history_depth > 0 then t.cnames <- r.Rule.name :: t.cnames
      end
      else r.Rule.guard_failed <- r.Rule.guard_failed + 1
    end
    else begin
      Kernel.set_rule_name ctx r.Rule.name;
      (* Every runner (re)sets its tier: the previous rule may have cleared
         the flags. [set_tier] also zeroes the dropped-undo counter, so the
         abort check below sees only this rule's elisions. *)
      Kernel.set_tier ctx ~chk ~log;
      let w0 = Kernel.value_writes ctx in
      match r.Rule.body ctx with
      | () ->
        if Kernel.value_writes ctx = w0 then r.Rule.wasted <- r.Rule.wasted + 1;
        Kernel.reset_ctx ctx;
        r.Rule.fired <- r.Rule.fired + 1;
        t.cfired <- t.cfired + 1;
        if t.rtrace_on then t.rtrace r t.n_cycles;
        if t.history_depth > 0 then t.cnames <- r.Rule.name :: t.cnames
      | exception Kernel.Guard_fail _ ->
        (* A tier-A rule (no undo log) must never abort after a tracked
           write; if it elided undos before this guard failure, state is
           already unrecoverable — the [~total] declaration was wrong. *)
        if (not log) && Kernel.dropped ctx > 0 then
          raise
            (Kernel.Conflict_error
               (Printf.sprintf
                  "rule %s: guard abort after %d unlogged write(s); the ~total declaration is wrong for this schedule"
                  r.Rule.name (Kernel.dropped ctx)));
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        r.Rule.guard_failed <- r.Rule.guard_failed + 1
      | exception Kernel.Retry msg ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        if t.cfired = 0 then raise (Kernel.Conflict_error msg);
        r.Rule.conflicted <- r.Rule.conflicted + 1
    end

let create ?(mode = Multi) ?(fastpath = true) ?(audit = false) ?(jobs = 1)
    ?(partition_audit = false) ?(compile = true) ?(compile_audit = false) ?(epoch = 1) ?stats clk
    rules =
  if jobs < 1 then invalid_arg "Sim.create: jobs must be >= 1";
  if epoch < 0 then invalid_arg "Sim.create: epoch must be >= 0 (0 = auto)";
  let rng = match mode with Shuffle seed -> Some (Random.State.make [| seed |]) | Multi | One_per_cycle -> None in
  let max_part = List.fold_left (fun m (r : Rule.t) -> max m r.Rule.part) 0 rules in
  (* Epoch eligibility and the safe lookahead bound L. [epoch = 1] (the
     default) is plain per-cycle execution; [epoch = 0] derives the window
     length as the minimum declared lookahead over all cross-partition
     boundary FIFOs; an explicit [epoch = n] is clamped to that bound. An
     undeclared boundary contributes the trivial bound of 1, turning epochs
     off — free-running past state the design never promised to delay
     would silently distort the timing model. One_per_cycle and the
     scheduler/compile audits are inherently per-cycle; the partition
     audit, by contrast, is supported (serially) inside epoch mode. *)
  let want_epoch =
    epoch <> 1 && max_part > 0 && mode <> One_per_cycle && (not audit) && (not compile_audit)
    && rules <> []
  in
  let owner =
    if jobs > 1 || partition_audit || want_epoch then Some (check_partitions rules) else None
  in
  let cross =
    match owner with
    | Some ow when want_epoch -> classify_boundaries ow (Boundary.ambient ())
    | _ -> []
  in
  let elen =
    if (not want_epoch) || cross = [] then 1
    else begin
      let l =
        List.fold_left
          (fun m ((o : Boundary.ops), _, _) ->
            min m (Option.value o.Boundary.bo_lookahead ~default:1))
          max_int cross
      in
      (* the per-window fired bitmask keeps one bit per window cycle *)
      let l = min l 62 in
      max 1 (if epoch = 0 then l else min epoch l)
    end
  in
  let eon = elen > 1 in
  (* Parallel execution applies when something can actually run off-main and
     the execution strategy is not inherently serial: One_per_cycle commits
     a single rule per cycle across the whole machine, and the two audit
     modes deliberately execute serially so their diagnostics are exact.
     Epoch mode replaces the per-cycle parallel engine wholesale. *)
  let par =
    jobs > 1 && max_part > 0 && mode <> One_per_cycle && (not audit)
    && (not partition_audit) && (not compile_audit) && not eon
  in
  (* Partition structure (orders, contexts, stats shards) is shared by the
     per-cycle parallel engine and the epoch engine — the epoch engine
     builds it even at jobs 1, because bit-identity across [--jobs] demands
     the identical execution structure either way. *)
  let pstruct = par || eon in
  let counts = Array.make (max_part + 1) 0 in
  List.iter (fun (r : Rule.t) -> counts.(r.Rule.part) <- counts.(r.Rule.part) + 1) rules;
  let order_of_pid =
    if pstruct then Array.init (max_part + 1) (fun pid -> Array.make counts.(pid) (List.hd rules))
    else [||]
  in
  let fill = if pstruct then Array.make (max_part + 1) 0 else [||] in
  let parts =
    if not pstruct then [||]
    else
      Array.of_list
        (List.filter_map
           (fun pid ->
             if counts.(pid) = 0 then None
             else begin
               let pctx = Kernel.make_ctx clk in
               Kernel.set_partition pctx pid;
               Kernel.set_stats_slot pctx pid;
               Some
                 {
                   pid;
                   pctx;
                   porder = order_of_pid.(pid);
                   pfired = 0;
                   pexn = None;
                   pfires = (if eon then Array.make elen 0 else [||]);
                 }
             end)
           (List.init max_part (fun i -> i + 1)))
  in
  (match stats with Some s when pstruct -> Stats.prepare s ~slots:(max_part + 1) | _ -> ());
  let order = Array.of_list rules in
  let ebnds =
    if not eon then [||]
    else
      Array.of_list
        (List.map
           (fun (o, fwd, pid) ->
             { eb_ops = o; eb_fwd = fwd; eb_pid = pid; eb_traj = Array.make elen 0;
               eb_start = 0; eb_vis = 0 })
           cross)
  in
  let ebnds_of_pid =
    if not eon then [||]
    else
      Array.init (max_part + 1) (fun pid ->
          Array.of_list (List.filter (fun b -> b.eb_pid = pid) (Array.to_list ebnds)))
  in
  (* Per-window-cycle schedules. Multi never permutes, so every window
     cycle aliases the canonical arrays at zero cost; Shuffle gets private
     arrays, refilled from the window's freshly drawn permutations. *)
  let gorders =
    if not eon then [||]
    else
      match mode with
      | Shuffle _ -> Array.init elen (fun _ -> Array.copy order)
      | Multi | One_per_cycle -> Array.make elen order
  in
  let eorders =
    if not eon then [||]
    else
      match mode with
      | Shuffle _ ->
        Array.init elen (fun _ ->
            Array.init (max_part + 1) (fun pid -> Array.make counts.(pid) (List.hd rules)))
      | Multi | One_per_cycle -> Array.make elen order_of_pid
  in
  let t =
    {
      clk;
      rule_list = rules;
      order;
      mode;
      rng;
      ctx = Kernel.make_ctx clk;
      fastpath;
      audit;
      jobs;
      paudit = partition_audit;
      par;
      stats;
      parts;
      order_of_pid;
      fill;
      tasks = [||];
      elen;
      epar = (eon && jobs > 1 && not partition_audit);
      ebnds;
      ebnds_of_pid;
      gorders;
      eorders;
      efmask = [||];
      n_cycles = 0;
      fires = 0;
      rr = 0;
      caudit = compile_audit;
      crunners = [||];
      cfired = 0;
      cnames = [];
      cstats = (0, 0, 0);
      cwhy = "";
      creport = "";
      cchk_free = [||];
      cfp_hooks = [||];
      history = [||];
      history_depth = 0;
      monitors_rev = [];
      post_cycle_rev = [];
      hooks_cache = None;
      rtrace_on = false;
      rtrace = (fun _ _ -> ());
    }
  in
  Kernel.set_partition_audit t.ctx partition_audit;
  if partition_audit && eon then begin
    (* Epoch-mode partition audit: every context records touches (phases
       run inline on the per-partition contexts), masks are keyed per
       window (set in [cycle_epoch]), and the declared boundary FIFOs —
       whose cross-partition handoff the engine itself sequences — are
       exempted so only *undeclared* sharing is flagged. *)
    let exempt = Hashtbl.create 16 in
    Array.iter (fun b -> Hashtbl.replace exempt b.eb_ops.Boundary.bo_prim ()) ebnds;
    let is_exempt pid = Hashtbl.mem exempt pid in
    Kernel.set_audit_exempt t.ctx is_exempt;
    Array.iter
      (fun p ->
        Kernel.set_partition_audit p.pctx true;
        Kernel.set_audit_exempt p.pctx is_exempt)
      t.parts
  end;
  if pstruct then refill_partition_orders t;
  (* Stamp every rule with its index in the canonical (rule_list) order.
     [Obs.Hub] stamps the same indices from the same list, so the two
     agree; the stamps let the snapshot express the current schedule
     permutation as plain indices. *)
  let rules_arr = Array.of_list rules in
  Array.iteri (fun i (r : Rule.t) -> r.Rule.rid <- i) rules_arr;
  (* Schedule compilation. Eligible only for the serial fast path: the
     parallel scheduler has its own per-partition contexts, the audit modes
     deliberately run fully checked, and One_per_cycle's rotating
     single-commit semantics do not match the runners' accounting. The
     compile audit performs the same analysis but keeps the interpreted
     loop (instrumented in [cycle_serial]) to verify the declarations the
     compiled path would trust. *)
  let shuffled = match mode with Shuffle _ -> true | Multi | One_per_cycle -> false in
  let compilable =
    compile && (not par) && (not eon) && fastpath && (not audit) && (not partition_audit)
    && (not compile_audit)
    && mode <> One_per_cycle
    && rules <> []
  in
  if compilable || compile_audit then begin
    let an = analyze_schedule ~shuffled rules_arr in
    let n = Array.length rules_arr in
    let tier i =
      if not an.an_chk_free.(i) then 'I'
      else if rules_arr.(i).Rule.total then 'A'
      else 'B'
    in
    let na = ref 0 and nb = ref 0 and ni = ref 0 in
    for i = 0 to n - 1 do
      match tier i with 'A' -> incr na | 'B' -> incr nb | _ -> incr ni
    done;
    t.cstats <- (!na, !nb, !ni);
    t.creport <- render_compile_report rules_arr an ~tier;
    t.cchk_free <- an.an_chk_free;
    if compile_audit then begin
      t.cwhy <- "compile-audit: interpreted run verifying footprints and totality claims";
      t.cfp_hooks <- Array.map mk_fp_hook rules_arr
    end
    else begin
      match an.an_opaque with
      | Some nm ->
        t.cwhy <- Printf.sprintf "interpreted: rule %s has no declared footprint" nm
      | None ->
        t.cwhy <-
          Printf.sprintf
            "compiled: %d/%d rules run unchecked (%d of those also unlogged), %d interpreted"
            (!na + !nb) n !na !ni;
        if !na + !nb > 0 then
          t.crunners <-
            Array.map
              (fun (r : Rule.t) ->
                let free = an.an_chk_free.(r.Rule.rid) in
                mk_runner t r ~chk:(not free) ~log:(not (free && r.Rule.total)))
              rules_arr
    end
  end
  else
    t.cwhy <-
      (if not compile then "interpreted: compilation disabled"
       else if eon then Printf.sprintf "interpreted: epoch mode (E=%d)" elen
       else if par then "interpreted: parallel partitions active (jobs > 1)"
       else if not fastpath then "interpreted: fast path disabled"
       else if audit then "interpreted: audit mode"
       else if partition_audit then "interpreted: partition-audit mode"
       else if mode = One_per_cycle then "interpreted: One_per_cycle mode"
       else "interpreted: empty rule set");
  State.register ~name:"sim.sched"
    ~save:(fun () ->
      let ord = Array.map (fun (r : Rule.t) -> r.Rule.rid) t.order in
      let per_rule =
        Array.map
          (fun (r : Rule.t) ->
            (r.Rule.fired, r.Rule.guard_failed, r.Rule.conflicted, r.Rule.skipped,
             r.Rule.wasted, r.Rule.last_fired))
          rules_arr
      in
      Obj.repr
        ( t.n_cycles,
          t.fires,
          t.rr,
          ord,
          Option.map Random.State.copy t.rng,
          per_rule,
          (Array.copy t.history, t.history_depth) ))
    ~load:(fun o ->
      let ( n_cycles,
            fires,
            rr,
            (ord : int array),
            (rng : Random.State.t option),
            (per_rule : (int * int * int * int * int * int) array),
            ((history : (int * string list) array), history_depth) ) =
        Obj.obj o
      in
      t.n_cycles <- n_cycles;
      t.fires <- fires;
      t.rr <- rr;
      Array.iteri (fun i rid -> t.order.(i) <- rules_arr.(rid)) ord;
      t.rng <- rng;
      Array.iteri
        (fun i (fired, guard_failed, conflicted, skipped, wasted, last_fired) ->
          let r = rules_arr.(i) in
          r.Rule.fired <- fired;
          r.Rule.guard_failed <- guard_failed;
          r.Rule.conflicted <- conflicted;
          r.Rule.skipped <- skipped;
          r.Rule.wasted <- wasted;
          r.Rule.last_fired <- last_fired;
          (* Wakeup generations are not snapshotted: un-parking every rule
             forces predicate re-evaluation, which cannot change fire
             counts (skip accounting depends only on predicate results). *)
          r.Rule.parked <- false;
          r.Rule.park_sum <- 0)
        per_rule;
      t.history <- history;
      t.history_depth <- history_depth;
      if t.par || t.elen > 1 then refill_partition_orders t);
  t

let clock t = t.clk
let cycles t = t.n_cycles
let total_fires t = t.fires
let rules t = t.rule_list
let jobs t = t.jobs
let parallel t = t.par
let epoch_length t = t.elen
let shutdown_pool () = Pool.shutdown ()
let pool_run ~helpers tasks = Pool.run ~helpers tasks

(* Re-key the Shuffle schedule: reset the attempt order to the canonical
   rule order and replace the RNG, exactly the state a cold machine built
   with [Shuffle seed] starts from. Restoring a cycle-0 snapshot and
   reseeding is therefore schedule-identical to a cold build with that
   seed — the warm-fork path. No-op outside Shuffle mode. *)
let reseed t seed =
  match t.mode with
  | Shuffle _ ->
    List.iteri (fun i r -> t.order.(i) <- r) t.rule_list;
    t.rng <- Some (Random.State.make [| seed |]);
    if t.par || t.elen > 1 then refill_partition_orders t
  | Multi | One_per_cycle -> ()

let enable_history t ~depth =
  t.history_depth <- depth;
  t.history <- Array.make (max 1 depth) (-1, []);
  (* Epoch mode reconstructs per-cycle history from a per-rule bitmask of
     window cycles fired (a [last_fired] stamp alone cannot distinguish two
     fires of one rule within a window). Allocated only when history is on,
     so the common path never pays the per-fire mask update. *)
  if t.elen > 1 && depth > 0 then t.efmask <- Array.make (Array.length t.order) 0

let history t =
  if t.history_depth = 0 then []
  else
    List.filter
      (fun (c, _) -> c >= 0)
      (List.init t.history_depth (fun i ->
           t.history.((t.n_cycles + i) mod t.history_depth)))

let set_rule_trace t f =
  t.rtrace <- f;
  t.rtrace_on <- true

let clear_rule_trace t =
  t.rtrace_on <- false;
  t.rtrace <- (fun _ _ -> ())

let add_monitor t f =
  t.monitors_rev <- f :: t.monitors_rev;
  t.hooks_cache <- None

let on_post_cycle t f =
  t.post_cycle_rev <- f :: t.post_cycle_rev;
  t.hooks_cache <- None

(* One flat array of end-of-cycle callbacks: post-cycle checks first, then
   monitors, each set in registration order. Built lazily so registering a
   hook is O(1) (it used to be an O(n) list append per registration, and
   [cycle] walked two lists every cycle). *)
let end_hooks t =
  match t.hooks_cache with
  | Some a -> a
  | None ->
    let a =
      Array.of_list
        (List.rev_append
           (List.rev_map (fun f -> fun cyc _fired -> f cyc) (List.rev t.post_cycle_rev))
           (List.rev_map (fun f -> fun _cyc fired -> f t fired) t.monitors_rev))
    in
    t.hooks_cache <- Some a;
    a

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* The audit's verdict on a rule the fast path would have skipped. *)
let audit_lie (r : Rule.t) ~parked ~cycle what =
  Audit_fail
    (if parked then
       Printf.sprintf
         "rule %s: parked on its watch set but %s (cycle %d); a watched signal misses a wakeup"
         r.Rule.name what cycle
     else
       Printf.sprintf "rule %s: can_fire returned false but %s (cycle %d)" r.Rule.name what cycle)

let cycle_serial t =
  (match t.rng with Some rng -> shuffle rng t.order | None -> ());
  let fired = ref 0 in
  let fired_names = ref [] in
  let n = Array.length t.order in
  let stop = ref false in
  let base = if t.mode = One_per_cycle then t.rr else 0 in
  let ctx = t.ctx in
  let i = ref 0 in
  while not !stop && !i < n do
    let r = t.order.((base + !i) mod n) in
    incr i;
    if t.fastpath && (not t.audit) && should_skip r then begin
      (* Account the pruned attempt exactly as the seed scheduler would
         have: an attempt-wrapped ([vacuous]) body swallows its inner guard
         failure and "fires" vacuously; a bare guarded body fails its
         guard. This keeps fire counts, the history ring and One_per_cycle
         rotation bit-identical with the fast path on or off. *)
      r.Rule.skipped <- r.Rule.skipped + 1;
      if r.Rule.vacuous then begin
        r.Rule.fired <- r.Rule.fired + 1;
        incr fired;
        if t.rtrace_on then t.rtrace r t.n_cycles;
        if t.history_depth > 0 then fired_names := r.Rule.name :: !fired_names;
        if t.mode = One_per_cycle then stop := true
      end
      else r.Rule.guard_failed <- r.Rule.guard_failed + 1
    end
    else begin
      (* Audit mode: attempt every rule, but take the fast path's real
         decision — [should_skip], parking included — as the claim, and
         verify the attempt would have been accounted exactly as that skip:
         a skipped vacuous rule must fire without committing anything, a
         skipped bare rule must fail its guard. A rule still parked on an
         unchanged watch sum is reported as such: its predicate may be
         honest while its watch set misses a wakeup. *)
      let parked_claim =
        t.audit && r.Rule.parked && Wakeup.sum r.Rule.watches = r.Rule.park_sum
      in
      let claimed = not (t.audit && should_skip r) in
      Kernel.set_rule_name ctx r.Rule.name;
      if t.paudit then Kernel.set_partition ctx r.Rule.part;
      (* Compile audit: install this rule's footprint-coverage hook, flag a
         would-be tier-A rule for the totality check in [Kernel.attempt],
         and baseline the Retry counter — a Retry observed in a rule the
         analysis classified conflict-admissible (even one swallowed by an
         inner [attempt]) falsifies the classification. *)
      let rbase =
        if t.caudit then begin
          Kernel.set_fp_check ctx t.cfp_hooks.(r.Rule.rid);
          Kernel.set_total_audit ctx (t.cchk_free.(r.Rule.rid) && r.Rule.total);
          Kernel.retries ctx
        end
        else 0
      in
      let audit_retry_check () =
        if t.caudit && t.cchk_free.(r.Rule.rid) && Kernel.retries ctx > rbase then
          raise
            (Kernel.Compile_audit_fail
               (Printf.sprintf
                  "rule %s was classified conflict-admissible but raised Retry (cycle %d); its footprint or the conflict analysis is wrong"
                  r.Rule.name t.n_cycles))
      in
      let w0 = Kernel.value_writes ctx in
      (match r.Rule.body ctx with
      | () ->
        audit_retry_check ();
        if (not claimed) && ((not r.Rule.vacuous) || Kernel.undo_depth ctx > 0) then begin
          Kernel.rollback ctx;
          raise (audit_lie r ~parked:parked_claim ~cycle:t.n_cycles "the rule fired")
        end;
        if Kernel.value_writes ctx = w0 then r.Rule.wasted <- r.Rule.wasted + 1;
        Kernel.reset_ctx ctx;
        r.Rule.fired <- r.Rule.fired + 1;
        incr fired;
        if t.rtrace_on then t.rtrace r t.n_cycles;
        if t.history_depth > 0 then fired_names := r.Rule.name :: !fired_names;
        if t.mode = One_per_cycle then stop := true
      | exception Kernel.Guard_fail _ ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        audit_retry_check ();
        (* a skip would have counted this failed attempt as a vacuous fire *)
        if (not claimed) && r.Rule.vacuous then
          raise
            (audit_lie r ~parked:parked_claim ~cycle:t.n_cycles
               "its guard failed outside [attempt]");
        r.Rule.guard_failed <- r.Rule.guard_failed + 1
      | exception Kernel.Retry msg ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        audit_retry_check ();
        (* If nothing fired yet this cycle, the conflict is within the rule
           itself: no schedule can ever admit it. Fail loudly, like the BSV
           compiler rejecting an ill-formed rule. *)
        if !fired = 0 then raise (Kernel.Conflict_error msg);
        (* a skip would have accounted a fire or a guard failure *)
        if not claimed then
          raise (audit_lie r ~parked:parked_claim ~cycle:t.n_cycles "the attempt hit a conflict");
        r.Rule.conflicted <- r.Rule.conflicted + 1)
    end
  done;
  if t.mode = One_per_cycle && n > 0 then t.rr <- (t.rr + 1) mod n;
  if t.history_depth > 0 then
    t.history.(t.n_cycles mod t.history_depth) <- (t.n_cycles, List.rev !fired_names);
  Clock.tick t.clk;
  let this_cycle = t.n_cycles in
  t.n_cycles <- t.n_cycles + 1;
  t.fires <- t.fires + !fired;
  let hooks = end_hooks t in
  for h = 0 to Array.length hooks - 1 do
    hooks.(h) this_cycle !fired
  done;
  !fired

(* Attempt every rule of [order] on [ctx], accumulating into [fired]. Same
   skip accounting as the serial loop; additionally stamps [last_fired] so
   the firing history can be reconstructed in global schedule order after
   the barrier. [fired] starts at 0 for a parallel partition — during the
   parallel phase a partition's cells are touched by that partition alone,
   so a Retry with no local fire is a genuine single-rule conflict — and at
   the parallel total for the uncore, preserving the serial semantics.
   [cyc] is the architectural cycle being simulated (epoch mode runs this
   loop for cycles the shared clock has not reached yet); [kbit >= 0] also
   sets that bit of the rule's window-fire mask for history rebuilds. *)
let run_rules t ctx (order : Rule.t array) (fired : int ref) ~cyc ~kbit =
  for i = 0 to Array.length order - 1 do
    let r = Array.unsafe_get order i in
    if t.fastpath && should_skip r then begin
      r.Rule.skipped <- r.Rule.skipped + 1;
      if r.Rule.vacuous then begin
        r.Rule.fired <- r.Rule.fired + 1;
        r.Rule.last_fired <- cyc;
        incr fired;
        if kbit >= 0 then t.efmask.(r.Rule.rid) <- t.efmask.(r.Rule.rid) lor (1 lsl kbit);
        if t.rtrace_on then t.rtrace r cyc
      end
      else r.Rule.guard_failed <- r.Rule.guard_failed + 1
    end
    else begin
      Kernel.set_rule_name ctx r.Rule.name;
      let w0 = Kernel.value_writes ctx in
      match r.Rule.body ctx with
      | () ->
        if Kernel.value_writes ctx = w0 then r.Rule.wasted <- r.Rule.wasted + 1;
        Kernel.reset_ctx ctx;
        r.Rule.fired <- r.Rule.fired + 1;
        r.Rule.last_fired <- cyc;
        incr fired;
        if kbit >= 0 then t.efmask.(r.Rule.rid) <- t.efmask.(r.Rule.rid) lor (1 lsl kbit);
        if t.rtrace_on then t.rtrace r cyc
      | exception Kernel.Guard_fail _ ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        r.Rule.guard_failed <- r.Rule.guard_failed + 1
      | exception Kernel.Retry msg ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        if !fired = 0 then raise (Kernel.Conflict_error msg);
        r.Rule.conflicted <- r.Rule.conflicted + 1
    end
  done

let run_part t (p : part) =
  match
    let fired = ref 0 in
    run_rules t p.pctx p.porder fired ~cyc:t.n_cycles ~kbit:(-1);
    p.pfired <- !fired
  with
  | () -> ()
  | exception e -> p.pexn <- Some e

let cycle_par t =
  (match t.rng with
  | Some rng ->
    shuffle rng t.order;
    refill_partition_orders t
  | None -> ());
  if Array.length t.tasks = 0 then
    t.tasks <- Array.map (fun p -> fun () -> run_part t p) t.parts;
  Pool.run ~helpers:(min (t.jobs - 1) (Array.length t.parts - 1)) t.tasks;
  (* Barrier passed: every partition's writes are visible. Collect results,
     re-raising the lowest-partition exception (deterministic pick). *)
  let fired = ref 0 in
  let first_exn = ref None in
  Array.iter
    (fun p ->
      (match p.pexn with
      | Some e -> if !first_exn = None then first_exn := Some e
      | None -> ());
      p.pexn <- None;
      fired := !fired + p.pfired)
    t.parts;
  (match !first_exn with Some e -> raise e | None -> ());
  (* Uncore: serial, on the main context, after every partition is done. *)
  run_rules t t.ctx t.order_of_pid.(0) fired ~cyc:t.n_cycles ~kbit:(-1);
  if t.history_depth > 0 then begin
    let names = ref [] in
    for i = Array.length t.order - 1 downto 0 do
      let r = Array.unsafe_get t.order i in
      if r.Rule.last_fired = t.n_cycles then names := r.Rule.name :: !names
    done;
    t.history.(t.n_cycles mod t.history_depth) <- (t.n_cycles, !names)
  end;
  Clock.tick t.clk;
  (match t.stats with Some s -> Stats.merge s | None -> ());
  let this_cycle = t.n_cycles in
  t.n_cycles <- t.n_cycles + 1;
  t.fires <- t.fires + !fired;
  let hooks = end_hooks t in
  for h = 0 to Array.length hooks - 1 do
    hooks.(h) this_cycle !fired
  done;
  !fired

(* ---------------------------------------------------------------------- *)
(* Epoch execution (conservative lookahead windows)                        *)
(*                                                                        *)
(* A window simulates E consecutive cycles in three deterministic steps:  *)
(*                                                                        *)
(*   1. every core partition free-runs its E local cycles (concurrently   *)
(*      across the pool when jobs > 1, inline in pid order otherwise),    *)
(*      running its own clock-hook group after each local cycle and       *)
(*      recording, per boundary FIFO it owns, the own-side total after    *)
(*      every local cycle (the boundary trajectory);                      *)
(*   2. the uncore replays the window cycle-by-cycle on the main domain:  *)
(*      before cycle k it installs each boundary's trajectory value at    *)
(*      k-1 as the other side's cycle-start snapshot, so the uncore sees  *)
(*      each request appear at exactly the cycle it was enqueued — and    *)
(*      runs its own hook group after each replay cycle;                  *)
(*   3. the window closes: the shared clock advances by E without running *)
(*      hooks (each group already ran E times), boundary snapshots are    *)
(*      refreshed to the true totals (waking parked rules on both sides), *)
(*      and the per-partition stats shards merge.                         *)
(*                                                                        *)
(* Responses the uncore enqueues during replay become visible to the      *)
(* partitions only at the window close — a delivery delay of at most E-1  *)
(* extra cycles. With E bounded by the minimum declared boundary          *)
(* lookahead (the architectural response latency), the quantization stays *)
(* within the latency the design already guarantees. Every step is a      *)
(* deterministic function of the window-start state, and jobs only        *)
(* changes which domain executes a phase, so results are bit-identical    *)
(* at any --jobs for a given E.                                           *)
(* ---------------------------------------------------------------------- *)

let run_epoch_part t (p : part) =
  match
    let groups = Clock.hooks_by_partition t.clk in
    let hooks = if p.pid < Array.length groups then groups.(p.pid) else [||] in
    let bnds = t.ebnds_of_pid.(p.pid) in
    let cyc0 = t.n_cycles in
    let hist = Array.length t.efmask > 0 in
    for k = 0 to t.elen - 1 do
      Clock.set_skew k;
      let fired = ref 0 in
      run_rules t p.pctx t.eorders.(k).(p.pid) fired ~cyc:(cyc0 + k)
        ~kbit:(if hist then k else -1);
      p.pfires.(k) <- !fired;
      for h = 0 to Array.length hooks - 1 do
        hooks.(h) ()
      done;
      for b = 0 to Array.length bnds - 1 do
        let bd = bnds.(b) in
        bd.eb_traj.(k) <-
          (if bd.eb_fwd then bd.eb_ops.Boundary.bo_enq_total ()
           else bd.eb_ops.Boundary.bo_deq_total ())
      done
    done;
    Clock.set_skew 0
  with
  | () -> ()
  | exception e ->
    Clock.set_skew 0;
    p.pexn <- Some e

let cycle_epoch t =
  let e = t.elen in
  let cyc0 = t.n_cycles in
  let hist = Array.length t.efmask > 0 in
  (* Draw the window's schedule permutations up front (main domain owns the
     RNG); each permutation is recorded globally (for history) and split
     per partition. *)
  (match t.rng with
  | Some rng ->
    let n = Array.length t.order in
    for k = 0 to e - 1 do
      shuffle rng t.order;
      Array.blit t.order 0 t.gorders.(k) 0 n;
      refill_orders t t.order t.eorders.(k)
    done
  | None -> ());
  (* Window-keyed partition audit: one key per window, so sharing across a
     window's phases is flagged wherever the touches land. *)
  if t.paudit then begin
    let key = Clock.uid t.clk in
    Kernel.set_audit_key t.ctx key;
    Array.iter (fun p -> Kernel.set_audit_key p.pctx key) t.parts
  end;
  (* Capture window-start boundary state. *)
  Array.iter
    (fun b ->
      let v =
        if b.eb_fwd then b.eb_ops.Boundary.bo_enq_total ()
        else b.eb_ops.Boundary.bo_deq_total ()
      in
      b.eb_start <- v;
      b.eb_vis <- v)
    t.ebnds;
  (* Build the hook split before dispatch so worker domains only read the
     cache, never construct it. *)
  let groups = Clock.hooks_by_partition t.clk in
  let uhooks = if Array.length groups > 0 then groups.(0) else [||] in
  (* Phase 1: partition free-run. *)
  if Array.length t.tasks = 0 then
    t.tasks <- Array.map (fun p -> fun () -> run_epoch_part t p) t.parts;
  if t.epar then Pool.run ~helpers:(min (t.jobs - 1) (Array.length t.parts - 1)) t.tasks
  else Array.iter (fun p -> run_epoch_part t p) t.parts;
  let first_exn = ref None in
  Array.iter
    (fun p ->
      (match p.pexn with
      | Some ex -> if !first_exn = None then first_exn := Some ex
      | None -> ());
      p.pexn <- None)
    t.parts;
  (match !first_exn with Some ex -> raise ex | None -> ());
  (* Phase 2: uncore replay, cycle by cycle. *)
  let wfired = ref 0 in
  Fun.protect
    ~finally:(fun () -> Clock.set_skew 0)
    (fun () ->
      for k = 0 to e - 1 do
        Clock.set_skew k;
        Array.iter
          (fun b ->
            let v = if k = 0 then b.eb_start else b.eb_traj.(k - 1) in
            let ops = b.eb_ops in
            if b.eb_fwd then begin
              ops.Boundary.bo_set_enq_snap v;
              ops.Boundary.bo_reset_dport ()
            end
            else begin
              ops.Boundary.bo_set_deq_snap v;
              ops.Boundary.bo_reset_eport ()
            end;
            if v <> b.eb_vis then begin
              ops.Boundary.bo_touch ();
              b.eb_vis <- v
            end)
          t.ebnds;
        let fired = ref 0 in
        Array.iter (fun p -> fired := !fired + p.pfires.(k)) t.parts;
        run_rules t t.ctx t.eorders.(k).(0) fired ~cyc:(cyc0 + k) ~kbit:(if hist then k else -1);
        wfired := !wfired + !fired;
        for h = 0 to Array.length uhooks - 1 do
          uhooks.(h) ()
        done
      done);
  (* Phase 3: window close. *)
  Array.iter (fun b -> b.eb_ops.Boundary.bo_refresh ()) t.ebnds;
  Clock.advance t.clk ~cycles:e;
  (match t.stats with Some s -> Stats.merge s | None -> ());
  if t.history_depth > 0 then begin
    for k = 0 to e - 1 do
      let names = ref [] in
      let go = t.gorders.(k) in
      for i = Array.length go - 1 downto 0 do
        let r = Array.unsafe_get go i in
        if t.efmask.(r.Rule.rid) land (1 lsl k) <> 0 then names := r.Rule.name :: !names
      done;
      t.history.((cyc0 + k) mod t.history_depth) <- (cyc0 + k, !names)
    done;
    Array.fill t.efmask 0 (Array.length t.efmask) 0
  end;
  t.n_cycles <- t.n_cycles + e;
  t.fires <- t.fires + !wfired;
  let hooks = end_hooks t in
  let this_cycle = cyc0 + e - 1 in
  for h = 0 to Array.length hooks - 1 do
    hooks.(h) this_cycle !wfired
  done;
  !wfired

(* The compiled cycle: one indirect call per rule through the specialized
   runner array (indexed by rid so Shuffle permutations cost nothing), with
   the fired count and history names accumulated in the sim record instead
   of per-cycle refs. The tier flags are restored before the end-of-cycle
   hooks so any code sharing [t.ctx] (monitors, snapshot glue, the next
   interpreted consumer) sees a fully checked context. *)
let cycle_compiled t =
  (match t.rng with Some rng -> shuffle rng t.order | None -> ());
  t.cfired <- 0;
  t.cnames <- [];
  let order = t.order in
  let runners = t.crunners in
  for i = 0 to Array.length order - 1 do
    (Array.unsafe_get runners (Array.unsafe_get order i).Rule.rid) ()
  done;
  Kernel.set_tier t.ctx ~chk:true ~log:true;
  let fired = t.cfired in
  if t.history_depth > 0 then
    t.history.(t.n_cycles mod t.history_depth) <- (t.n_cycles, List.rev t.cnames);
  t.cnames <- [];
  Clock.tick t.clk;
  let this_cycle = t.n_cycles in
  t.n_cycles <- t.n_cycles + 1;
  t.fires <- t.fires + fired;
  let hooks = end_hooks t in
  for h = 0 to Array.length hooks - 1 do
    hooks.(h) this_cycle fired
  done;
  fired

let cycle t =
  if t.elen > 1 then cycle_epoch t
  else if t.par then cycle_par t
  else if Array.length t.crunners > 0 then cycle_compiled t
  else cycle_serial t

let compiled t = Array.length t.crunners > 0
let compile_status t = t.cwhy
let compile_report t = t.creport
let compile_stats t = t.cstats

(* Both loops count simulated cycles via [n_cycles], not [cycle] calls: in
   epoch mode one call advances a whole window. *)
let run t n =
  let target = t.n_cycles + n in
  while t.n_cycles < target do
    ignore (cycle t)
  done

let run_until ?on_cycle t ~max_cycles pred =
  let start = t.n_cycles in
  let rec go () =
    let n = t.n_cycles - start in
    if pred () then `Done n
    else if n >= max_cycles then `Timeout n
    else begin
      (match on_cycle with Some f -> f n | None -> ());
      ignore (cycle t);
      go ()
    end
  in
  go ()

let pp_stats fmt t =
  Format.fprintf fmt "@[<v>cycles=%d fires=%d (%.2f rules/cycle)@," t.n_cycles t.fires
    (if t.n_cycles = 0 then 0.0 else float_of_int t.fires /. float_of_int t.n_cycles);
  List.iter
    (fun (r : Rule.t) ->
      Format.fprintf fmt
        "  %-28s fired=%-9d guard_failed=%-9d conflicted=%-6d skipped=%-9d wasted=%d@," r.name
        r.fired r.guard_failed r.conflicted r.skipped r.wasted)
    t.rule_list;
  Format.fprintf fmt "@]"
