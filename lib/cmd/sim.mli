(** The rule scheduler and clock loop.

    Each cycle, rules are attempted in a fixed order (the static schedule).
    A rule fires when its guards hold and all its state accesses are
    admissible after what already fired this cycle; otherwise it is rolled
    back and retried next cycle. The net effect of a cycle is therefore
    always equal to executing its fired rules serially in schedule order —
    the paper's atomicity guarantee, enforced dynamically.

    The list order doubles as the intra-cycle logical order, so the
    microarchitectural orderings of Section IV-D ("doRegWrite < doIssue <
    doRename saves a cycle") are expressed by reordering the list. *)

type mode =
  | Multi  (** fire every admissible rule each cycle (the CMD hardware model) *)
  | One_per_cycle  (** reference executor: at most one rule per cycle *)
  | Shuffle of int  (** Multi, but attempt order is reshuffled each cycle
                        from the given seed — for schedule-robustness tests *)

(** Raised in audit mode when the fast path would have skipped a rule — its
    [can_fire] returned [false], or it stayed parked on an unchanged watch
    set — but the attempt made anyway would not have been accounted as that
    skip: most often the body fired (committed effects), so the predicate or
    the watch set lies and the fast path would silently starve the rule. *)
exception Audit_fail of string

(** Raised by {!create} when the static partition checker finds a primitive
    declared (via [Rule.make ~touches]) by rules in two different
    partitions, or a parallel rule watching a signal it does not own. *)
exception Partition_error of string

type t

(** [create ?mode ?fastpath ?audit ?jobs ?partition_audit ?stats clk rules]
    builds a scheduler.

    With [fastpath] (the default), a rule carrying a [can_fire] predicate is
    skipped — no transaction, no exception, no rollback — in cycles where
    the predicate returns [false], and parked on its watch set until a
    watched primitive is touched. Skips are accounted exactly as the seed
    scheduler would have accounted the doomed attempt, so cycle counts, fire
    counts, rule-firing history and all architectural state are bit-identical
    with [fastpath] on or off, in every mode. [~fastpath:false] strips the
    predicates (every rule is attempted, as before this optimization).

    [~audit:true] disables skipping but still takes every skip decision the
    fast path would take — predicate evaluation and parking on the watch
    set alike — and raises {!Audit_fail} when the attempt it then makes
    anyway would not have been accounted as that skip: a vacuous rule that
    commits state (or fails a guard outside its [attempt]), a bare rule
    that fires, or either one hitting a conflict. This is the debug oracle
    for predicate truthfulness and for watch sets that miss a wakeup
    ([--scheduler-audit] in [riscyoo run]).

    Every rule body that returns without committing a value write is
    counted in [Rule.wasted] (host-side, like [Rule.skipped]).

    {2 Partitioned parallel execution}

    With [jobs > 1], rules tagged with a non-zero partition (captured from
    [Partition.ambient] at construction — one partition per core cluster)
    are fired concurrently, one OCaml domain per partition, using at most
    [jobs] domains; rules in partition 0 (the {e uncore}) then run serially
    on the main domain. The static checker proves from the declared
    [~touches] tokens and watch sets that no primitive is reachable from
    two partitions (raising {!Partition_error} otherwise), so every
    interleaving of the parallel phase commutes — the paper's conflict-free
    rules — and results are bit-identical to [jobs = 1] in every mode:
    cycle counts, per-rule fire counts, firing history, architectural
    state.

    Parallel execution is inherently about firing {e many} rules per cycle,
    so [One_per_cycle] and the two audit modes execute serially regardless
    of [jobs] (with identical results, as always).

    [~partition_audit:true] executes serially while recording, per cell per
    cycle, which partitions touched it; any cross-partition overlap
    involving a write raises [Kernel.Partition_overlap]. This is the
    dynamic backstop for the static checker's private-state assumption
    ([--partition-audit] in the driver). Overlap detection within a cycle
    is order-independent, so the serial audit certifies the parallel
    schedule.

    [~stats] hands the machine's counter groups to the barrier: their
    per-partition shard accumulators (see [Stats.incr]) are merged at the
    end of every parallel cycle, before post-cycle hooks run.

    {2 Cycle structure and hook ordering}

    Each cycle proceeds: (1) parallel phase — every non-zero partition's
    rules, concurrently; (2) barrier — all partition effects become visible
    to the main domain; (3) uncore phase — partition-0 rules, serially; (4)
    [Clock.tick] — wire resets, conflict-free FIFO snapshot advance; (5)
    stats shard merge; (6) {!on_post_cycle} hooks (invariant checks); (7)
    {!add_monitor} monitors (watchdog). Steps 5–7 run on the main domain
    after the barrier, so invariant checks, watchdog monitors and anything
    else observing the machine between cycles always sees the merged,
    quiescent state — [--watchdog]/[--check-invariants] campaigns behave
    identically at any [jobs]. [run_until]'s [on_cycle] (the fault-injection
    hook) runs on the main domain {e before} the cycle's parallel phase is
    dispatched, so injected flips are ordinary pre-cycle state changes and
    campaigns stay deterministic under [jobs > 1].

    {2 Schedule compilation}

    With [compile] (the default), elaboration derives the pairwise conflict
    matrix from the rules' declared footprints ([Rule.make ~fp]) plus the
    EHR/FIFO port orderings, and specializes a per-rule step closure for
    every rule of a serial fast-path schedule:

    - {e tier A} — every conflict pair the rule forms is statically
      admissible in the schedule order {e and} the rule is declared
      [~total]: runs with neither port-admissibility bookkeeping nor undo
      logging (a wrong totality claim raises [Kernel.Conflict_error] the
      moment it would matter, instead of silently diverging);
    - {e tier B} — statically admissible: bookkeeping off, undo log kept
      (guard aborts still roll back);
    - {e interpreted} — everything else runs fully checked, inside the same
      compiled loop.

    A single rule without a footprint keeps the whole design interpreted
    (an opaque body may touch anything). Compilation never changes results:
    fire counts, history, traces and architectural state are bit-identical
    with [compile] on or off. It applies only to serial ([jobs = 1] or no
    partitions) fast-path runs in [Multi]/[Shuffle] modes; under [Shuffle]
    a pair must be conflict-free both ways to count as admissible.

    [~compile_audit:true] runs interpreted but dynamically discharges the
    compiler's proof obligations: every tracked access must fall on a
    declared (primitive, direction); a [Retry] in a rule classified
    admissible, or an abort that rolls back tracked writes in a rule
    claiming [~total], raises [Kernel.Compile_audit_fail]
    ([--compile-audit] in the driver).

    {2 Epoch execution (lookahead windows)}

    [~epoch] batches partition synchronization: instead of a barrier per
    cycle, each non-zero partition free-runs [E] consecutive cycles between
    barriers, and the uncore then replays the window cycle-by-cycle with
    every cross-partition boundary FIFO's enqueue trajectory installed at
    exactly the cycle it happened (see {!Boundary}). Responses flowing back
    from the uncore become visible at window boundaries, a quantization of
    at most [E - 1] cycles — safe because [E] is capped by the minimum
    [~lookahead] declared on the boundary FIFOs ({!Fifo.cf}), i.e. the
    response latency the design already guarantees. [~epoch:1] (default)
    disables windowing; [~epoch:0] means "auto": use the full derived
    bound; any other value is clamped to the bound. For a {e given} epoch
    length, results are bit-identical at any [jobs], in [Multi] and
    [Shuffle] modes — enforced by [~partition_audit], which in epoch mode
    keys its overlap detection per window. Epoch mode implies interpreted
    execution and is ignored under [One_per_cycle], the audit modes, or
    when no boundary FIFO was registered. *)
val create :
  ?mode:mode ->
  ?fastpath:bool ->
  ?audit:bool ->
  ?jobs:int ->
  ?partition_audit:bool ->
  ?compile:bool ->
  ?compile_audit:bool ->
  ?epoch:int ->
  ?stats:Stats.t ->
  Clock.t ->
  Rule.t list ->
  t

val clock : t -> Clock.t

(** The [jobs] the scheduler was created with. *)
val jobs : t -> int

(** Whether partitioned parallel execution is actually active (i.e.
    [jobs > 1], at least one non-zero partition, and a mode that is not
    inherently serial). *)
val parallel : t -> bool

(** The effective epoch window length [E] (1 = per-cycle synchronization,
    i.e. epoch mode off). May be smaller than the requested [~epoch]: it is
    clamped to the minimum declared boundary lookahead (and to 62, the
    per-window history bitmask width). *)
val epoch_length : t -> int

(** Join the process-global worker-domain pool. Parallel simulations share
    one lazily-spawned pool that persists between runs; on OCaml 5 even
    idle domains tax every minor collection, so call this before timing
    serial code after a parallel run. The pool respawns transparently on
    the next parallel cycle. Also registered via [at_exit].

    Idempotent and reentrancy-safe: a second call — including one from a
    signal handler interrupting the first — returns immediately. Signal
    handlers should nevertheless prefer setting a flag and letting the
    main loop shut down (see [riscyoo farm]): a handler firing mid-cycle
    would block here until the in-flight cycle's tasks drain. *)
val shutdown_pool : unit -> unit

(** [pool_run ~helpers tasks] runs a batch of independent tasks on the same
    shared worker-domain pool the partitioned simulator uses: the calling
    domain participates, at most [helpers] pool workers steal tasks, and
    the call returns when every task has completed. Tasks must trap their
    own exceptions (an escaping one is silently dropped by the barrier).
    This is the simulation farm's job executor — a farm task typically
    builds and runs a whole [jobs:1] machine, which is safe because the
    snapshot/injection/invariant registries are all domain-local. *)
val pool_run : helpers:int -> (unit -> unit) array -> unit

(** [reseed t seed] re-keys a [Shuffle] schedule: attempt order back to
    the canonical rule order, fresh RNG from [seed] — exactly a cold
    [Shuffle seed] build's starting schedule state. Restoring a cycle-0
    snapshot then reseeding is schedule-identical to a cold build with
    that seed (the farm's warm-fork path). No-op in other modes. *)
val reseed : t -> int -> unit

(** Run one clock cycle; returns the number of rules that fired. In epoch
    mode one call advances a whole window of {!epoch_length} cycles and
    returns the window's total fires. *)
val cycle : t -> int

(** [run t n] runs at least [n] cycles (rounded up to a whole number of
    windows in epoch mode). *)
val run : t -> int -> unit

(** [run_until t ~max_cycles pred] runs until [pred ()] holds at a cycle
    boundary, returning [`Done cycles] or [`Timeout cycles] (how far the run
    got before the budget ran out). Counts are simulated cycles, not
    iterations, so they stay comparable across epoch lengths; in epoch mode
    [pred] is sampled at window boundaries. [on_cycle] is called with the
    loop's cycle index before each cycle (each window in epoch mode) — the
    fault-injection hook. *)
val run_until :
  ?on_cycle:(int -> unit) ->
  t ->
  max_cycles:int ->
  (unit -> bool) ->
  [ `Done of int | `Timeout of int ]

val cycles : t -> int
val total_fires : t -> int
val rules : t -> Rule.t list

(** {2 Schedule-compilation introspection} *)

(** Whether this scheduler runs the compiled per-rule step closures. *)
val compiled : t -> bool

(** One-line outcome of the compilation phase: what was compiled, or why
    the schedule stays interpreted. *)
val compile_status : t -> string

(** Tier table plus the full pairwise conflict-matrix dump (empty when no
    analysis ran — e.g. [~compile:false] with no audit). The driver prints
    this under [--compile-audit]; CI archives it when bit-identity fails. *)
val compile_report : t -> string

(** [(tier_a, tier_b, interpreted)] rule counts from the analysis;
    [(0, 0, 0)] when no analysis ran. *)
val compile_stats : t -> int * int * int

(** {2 Observability (verification layer)} *)

(** Keep a ring buffer of the last [depth] cycles' fired-rule names; the
    watchdog dumps it when it trips. *)
val enable_history : t -> depth:int -> unit

(** Recorded (cycle, fired rule names) pairs, oldest first. Empty unless
    {!enable_history} was called. *)
val history : t -> (int * string list) list

(** [add_monitor t f] — [f t fired] runs after every cycle with the number
    of rules that fired that cycle. Monitors may raise (e.g. a watchdog
    trip); the exception propagates out of {!cycle}. *)
val add_monitor : t -> (t -> int -> unit) -> unit

(** [on_post_cycle t f] — [f cycle] runs after every cycle, before the
    monitors: the invariant-checking hook. *)
val on_post_cycle : t -> (int -> unit) -> unit

(** [set_rule_trace t f] — [f rule cycle] runs once per rule fire (including
    vacuous fires accounted for skipped rules, so the trace matches
    [Rule.fired] exactly, fast path on or off). The callback runs on
    whichever domain fired the rule: under [jobs > 1] it must confine its
    writes to per-partition state indexed by [rule.part] (see [Obs] in
    lib/obs). The disabled cost at every fire site is a single flat-[bool]
    load and branch. *)
val set_rule_trace : t -> (Rule.t -> int -> unit) -> unit

(** Detach the rule-trace sink; fire sites go back to the bare branch. *)
val clear_rule_trace : t -> unit

(** Per-rule firing report, for debugging schedules. *)
val pp_stats : Format.formatter -> t -> unit
