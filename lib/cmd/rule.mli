(** Rules: the guarded atomic actions that compose modules (paper, Sec. III).

    A rule's body calls interface methods of any number of modules; firing is
    all-or-nothing. The scheduler gathers per-rule firing statistics here.

    {2 Fast-path metadata}

    [can_fire] is an optional {e cheap, untracked} predicate: when it returns
    [false] the scheduler may skip the attempt entirely — no transaction
    context, no exception, no rollback. The contract is one-sided:
    [can_fire () = false] must imply the body could not fire this cycle
    (w.r.t. the state committed so far in the schedule); [true] promises
    nothing, the guard inside the body remains the correctness backstop.
    [Sim]'s [--scheduler-audit] mode checks the contract dynamically.

    [watches] is the rule's sensitivity set: when present, a rule whose
    [can_fire] said [false] is {e parked} and is not even re-polled until one
    of the watched signals is touched. A rule may only declare watches when
    its [can_fire] depends exclusively on state covered by those signals;
    rules reading plain mutable state (no signal) must stay watchless so the
    predicate is re-evaluated every cycle.

    [vacuous] declares that the body wraps its work in [Kernel.attempt] and
    therefore returns normally — "fires" — even when the inner guard fails.
    The scheduler uses this to account a skipped rule exactly as the seed
    scheduler would have (a vacuous fire), keeping cycle-by-cycle firing
    statistics bit-identical with and without the fast path.

    {2 Partition metadata}

    [part] is the partition the rule belongs to, captured from
    [Partition.ambient] at construction. [touches] declares the {e boundary}
    primitives the rule's body may access — primitives also accessible from
    another partition (in practice the conflict-free FIFOs between a core
    cluster and the uncore). Partition-private state needs no declaration;
    the static checker in [Sim] proves no primitive is claimed by two
    parallel partitions, and [--partition-audit] dynamically backstops the
    private-state assumption. *)

type t = {
  name : string;
  body : Kernel.ctx -> unit;
  can_fire : (unit -> bool) option;  (** cheap pre-attempt predicate *)
  watches : Wakeup.signal array;  (** sensitivity set for parking *)
  vacuous : bool;  (** body swallows guard failures via [attempt] *)
  part : int;  (** partition, captured from [Partition.ambient] at [make] *)
  touches : Partition.token array;  (** declared boundary primitives *)
  fp : Conflict.atom list option;
      (** conflict footprint: every tracked primitive method the body may
          call, as [Conflict.atom]s; [None] = opaque (conflicts with
          everything, disables schedule compilation for the whole design) *)
  total : bool;
      (** claims the body never aborts after a tracked write when attempted
          (guards, if any, fail before mutating); lets the compiler drop
          the undo log. Verified by [--compile-audit], backstopped by a
          hard error at run time *)
  mutable fired : int;  (** cycles in which the rule fired *)
  mutable guard_failed : int;  (** attempts aborted by a guard *)
  mutable conflicted : int;  (** attempts aborted by an intra-cycle conflict *)
  mutable skipped : int;  (** attempts pruned by the fast path *)
  mutable wasted : int;
      (** bodies that ran and returned without committing a value write
          (logged or elided): fires that did no work yet paid for a whole
          transaction. Like [skipped], a host-side cost, not behaviour *)
  mutable parked : bool;  (** scheduler state: waiting on [watches] *)
  mutable park_sum : int;  (** generation sum at park time *)
  mutable last_fired : int;
      (** cycle of the most recent fire, -1 if never; maintained by the
          parallel executor so the firing history can be reconstructed in
          global schedule order after the barrier *)
  mutable rid : int;
      (** stable small-integer id assigned by an observability sink when a
          rule trace is attached (creation-order index into [Sim.rules]);
          -1 when no sink has claimed the rule *)
}

val make :
  ?can_fire:(unit -> bool) ->
  ?watches:Wakeup.signal list ->
  ?touches:Partition.token list ->
  ?fp:Conflict.atom list ->
  ?total:bool ->
  ?vacuous:bool ->
  string ->
  (Kernel.ctx -> unit) ->
  t

(** Reset the statistics counters. *)
val reset_stats : t -> unit
