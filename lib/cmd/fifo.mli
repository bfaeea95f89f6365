(** Latency-insensitive FIFOs with explicit concurrency semantics.

    All three variants share the guarded interface [enq]/[deq]/[first]/
    [clear]; they differ only in their conflict matrices, which is exactly the
    paper's point: module refinement may change the CM, and composition
    remains correct (possibly with less concurrency).

    - {!pipeline}: [first < deq < enq < clear]. When full, a [deq] earlier in
      the schedule frees the slot an [enq] fills the same cycle (the classic
      pipeline register).
    - {!bypass}: [enq < deq < clear]. When empty, a value enqueued earlier in
      the schedule can be dequeued the same cycle (a same-cycle forwarding
      path).
    - {!cf}: [enq CF deq], both [< clear]. Guards are conservative — they see
      the occupancy at the start of the cycle — so enqueue and dequeue rules
      may be scheduled in either order. *)

type 'a t

val pipeline : ?name:string -> capacity:int -> unit -> 'a t

val bypass : ?name:string -> capacity:int -> unit -> 'a t

(** [?lookahead] declares, for a {!cf} queue used as a cross-partition
    boundary, the minimum number of cycles between an enq and the earliest
    consequence flowing back to the enqueuer (e.g. an L2 input queue whose
    response pipeline is [latency] deep). The epoch engine takes the
    minimum declared lookahead over all boundaries as the safe free-run
    bound; an undeclared boundary contributes the trivial bound of 1. *)
val cf : ?name:string -> ?lookahead:int -> Clock.t -> capacity:int -> unit -> 'a t

(** [enq ctx q v] appends [v]; guarded on the queue not being full. *)
val enq : Kernel.ctx -> 'a t -> 'a -> unit

(** [deq ctx q] removes and returns the oldest element; guarded on
    non-emptiness. *)
val deq : Kernel.ctx -> 'a t -> 'a

(** [first ctx q] returns the oldest element without removing it. *)
val first : Kernel.ctx -> 'a t -> 'a

(** Non-aborting guard probes, reading through the same ports as the
    corresponding action. *)
val can_enq : Kernel.ctx -> 'a t -> bool

val can_deq : Kernel.ctx -> 'a t -> bool

(** [clear ctx q] empties the queue; logically ordered after every other
    method of the cycle (used by wrong-path flushes). *)
val clear : Kernel.ctx -> 'a t -> unit

val capacity : 'a t -> int
val name : 'a t -> string

(** The queue's wakeup signal: touched on every successful [enq], [deq] and
    [clear] (and, for {!cf}, when the cycle-boundary snapshots advance).
    Rules whose [can_fire] consults {!peek_size} may watch it. *)
val signal : 'a t -> Wakeup.signal

(** Partition-checker tokens for [Rule.make ~touches]. A {!pipeline} or
    {!bypass} FIFO is a single primitive (its sides share the count cell),
    so both tokens carry the same identity and the queue can never legally
    span two partitions. A {!cf} FIFO's sides touch disjoint cells, so each
    side is its own primitive identity — the enq side and the deq side may
    live in different partitions, which makes cf queues the only legal
    cross-partition boundary. *)
val enq_token : 'a t -> Partition.token

val deq_token : 'a t -> Partition.token

(** {2 Conflict footprints}

    One {!Conflict.prim} per queue (both sides of a {!cf} queue included:
    its methods are conflict-free by construction, which the atoms encode
    via {!Conflict.dyn} ports). Pass the atoms of the methods a rule's body
    may call to [Rule.make ~fp]. The [can_enq]/[can_deq] probes are tracked
    reads and need their own atoms when called through a ctx. *)

val prim : 'a t -> Conflict.prim

val fp_enq : 'a t -> Conflict.atom
val fp_deq : 'a t -> Conflict.atom
val fp_first : 'a t -> Conflict.atom
val fp_can_enq : 'a t -> Conflict.atom
val fp_can_deq : 'a t -> Conflict.atom
val fp_clear : 'a t -> Conflict.atom

(** {2 Untracked guard probes}

    For [can_fire] predicates: each returns exactly what the corresponding
    tracked guard would compute at this point of the cycle — same EHR
    values, same cycle-start snapshots for a {!cf} queue — without any port
    bookkeeping. [peek_room] is the outcome of {!can_enq} (and of the guard
    of {!enq}), [peek_ready] of {!can_deq} (and of the guards of {!deq} and
    {!first}), and [peek_head] is [Some] of what {!first} would return, or
    [None] when its guard would fail. A predicate built from them is exact,
    not conservative, about the queue; watch {!signal} to park on it. *)

val peek_room : 'a t -> bool
val peek_ready : 'a t -> bool
val peek_head : 'a t -> 'a option

(** Untracked occupancy / contents, for statistics and tests. Unlike
    {!peek_ready}, a {!cf} queue's size counts same-cycle enqueues its
    guards cannot see yet. *)
val peek_size : 'a t -> int

val peek_list : 'a t -> 'a list
