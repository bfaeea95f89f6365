(** L1 instruction cache: a blocking, coherent read-only (I/S) child.

    The front-end sends a fetch request tagged with an opaque id (the epoch,
    so wrong-path responses can be discarded) and receives up to
    [fetch_width] instruction words starting at the requested pc, truncated
    at the cache-line boundary. One miss outstanding at a time — instruction
    misses are rare enough that the paper's core keeps this simple. *)

type t

(** [?boundary_lookahead] declares the epoch lookahead ({!Cmd.Fifo.cf}) on
    the four crossbar-facing queues, which straddle the core/uncore
    partition boundary. *)
val create :
  ?name:string ->
  ?boundary_lookahead:int ->
  Cmd.Clock.t ->
  child_id:int ->
  geom:Cache_geom.t ->
  fetch_width:int ->
  stats:Cmd.Stats.t ->
  unit ->
  t

(** [req ctx t ~tag pc] — pc must be 4-byte aligned. *)
val req : Cmd.Kernel.ctx -> t -> tag:int -> int64 -> unit

val can_req : Cmd.Kernel.ctx -> t -> bool

(** [(tag, pc, words)] — [words] holds 1..fetch_width instruction words. *)
val resp : Cmd.Kernel.ctx -> t -> int * int64 * int array

val can_resp : Cmd.Kernel.ctx -> t -> bool

(** Footprint atoms ([Rule.make ~fp]): {!fp_req} covers [can_req]/[req],
    {!fp_resp} covers [can_resp]/[resp]. *)
val fp_req : t -> Cmd.Conflict.atom list

val fp_resp : t -> Cmd.Conflict.atom list

(** Untracked response availability + its wakeup signal, for the fetch
    rule's [can_fire]; exactly {!can_resp}'s outcome ([Fifo.peek_ready]). *)
val resp_ready : t -> bool

(** Untracked: the tag {!resp} would return now, or [-1] when it would
    fail its guard. *)
val resp_tag : t -> int

(** Untracked: exactly {!can_req}'s outcome ([Fifo.peek_room]). *)
val req_room : t -> bool

val resp_signal : t -> Cmd.Wakeup.signal

val creq_out : t -> Msg.creq Cmd.Fifo.t
val cresp_out : t -> Msg.cresp Cmd.Fifo.t
val preq_in : t -> Msg.preq Cmd.Fifo.t
val presp_in : t -> Msg.presp Cmd.Fifo.t
val rules : t -> Cmd.Rule.t list
