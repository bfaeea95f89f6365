(** Non-blocking L1 data cache (paper, Section V-B).

    Core-side interface, mirroring the paper's methods:
    - [req]: a load (with LQ tag), a store-exclusive request (with SB tag),
      or an atomic read-modify-write (commit-time AMO/LR/SC);
    - [resp_ld]: load value with its LQ tag;
    - [resp_st]: an SB tag whose line is now held exclusively and {e locked};
    - [write_data]: writes the store data for a previously responded tag and
      unlocks the line.

    Parent-side: MSI child over the four message channels of {!Msg}.
    Misses allocate one of [mshrs] miss-status registers; requests to a line
    with an outstanding MSHR merge into it. The [evict_hook] fires whenever a
    line leaves the cache (replacement or invalidation) — the TSO LSQ uses it
    to kill speculative loads (the paper's [cacheEvict]). *)

type t

type req =
  | Ld of { tag : int; addr : int64; bytes : int; unsigned : bool }
  | St of { tag : int; line : int64 }
  | At of { tag : int; addr : int64; bytes : int; f : int64 -> int64 option * int64 }
      (** [f old] returns (value to store if any, result register value) *)
  | Pf of { line : int64 }
      (** store prefetch (paper, Sec. V-B): acquire exclusive permission
          early; best-effort, no response *)

(** [?boundary_lookahead] declares the epoch lookahead ({!Cmd.Fifo.cf}) on
    the four crossbar-facing queues, which straddle the core/uncore
    partition boundary. *)
val create :
  ?name:string ->
  ?boundary_lookahead:int ->
  Cmd.Clock.t ->
  child_id:int ->
  geom:Cache_geom.t ->
  mshrs:int ->
  stats:Cmd.Stats.t ->
  unit ->
  t

(** {2 Core side (all guarded)} *)

val req : Cmd.Kernel.ctx -> t -> req -> unit
val can_req : Cmd.Kernel.ctx -> t -> bool
val resp_ld : Cmd.Kernel.ctx -> t -> int * int64
val can_resp_ld : Cmd.Kernel.ctx -> t -> bool
val resp_st : Cmd.Kernel.ctx -> t -> int
val can_resp_st : Cmd.Kernel.ctx -> t -> bool
val resp_at : Cmd.Kernel.ctx -> t -> int * int64
val can_resp_at : Cmd.Kernel.ctx -> t -> bool

(** {2 Conflict footprints} ([Rule.make ~fp])

    Each list covers the method and its [can_*] probe; [write_data] mutates
    only raw line state and contributes no atoms. *)

val fp_req : t -> Cmd.Conflict.atom list

val fp_resp_ld : t -> Cmd.Conflict.atom list
val fp_resp_st : t -> Cmd.Conflict.atom list
val fp_resp_at : t -> Cmd.Conflict.atom list

(** {2 Fast-path scheduler probes}

    Untracked response availability ([Fifo.peek_ready]: exactly the
    dequeue guard's outcome) and the matching
    wakeup signals, for the [can_fire] predicates of the core rules that
    dequeue each response queue. *)

val resp_ld_ready : t -> bool
val resp_st_ready : t -> bool
val resp_at_ready : t -> bool
val resp_ld_signal : t -> Cmd.Wakeup.signal
val resp_st_signal : t -> Cmd.Wakeup.signal
val resp_at_signal : t -> Cmd.Wakeup.signal

(** [write_data ctx t ~line ~data ~mask] writes masked bytes (bit [i] of
    [mask] enables byte [i]) into the locked line and unlocks it. *)
val write_data : Cmd.Kernel.ctx -> t -> line:int64 -> data:Bytes.t -> mask:int64 -> unit

(** Register the eviction callback (TSO's [cacheEvict]). *)
val set_evict_hook : t -> (Cmd.Kernel.ctx -> int64 -> unit) -> unit

(** {2 Parent side} *)

val creq_out : t -> Msg.creq Cmd.Fifo.t
val cresp_out : t -> Msg.cresp Cmd.Fifo.t
val preq_in : t -> Msg.preq Cmd.Fifo.t
val presp_in : t -> Msg.presp Cmd.Fifo.t

(** Internal rules (one tick rule); include in the top-level schedule. *)
val rules : t -> Cmd.Rule.t list

(** Test/debug: current MSI state of a line. *)
val peek_state : t -> int64 -> Msg.state
