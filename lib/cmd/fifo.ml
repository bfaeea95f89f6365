type 'a t = {
  nm : string;
  cap : int;
  sg : Wakeup.signal; (* touched whenever occupancy may have changed *)
  (* Partition-checker tokens. A ring FIFO is one primitive whose sides
     conflict (shared count cell), so both tokens alias one identity — it
     can never legally span two partitions. A conflict-free FIFO's sides
     touch disjoint cells, so each side is its own primitive identity and
     the two sides may live in different partitions (the whole point: cf
     queues are the only legal cross-partition boundary). *)
  tk_enq : Partition.token;
  tk_deq : Partition.token;
  (* Conflict-analysis identity plus per-method footprint atoms; variant
     specific (the port scheme differs), built by the constructor. *)
  prim : Conflict.prim;
  a_enq : Conflict.atom;
  a_deq : Conflict.atom;
  a_first : Conflict.atom;
  a_can_enq : Conflict.atom;
  a_can_deq : Conflict.atom;
  a_clear : Conflict.atom;
  enq_f : Kernel.ctx -> 'a -> unit;
  deq_f : Kernel.ctx -> 'a;
  first_f : Kernel.ctx -> 'a;
  can_enq_f : Kernel.ctx -> bool;
  can_deq_f : Kernel.ctx -> bool;
  clear_f : Kernel.ctx -> unit;
  (* Untracked guard probes: exactly the outcome the tracked [can_enq],
     [can_deq] and [first] guards would compute at this point of the
     cycle, without touching the port bookkeeping. *)
  room_f : unit -> bool;
  ready_f : unit -> bool;
  head_f : unit -> 'a option;
  size_f : unit -> int;
  list_f : unit -> 'a list;
}

let get_slot nm = function
  | Some v -> v
  | None -> invalid_arg (nm ^ ": empty slot read (internal invariant broken)")

let ring_list slots head count cap =
  List.init count (fun i -> get_slot "fifo" (Ehr.peek slots.((head + i) mod cap)))

(* Pipeline and bypass FIFOs share a ring-buffer skeleton; only the port
   assignment differs. [dp] is the port of the deq side, [ep] of the enq
   side: pipeline = (deq 0, enq 1), bypass = (enq 0, deq 1). Port 2 is
   reserved for [clear]. *)
let ring ~nm ~cap ~dp ~ep =
  let count = Ehr.create ~name:(nm ^ ".count") 0 in
  let head = Ehr.create ~name:(nm ^ ".head") 0 in
  let tail = Ehr.create ~name:(nm ^ ".tail") 0 in
  let slots = Array.init cap (fun i -> Ehr.create ~name:(Printf.sprintf "%s.slot%d" nm i) None) in
  let sg = Wakeup.make () in
  (* guard messages are built once: the concatenation was a per-call
     allocation on the hottest kernel operations *)
  let m_full = nm ^ " full" and m_empty = nm ^ " empty" in
  let enq_f ctx v =
    let c = Ehr.read ctx count ep in
    Kernel.guard ctx (c < cap) m_full;
    let t = Ehr.read ctx tail ep in
    Ehr.write ctx slots.(t) ep (Some v);
    Ehr.write ctx tail ep ((t + 1) mod cap);
    Ehr.write ctx count ep (c + 1);
    Wakeup.touch sg
  in
  let first_f ctx =
    let c = Ehr.read ctx count dp in
    Kernel.guard ctx (c > 0) m_empty;
    let h = Ehr.read ctx head dp in
    get_slot nm (Ehr.read ctx slots.(h) dp)
  in
  let deq_f ctx =
    let c = Ehr.read ctx count dp in
    Kernel.guard ctx (c > 0) m_empty;
    let h = Ehr.read ctx head dp in
    let v = get_slot nm (Ehr.read ctx slots.(h) dp) in
    Ehr.write ctx slots.(h) dp None;
    Ehr.write ctx head dp ((h + 1) mod cap);
    Ehr.write ctx count dp (c - 1);
    Wakeup.touch sg;
    v
  in
  let can_enq_f ctx = Ehr.read ctx count ep < cap in
  let can_deq_f ctx = Ehr.read ctx count dp > 0 in
  let clear_f ctx =
    Ehr.write ctx count 2 0;
    Ehr.write ctx head 2 0;
    Ehr.write ctx tail 2 0;
    Array.iter (fun s -> Ehr.write ctx s 2 None) slots;
    Wakeup.touch sg
  in
  let room_f () = Ehr.peek count < cap in
  let ready_f () = Ehr.peek count > 0 in
  let head_f () = if Ehr.peek count > 0 then Ehr.peek slots.(Ehr.peek head) else None in
  let size_f () = Ehr.peek count in
  let list_f () = ring_list slots (Ehr.peek head) (Ehr.peek count) cap in
  let tk = Partition.mk_token nm in
  (* One conflict primitive for the whole ring; abstract cells 0=count,
     1=head, 2=tail, 3=slots (merged — distinct slot cells collapse to one,
     which is conservative). Atoms mirror the accesses of each method. *)
  let prim = Conflict.fresh_prim nm in
  Array.iter (fun s -> Ehr.adopt s prim) slots;
  Ehr.adopt count prim;
  Ehr.adopt head prim;
  Ehr.adopt tail prim;
  let atom = Conflict.atom ~prim in
  let a_enq =
    atom ~label:"enq" [ (false, 0, ep); (false, 2, ep); (true, 3, ep); (true, 2, ep); (true, 0, ep) ]
  in
  let a_first = atom ~label:"first" [ (false, 0, dp); (false, 1, dp); (false, 3, dp) ] in
  let a_deq =
    atom ~label:"deq"
      [ (false, 0, dp); (false, 1, dp); (false, 3, dp); (true, 3, dp); (true, 1, dp); (true, 0, dp) ]
  in
  let a_can_enq = atom ~label:"can_enq" [ (false, 0, ep) ] in
  let a_can_deq = atom ~label:"can_deq" [ (false, 0, dp) ] in
  let a_clear = atom ~label:"clear" [ (true, 0, 2); (true, 1, 2); (true, 2, 2); (true, 3, 2) ] in
  { nm; cap; sg; tk_enq = tk; tk_deq = tk; prim; a_enq; a_deq; a_first; a_can_enq; a_can_deq;
    a_clear; enq_f; deq_f; first_f; can_enq_f; can_deq_f; clear_f; room_f; ready_f; head_f; size_f;
    list_f }

let pipeline ?name ~capacity () =
  let nm = match name with Some n -> n | None -> "pfifo" in
  ring ~nm ~cap:capacity ~dp:0 ~ep:1

let bypass ?name ~capacity () =
  let nm = match name with Some n -> n | None -> "bfifo" in
  ring ~nm ~cap:capacity ~dp:1 ~ep:0

(* Conflict-free FIFO: the enq side and the deq side touch disjoint cells;
   each side's guard compares its own (tracked) total against a cycle-start
   snapshot of the other side's, so guards are conservative by up to one
   cycle — exactly BSV's mkCFFifo. Each side is multi-ported: the k-th enq
   (or deq) of a cycle uses EHR port k, so any number of same-cycle enqs and
   deqs compose, within one rule or across rules (enq_k < enq_{k+1}).

   [?lookahead] declares the minimum number of cycles between an enq into
   this FIFO and the earliest architecturally possible *consequence* flowing
   back to the enqueuer through any path (e.g. an L2 input queue whose
   response pipeline is [latency] deep declares that latency). The epoch
   engine takes the minimum declared lookahead over all cross-partition
   boundaries as the safe free-run bound L; an undeclared boundary
   contributes the trivial bound of 1. The declaration is trusted — but
   checked: under epoch-mode [--partition-audit] the L2 verifies its
   configured latency still covers the value it declared. *)
let cf ?name ?lookahead clk ~capacity () =
  let nm = match name with Some n -> n | None -> "cffifo" in
  let cap = capacity in
  assert (cap <= 56);
  let clear_port = 60 in
  let enq_total = Ehr.create ~name:(nm ^ ".enqTotal") 0 in
  let deq_total = Ehr.create ~name:(nm ^ ".deqTotal") 0 in
  let slots = Array.init cap (fun i -> Ehr.create ~name:(Printf.sprintf "%s.slot%d" nm i) None) in
  let enq_snap = ref 0 (* enq_total at cycle start *)
  and deq_snap = ref 0 (* deq_total at cycle start *)
  and eport = ref 0
  and dport = ref 0 in
  let sg = Wakeup.make () in
  (* The guards compare against cycle-start snapshots, so a parked observer
     whose view depends on them must also be woken when the snapshots
     advance at the cycle boundary. *)
  let refresh_snaps () =
    let e = Ehr.peek enq_total and d = Ehr.peek deq_total in
    if e <> !enq_snap || d <> !deq_snap then Wakeup.touch sg;
    enq_snap := e;
    deq_snap := d;
    eport := 0;
    dport := 0
  in
  Clock.on_cycle_end clk refresh_snaps;
  (* The totals and slots are EHR-backed (registered there); the
     cycle-start snapshots are raw refs and need their own entry. The
     per-cycle port counters are 0 at every cycle boundary — where
     snapshots are taken — but ride along for completeness. *)
  State.field ~name:(nm ^ ".cf")
    (fun () -> (!enq_snap, !deq_snap, !eport, !dport))
    (fun (e, d, ep, dp) ->
      enq_snap := e;
      deq_snap := d;
      eport := ep;
      dport := dp);
  let bump ctx r =
    let old = !r in
    if Kernel.logging ctx then Kernel.on_abort ctx (fun () -> r := old)
    else Kernel.note_elided ctx;
    r := old + 1;
    old
  in
  let m_full = nm ^ " full" and m_empty = nm ^ " empty" in
  let enq_f ctx v =
    let t = Ehr.read ctx enq_total !eport in
    Kernel.guard ctx (t - !deq_snap < cap) m_full;
    let p = bump ctx eport in
    Ehr.write ctx slots.(t mod cap) p (Some v);
    Ehr.write ctx enq_total p (t + 1);
    Wakeup.touch sg
  in
  let first_f ctx =
    let h = Ehr.read ctx deq_total !dport in
    Kernel.guard ctx (h < !enq_snap) m_empty;
    get_slot nm (Ehr.read ctx slots.(h mod cap) !dport)
  in
  let deq_f ctx =
    let h = Ehr.read ctx deq_total !dport in
    Kernel.guard ctx (h < !enq_snap) m_empty;
    let p = bump ctx dport in
    let v = get_slot nm (Ehr.read ctx slots.(h mod cap) p) in
    Ehr.write ctx slots.(h mod cap) p None;
    Ehr.write ctx deq_total p (h + 1);
    Wakeup.touch sg;
    v
  in
  let can_enq_f ctx = Ehr.read ctx enq_total !eport - !deq_snap < cap in
  let can_deq_f ctx = Ehr.read ctx deq_total !dport < !enq_snap in
  let clear_f ctx =
    Ehr.write ctx enq_total clear_port 0;
    Ehr.write ctx deq_total clear_port 0;
    Array.iter (fun s -> Ehr.write ctx s clear_port None) slots;
    (* the snapshots must not keep stale occupancy across the flush cycle *)
    Kernel.on_abort ctx
      (let oe = !enq_snap and od = !deq_snap in
       fun () ->
         enq_snap := oe;
         deq_snap := od);
    enq_snap := 0;
    deq_snap := 0;
    Wakeup.touch sg
  in
  let room_f () = Ehr.peek enq_total - !deq_snap < cap in
  let ready_f () = Ehr.peek deq_total < !enq_snap in
  let head_f () =
    let h = Ehr.peek deq_total in
    if h < !enq_snap then Ehr.peek slots.(h mod cap) else None
  in
  let size_f () = Ehr.peek enq_total - Ehr.peek deq_total in
  let list_f () =
    let h = Ehr.peek deq_total and n = Ehr.peek enq_total - Ehr.peek deq_total in
    List.init n (fun i -> get_slot nm (Ehr.peek slots.((h + i) mod cap)))
  in
  let tk_enq = Partition.mk_token (nm ^ ".enq") in
  let tk_deq = Partition.mk_token (nm ^ ".deq") in
  (* Abstract cells 0=enqTotal, 1=deqTotal, 2=slots. Same-side and
     cross-side accesses use the dynamic ascending ports ([Conflict.dyn]):
     any two compose in either order — the conflict-free design point —
     while the static clear port sits above all of them, so everything is
     admissible strictly before [clear] and nothing after it. Cross-side
     slot accesses can only collide when a side's guard has already failed,
     so the merged slot cell keeps the [dyn] composition sound. *)
  let prim = Conflict.fresh_prim nm in
  Array.iter (fun s -> Ehr.adopt s prim) slots;
  Ehr.adopt enq_total prim;
  Ehr.adopt deq_total prim;
  let atom = Conflict.atom ~prim in
  let dyn = Conflict.dyn in
  let a_enq = atom ~label:"enq" [ (false, 0, dyn); (true, 2, dyn); (true, 0, dyn) ] in
  let a_first = atom ~label:"first" [ (false, 1, dyn); (false, 2, dyn) ] in
  let a_deq = atom ~label:"deq" [ (false, 1, dyn); (false, 2, dyn); (true, 2, dyn); (true, 1, dyn) ] in
  let a_can_enq = atom ~label:"can_enq" [ (false, 0, dyn) ] in
  let a_can_deq = atom ~label:"can_deq" [ (false, 1, dyn) ] in
  let a_clear =
    atom ~label:"clear" [ (true, 0, clear_port); (true, 1, clear_port); (true, 2, clear_port) ]
  in
  (* Register with the ambient boundary collector (a no-op outside machine
     construction): if the two sides end up claimed by different
     partitions, the epoch engine drives these closures to replay the
     boundary's cycle-by-cycle visibility during window synchronization. *)
  Boundary.note
    {
      Boundary.bo_name = nm;
      bo_enq_tk = Partition.prim tk_enq;
      bo_deq_tk = Partition.prim tk_deq;
      bo_ctor_part = Partition.ambient ();
      bo_prim = prim.Conflict.pid;
      bo_lookahead = lookahead;
      bo_enq_total = (fun () -> Ehr.peek enq_total);
      bo_deq_total = (fun () -> Ehr.peek deq_total);
      bo_set_enq_snap = (fun v -> enq_snap := v);
      bo_set_deq_snap = (fun v -> deq_snap := v);
      bo_reset_eport = (fun () -> eport := 0);
      bo_reset_dport = (fun () -> dport := 0);
      bo_touch = (fun () -> Wakeup.touch sg);
      bo_refresh = refresh_snaps;
    };
  { nm; cap; sg; tk_enq; tk_deq; prim; a_enq; a_deq; a_first; a_can_enq; a_can_deq; a_clear;
    enq_f; deq_f; first_f; can_enq_f; can_deq_f; clear_f; room_f; ready_f; head_f; size_f; list_f }

let enq ctx t v = t.enq_f ctx v
let deq ctx t = t.deq_f ctx
let first ctx t = t.first_f ctx
let can_enq ctx t = t.can_enq_f ctx
let can_deq ctx t = t.can_deq_f ctx
let clear ctx t = t.clear_f ctx
let capacity t = t.cap
let name t = t.nm
let signal t = t.sg
let enq_token t = t.tk_enq
let deq_token t = t.tk_deq
let prim t = t.prim
let fp_enq t = t.a_enq
let fp_deq t = t.a_deq
let fp_first t = t.a_first
let fp_can_enq t = t.a_can_enq
let fp_can_deq t = t.a_can_deq
let fp_clear t = t.a_clear
let peek_room t = t.room_f ()
let peek_ready t = t.ready_f ()
let peek_head t = t.head_f ()
let peek_size t = t.size_f ()
let peek_list t = t.list_f ()
