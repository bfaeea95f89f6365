open Cmd

type line = {
  mutable tag : int64;
  mutable valid : bool;
  mutable dirty : bool;
  data : Bytes.t;
  dir : Msg.state array;
  mutable busy : bool;
}

type kind = Child of { child : int; want : Msg.state } | Walker of { tag : int; addr : int64 }

type mshr = {
  mutable valid : bool;
  mutable mline : int64;
  mutable kind : kind;
  mutable way : int; (* -1 until a way is owned *)
  mutable victim : int64 option; (* line being recalled out of the way *)
  mutable victim_preq_sent : bool array;
  mutable fetch_sent : bool;
  mutable dg_sent : bool array;
}

type t = {
  name : string;
  m_mshrs_full : string; (* guard message, built once *)
  nchildren : int;
  geom : Cache_geom.t;
  lines : line array array;
  mshrs : mshr array;
  dram : Dram.t;
  creq_q : Msg.creq Fifo.t;
  cresp_q : Msg.cresp Fifo.t;
  preq_o : (int * Msg.preq) Fifo.t;
  presp_o : (int * Msg.presp) Fifo.t;
  walk_req_q : (int * int64) Fifo.t;
  walk_resp_q : (int * int64) Fifo.t;
  (* responses sit in delay queues for [latency] cycles: the L2's access
     time, which DRAM latency does not include *)
  clk : Clock.t;
  latency : int;
  mesi : bool;
  (* Address-interleaved banking: this instance serves only line addresses
     whose [bank_bits]-wide field just above the line offset equals
     [bank_id]; set index and tag skip that field so every set is usable.
     [(0, 0)] — the default single bank — degenerates to the unbanked
     address split. *)
  bank_id : int;
  bank_bits : int;
  part : int; (* partition this bank was built in (uncore for the unbanked L2) *)
  (* Response-latency floor this design declared to the epoch engine (minus
     any slack the caller attributes to other pipeline stages); checked
     against [latency] when the partition audit runs. 0 = no declaration. *)
  declared_min : int;
  presp_delay : (int * int * Msg.presp) Fifo.t; (* ready, child, grant *)
  preq_delay : (int * int * Msg.preq) Fifo.t; (* ready, child, demand *)
  walk_delay : (int * int * int64) Fifo.t; (* ready, tag, data *)
  mutable rotor : int;
  c_hit : Stats.counter;
  c_miss : Stats.counter;
  c_recalls : Stats.counter;
  c_mshr_occ : Stats.counter;
  ob_grant : Mcheck.Obligation.monitor;
}

let create ?(name = "l2") ?(bank = (0, 0)) ?(declared_min = 0) ?in_lookahead clk ~nchildren ~geom
    ~mshrs ?(latency = 0) ?(mesi = false) ~dram ~stats () =
  let bank_id, bank_bits = bank in
  let mk_line () =
    {
      tag = -1L;
      valid = false;
      dirty = false;
      data = Bytes.make Cache_geom.line_bytes '\000';
      dir = Array.make nchildren Msg.I;
      busy = false;
    }
  in
  let mk_mshr () =
    {
      valid = false;
      mline = 0L;
      kind = Walker { tag = 0; addr = 0L };
      way = -1;
      victim = None;
      victim_preq_sent = Array.make nchildren false;
      fetch_sent = false;
      dg_sent = Array.make nchildren false;
    }
  in
  let t =
  {
    name;
    m_mshrs_full = name ^ ": mshrs full";
    nchildren;
    geom;
    lines = Array.init geom.Cache_geom.sets (fun _ -> Array.init geom.Cache_geom.ways (fun _ -> mk_line ()));
    mshrs = Array.init mshrs (fun _ -> mk_mshr ());
    dram;
    (* The six child/walker-facing queues may straddle a partition boundary
       when the bank is its own partition; [in_lookahead] declares their
       epoch lookahead. The delay queues and the DRAM pipe are bank-private.
       Capacities clamp to the cf FIFO's 56-slot ceiling at high core
       counts; the tick rule enqueues at most once per cycle, so a delay
       queue never holds more than [latency + 1] entries anyway, and input
       queues just backpressure through their guards. *)
    creq_q = Fifo.cf ~name:(name ^ ".creq") ?lookahead:in_lookahead clk ~capacity:(min 56 (4 * nchildren)) ();
    cresp_q = Fifo.cf ~name:(name ^ ".cresp") ?lookahead:in_lookahead clk ~capacity:(min 56 (4 * nchildren)) ();
    preq_o = Fifo.cf ~name:(name ^ ".preq") ?lookahead:in_lookahead clk ~capacity:(min 56 (4 * nchildren)) ();
    presp_o = Fifo.cf ~name:(name ^ ".presp") ?lookahead:in_lookahead clk ~capacity:(min 56 (4 * nchildren)) ();
    walk_req_q = Fifo.cf ~name:(name ^ ".walkreq") ?lookahead:in_lookahead clk ~capacity:4 ();
    walk_resp_q = Fifo.cf ~name:(name ^ ".walkresp") ?lookahead:in_lookahead clk ~capacity:4 ();
    clk;
    latency;
    mesi;
    bank_id;
    bank_bits;
    part = Partition.ambient ();
    declared_min;
    presp_delay = Fifo.cf ~name:(name ^ ".presp.delay") clk ~capacity:(min 56 (4 * nchildren)) ();
    preq_delay = Fifo.cf ~name:(name ^ ".preq.delay") clk ~capacity:(min 56 (4 * nchildren)) ();
    walk_delay = Fifo.cf ~name:(name ^ ".walk.delay") clk ~capacity:8 ();
    rotor = 0;
    c_hit = Stats.counter stats (name ^ ".hits");
    c_miss = Stats.counter stats (name ^ ".misses");
    c_recalls = Stats.counter stats (name ^ ".recalls");
    c_mshr_occ = Stats.counter stats (name ^ ".mshrOccSum");
    ob_grant =
      Mcheck.Obligation.declare ~module_:"mem.l2" ~interface:"grant"
        ~doc:
          "a grant message may only leave the parent when the directory is \
           compatible with the granted state (exclusive implies every other \
           child invalid, shared implies no other owner)"
        ();
  }
  in
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.lines, t.mshrs, t.rotor))
    (fun (lines, mshrs, rotor) ->
      Array.iteri (fun s ways -> Array.blit ways 0 t.lines.(s) 0 (Array.length ways)) lines;
      Array.blit mshrs 0 t.mshrs 0 (Array.length t.mshrs);
      t.rotor <- rotor);
  (* MSHR occupancy sampled at the clock edge; divide by cycles for the
     average. The hook runs in this bank's partition group (post-barrier on
     the main domain, or on the bank's own domain under epoch execution),
     and only ever touches this bank's counter — single writer either way. *)
  Clock.on_cycle_end clk (fun () ->
      let n = Array.fold_left (fun a (m : mshr) -> if m.valid then a + 1 else a) 0 t.mshrs in
      if n > 0 then Stats.incr ~by:n t.c_mshr_occ);
  (* Directory exclusivity (paper Sec. VI): a line owned M (or E under
     MESI) by one child must be I in every other child — the parent only
     grants after downgrading everyone else, so two owners at a cycle
     boundary means the protocol state itself was corrupted. *)
  Verif.Invariant.register ~name:"l2.dir-exclusive" (fun () ->
      Array.iteri
        (fun set_idx ways ->
          Array.iter
            (fun (ln : line) ->
              if ln.valid then begin
                let owner = ref (-1) in
                Array.iteri
                  (fun c st -> if st = Msg.M || st = Msg.E then owner := c)
                  ln.dir;
                if !owner >= 0 then
                  Array.iteri
                    (fun c st ->
                      if c <> !owner && st <> Msg.I then
                        Verif.Invariant.fail "l2.dir-exclusive"
                          "%s set %d tag 0x%Lx: child %d owns the line but child %d is not I"
                          name set_idx ln.tag !owner c)
                    ln.dir
              end)
            ways)
        t.lines);
  t

let fld (ctx : Kernel.ctx) get set v = Mut.field ctx ~get ~set v

(* Address split with the bank-select field skipped: |tag|set|bank|line|. *)
let index t laddr =
  Int64.to_int (Int64.shift_right_logical laddr (Cache_geom.line_bits + t.bank_bits))
  land (t.geom.Cache_geom.sets - 1)

let tag_of t laddr =
  Int64.shift_right_logical laddr (Cache_geom.line_bits + t.bank_bits + t.geom.Cache_geom.set_bits)

let line_addr_of t set_idx (ln : line) =
  Int64.logor
    (Int64.shift_left ln.tag (Cache_geom.line_bits + t.bank_bits + t.geom.Cache_geom.set_bits))
    (Int64.of_int
       ((set_idx lsl (Cache_geom.line_bits + t.bank_bits)) lor (t.bank_id lsl Cache_geom.line_bits)))

let lookup t laddr =
  let ways = t.lines.(index t laddr) in
  let tg = tag_of t laddr in
  let rec go i =
    if i >= Array.length ways then None
    else if ways.(i).valid && ways.(i).tag = tg then Some (i, ways.(i))
    else go (i + 1)
  in
  go 0

let find_mshr t laddr =
  let rec go i =
    if i >= Array.length t.mshrs then None
    else if t.mshrs.(i).valid && t.mshrs.(i).mline = laddr then Some t.mshrs.(i)
    else go (i + 1)
  in
  go 0

let free_mshr t =
  let rec go i =
    if i >= Array.length t.mshrs then None else if not t.mshrs.(i).valid then Some t.mshrs.(i) else go (i + 1)
  in
  go 0

(* Directory compatibility for a grant. An E holder may silently have
   become M, so it blocks shared grants exactly like an M holder. *)
let dir_ok (ln : line) kind =
  match kind with
  | Child { child; want = Msg.M | Msg.E } ->
    Array.for_all Fun.id (Array.mapi (fun i s -> i = child || s = Msg.I) ln.dir)
  | Child { want = Msg.S; _ } | Walker _ -> Array.for_all (fun s -> Msg.state_leq s Msg.S) ln.dir
  | Child { want = Msg.I; _ } -> true

(* Which children must be downgraded, and to what, before [kind] is granted. *)
let downgrades_needed (ln : line) kind =
  match kind with
  | Child { child; want = Msg.M | Msg.E } ->
    List.filter_map
      (fun i -> if i <> child && ln.dir.(i) <> Msg.I then Some (i, Msg.I) else None)
      (List.init (Array.length ln.dir) Fun.id)
  | Child { child; want = Msg.S } ->
    List.filter_map
      (fun i ->
        if i <> child && not (Msg.state_leq ln.dir.(i) Msg.S) then Some (i, Msg.S) else None)
      (List.init (Array.length ln.dir) Fun.id)
  | Walker _ ->
    List.filter_map
      (fun i -> if not (Msg.state_leq ln.dir.(i) Msg.S) then Some (i, Msg.S) else None)
      (List.init (Array.length ln.dir) Fun.id)
  | Child { want = Msg.I; _ } -> []

let do_grant ctx t laddr (ln : line) kind =
  (* Epoch-audit backstop for the declared lookahead: a response stamped
     ready sooner than the declared floor means the epoch engine's window
     bound overstates the latency the hardware model actually enforces —
     exactly the drift [--partition-audit] in epoch mode exists to catch. *)
  if t.declared_min > 0 && Kernel.partition_audit ctx && t.latency < t.declared_min then
    raise
      (Sim.Audit_fail
         (Printf.sprintf "%s: response latency %d below declared epoch lookahead floor %d" t.name
            t.latency t.declared_min));
  let ready = Clock.now t.clk + t.latency in
  Mcheck.Obligation.check ctx t.ob_grant (fun () ->
      if dir_ok ln kind then None
      else
        Some
          (Printf.sprintf "%s: grant for line 0x%Lx with incompatible directory [%s]" t.name laddr
             (String.concat ";" (Array.to_list (Array.map Msg.state_to_string ln.dir)))));
  match kind with
  | Child { child; want } ->
    (* MESI: a shared request with no other sharers is granted
       exclusive-clean, so the child's first store needs no upgrade *)
    let granted =
      if
        t.mesi && want = Msg.S
        && Array.for_all Fun.id (Array.mapi (fun i s -> i = child || s = Msg.I) ln.dir)
      then Msg.E
      else want
    in
    Fifo.enq ctx t.presp_delay
      (ready, child, { Msg.line = laddr; granted; data = Bytes.copy ln.data });
    Mut.set_arr ctx ln.dir child granted
  | Walker { tag; addr } ->
    let off = Cache_geom.offset addr in
    Fifo.enq ctx t.walk_delay (ready, tag, Bytes.get_int64_le ln.data (off land lnot 7))

(* --- steps -------------------------------------------------------------- *)

let step_cresp ctx t =
  let (r : Msg.cresp) = Fifo.deq ctx t.cresp_q in
  match lookup t r.Msg.line with
  | Some (_, ln) ->
    (match r.Msg.data with
    | Some d ->
      Mut.blit ctx ~src:d ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
      fld ctx (fun () -> ln.dirty) (fun v -> ln.dirty <- v) true
    | None -> ());
    (* the response reports the child's state now; never an upgrade *)
    if Msg.state_leq r.Msg.to_s ln.dir.(r.Msg.child) then Mut.set_arr ctx ln.dir r.Msg.child r.Msg.to_s
  | None ->
    (* stale response for a line we already evicted; carries no data *)
    assert (r.Msg.data = None)

let step_dram_resp ctx t =
  let laddr, data = Dram.resp ctx t.dram in
  match find_mshr t laddr with
  | Some m when m.way >= 0 ->
    let ln = t.lines.(index t laddr).(m.way) in
    Mut.blit ctx ~src:data ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
    fld ctx (fun () -> ln.tag) (fun v -> ln.tag <- v) (tag_of t laddr);
    fld ctx (fun () -> ln.valid) (fun v -> ln.valid <- v) true;
    fld ctx (fun () -> ln.dirty) (fun v -> ln.dirty <- v) false;
    Array.iteri (fun i _ -> Mut.set_arr ctx ln.dir i Msg.I) ln.dir
  | Some _ | None -> failwith (t.name ^ ": dram resp without mshr/way")

let alloc_mshr ctx t laddr kind =
  match free_mshr t with
  | None -> raise (Kernel.Guard_fail t.m_mshrs_full)
  | Some m ->
    fld ctx (fun () -> m.valid) (fun v -> m.valid <- v) true;
    fld ctx (fun () -> m.mline) (fun v -> m.mline <- v) laddr;
    fld ctx (fun () -> m.kind) (fun v -> m.kind <- v) kind;
    fld ctx (fun () -> m.way) (fun v -> m.way <- v) (-1);
    fld ctx (fun () -> m.victim) (fun v -> m.victim <- v) None;
    fld ctx (fun () -> m.fetch_sent) (fun v -> m.fetch_sent <- v) false;
    Array.iteri (fun i _ -> Mut.set_arr ctx m.victim_preq_sent i false) m.victim_preq_sent;
    Array.iteri (fun i _ -> Mut.set_arr ctx m.dg_sent i false) m.dg_sent;
    (match lookup t laddr with
    | Some (w, ln) ->
      fld ctx (fun () -> m.way) (fun v -> m.way <- v) w;
      fld ctx (fun () -> ln.busy) (fun v -> ln.busy <- v) true
    | None -> ());
    Stats.incr ~ctx t.c_miss

(* Fast path: the line is resident, unclaimed and the directory already
   permits the grant. *)
let try_fast ctx t laddr kind =
  match lookup t laddr with
  | Some (_, ln) when (not ln.busy) && dir_ok ln kind && find_mshr t laddr = None ->
    do_grant ctx t laddr ln kind;
    Stats.incr ~ctx t.c_hit;
    true
  | _ -> false

let step_creq ctx t =
  let (r : Msg.creq) = Fifo.first ctx t.creq_q in
  let kind = Child { child = r.Msg.child; want = r.Msg.want } in
  if not (try_fast ctx t r.Msg.line kind) then begin
    Kernel.guard ctx (find_mshr t r.Msg.line = None) "line transaction in flight";
    (match lookup t r.Msg.line with
    | Some (_, ln) -> Kernel.guard ctx (not ln.busy) "line busy"
    | None -> ());
    alloc_mshr ctx t r.Msg.line kind
  end;
  ignore (Fifo.deq ctx t.creq_q)

let step_walk_req ctx t =
  let tag, addr = Fifo.first ctx t.walk_req_q in
  let laddr = Cache_geom.line_addr addr in
  let kind = Walker { tag; addr } in
  if not (try_fast ctx t laddr kind) then begin
    Kernel.guard ctx (find_mshr t laddr = None) "line transaction in flight";
    (match lookup t laddr with
    | Some (_, ln) -> Kernel.guard ctx (not ln.busy) "line busy"
    | None -> ());
    alloc_mshr ctx t laddr kind
  end;
  ignore (Fifo.deq ctx t.walk_req_q)

(* Advance one MSHR's transaction as far as it can go this cycle. Partial
   progress must commit (e.g. a DRAM fetch already sent), so stages end by
   raising [Stop] — caught below, not a transaction abort — instead of a
   failing guard. *)
exception Stop

let step_mshr ctx t (m : mshr) =
  let stop () = raise Stop in
  try
    if not m.valid then stop ();
    let set_idx = index t m.mline in
    if m.way < 0 then begin
      (* acquire a way: a free one, or recall a victim *)
      let ways = t.lines.(set_idx) in
      let n = Array.length ways in
      let rec free i =
        if i >= n then None
        else if (not ways.(i).valid) && not ways.(i).busy then Some i
        else free (i + 1)
      in
      match free 0 with
      | Some w ->
        fld ctx (fun () -> m.way) (fun v -> m.way <- v) w;
        fld ctx (fun () -> ways.(w).busy) (fun v -> ways.(w).busy <- v) true
      | None ->
        (* choose a victim: prefer clean lines with no children *)
        let score i =
          let ln = ways.(i) in
          if ln.busy then -1
          else if Array.for_all (fun s -> s = Msg.I) ln.dir then if ln.dirty then 2 else 3
          else 1
        in
        let best = ref (-1) and best_s = ref 0 in
        for i = 0 to n - 1 do
          let cand = (t.rotor + i) mod n in
          if score cand > !best_s then begin
            best := cand;
            best_s := score cand
          end
        done;
        if !best < 0 then stop ();
        fld ctx (fun () -> t.rotor) (fun v -> t.rotor <- v) (t.rotor + 1);
        let w = !best in
        let ln = ways.(w) in
        fld ctx (fun () -> ln.busy) (fun v -> ln.busy <- v) true;
        fld ctx (fun () -> m.victim) (fun v -> m.victim <- v) (Some (line_addr_of t set_idx ln));
        fld ctx (fun () -> m.way) (fun v -> m.way <- v) w;
        Array.iteri (fun i _ -> Mut.set_arr ctx m.victim_preq_sent i false) m.victim_preq_sent;
        Stats.incr ~ctx t.c_recalls
    end;
    if m.way < 0 then stop ();
    let ln = t.lines.(set_idx).(m.way) in
    (* victim recall in progress? *)
    (match m.victim with
    | Some vaddr ->
      (* demand I from every child still holding the victim *)
      Array.iteri
        (fun i s ->
          if s <> Msg.I && (not m.victim_preq_sent.(i)) && Fifo.can_enq ctx t.preq_o then begin
            Fifo.enq ctx t.preq_o (i, { Msg.line = vaddr; to_s = Msg.I });
            Mut.set_arr ctx m.victim_preq_sent i true
          end)
        ln.dir;
      if not (Array.for_all (fun s -> s = Msg.I) ln.dir) then stop ();
      if ln.dirty then Dram.req_write ctx t.dram vaddr ln.data;
      fld ctx (fun () -> ln.valid) (fun v -> ln.valid <- v) false;
      fld ctx (fun () -> ln.dirty) (fun v -> ln.dirty <- v) false;
      fld ctx (fun () -> m.victim) (fun v -> m.victim <- v) None
    | None -> ());
    (* fetch from DRAM if the line is absent *)
    let present = ln.valid && ln.tag = tag_of t m.mline in
    if not present then begin
      if (not m.fetch_sent)
         && Kernel.attempt ctx (fun ctx -> Dram.req_read ctx t.dram m.mline) <> None
      then fld ctx (fun () -> m.fetch_sent) (fun v -> m.fetch_sent <- v) true;
      stop ()
    end;
    (* downgrade children that block the grant *)
    List.iter
      (fun (child, to_s) ->
        if (not m.dg_sent.(child)) && Fifo.can_enq ctx t.preq_delay then begin
          Fifo.enq ctx t.preq_delay (Clock.now t.clk + t.latency, child, { Msg.line = m.mline; to_s });
          Mut.set_arr ctx m.dg_sent child true
        end)
      (downgrades_needed ln m.kind);
    if not (dir_ok ln m.kind) then stop ();
    if not (Fifo.can_enq ctx t.presp_o) then stop ();
    do_grant ctx t m.mline ln m.kind;
    fld ctx (fun () -> ln.busy) (fun v -> ln.busy <- v) false;
    fld ctx (fun () -> m.valid) (fun v -> m.valid <- v) false
  with Stop -> ()

let step_delays ctx t =
  let rec drain src dst =
    match Kernel.attempt ctx (fun ctx ->
        let ready, a, b = Fifo.first ctx src in
        Kernel.guard ctx (ready <= Clock.now t.clk) "not ready";
        ignore (Fifo.deq ctx src);
        Fifo.enq ctx dst (a, b))
    with
    | Some () -> drain src dst
    | None -> ()
  in
  drain t.presp_delay t.presp_o;
  drain t.preq_delay t.preq_o;
  drain t.walk_delay t.walk_resp_q

(* A delay queue's head is due: [step_delays] would try to move it on. *)
let ripe t q =
  match Fifo.peek_head q with Some (ready, _, _) -> ready <= Clock.now t.clk | None -> false

(* [step_mshr] stops without a write when the MSHR is free, or owns its way
   with no victim to recall and waits on the DRAM read it already sent for
   a line still absent. *)
let mshr_waits t (m : mshr) =
  (not m.valid)
  || m.way >= 0 && m.fetch_sent
     && (match m.victim with Some _ -> false | None -> true)
     &&
     let ln = t.lines.(index t m.mline).(m.way) in
     not (ln.valid && ln.tag = tag_of t m.mline)

let rec mshrs_wait t i =
  i >= Array.length t.mshrs || (mshr_waits t t.mshrs.(i) && mshrs_wait t (i + 1))

let tick t =
  (* False only when no sub-step can write: no delay-queue head or DRAM
     head is due by [Clock.now], no input queue is ready against its
     cycle-start snapshot, and every MSHR waits on its DRAM read. The
     time-dependent terms ripen by clock advance alone, which touches no
     signal, so the rule is watchless: the predicate is re-evaluated every
     cycle instead of parking. *)
  let can_fire () =
    ripe t t.presp_delay
    || ripe t t.preq_delay
    || ripe t t.walk_delay
    || Fifo.peek_ready t.cresp_q
    || Dram.resp_ready t.dram
    || (not (mshrs_wait t 0))
    || Fifo.peek_ready t.creq_q
    || Fifo.peek_ready t.walk_req_q
  in
  (* Declared partition tokens: the bank side of every child/walker queue,
     plus both sides of the bank-private delay queues and DRAM pipe. When
     the bank runs as its own partition the static checker uses these to
     prove the crossbar (uncore) and the bank never share a primitive. *)
  let touches =
    [
      Fifo.deq_token t.creq_q;
      Fifo.deq_token t.cresp_q;
      Fifo.deq_token t.walk_req_q;
      Fifo.enq_token t.preq_o;
      Fifo.enq_token t.presp_o;
      Fifo.enq_token t.walk_resp_q;
      Fifo.enq_token t.presp_delay;
      Fifo.deq_token t.presp_delay;
      Fifo.enq_token t.preq_delay;
      Fifo.deq_token t.preq_delay;
      Fifo.enq_token t.walk_delay;
      Fifo.deq_token t.walk_delay;
    ]
    @ Dram.tokens t.dram
  in
  (* Tracked footprint: the six boundary queues, the three delay queues and
     the DRAM pending queue. Lines, MSHRs and the rotor are raw [Mut] state
     (invisible to the conflict matrix) private to this rule. *)
  let fp =
    [
      Fifo.fp_first t.creq_q;
      Fifo.fp_deq t.creq_q;
      Fifo.fp_deq t.cresp_q;
      Fifo.fp_can_enq t.preq_o;
      Fifo.fp_enq t.preq_o;
      Fifo.fp_can_enq t.presp_o;
      Fifo.fp_enq t.presp_o;
      Fifo.fp_first t.walk_req_q;
      Fifo.fp_deq t.walk_req_q;
      Fifo.fp_enq t.walk_resp_q;
      Fifo.fp_enq t.presp_delay;
      Fifo.fp_first t.presp_delay;
      Fifo.fp_deq t.presp_delay;
      Fifo.fp_enq t.preq_delay;
      Fifo.fp_first t.preq_delay;
      Fifo.fp_deq t.preq_delay;
      Fifo.fp_enq t.walk_delay;
      Fifo.fp_first t.walk_delay;
      Fifo.fp_deq t.walk_delay;
    ]
    @ Dram.fp_use t.dram
  in
  Rule.make ~can_fire ~touches ~fp ~vacuous:true (t.name ^ ".tick") (fun ctx ->
      step_delays ctx t;
      (* responses first, unconditionally, all of them *)
      let continue = ref true in
      while !continue do
        match Kernel.attempt ctx (fun ctx -> step_cresp ctx t) with
        | Some () -> ()
        | None -> continue := false
      done;
      let continue = ref true in
      while !continue do
        match Kernel.attempt ctx (fun ctx -> step_dram_resp ctx t) with
        | Some () -> ()
        | None -> continue := false
      done;
      Array.iter (fun m -> ignore (Kernel.attempt ctx (fun ctx -> step_mshr ctx t m))) t.mshrs;
      let _ = Kernel.attempt ctx (fun ctx -> step_creq ctx t) in
      let _ = Kernel.attempt ctx (fun ctx -> step_walk_req ctx t) in
      ())

let rules t = Partition.scoped t.part (fun () -> [ tick t ])

let creq_in t = t.creq_q
let cresp_in t = t.cresp_q
let preq_out t = t.preq_o
let presp_out t = t.presp_o
let fp_walk_req t = [ Fifo.fp_can_enq t.walk_req_q; Fifo.fp_enq t.walk_req_q ]
let fp_walk_resp t = [ Fifo.fp_can_deq t.walk_resp_q; Fifo.fp_deq t.walk_resp_q ]
let walk_req ctx t ~tag addr = Fifo.enq ctx t.walk_req_q (tag, addr)
let can_walk_req ctx t = Fifo.can_enq ctx t.walk_req_q
let walk_resp ctx t = Fifo.deq ctx t.walk_resp_q
let can_walk_resp ctx t = Fifo.can_deq ctx t.walk_resp_q
let walk_resp_ready t = Fifo.peek_ready t.walk_resp_q
let walk_resp_signal t = Fifo.signal t.walk_resp_q
