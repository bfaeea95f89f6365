open Cmd

type result = Hit of int64 | Fault

type config = {
  itlb_entries : int;
  itlb_misses : int;
  dtlb_entries : int;
  dtlb_misses : int;
  l2_sets : int;
  l2_ways : int;
  l2_misses : int;
  walk_cache_entries : int option;
}

let blocking_config =
  {
    itlb_entries = 32;
    itlb_misses = 1;
    dtlb_entries = 32;
    dtlb_misses = 1;
    l2_sets = 512;
    l2_ways = 4;
    l2_misses = 1;
    walk_cache_entries = None;
  }

let nonblocking_config =
  { blocking_config with dtlb_misses = 4; itlb_misses = 2; l2_misses = 2; walk_cache_entries = Some 24 }

type l1_entry = { mutable valid : bool; mutable vpn : int64; mutable ppn : int64 }
type l2_entry = { mutable lvalid : bool; mutable lvpn : int64; mutable lppn : int64 }

type l1_miss = {
  mutable mvalid : bool;
  mutable mvpn : int64;
  mutable waiters : (int * int64) list; (* tag, full va *)
}

(* A walk in progress = an L2 TLB miss slot. *)
type walk = {
  mutable wvalid : bool;
  mutable wvpn : int64;
  mutable wva : int64;
  mutable level : int; (* level of the table [base] addresses *)
  mutable base : int64;
  mutable outstanding : bool; (* memory read in flight *)
  mutable result : result option; (* completed, to be published *)
}

type side = {
  entries : l1_entry array;
  misses : l1_miss array;
  req_q : (int * int64) Fifo.t;
  resp_q : (int * result) Fifo.t;
  mutable rotor : int;
  c_access : Stats.counter;
  c_miss : Stats.counter;
}

type t = {
  name : string;
  cfg : config;
  mutable satp_v : int64;
  i : side;
  d : side;
  l2 : l2_entry array array;
  mutable l2_rotor : int;
  walks : walk array;
  wcache : Walk_cache.t option;
  wreq : (int * int64) Fifo.t;
  wresp : (int * int64) Fifo.t;
  part : int; (* partition this TLB was built in (its core's) *)
  c_l2_access : Stats.counter;
  c_l2_miss : Stats.counter;
  c_walk_cycles : Stats.counter;
}

let mk_side clk name n misses stats =
  {
    entries = Array.init n (fun _ -> { valid = false; vpn = 0L; ppn = 0L });
    misses = Array.init misses (fun _ -> { mvalid = false; mvpn = 0L; waiters = [] });
    req_q = Fifo.cf ~name:(name ^ ".req") clk ~capacity:4 ();
    resp_q = Fifo.cf ~name:(name ^ ".resp") clk ~capacity:8 ();
    rotor = 0;
    c_access = Stats.counter stats (name ^ ".accesses");
    c_miss = Stats.counter stats (name ^ ".misses");
  }

let create ?(name = "tlb") ?walk_lookahead clk cfg ~stats () =
  let t =
  {
    name;
    cfg;
    satp_v = 0L;
    i = mk_side clk (name ^ ".i") cfg.itlb_entries cfg.itlb_misses stats;
    d = mk_side clk (name ^ ".d") cfg.dtlb_entries cfg.dtlb_misses stats;
    l2 = Array.init cfg.l2_sets (fun _ -> Array.init cfg.l2_ways (fun _ -> { lvalid = false; lvpn = 0L; lppn = 0L }));
    l2_rotor = 0;
    walks =
      Array.init cfg.l2_misses (fun _ ->
          { wvalid = false; wvpn = 0L; wva = 0L; level = 2; base = 0L; outstanding = false; result = None });
    wcache = Option.map (fun n -> Walk_cache.create ~entries_per_level:n) cfg.walk_cache_entries;
    (* The walk queues straddle the core/uncore boundary (walker crossbar
       on the far side); [walk_lookahead] declares their epoch lookahead. *)
    wreq = Fifo.cf ~name:(name ^ ".wreq") ?lookahead:walk_lookahead clk ~capacity:4 ();
    wresp = Fifo.cf ~name:(name ^ ".wresp") ?lookahead:walk_lookahead clk ~capacity:4 ();
    part = Partition.ambient ();
    c_l2_access = Stats.counter stats (name ^ ".l2.accesses");
    c_l2_miss = Stats.counter stats (name ^ ".l2.misses");
    c_walk_cycles = Stats.counter stats (name ^ ".walkCycles");
  }
  in
  (* cycles with at least one page walk in flight, sampled at the clock
     edge (main domain, post-barrier: untracked increments are safe) *)
  Clock.on_cycle_end clk (fun () ->
      if Array.exists (fun w -> w.wvalid) t.walks then Stats.incr t.c_walk_cycles);
  let side_save s = (s.entries, s.misses, s.rotor) in
  let side_load s (entries, misses, rotor) =
    Array.blit entries 0 s.entries 0 (Array.length s.entries);
    Array.blit misses 0 s.misses 0 (Array.length s.misses);
    s.rotor <- rotor
  in
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.satp_v, side_save t.i, side_save t.d, t.l2, t.l2_rotor, t.walks))
    (fun (satp_v, si, sd, l2, l2_rotor, walks) ->
      t.satp_v <- satp_v;
      side_load t.i si;
      side_load t.d sd;
      Array.iteri (fun s ways -> Array.blit ways 0 t.l2.(s) 0 (Array.length ways)) l2;
      t.l2_rotor <- l2_rotor;
      Array.blit walks 0 t.walks 0 (Array.length t.walks));
  t

let set_satp t v = t.satp_v <- v
let satp t = t.satp_v

let fld (ctx : Kernel.ctx) get set v = Mut.field ctx ~get ~set v
let vpn_of va = Int64.shift_right_logical va 12
let pa_of ppn va = Int64.logor (Int64.shift_left ppn 12) (Int64.logand va 0xFFFL)

let l1_lookup side vpn =
  Array.fold_left (fun acc e -> if e.valid && e.vpn = vpn then Some e.ppn else acc) None side.entries

let l1_fill ctx side vpn ppn =
  if l1_lookup side vpn = None then begin
    let e = side.entries.(side.rotor mod Array.length side.entries) in
    fld ctx (fun () -> side.rotor) (fun v -> side.rotor <- v) (side.rotor + 1);
    fld ctx (fun () -> e.valid) (fun v -> e.valid <- v) true;
    fld ctx (fun () -> e.vpn) (fun v -> e.vpn <- v) vpn;
    fld ctx (fun () -> e.ppn) (fun v -> e.ppn <- v) ppn
  end

let l2_lookup t vpn =
  let set = t.l2.(Int64.to_int vpn land (t.cfg.l2_sets - 1)) in
  Array.fold_left (fun acc e -> if e.lvalid && e.lvpn = vpn then Some e.lppn else acc) None set

let l2_fill ctx t vpn ppn =
  if l2_lookup t vpn = None then begin
    let set = t.l2.(Int64.to_int vpn land (t.cfg.l2_sets - 1)) in
    let e = set.(t.l2_rotor mod Array.length set) in
    fld ctx (fun () -> t.l2_rotor) (fun v -> t.l2_rotor <- v) (t.l2_rotor + 1);
    fld ctx (fun () -> e.lvalid) (fun v -> e.lvalid <- v) true;
    fld ctx (fun () -> e.lvpn) (fun v -> e.lvpn <- v) vpn;
    fld ctx (fun () -> e.lppn) (fun v -> e.lppn <- v) ppn
  end

(* --- steps --------------------------------------------------------------- *)

(* Consume one L1 request: hit -> respond; miss -> merge into or allocate a
   miss slot (stall if none free: this is what makes the blocking config
   block). *)
let step_l1_req ctx t side =
  (* blocking configuration (one miss slot): no hit-under-miss — any
     outstanding miss blocks the whole TLB, as in RiscyOO-B *)
  Kernel.guard ctx
    (Array.length side.misses > 1 || not side.misses.(0).mvalid)
    "blocking tlb: miss outstanding";
  let tag, va = Fifo.first ctx side.req_q in
  Stats.incr ~ctx side.c_access;
  if t.satp_v = 0L then Fifo.enq ctx side.resp_q (tag, Hit va)
  else begin
    let vpn = vpn_of va in
    match l1_lookup side vpn with
    | Some ppn -> Fifo.enq ctx side.resp_q (tag, Hit (pa_of ppn va))
    | None -> (
      Stats.incr ~ctx side.c_miss;
      let existing = Array.fold_left (fun a m -> if m.mvalid && m.mvpn = vpn then Some m else a) None side.misses in
      match existing with
      | Some m -> fld ctx (fun () -> m.waiters) (fun v -> m.waiters <- v) (m.waiters @ [ (tag, va) ])
      | None -> (
        let free = Array.fold_left (fun a m -> if m.mvalid then a else Some m) None side.misses in
        match free with
        | None -> raise (Kernel.Guard_fail "l1 tlb miss slots full")
        | Some m ->
          fld ctx (fun () -> m.mvalid) (fun v -> m.mvalid <- v) true;
          fld ctx (fun () -> m.mvpn) (fun v -> m.mvpn <- v) vpn;
          fld ctx (fun () -> m.waiters) (fun v -> m.waiters <- v) [ (tag, va) ]))
  end;
  ignore (Fifo.deq ctx side.req_q)

(* Try to satisfy one L1 miss slot from the L2 TLB, or ensure a walk is in
   flight. Responding needs resp_q space for every waiter. *)
let step_l1_miss ctx t side m =
  Kernel.guard ctx m.mvalid "idle miss slot";
  match l2_lookup t m.mvpn with
  | Some ppn ->
    l1_fill ctx side m.mvpn ppn;
    List.iter (fun (tag, va) -> Fifo.enq ctx side.resp_q (tag, Hit (pa_of ppn va))) m.waiters;
    fld ctx (fun () -> m.mvalid) (fun v -> m.mvalid <- v) false
  | None ->
    (* check whether a walk finished with a fault for this vpn *)
    let faulted =
      Array.exists (fun w -> w.wvalid && w.wvpn = m.mvpn && w.result = Some Fault) t.walks
    in
    if faulted then begin
      List.iter (fun (tag, _) -> Fifo.enq ctx side.resp_q (tag, Fault)) m.waiters;
      fld ctx (fun () -> m.mvalid) (fun v -> m.mvalid <- v) false
    end
    else begin
      let walking = Array.exists (fun w -> w.wvalid && w.wvpn = m.mvpn) t.walks in
      if not walking then begin
        let free = Array.fold_left (fun a w -> if w.wvalid then a else Some w) None t.walks in
        match free with
        | None -> raise (Kernel.Guard_fail "no walk slot")
        | Some w ->
          Stats.incr ~ctx t.c_l2_access;
          Stats.incr ~ctx t.c_l2_miss;
          let va = Int64.shift_left m.mvpn 12 in
          let level, base =
            match t.wcache with
            | Some wc -> Walk_cache.lookup wc ~root:t.satp_v va
            | None -> (2, t.satp_v)
          in
          fld ctx (fun () -> w.wvalid) (fun v -> w.wvalid <- v) true;
          fld ctx (fun () -> w.wvpn) (fun v -> w.wvpn <- v) m.mvpn;
          fld ctx (fun () -> w.wva) (fun v -> w.wva <- v) va;
          fld ctx (fun () -> w.level) (fun v -> w.level <- v) level;
          fld ctx (fun () -> w.base) (fun v -> w.base <- v) base;
          fld ctx (fun () -> w.outstanding) (fun v -> w.outstanding <- v) false;
          fld ctx (fun () -> w.result) (fun v -> w.result <- v) None
      end
      else raise (Kernel.Guard_fail "walk pending")
    end

(* Issue the next PTE read of a walk. *)
let step_walk_issue ctx t idx (w : walk) =
  Kernel.guard ctx (w.wvalid && (not w.outstanding) && w.result = None) "no read to issue";
  let vpn_slice = Int64.logand (Int64.shift_right_logical w.wva (12 + (9 * w.level))) 0x1FFL in
  let pte_addr = Int64.add w.base (Int64.mul vpn_slice 8L) in
  Fifo.enq ctx t.wreq (idx, pte_addr);
  fld ctx (fun () -> w.outstanding) (fun v -> w.outstanding <- v) true

(* Consume one PTE read response and advance that walk. *)
let step_walk_resp ctx t =
  let idx, pte = Fifo.deq ctx t.wresp in
  let w = t.walks.(idx) in
  if not (w.wvalid && w.outstanding) then failwith (t.name ^ ": orphan walk response");
  fld ctx (fun () -> w.outstanding) (fun v -> w.outstanding <- v) false;
  let valid = Int64.logand pte 1L = 1L in
  let leaf = valid && Int64.logand pte 0xEL <> 0L in
  let ppn = Int64.shift_right_logical pte 10 in
  if not valid then fld ctx (fun () -> w.result) (fun v -> w.result <- v) (Some Fault)
  else if leaf then begin
    (* a leaf above level 0 is a superpage: the low VPN slices pass through,
       and the TLBs cache the derived 4 KB-granularity translation *)
    let low = Int64.logand w.wvpn (Int64.sub (Int64.shift_left 1L (9 * w.level)) 1L) in
    let ppn = Int64.add ppn low in
    fld ctx (fun () -> w.result) (fun v -> w.result <- v) (Some (Hit ppn));
    l2_fill ctx t w.wvpn ppn
  end
  else begin
    let next_base = Int64.shift_left ppn 12 in
    let next_level = w.level - 1 in
    if next_level < 0 then fld ctx (fun () -> w.result) (fun v -> w.result <- v) (Some Fault)
    else begin
      (match t.wcache with
      | Some wc -> Walk_cache.insert ctx wc w.wva ~level:next_level ~base:next_base
      | None -> ());
      fld ctx (fun () -> w.level) (fun v -> w.level <- v) next_level;
      fld ctx (fun () -> w.base) (fun v -> w.base <- v) next_base
    end
  end

(* Retire completed walks once no L1 miss slot still needs them. *)
let step_walk_retire ctx t (w : walk) =
  Kernel.guard ctx (w.wvalid && w.result <> None) "walk not done";
  let needed side = Array.exists (fun m -> m.mvalid && m.mvpn = w.wvpn) side.misses in
  Kernel.guard ctx (not (needed t.i || needed t.d)) "walk result still needed";
  fld ctx (fun () -> w.wvalid) (fun v -> w.wvalid <- v) false

(* A live miss slot whose vpn has a walk with its memory read in flight
   can make no progress: at most one walk per vpn exists, and until that
   read returns the walk has no result and the L2 TLB cannot have gained
   the vpn (only a walk response fills it), so [step_l1_miss] fails its
   "walk pending" guard. *)
let rec awaits_walk t m i =
  i < Array.length t.walks
  && (let w = t.walks.(i) in
      (w.wvalid && w.outstanding && Int64.equal w.wvpn m.mvpn) || awaits_walk t m (i + 1))

let rec misses_live t side i =
  i < Array.length side.misses
  && (let m = side.misses.(i) in
      (m.mvalid && not (awaits_walk t m 0)) || misses_live t side (i + 1))

(* Could this side's miss slots or request queue make progress? A request
   needs a ready queue head and, in the blocking configuration, no
   outstanding miss. *)
let side_live t side =
  misses_live t side 0
  || (Fifo.peek_ready side.req_q
     && (Array.length side.misses > 1 || not side.misses.(0).mvalid))

(* Some walk is not waiting on memory: a PTE read to issue, or a result
   to retire. *)
let rec walk_ready t i =
  i < Array.length t.walks
  && (let w = t.walks.(i) in
      (w.wvalid && not w.outstanding) || walk_ready t (i + 1))

let tick t =
  (* Walk slots, miss slots and the TLB arrays are mutated only by this
     rule's own sub-steps, so while parked they cannot change. Work is a
     ready walk response, a walk not waiting on memory (a PTE read to
     issue, or a result to retire), a miss slot not waiting on such a read,
     or a serviceable request. The rule thus parks while every live miss
     waits on an outstanding walk — most of a blocking TLB's miss time —
     and the wakeups are the walk-memory response queue (crossbar side)
     and the two request queues (core side), all watched. *)
  let can_fire () =
    Fifo.peek_ready t.wresp
    || walk_ready t 0
    || side_live t t.d
    || side_live t t.i
  in
  let watches = [ Fifo.signal t.wresp; Fifo.signal t.i.req_q; Fifo.signal t.d.req_q ] in
  (* Declared boundary: the walk-memory queues shared with the walk
     crossbar (this TLB enqs requests, deqs responses). The core-side
     req/resp queues stay inside the core's partition. *)
  let touches = [ Fifo.enq_token t.wreq; Fifo.deq_token t.wresp ] in
  (* Tracked footprint: both L1-side queue pairs and the walk-memory pair.
     TLB arrays, miss slots, walk slots and the walk cache are raw [Mut]
     state private to this rule. *)
  let fp =
    [
      Fifo.fp_first t.i.req_q;
      Fifo.fp_deq t.i.req_q;
      Fifo.fp_enq t.i.resp_q;
      Fifo.fp_first t.d.req_q;
      Fifo.fp_deq t.d.req_q;
      Fifo.fp_enq t.d.resp_q;
      Fifo.fp_enq t.wreq;
      Fifo.fp_deq t.wresp;
    ]
  in
  Rule.make ~can_fire ~watches ~touches ~fp ~vacuous:true (t.name ^ ".tick") (fun ctx ->
      let _ = Kernel.attempt ctx (fun ctx -> step_walk_resp ctx t) in
      Array.iteri (fun i w -> ignore (Kernel.attempt ctx (fun ctx -> step_walk_issue ctx t i w))) t.walks;
      List.iter
        (fun side ->
          Array.iter
            (fun m -> ignore (Kernel.attempt ctx (fun ctx -> step_l1_miss ctx t side m)))
            side.misses;
          ignore (Kernel.attempt ctx (fun ctx -> step_l1_req ctx t side)))
        [ t.d; t.i ];
      Array.iter (fun w -> ignore (Kernel.attempt ctx (fun ctx -> step_walk_retire ctx t w))) t.walks)

let rules t = Partition.scoped t.part (fun () -> [ tick t ])

let itlb_req ctx t ~tag va = Fifo.enq ctx t.i.req_q (tag, va)
let can_itlb_req ctx t = Fifo.can_enq ctx t.i.req_q
let itlb_resp ctx t = Fifo.deq ctx t.i.resp_q
let can_itlb_resp ctx t = Fifo.can_deq ctx t.i.resp_q
let dtlb_req ctx t ~tag va = Fifo.enq ctx t.d.req_q (tag, va)
let can_dtlb_req ctx t = Fifo.can_enq ctx t.d.req_q
let dtlb_resp ctx t = Fifo.deq ctx t.d.resp_q
let can_dtlb_resp ctx t = Fifo.can_deq ctx t.d.resp_q
let fp_itlb_req t = [ Fifo.fp_can_enq t.i.req_q; Fifo.fp_enq t.i.req_q ]
let fp_itlb_resp t = [ Fifo.fp_can_deq t.i.resp_q; Fifo.fp_deq t.i.resp_q ]
let fp_dtlb_req t = [ Fifo.fp_can_enq t.d.req_q; Fifo.fp_enq t.d.req_q ]
let fp_dtlb_resp t = [ Fifo.fp_can_deq t.d.resp_q; Fifo.fp_deq t.d.resp_q ]
let walk_mem_req t = t.wreq
let walk_mem_resp t = t.wresp
let itlb_resp_ready t = Fifo.peek_ready t.i.resp_q
let dtlb_resp_ready t = Fifo.peek_ready t.d.resp_q
let itlb_resp_signal t = Fifo.signal t.i.resp_q
let dtlb_resp_signal t = Fifo.signal t.d.resp_q

(* debug *)
let pp_debug fmt t =
  Format.fprintf fmt "satp=%Lx@." t.satp_v;
  Array.iteri
    (fun i w ->
      Format.fprintf fmt "walk%d: valid=%b vpn=%Lx level=%d base=%Lx out=%b result=%s@." i w.wvalid
        w.wvpn w.level w.base w.outstanding
        (match w.result with None -> "-" | Some Fault -> "F" | Some (Hit p) -> Printf.sprintf "H%Lx" p))
    t.walks;
  List.iter
    (fun (nm, side) ->
      Array.iteri
        (fun i m ->
          Format.fprintf fmt "%s miss%d: valid=%b vpn=%Lx waiters=%d@." nm i m.mvalid m.mvpn
            (List.length m.waiters))
        side.misses;
      Format.fprintf fmt "%s reqq=%d respq=%d@." nm (Cmd.Fifo.peek_size side.req_q)
        (Cmd.Fifo.peek_size side.resp_q))
    [ ("i", t.i); ("d", t.d) ];
  Format.fprintf fmt "wreq=%d wresp=%d@." (Cmd.Fifo.peek_size t.wreq) (Cmd.Fifo.peek_size t.wresp)
