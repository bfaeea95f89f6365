open Cmd

type line = { mutable tag : int64; mutable st : Msg.state; data : Bytes.t; mutable pending : bool }

type t = {
  name : string;
  geom : Cache_geom.t;
  fetch_width : int;
  lines : line array array;
  req_q : (int * int64) Fifo.t;
  resp_q : (int * int64 * int array) Fifo.t;
  creq_o : Msg.creq Fifo.t;
  cresp_o : Msg.cresp Fifo.t;
  preq_i : Msg.preq Fifo.t;
  presp_i : Msg.presp Fifo.t;
  child_id : int;
  part : int; (* partition this cache was built in (its core's) *)
  (* single blocking miss *)
  mutable miss : (int * int64) option; (* waiting request: tag, pc *)
  mutable miss_way : int;
  mutable rotor : int;
  c_hit : Stats.counter;
  c_miss : Stats.counter;
}

let create ?(name = "l1i") ?boundary_lookahead clk ~child_id ~geom ~fetch_width ~stats () =
  let mk () = { tag = -1L; st = Msg.I; data = Bytes.make Cache_geom.line_bytes '\000'; pending = false } in
  let t =
  {
    name;
    geom;
    fetch_width;
    lines = Array.init geom.Cache_geom.sets (fun _ -> Array.init geom.Cache_geom.ways (fun _ -> mk ()));
    req_q = Fifo.cf ~name:(name ^ ".req") clk ~capacity:2 ();
    resp_q = Fifo.cf ~name:(name ^ ".resp") clk ~capacity:2 ();
    (* Crossbar-facing queues: see the dcache note on [boundary_lookahead]. *)
    creq_o = Fifo.cf ~name:(name ^ ".creq") ?lookahead:boundary_lookahead clk ~capacity:2 ();
    cresp_o = Fifo.cf ~name:(name ^ ".cresp") ?lookahead:boundary_lookahead clk ~capacity:4 ();
    preq_i = Fifo.cf ~name:(name ^ ".preq") ?lookahead:boundary_lookahead clk ~capacity:4 ();
    presp_i = Fifo.cf ~name:(name ^ ".presp") ?lookahead:boundary_lookahead clk ~capacity:2 ();
    child_id;
    part = Partition.ambient ();
    miss = None;
    miss_way = 0;
    rotor = 0;
    c_hit = Stats.counter stats (name ^ ".hits");
    c_miss = Stats.counter stats (name ^ ".misses");
  }
  in
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.lines, t.miss, t.miss_way, t.rotor))
    (fun (lines, miss, miss_way, rotor) ->
      Array.iteri (fun s ways -> Array.blit ways 0 t.lines.(s) 0 (Array.length ways)) lines;
      t.miss <- miss;
      t.miss_way <- miss_way;
      t.rotor <- rotor);
  t

let fld (ctx : Kernel.ctx) get set v = Mut.field ctx ~get ~set v

let lookup t laddr =
  let ways = t.lines.(Cache_geom.index t.geom laddr) in
  let tg = Cache_geom.tag t.geom laddr in
  let rec go i =
    if i >= Array.length ways then None
    else if ways.(i).tag = tg && ways.(i).st <> Msg.I then Some ways.(i)
    else go (i + 1)
  in
  go 0

let words_from t ln pc =
  let off = Cache_geom.offset pc in
  let n = min t.fetch_width ((Cache_geom.line_bytes - off) / 4) in
  Array.init n (fun k -> Int32.to_int (Bytes.get_int32_le ln.data (off + (k * 4))) land 0xFFFFFFFF)

let respond ctx t tag pc ln =
  Fifo.enq ctx t.resp_q (tag, pc, words_from t ln pc)

let step_req ctx t =
  Kernel.guard ctx (t.miss = None) "icache busy";
  let tag, pc = Fifo.first ctx t.req_q in
  let laddr = Cache_geom.line_addr pc in
  (match lookup t laddr with
  | Some ln when not ln.pending ->
    respond ctx t tag pc ln;
    Stats.incr ~ctx t.c_hit
  | Some _ | None ->
    let set_idx = Cache_geom.index t.geom laddr in
    let ways = t.lines.(set_idx) in
    let way =
      let rec inv i = if i >= Array.length ways then None else if ways.(i).st = Msg.I then Some i else inv (i + 1) in
      match inv 0 with
      | Some i -> i
      | None ->
        let i = t.rotor mod Array.length ways in
        fld ctx (fun () -> t.rotor) (fun v -> t.rotor <- v) (t.rotor + 1);
        (* voluntary S eviction *)
        let victim = ways.(i) in
        let vaddr =
          Int64.logor
            (Int64.shift_left victim.tag (Cache_geom.line_bits + t.geom.Cache_geom.set_bits))
            (Int64.of_int (set_idx lsl Cache_geom.line_bits))
        in
        Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = vaddr; to_s = Msg.I; data = None };
        fld ctx (fun () -> victim.st) (fun v -> victim.st <- v) Msg.I;
        i
    in
    let ln = ways.(way) in
    fld ctx (fun () -> ln.tag) (fun v -> ln.tag <- v) (Cache_geom.tag t.geom laddr);
    fld ctx (fun () -> ln.pending) (fun v -> ln.pending <- v) true;
    Fifo.enq ctx t.creq_o { Msg.child = t.child_id; line = laddr; want = Msg.S };
    fld ctx (fun () -> t.miss) (fun v -> t.miss <- v) (Some (tag, pc));
    fld ctx (fun () -> t.miss_way) (fun v -> t.miss_way <- v) way;
    Stats.incr ~ctx t.c_miss);
  ignore (Fifo.deq ctx t.req_q)

let step_presp ctx t =
  let (g : Msg.presp) = Fifo.deq ctx t.presp_i in
  match t.miss with
  | Some (tag, pc) when Cache_geom.line_addr pc = g.Msg.line ->
    let ln = t.lines.(Cache_geom.index t.geom g.Msg.line).(t.miss_way) in
    Mut.blit ctx ~src:g.Msg.data ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
    fld ctx (fun () -> ln.st) (fun v -> ln.st <- v) g.Msg.granted;
    fld ctx (fun () -> ln.pending) (fun v -> ln.pending <- v) false;
    respond ctx t tag pc ln;
    fld ctx (fun () -> t.miss) (fun v -> t.miss <- v) None
  | _ -> failwith (t.name ^ ": grant without miss")

let step_preq ctx t =
  let (d : Msg.preq) = Fifo.first ctx t.preq_i in
  (match lookup t d.Msg.line with
  | Some ln when (not ln.pending) && not (Msg.state_leq ln.st d.Msg.to_s) ->
    Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = d.Msg.line; to_s = d.Msg.to_s; data = None };
    fld ctx (fun () -> ln.st) (fun v -> ln.st <- v) d.Msg.to_s
  | Some _ | None ->
    Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = d.Msg.line; to_s = Msg.I; data = None });
  ignore (Fifo.deq ctx t.preq_i)

let tick t =
  (* The lines, [t.miss] and the rotor are only ever mutated by this rule's
     own sub-steps, so while parked they cannot change: a set miss can only
     clear via a presp arrival (touches [presp_i]), new demand traffic
     touches [req_q]/[preq_i], and room for a blocked hit opens only by a
     [resp_q] dequeue or its cycle-edge snapshot advance (touches
     [resp_q]). Readiness is checked against the cycle-start snapshots the
     guards use. *)
  let can_fire () =
    Fifo.peek_ready t.presp_i
    || Fifo.peek_ready t.preq_i
    || (match t.miss with
       | Some _ -> false
       | None -> (
         match Fifo.peek_head t.req_q with
         | None -> false
         | Some (_, pc) -> (
           (* a hit responds at once and needs [resp_q] room *)
           match lookup t (Cache_geom.line_addr pc) with
           | Some ln when not ln.pending -> Fifo.peek_room t.resp_q
           | Some _ | None -> true)))
  in
  let watches =
    [ Fifo.signal t.presp_i; Fifo.signal t.preq_i; Fifo.signal t.req_q; Fifo.signal t.resp_q ]
  in
  (* Declared boundary: the four child-side queues shared with the
     crossbar; everything else is core-private. *)
  let touches =
    [
      Fifo.enq_token t.creq_o;
      Fifo.enq_token t.cresp_o;
      Fifo.deq_token t.preq_i;
      Fifo.deq_token t.presp_i;
    ]
  in
  (* Tracked footprint: the core-side queues plus the four crossbar-side
     queues. Lines, the miss slot and the rotor are raw [Mut] state. *)
  let fp =
    [
      Fifo.fp_first t.req_q;
      Fifo.fp_deq t.req_q;
      Fifo.fp_enq t.resp_q;
      Fifo.fp_enq t.creq_o;
      Fifo.fp_enq t.cresp_o;
      Fifo.fp_first t.preq_i;
      Fifo.fp_deq t.preq_i;
      Fifo.fp_deq t.presp_i;
    ]
  in
  Rule.make ~can_fire ~watches ~touches ~fp ~vacuous:true (t.name ^ ".tick") (fun ctx ->
      let _ = Kernel.attempt ctx (fun ctx -> step_presp ctx t) in
      let _ = Kernel.attempt ctx (fun ctx -> step_preq ctx t) in
      let _ = Kernel.attempt ctx (fun ctx -> step_req ctx t) in
      ())

let rules t = Partition.scoped t.part (fun () -> [ tick t ])
let req ctx t ~tag pc = Fifo.enq ctx t.req_q (tag, pc)
let can_req ctx t = Fifo.can_enq ctx t.req_q
let resp ctx t = Fifo.deq ctx t.resp_q
let can_resp ctx t = Fifo.can_deq ctx t.resp_q
let fp_req t = [ Fifo.fp_can_enq t.req_q; Fifo.fp_enq t.req_q ]
let fp_resp t = [ Fifo.fp_can_deq t.resp_q; Fifo.fp_deq t.resp_q ]
let resp_ready t = Fifo.peek_ready t.resp_q
let resp_tag t = match Fifo.peek_head t.resp_q with Some (tag, _, _) -> tag | None -> -1
let req_room t = Fifo.peek_room t.req_q
let resp_signal t = Fifo.signal t.resp_q
let creq_out t = t.creq_o
let cresp_out t = t.cresp_o
let preq_in t = t.preq_i
let presp_in t = t.presp_i
