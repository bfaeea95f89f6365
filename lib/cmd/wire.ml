(* The guard message's wire part is built once: [get_exn] sits on bypass
   paths, and only the rule-name prefix varies per raise. *)
type 'a t = { e : 'a option Ehr.t; m_empty : string }

let create ?name clk () =
  let e = Ehr.create ?name None in
  Clock.on_cycle_end clk (fun () -> Ehr.poke e None);
  { e; m_empty = ": wire " ^ Ehr.name e ^ " empty" }

let set ctx t v = Ehr.write ctx t.e 0 (Some v)
let get ctx t = Ehr.read ctx t.e 1

let get_exn ctx t =
  match get ctx t with
  | Some v -> v
  | None -> raise (Kernel.Guard_fail (Kernel.rule_name ctx ^ t.m_empty))

let peek t = Ehr.peek t.e
let signal t = Ehr.signal t.e
let fp_set t = Ehr.fp_write t.e 0
let fp_get t = Ehr.fp_read t.e 1
