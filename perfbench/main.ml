(* perfbench: the repository benchmark (README.md in this directory).

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every number is taken from outside the simulator. The benchmark times
   its own calls into public functions (kernel builders, [Machine.create],
   [Machine.run] and its [on_cycle] hook, [Machine.snapshot]/[restore],
   [Litmus.Ref_model.allowed_stats], [Farm.Sweep.run] and each job's [run]
   closure) and reads public counters ([Machine.stats], the counters on
   each [Cmd.Rule.t], [Machine.compile_status], [Machine.epoch_length],
   [Gc.counters]). The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With [--trace 0] the
   metrics are the end-to-end ones; with [--trace 1] the per-layer ones,
   and the spans are written to perfbench/out/. *)

module Machine = Workloads.Machine

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                               *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC in nanoseconds, from bechamel's stub. Declared here so
   that [Int64.to_float (clock_ns ())] stays unboxed inside the per-cycle
   hook: a traced run must not allocate on the simulated path. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_float (clock_ns ()) *. 1e-9

let sum = List.fold_left ( +. ) 0.

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Index of the nearest-rank [q]-quantile among [n] sorted samples. *)
let rank n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let pct l q =
  let a = Array.of_list l in
  Array.sort compare a;
  if a = [||] then nan else a.(rank (Array.length a) q)

(* The tail latency reported as p99: the 99th percentile when at least
   ten samples lie beyond it, else the highest percentile that has ten
   beyond it. With fewer than 20 samples that would not even be the
   median, so it is the maximum. *)
let tail l =
  let n = List.length l in
  if n < 20 then List.fold_left Float.max neg_infinity l
  else pct l (Float.min 0.99 (1. -. (10. /. float_of_int n)))

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  let v = go () in
  close_in ic;
  v

let complain fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Growable float buffer for per-cycle samples. *)
type fbuf = { mutable data : Float.Array.t; mutable len : int }

let fbuf () = { data = Float.Array.create 4096; len = 0 }

let grow b =
  let d = Float.Array.create (2 * b.len) in
  Float.Array.blit b.data 0 d 0 b.len;
  b.data <- d

let push b x =
  if b.len = Float.Array.length b.data then grow b;
  Float.Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let fbuf_pcts bufs qs =
  let n = List.fold_left (fun n b -> n + b.len) 0 bufs in
  let a = Float.Array.create n in
  ignore
    (List.fold_left
       (fun off b ->
         Float.Array.blit b.data 0 a off b.len;
         off + b.len)
       0 bufs);
  Float.Array.sort compare a;
  List.map (fun q -> if n = 0 then nan else Float.Array.get a (rank n q)) qs

(* ------------------------------------------------------------------ *)
(* Host speed                                                         *)
(* ------------------------------------------------------------------ *)

(* The speed of a shared host drifts: the same loop can take twice as
   long for seconds or minutes and then recover, and the simulator slows
   with it. Every end-to-end time is therefore scaled to a reference host
   speed by a fixed probe that samples the host while the work runs:
   about every 50 ms on each domain that does the work, from the
   [on_cycle] hook of a kernel run and between a farm domain's jobs. A
   probe sampled between operations instead, even at their edges, did not
   track the simulator's slowdowns; one sampled during the run did.

   A probe is two pseudo-random read-modify-write walks, over 4 MB and
   16 MB arrays of its own, and each walk runs twice with the same
   addresses: once to bring its lines back after the simulator evicted
   them, and once timed. So the timed walks find every line they use in
   the caches whatever the simulator left there, and the simulator's
   memory footprint cannot change the probe's reading. The reading is
   the mean of the two timed walks, each as a share of its time on the
   reference host; a time measured while the readings averaged [r] is
   divided by [r], after the probes' own time is taken out. The probe
   does not allocate and touches no simulator state, so every simulated
   and GC count stays the same. *)

let probe_iters = 60_000
let probe_period_ns = 50e6

(* The walks' array sizes (words: 4 MB and 16 MB) and their timed walks'
   times on the reference host. Of the sizes tried (512 KB to 32 MB,
   alone and in pairs), this pair's readings moved most nearly in
   proportion with kernel run times on all three kernels tried. *)
let probe_words = [| 1 lsl 19; 1 lsl 21 |]
let probe_ref_s = [| 0.4e-3; 0.7e-3 |]
let probe_bytes = 8 * Array.fold_left ( + ) 0 probe_words

(* The arrays live outside the OCaml heap, so that they neither add to
   the heap the collector paces itself by nor get scanned. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let words n : words =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

type probe = {
  bufs : words array;
  acc : Float.Array.t;
      (* 0: probe seconds so far, warm-up walks included; 1: end of the
         last probe (ns); 2: sum of the readings; 3: moving average of
         the readings; 4, 5: the last timed walks (ns) *)
  mutable count : int;
}

let probes = ref []
let probes_lock = Mutex.create ()

let probe_key =
  Domain.DLS.new_key (fun () ->
      let p = { bufs = Array.map words probe_words; acc = Float.Array.make 6 0.; count = 0 } in
      Mutex.lock probes_lock;
      probes := p :: !probes;
      Mutex.unlock probes_lock;
      p)

(* A walk with a data-dependent branch; the same addresses on every call. *)
let walk (buf : words) =
  let mask = Bigarray.Array1.dim buf - 1 in
  let x = ref 12345 and s = ref 0 in
  for _ = 1 to probe_iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land mask in
    let v = Bigarray.Array1.unsafe_get buf i in
    if v land 1 = 0 then s := !s + v else s := !s - i;
    Bigarray.Array1.unsafe_set buf i (v + !x)
  done;
  !s

(* Warm array [i], then time one walk over it into [acc.(4 + i)] (ns);
   nothing is returned, so that no float is boxed. *)
let timed_walk p i =
  let buf = p.bufs.(i) in
  ignore (Sys.opaque_identity (walk buf));
  let t0 = Int64.to_float (clock_ns ()) in
  ignore (Sys.opaque_identity (walk buf));
  Float.Array.unsafe_set p.acc (4 + i) (Int64.to_float (clock_ns ()) -. t0)

let run_probe p =
  let a = p.acc in
  let t0 = Int64.to_float (clock_ns ()) in
  timed_walk p 0;
  timed_walk p 1;
  let t1 = Int64.to_float (clock_ns ()) in
  let r =
    0.5e-9 *. ((Float.Array.unsafe_get a 4 /. probe_ref_s.(0)) +. (Float.Array.unsafe_get a 5 /. probe_ref_s.(1)))
  in
  Float.Array.unsafe_set a 0 (Float.Array.unsafe_get a 0 +. ((t1 -. t0) *. 1e-9));
  Float.Array.unsafe_set a 1 t1;
  Float.Array.unsafe_set a 2 (Float.Array.unsafe_get a 2 +. r);
  let avg = Float.Array.unsafe_get a 3 in
  (* a plain mean over the first three readings, then a moving average *)
  Float.Array.unsafe_set a 3
    (if p.count < 3 then ((avg *. float_of_int p.count) +. r) /. float_of_int (p.count + 1)
     else (0.7 *. avg) +. (0.3 *. r));
  p.count <- p.count + 1

(* Called from [on_cycle] hooks and between farm jobs. *)
let maybe_probe p =
  if Int64.to_float (clock_ns ()) -. Float.Array.unsafe_get p.acc 1 >= probe_period_ns then run_probe p

(* Probe seconds, summed readings and probe count so far, over every
   domain. *)
let probe_totals () =
  Mutex.lock probes_lock;
  let r =
    List.fold_left
      (fun (s, r, n) p -> (s +. Float.Array.get p.acc 0, r +. Float.Array.get p.acc 2, n + p.count))
      (0., 0., 0) !probes
  in
  Mutex.unlock probes_lock;
  r

(* The reference-speed factor between two [probe_totals]: the inverse of
   the mean reading; nan when no probe ran in between. *)
let speed_factor (_, r0, n0) (_, r1, n1) = if n1 > n0 then float_of_int (n1 - n0) /. (r1 -. r0) else nan

let probe_seconds (s0, _, _) (s1, _, _) = s1 -. s0

(* Peak resident set of this process, less the probes' arrays, which are
   resident from their domain's first probe to the end. *)
let peak_rss_mb () =
  Mutex.lock probes_lock;
  let n = List.length !probes in
  Mutex.unlock probes_lock;
  vm_hwm_mb () -. (float_of_int (n * probe_bytes) /. 1048576.)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

(* A span covers one call the benchmark makes into a layer. [op] is the
   id shared by every span of one operation (a kernel run, a farm job, a
   round); [parent] is the span that caused it (0 = none). Spans are
   kept in memory and written out when the run ends. *)
type span = { sid : int; parent : int; op : int; name : string; dom : int; t0 : float; t1 : float }

let tracing = ref false
let spans : span list ref = ref []
let span_lock = Mutex.create ()
let next_sid = Atomic.make 1
let fresh () = Atomic.fetch_and_add next_sid 1

let record ~sid ~parent ~op name t0 t1 =
  if !tracing then begin
    let s = { sid; parent; op; name; dom = (Domain.self () :> int); t0; t1 } in
    Mutex.lock span_lock;
    spans := s :: !spans;
    Mutex.unlock span_lock
  end

(* [timed ~parent ~op name f] runs [f ()] as a child span of [parent] and
   returns its result and duration in seconds. *)
let timed ~parent ~op name f =
  let sid = fresh () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  record ~sid ~parent ~op name t0 t1;
  (r, t1 -. t0)

(* Spans whose children run on several domains at once; the value is the
   number of lanes the children share. *)
let parallel_spans : (int, int) Hashtbl.t = Hashtbl.create 8

(* Reconciliation: for every span with children, the children's durations
   plus the parent's self time (the part of its interval no child covers)
   must sum to the parent's wall time within [reconcile_tol] of it, which
   fails when children overlap, escape their parent or are counted twice.
   A parent whose children run on [k] lanes must have them inside its
   interval and their sum within k times its wall. Returns the largest
   error as a share of the parent's wall, and the violations. *)
let reconcile_tol = 1e-3

let reconcile all =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) all;
  let worst = ref 0. and bad = ref [] in
  List.iter
    (fun p ->
      match Hashtbl.find_all kids p.sid with
      | [] -> ()
      | cs ->
        let wall = p.t1 -. p.t0 in
        let durs = sum (List.map (fun c -> c.t1 -. c.t0) cs) in
        let escaped =
          sum (List.map (fun c -> Float.max 0. (p.t0 -. c.t0) +. Float.max 0. (c.t1 -. p.t1)) cs)
        in
        let err =
          match Hashtbl.find_opt parallel_spans p.sid with
          | Some lanes -> escaped +. Float.max 0. (durs -. (float_of_int lanes *. wall))
          | None ->
            (* union of the children's intervals, clipped to the parent *)
            let sorted = List.sort (fun a b -> compare a.t0 b.t0) cs in
            let covered, _ =
              List.fold_left
                (fun (acc, reach) c ->
                  let lo = Float.max c.t0 (Float.max reach p.t0) and hi = Float.min c.t1 p.t1 in
                  if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach hi))
                (0., neg_infinity) sorted
            in
            let self = wall -. covered in
            Float.abs (durs +. self -. wall)
        in
        let share = if wall > 0. then err /. wall else 0. in
        if share > !worst then worst := share;
        if err > (reconcile_tol *. wall) +. 1e-6 then
          bad := Printf.sprintf "%s#%d: children %.6fs + self vs wall %.6fs" p.name p.sid durs wall :: !bad)
    all;
  (!worst, !bad)

(* Self time per span name: duration minus the union of its children. *)
let self_times all =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) all;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let child = sum (List.map (fun c -> c.t1 -. c.t0) (Hashtbl.find_all kids p.sid)) in
      let self =
        match Hashtbl.find_opt parallel_spans p.sid with
        | Some lanes -> (p.t1 -. p.t0) -. (child /. float_of_int lanes)
        | None -> p.t1 -. p.t0 -. child
      in
      let n, t = Option.value (Hashtbl.find_opt tbl p.name) ~default:(0, 0.) in
      Hashtbl.replace tbl p.name (n + 1, t +. self))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write_trace ~path ~workload ~seed all =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  Printf.fprintf oc "{\"schema\": \"perfbench-trace-v1\", \"workload\": %S, \"seed\": %d,\n" workload seed;
  Printf.fprintf oc " \"self_s\": {%s},\n \"spans\": [\n"
    (String.concat ", "
       (List.map (fun (k, (n, t)) -> Printf.sprintf "%S: {\"n\": %d, \"s\": %.9f}" k n t) (self_times all)));
  List.iteri
    (fun i s ->
      Printf.fprintf oc "  %s{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \"domain\": %d, \"t0\": %.9f, \"t1\": %.9f}\n"
        (if i = 0 then "" else ",")
        s.sid s.parent s.op s.name s.dom (s.t0 -. base) (s.t1 -. base))
    (List.sort (fun a b -> compare a.sid b.sid) all);
  output_string oc " ]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Child processes                                                    *)
(* ------------------------------------------------------------------ *)

(* Each kernel run, set-up sample and farm round runs in a forked child
   process, as one [riscyoo run] or [riscyoo farm] invocation would, and
   so does the golden model. This process holds little more than the
   results, so every child starts from the same small program state: its
   allocation counts and peak resident set do not depend on what ran
   before it, and a farm round's domains start with empty caches. Only
   the main domain may be running when [in_child] is called; the child's
   domains end with the child. *)
type 'a from_child = {
  value : 'a;
  c_spans : span list;
  c_parallel : (int * int) list;
  c_next_sid : int;
}

(* [in_child f] is [f ()], computed in a child process; the result must
   not hold closures. The spans the child recorded join this process's. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        spans := [];
        Hashtbl.reset parallel_spans;
        let value = f () in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc
          {
            value;
            c_spans = !spans;
            c_parallel = List.of_seq (Hashtbl.to_seq parallel_spans);
            c_next_sid = Atomic.get next_sid;
          }
          [];
        close_out oc;
        Cmd.Sim.shutdown_pool ();
        0
      with e ->
        complain "child process: %s" (Printexc.to_string e);
        3
    in
    Unix._exit code
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let c = try Some (Marshal.from_channel ic : 'a from_child) with End_of_file | Failure _ -> None in
    close_in ic;
    match (c, snd (Unix.waitpid [] pid)) with
    | Some c, Unix.WEXITED 0 ->
      spans := c.c_spans @ !spans;
      List.iter (fun (k, v) -> Hashtbl.replace parallel_spans k v) c.c_parallel;
      Atomic.set next_sid c.c_next_sid;
      c.value
    | _ -> failwith "a child process failed")

(* ------------------------------------------------------------------ *)
(* Counters read from the machine                                     *)
(* ------------------------------------------------------------------ *)

(* Modelled event counters, summed over cores and banks by name. *)
let categories =
  let ends suf n = String.ends_with ~suffix:suf n in
  [|
    ("branch.mispredict", ends ".mispredicts");
    ("mem.l1d_miss", ends ".l1d.misses");
    ("mem.l2_miss", fun n -> String.starts_with ~prefix:"l2" n && ends ".misses" n);
    ("tlb.dtlb_miss", ends ".tlb.d.misses");
    ("tlb.l2tlb_miss", ends ".tlb.l2.misses");
    ("ooo.ld_kill", ends ".ldKillFlushes");
  |]

(* The counter names of each category on a machine. *)
let category_names m =
  let stats = Cmd.Stats.to_list (Machine.stats m) in
  Array.map (fun (_, f) -> List.filter_map (fun (n, _) -> if f n then Some n else None) stats) categories

(* What the benchmark reads off one finished machine. *)
type obs = {
  instrs : int;
  fired : int;
  guard_failed : int;
  conflicted : int;
  skipped : int;
  events : int array; (* indexed like [categories] *)
  interpreted : int;
  epoch_length : int;
}

let interpreted_rules m =
  let status = Machine.compile_status m in
  let n_rules = List.length (Machine.rule_list m) in
  if String.starts_with ~prefix:"compiled:" status then
    match String.rindex_opt status ',' with
    | Some i -> (
      try Scanf.sscanf (String.sub status (i + 1) (String.length status - i - 1)) " %d interpreted" Fun.id
      with _ -> n_rules)
    | None -> n_rules
  else n_rules

(* The totals the metrics need, with the counter names of [names]. *)
let observe ~names m =
  let st = Machine.stats m in
  let fired, gf, cf, sk =
    List.fold_left
      (fun (a, b, c, d) (r : Cmd.Rule.t) -> (a + r.fired, b + r.guard_failed, c + r.conflicted, d + r.skipped))
      (0, 0, 0, 0) (Machine.rule_list m)
  in
  {
    instrs = Machine.instrs m;
    fired;
    guard_failed = gf;
    conflicted = cf;
    skipped = sk;
    events = Array.map (List.fold_left (fun n c -> n + Cmd.Stats.find st c) 0) names;
    interpreted = interpreted_rules m;
    epoch_length = Machine.epoch_length m;
  }

(* Digest of cycles, instructions, exit codes, every modelled counter and
   every rule's counts: what must repeat exactly across repetitions. *)
let fingerprint m ~cycles ~exits =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d/%d/%s" cycles (Machine.instrs m)
    (String.concat " " (Array.to_list (Array.map Int64.to_string exits)));
  List.iter (fun (n, v) -> Printf.bprintf b ";%s=%d" n v) (Cmd.Stats.to_list (Machine.stats m));
  List.iter
    (fun (r : Cmd.Rule.t) -> Printf.bprintf b ";%s:%d:%d:%d:%d" r.name r.fired r.guard_failed r.conflicted r.skipped)
    (Machine.rule_list m);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Exact totals over a set of operations. *)
type totals = {
  mutable cycles : int;
  mutable instrs : int;
  mutable fired : int;
  mutable guard_failed : int;
  mutable conflicted : int;
  mutable skipped : int;
  events : int array;
  mutable minor : float;
  mutable promoted : float;
  mutable majors : int;
  per_kernel : (string, int * int) Hashtbl.t; (* instrs, cycles *)
  mutable interpreted : int;
  mutable epoch_length : int;
}

let totals () =
  {
    cycles = 0;
    instrs = 0;
    fired = 0;
    guard_failed = 0;
    conflicted = 0;
    skipped = 0;
    events = Array.make (Array.length categories) 0;
    minor = 0.;
    promoted = 0.;
    majors = 0;
    per_kernel = Hashtbl.create 8;
    interpreted = 0;
    epoch_length = 1;
  }

type gc_delta = { d_minor : float; d_promoted : float; d_majors : int }

let gc_mark () =
  let minor, promoted, _ = Gc.counters () in
  (minor, promoted, (Gc.quick_stat ()).Gc.major_collections)

let gc_since (m0, p0, j0) =
  let m1, p1, j1 = gc_mark () in
  { d_minor = m1 -. m0; d_promoted = p1 -. p0; d_majors = j1 - j0 }

let merge_totals (t : totals) (s : totals) =
  t.cycles <- t.cycles + s.cycles;
  t.instrs <- t.instrs + s.instrs;
  t.fired <- t.fired + s.fired;
  t.guard_failed <- t.guard_failed + s.guard_failed;
  t.conflicted <- t.conflicted + s.conflicted;
  t.skipped <- t.skipped + s.skipped;
  Array.iteri (fun i v -> t.events.(i) <- t.events.(i) + v) s.events;
  t.minor <- t.minor +. s.minor;
  t.promoted <- t.promoted +. s.promoted;
  t.majors <- t.majors + s.majors;
  Hashtbl.iter
    (fun k (i, c) ->
      let i0, c0 = Option.value (Hashtbl.find_opt t.per_kernel k) ~default:(0, 0) in
      Hashtbl.replace t.per_kernel k (i0 + i, c0 + c))
    s.per_kernel;
  t.interpreted <- max t.interpreted s.interpreted;
  t.epoch_length <- max t.epoch_length s.epoch_length

let add_obs (t : totals) ~kernel ~cycles (o : obs) (g : gc_delta) =
  let per_kernel = Hashtbl.create 1 in
  Hashtbl.add per_kernel kernel (o.instrs, cycles);
  merge_totals t
    {
      cycles;
      instrs = o.instrs;
      fired = o.fired;
      guard_failed = o.guard_failed;
      conflicted = o.conflicted;
      skipped = o.skipped;
      events = o.events;
      minor = g.d_minor;
      promoted = g.d_promoted;
      majors = g.d_majors;
      per_kernel;
      interpreted = o.interpreted;
      epoch_length = o.epoch_length;
    }

(* ------------------------------------------------------------------ *)
(* Per-domain state and per-cycle timestamps                          *)
(* ------------------------------------------------------------------ *)

(* The serial and epoch loops call [on_cycle] before every cycle (every
   window in epoch mode) with the cycle index. A traced run stamps each
   call into preallocated arrays, and drops the stamps that do not fit:
   the hook must not allocate, because growing a buffer during the run
   moves the simulator's own allocation counts. After each run the
   stamps become per-window and per-cycle host times (µs). *)
type stamps = { st : Float.Array.t; sn : Float.Array.t; mutable used : int; window_us : fbuf; cycle_us : fbuf }

let stamps cap =
  { st = Float.Array.create cap; sn = Float.Array.create cap; used = 0; window_us = fbuf (); cycle_us = fbuf () }

let stamp s n =
  let i = s.used in
  if i < Float.Array.length s.st then begin
    Float.Array.unsafe_set s.st i (Int64.to_float (clock_ns ()));
    Float.Array.unsafe_set s.sn i (float_of_int n);
    s.used <- i + 1
  end

(* Turn the stamps of one run ending at [t_end] (seconds) after [cycles]
   cycles into window and cycle times, and empty the stamp arrays. *)
let drain s ~t_end ~cycles =
  let end_ns = t_end *. 1e9 and len = s.used in
  let t i = Float.Array.get s.st i and n i = int_of_float (Float.Array.get s.sn i) in
  for i = 0 to len - 1 do
    let t_next = if i + 1 < len then t (i + 1) else end_ns in
    let c_next = if i + 1 < len then n (i + 1) else cycles in
    let w = (t_next -. t i) *. 1e-3 and k = c_next - n i in
    if k > 0 then begin
      push s.window_us w;
      push s.cycle_us (w /. float_of_int k)
    end
  done;
  s.used <- 0

(* What each domain of a child process accumulates without locking; the
   child merges every domain's state when its work is done. This process
   never touches it, so a child's domains all start with fresh state. *)
type jsample = {
  jid : string;
  jt0 : float;
  jt1 : float;
  first_cycle : float;
  jrun_s : float; (* first simulated cycle to end of run *)
  jcycles : int;
  jinstrs : int;
  allowed : bool;
  jfactor : float; (* reference-speed factor of the farm domain that ran it *)
  outcome : int array;
  jfp : string; (* [fingerprint], for the jobs the repeat check samples *)
}

type dom_state = {
  dtot : totals;
  mutable dsamples : jsample list;
  stamps : stamps;
  names : (Machine.t * string list array) list ref; (* [category_names] per machine *)
}

let dom_states = ref []
let dom_lock = Mutex.create ()

let dom_key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          dtot = totals ();
          dsamples = [];
          stamps = stamps (1 lsl 16) (* a litmus job runs a few hundred cycles *);
          names = ref [];
        }
      in
      Mutex.lock dom_lock;
      dom_states := d :: !dom_states;
      Mutex.unlock dom_lock;
      d)

let all_doms () =
  Mutex.lock dom_lock;
  let l = !dom_states in
  Mutex.unlock dom_lock;
  l

let names_of cache m =
  match List.assq_opt m !cache with
  | Some n -> n
  | None ->
    let n = category_names m in
    cache := (m, n) :: !cache;
    n

(* ------------------------------------------------------------------ *)
(* Kernel workloads: spec-serial and mc16-epoch                       *)
(* ------------------------------------------------------------------ *)

type kernel = { kname : string; build : unit -> Machine.program; mutable golden : int64 array }

(* [partitioned]: the machine has per-core partitions, so the traced run
   also times a round on every domain of the host. The timed rounds run
   at [jobs] 1. *)
type kwork = { kernels : kernel list; ncores : int; kind : Machine.kind; epoch : int; partitioned : bool }

let spec_serial =
  {
    kernels =
      List.map
        (fun k -> { kname = k; build = (fun () -> Workloads.Spec_kernels.find k ~scale:1); golden = [||] })
        [ "gcc"; "gobmk"; "mcf" ];
    ncores = 1;
    kind = Machine.Out_of_order Ooo.Config.riscyoo_b;
    epoch = 1;
    partitioned = false;
  }

let mc16_epoch =
  {
    kernels =
      List.map
        (fun (k, scale) ->
          {
            kname = k;
            build = (fun () -> Workloads.Parsec_kernels.find k ~harts:16 ~scale);
            golden = [||];
          })
        [ ("blackscholes", 4); ("streamcluster", 1) ];
    ncores = 16;
    kind = Machine.Out_of_order (Ooo.Config.multicore16 Ooo.Config.TSO);
    epoch = 0;
    partitioned = true;
  }

let create w ~jobs prog = Machine.create ~ncores:w.ncores ~paging:true ~jobs ~epoch:w.epoch w.kind prog

(* The golden ISA model's exit codes, computed in a child before any
   timing. *)
let compute_golden w =
  let exits =
    in_child (fun () ->
        List.map
          (fun k ->
            let m = Machine.create ~ncores:w.ncores ~paging:true Machine.Golden_only (k.build ()) in
            let o = Machine.run m in
            if o.Machine.timed_out then failwith (k.kname ^ ": golden model timed out");
            o.Machine.exits)
          w.kernels)
  in
  List.iter2 (fun k e -> k.golden <- e) w.kernels exits

(* Times are in reference-speed seconds (see "Host speed"); [raw_*] are
   the unscaled wall times. *)
type op = {
  oname : string;
  wall : float; (* operation start to end of run *)
  setup : float; (* operation start to first simulated cycle *)
  program_s : float;
  create_s : float;
  run_s : float;
  raw_wall : float;
  raw_run : float;
  ofactor : float;
  rss_mb : float; (* peak resident set of the run's process *)
  ok : bool;
}

type round = { rwall : float; ops : op list; rinstrs : int }

let round_run r = sum (List.map (fun o -> o.run_s) r.ops)
let round_ops_wall r = sum (List.map (fun o -> o.wall) r.ops)

(* Fingerprint of the first run of each kernel; every later run must
   match, whatever its [jobs]. *)
let first_seen : (string, string) Hashtbl.t = Hashtbl.create 8

let check_repeat key fp =
  match Hashtbl.find_opt first_seen key with
  | None ->
    Hashtbl.add first_seen key fp;
    true
  | Some fp0 -> fp0 = fp

(* What a kernel run's process sends back; times are raw seconds. *)
type run_result = {
  r_program : float;
  r_create : float;
  r_setup : float; (* program build and [Machine.create] *)
  r_run : float;
  r_probe : float; (* probe time inside [r_run] *)
  r_factor : float;
  r_cycles : int;
  r_exits : int64 array;
  r_timed_out : bool;
  r_obs : obs;
  r_fp : string;
  r_gc : gc_delta;
  r_rss : float;
  r_window_us : fbuf;
  r_cycle_us : fbuf;
}

(* Build the program, create a fresh machine (modelled caches, TLBs and
   predictors start empty) and run it to exit. Runs in a child. *)
let kernel_run w k ~jobs ~traced ~op =
  (* the stamp and probe arrays are allocated before the set-up is timed *)
  let s = stamps (if traced then 1 lsl 21 else 0) and p = Domain.DLS.get probe_key in
  let t0 = now () in
  let prog, r_program = timed ~parent:op ~op "workloads.program" k.build in
  let m, r_create = timed ~parent:op ~op "workloads.create" (fun () -> create w ~jobs prog) in
  let on_cycle =
    if traced then fun n ->
      stamp s n;
      maybe_probe p
    else fun _ -> maybe_probe p
  in
  let t_created = now () in
  let run_sid = fresh () in
  let pr0 = probe_totals () in
  (* [Gc.counters] read right after a minor collection: read elsewhere,
     repetitions of one kernel gave minor word counts up to 0.06% apart *)
  Gc.minor ();
  let g0 = gc_mark () in
  let t_run = now () in
  let o = Machine.run ~on_cycle m in
  let t_end = now () in
  Gc.minor ();
  let r_gc = gc_since g0 in
  let pr1 = probe_totals () in
  record ~sid:run_sid ~parent:op ~op "cmd.run" t_run t_end;
  if traced then drain s ~t_end ~cycles:o.Machine.cycles;
  let (r_obs, r_fp), _ =
    timed ~parent:op ~op "observe" (fun () ->
        ( observe ~names:(category_names m) m,
          fingerprint m ~cycles:o.Machine.cycles ~exits:o.Machine.exits ))
  in
  {
    r_program;
    r_create;
    r_setup = t_created -. t0;
    r_run = t_end -. t_run;
    r_probe = probe_seconds pr0 pr1;
    r_factor = speed_factor pr0 pr1;
    r_cycles = o.Machine.cycles;
    r_exits = o.Machine.exits;
    r_timed_out = o.Machine.timed_out;
    r_obs;
    r_fp;
    r_gc;
    r_rss = peak_rss_mb ();
    r_window_us = s.window_us;
    r_cycle_us = s.cycle_us;
  }

(* Per-window and per-cycle host times (µs) of the traced runs. *)
let window_bufs = ref []
let cycle_bufs = ref []

(* One operation: a kernel run in a child process, then its checks. *)
let kernel_op w k ~jobs ~traced ~(tot : totals) ~round_sid =
  let sid = fresh () in
  let t0 = now () in
  let r = in_child (fun () -> kernel_run w k ~jobs ~traced ~op:sid) in
  let ok, _ =
    timed ~parent:sid ~op:sid "check" (fun () ->
        add_obs tot ~kernel:k.kname ~cycles:r.r_cycles r.r_obs r.r_gc;
        let golden_ok = (not r.r_timed_out) && r.r_exits = k.golden in
        let repeat_ok = check_repeat k.kname r.r_fp in
        if not golden_ok then complain "%s: exit checksum differs from the golden model" k.kname;
        if not repeat_ok then complain "%s: counters differ from the first run of this kernel" k.kname;
        golden_ok && repeat_ok)
  in
  record ~sid ~parent:round_sid ~op:sid ("op." ^ k.kname) t0 (now ());
  if traced then begin
    window_bufs := r.r_window_us :: !window_bufs;
    cycle_bufs := r.r_cycle_us :: !cycle_bufs
  end;
  let factor = r.r_factor and raw_run = r.r_run -. r.r_probe in
  let raw_wall = r.r_setup +. raw_run in
  ( {
      oname = k.kname;
      wall = raw_wall *. factor;
      setup = r.r_setup *. factor;
      program_s = r.r_program *. factor;
      create_s = r.r_create *. factor;
      run_s = raw_run *. factor;
      raw_wall;
      raw_run;
      ofactor = factor;
      rss_mb = r.r_rss;
      ok;
    },
    r.r_obs.instrs )

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let kernel_round w ~rng ~jobs ~traced ~tot =
  let sid = fresh () in
  let t0 = now () in
  let res =
    List.map (fun k -> kernel_op w k ~jobs ~traced ~tot ~round_sid:sid) (shuffle rng w.kernels)
  in
  let t1 = now () in
  record ~sid ~parent:0 ~op:sid "round" t0 t1;
  { rwall = t1 -. t0; ops = List.map fst res; rinstrs = List.fold_left (fun n (_, i) -> n + i) 0 res }

(* More set-up samples: [n] per kernel, each a program build and
   [Machine.create] in a fresh child, as in a kernel run, scaled by two
   probes taken just before it and one just after. *)
let extra_setups w ~jobs ~n =
  List.concat_map
    (fun k ->
      List.init n (fun _ ->
          in_child (fun () ->
              let p = Domain.DLS.get probe_key in
              let pr0 = probe_totals () in
              run_probe p;
              run_probe p;
              let t0 = now () in
              ignore (create w ~jobs (k.build ()));
              let s = now () -. t0 in
              run_probe p;
              s *. speed_factor pr0 (probe_totals ()))))
    w.kernels

(* Snapshot and restore of a fresh machine of the workload, 5 times each. *)
let snapshot_probe build_machine =
  let m = build_machine () in
  let img = ref "" in
  let snaps =
    List.init 5 (fun _ ->
        let t0 = now () in
        img := Machine.snapshot m;
        now () -. t0)
  in
  let restores =
    List.init 5 (fun _ ->
        let t0 = now () in
        Machine.restore m !img;
        now () -. t0)
  in
  (1e3 *. median snaps, 1e3 *. median restores, String.length !img)

(* ------------------------------------------------------------------ *)
(* litmus-farm                                                        *)
(* ------------------------------------------------------------------ *)

let litmus_seeds_per_round = 20
let models = [ Ooo.Config.TSO; Ooo.Config.WMM ]

(* The workload seed picks the litmus seed range: round r of a run with
   workload seed s sweeps litmus seeds base(s) + r*20 + 1 .. base(s) +
   (r+1)*20, with base(s) = (s mod 100000) * 10000. *)
let litmus_base seed = seed mod 100_000 * 10_000

let model_admits model cls =
  match (model, cls) with
  | _, Litmus.Run.Forbidden -> false
  | Ooo.Config.TSO, Litmus.Run.Wmm_relaxed -> false
  | _ -> true

(* One litmus run as the farm's own litmus jobs do it (warm fork, no
   stagger), with the machine handed back through [on_machine] so its
   counters can be read after the timed region. The totals go to [tot];
   [fp] also computes the job's [fingerprint]. *)
let litmus_exec ~stamps ~(tot : totals) ~names ~fp ~parent (fj : Litmus.Run.farm_job) ~cancel =
  let sid = fresh () in
  let first = Float.Array.make 1 nan in
  let last = ref (-1) in
  let on_cycle n =
    (match stamps with Some s -> stamp s n | None -> ());
    if n = 0 then Float.Array.set first 0 (Int64.to_float (clock_ns ()));
    last := n;
    cancel n
  in
  let machine = ref None in
  let t_machine = ref 0. in
  let on_machine m =
    t_machine := now ();
    machine := Some m
  in
  let g0 = gc_mark () in
  let t0 = now () in
  let o, _ =
    timed ~parent:sid ~op:sid "litmus.run_one" (fun () ->
        Litmus.Run.run_one ~seed:fj.fj_seed ~stagger:false ~warm:true ~on_cycle ~on_machine
          ~model:fj.fj_model fj.fj_test)
  in
  let cls, _ =
    timed ~parent:sid ~op:sid "litmus.classify" (fun () -> Litmus.Run.classify_outcome fj.fj_test o)
  in
  let t1 = now () in
  let gd = gc_since g0 in
  record ~sid ~parent ~op:sid "farm.job" t0 t1;
  let m = Option.get !machine in
  let cycles = !last + 1 in
  Option.iter (fun s -> drain s ~t_end:!t_machine ~cycles) stamps;
  let ob = observe ~names:(names m) m in
  add_obs tot ~kernel:"litmus" ~cycles ob gd;
  {
    jid = Litmus.Run.farm_job_id fj;
    jt0 = t0;
    jt1 = t1;
    first_cycle = Float.Array.get first 0 *. 1e-9;
    jrun_s = !t_machine -. (Float.Array.get first 0 *. 1e-9);
    jcycles = cycles;
    jinstrs = ob.instrs;
    allowed = model_admits fj.fj_model cls;
    jfactor = nan;
    outcome = o;
    jfp = (if fp then fingerprint m ~cycles ~exits:[||] else "");
  }

(* The jobs the repeat check samples: the first seed of each (test,
   model) in a round. *)
let sampled ~lo (fj : Litmus.Run.farm_job) = fj.fj_seed = lo

let litmus_job ~traced ~parent ~lo (fj : Litmus.Run.farm_job) =
  let id = Litmus.Run.farm_job_id fj in
  {
    Farm.Sweep.id;
    kind = "litmus";
    spec =
      [
        ("test", Rjson.Str fj.fj_test.Litmus.Test.name);
        ("model", Rjson.Str (match fj.fj_model with Ooo.Config.TSO -> "tso" | Ooo.Config.WMM -> "wmm"));
        ("seed", Rjson.Int fj.fj_seed);
      ];
    replay = "perfbench litmus-farm job " ^ id;
    run =
      (fun ~should_stop ->
        let d = Domain.DLS.get dom_key and p = Domain.DLS.get probe_key in
        if p.count = 0 then run_probe p;
        let s =
          litmus_exec
            ~stamps:(if traced then Some d.stamps else None)
            ~tot:d.dtot ~names:(names_of d.names) ~fp:(sampled ~lo fj) ~parent fj
            ~cancel:(Farm.Sweep.cancel_hook ~should_stop)
        in
        d.dsamples <- { s with jfactor = 1. /. Float.Array.get p.acc 3 } :: d.dsamples;
        maybe_probe p;
        Rjson.Obj [ ("outcome", Rjson.Str (Litmus.Test.outcome_to_string fj.fj_test s.outcome)) ]);
  }

(* A farm round as its child process reports it: raw times, and the
   totals and per-cycle times of all its domains. [factor] is the
   reference-speed factor of every probe in the round; [sweep] has the
   probes' time taken out. *)
type fround = {
  fwall : float; (* round: expansion + sweep *)
  sweep : float;
  fsetup : float; (* round start to its first simulated cycle *)
  factor : float;
  jobs : jsample list;
  lo : int; (* first litmus seed *)
  n_jobs : int;
  lanes : int;
  rss_mb : float; (* peak resident set of the round's process *)
  retries : int;
  quarantined : int;
  bad_jobs : int; (* quarantined, unfinished or not admitted by the model *)
  ftot : totals;
  fcycle_us : fbuf list;
}

let journal = Filename.concat "perfbench" (Filename.concat "out" "farm-journal.jsonl")

let round_jobs ~lo =
  Litmus.Run.farm_jobs ~stagger:false ~seeds:litmus_seeds_per_round ~models Litmus.Test.all
  |> List.map (fun (fj : Litmus.Run.farm_job) -> { fj with fj_seed = fj.fj_seed + lo - 1 })

(* Runs in a child. This domain's state and first probe are set up before
   the round is timed; the other lanes' come with their first job. *)
let farm_round ~traced ~workers ~lo =
  ignore (Domain.DLS.get dom_key);
  run_probe (Domain.DLS.get probe_key);
  let sid = fresh () in
  let t0 = now () in
  let sweep_sid = fresh () in
  let pr0 = probe_totals () in
  let (fjs, jobs), _ =
    timed ~parent:sid ~op:sid "farm.expand" (fun () ->
        let fjs = round_jobs ~lo in
        (fjs, List.map (litmus_job ~traced ~parent:sweep_sid ~lo) fjs))
  in
  if Sys.file_exists journal then Sys.remove journal;
  let cfg = { Farm.Sweep.default_config with workers } in
  let ts0 = now () in
  let out = Farm.Sweep.run ~journal cfg jobs in
  let ts1 = now () in
  record ~sid:sweep_sid ~parent:sid ~op:sid "farm.sweep" ts0 ts1;
  Hashtbl.replace parallel_spans sweep_sid (workers + 1);
  Sys.remove journal;
  let t1 = now () in
  record ~sid ~parent:0 ~op:sid "round" t0 t1;
  let pr1 = probe_totals () in
  let doms = all_doms () in
  let got = List.concat_map (fun d -> d.dsamples) doms in
  let ftot = totals () in
  List.iter (fun d -> merge_totals ftot d.dtot) doms;
  let retries = List.fold_left (fun n (r : Farm.Sweep.record) -> n + r.attempts - 1) 0 out.records in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.jid s) got;
  let bad =
    List.length
      (List.filter
         (fun (r : Farm.Sweep.record) ->
           match (r.status, Hashtbl.find_opt by_id r.job_id) with
           | Farm.Sweep.Finished _, Some s -> not s.allowed
           | _ -> true)
         out.records)
    + out.n_unfinished
  in
  List.iter
    (fun (id, err, _) -> complain "job %s quarantined: %s" id err)
    (Farm.Sweep.quarantined out);
  List.iter (fun s -> if not s.allowed then complain "job %s: outcome not admitted by its model" s.jid) got;
  let first = List.fold_left (fun m s -> Float.min m s.first_cycle) infinity got in
  {
    fwall = t1 -. t0;
    sweep = ts1 -. ts0 -. (probe_seconds pr0 pr1 /. float_of_int (workers + 1));
    fsetup = first -. t0;
    factor = speed_factor pr0 pr1;
    jobs = got;
    lo;
    n_jobs = List.length fjs;
    lanes = workers + 1;
    rss_mb = peak_rss_mb ();
    retries;
    quarantined = out.n_quarantined;
    bad_jobs = bad;
    ftot;
    fcycle_us = List.map (fun d -> d.stamps.cycle_us) doms;
  }

let forked_round ~traced ~(tot : totals) ~workers ~lo =
  let r = in_child (fun () -> farm_round ~traced ~workers ~lo) in
  merge_totals tot r.ftot;
  if traced then cycle_bufs := r.fcycle_us @ !cycle_bufs;
  r

(* Re-run the sampled jobs of a round in this process and compare
   cycles, instructions, outcome and every counter with the sweep's run. *)
let farm_repeat_check (r : fround) =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.jid s) r.jobs;
  let names = names_of (ref []) in
  List.fold_left
    (fun bad fj ->
      let again =
        litmus_exec ~stamps:None ~tot:(totals ()) ~names ~fp:true ~parent:0 fj ~cancel:ignore
      in
      match Hashtbl.find_opt by_id (Litmus.Run.farm_job_id fj) with
      | Some s
        when s.jcycles = again.jcycles && s.jinstrs = again.jinstrs && s.outcome = again.outcome
             && s.jfp = again.jfp ->
        bad
      | _ ->
        complain "job %s did not repeat exactly" (Litmus.Run.farm_job_id fj);
        bad + 1)
    0
    (List.filter (sampled ~lo:r.lo) (round_jobs ~lo:r.lo))

(* ------------------------------------------------------------------ *)
(* Reference-model enumeration                                        *)
(* ------------------------------------------------------------------ *)

let mcheck_probe () =
  let t0 = now () in
  let states =
    List.fold_left
      (fun n t ->
        List.fold_left
          (fun n model ->
            let _, st = Litmus.Ref_model.allowed_stats t ~model in
            n + st.Litmus.Ref_model.states)
          n
          Litmus.Ref_model.[ SC; TSO; WMM ])
      0 Litmus.Test.all
  in
  (now () -. t0, states)

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)
(* ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
  notes : string list; (* human-readable lines printed before the result *)
}

(* Run [round] until [seconds] of rounds have been measured (at least
   [min_rounds]). *)
let rounds_for ~seconds ~min_rounds round wall =
  let rec go acc spent i =
    if i >= min_rounds && spent >= seconds then List.rev acc
    else
      let r = round i in
      go (r :: acc) (spent +. wall r) (i + 1)
  in
  go [] 0. 0

let nproc = Domain.recommended_domain_count ()

let pki (tot : totals) i = 1000. *. ratio tot.events.(i) tot.instrs

(* Per-layer metrics every workload reports; the workload fills in what
   it measured and leaves 0 where it does not exercise the layer. [raw]
   is the unscaled sim_kips, jobs_per_s and job_ms_p50 of the traced
   rounds, and [factor] their median host speed factor. *)
let layer_metrics ~(tot : totals) ~program_s ~create_s ~run_s ~jobs1_run_s ~speedup ~snap ~mcheck
    ~cycles_per_job ~overhead_s ~retries ~quarantined ~self_s ~trace_overhead ~reconcile_err ~raw ~factor =
  let cycle = fbuf_pcts !cycle_bufs [ 0.5; 0.99 ] and window = fbuf_pcts !window_bufs [ 0.5; 0.99 ] in
  let bodies = tot.fired + tot.guard_failed + tot.conflicted - tot.skipped in
  let attempts = tot.fired + tot.guard_failed + tot.conflicted in
  let ipc k =
    match Hashtbl.find_opt tot.per_kernel k with Some (i, c) -> ratio i c | None -> 0.
  in
  let snap_ms, restore_ms, snap_bytes = snap and enum_s, states = mcheck in
  let raw_kips, raw_jobs_per_s, raw_job_ms = raw in
  [
    ("workloads.program_s", program_s, "s");
    ("workloads.create_s", create_s, "s");
    ("cmd.run_s", run_s, "s");
    ("cmd.cycle_us_p50", List.nth cycle 0, "us");
    ("cmd.cycle_us_p99", List.nth cycle 1, "us");
    ("cmd.window_us_p50", List.nth window 0, "us");
    ("cmd.window_us_p99", List.nth window 1, "us");
    ("cmd.bodies_per_cycle", ratio bodies tot.cycles, "count");
    ("cmd.skipped_share", ratio tot.skipped attempts, "ratio");
    ("cmd.retry_share", ratio tot.conflicted bodies, "ratio");
    ("cmd.guard_fail_share", ratio tot.guard_failed attempts, "ratio");
    ("cmd.rules_interpreted", float_of_int tot.interpreted, "count");
    ("cmd.epoch_length", float_of_int tot.epoch_length, "cycles");
    ("cmd.jobs1_run_s", jobs1_run_s, "s");
    ("cmd.partition_speedup", speedup, "x");
    ("cmd.snapshot_ms", snap_ms, "ms");
    ("cmd.restore_ms", restore_ms, "ms");
    ("cmd.snapshot_bytes", float_of_int snap_bytes, "bytes");
    ("gc.minor_words_per_cycle", tot.minor /. float_of_int (max 1 tot.cycles), "words");
    ("gc.promoted_words_per_cycle", tot.promoted /. float_of_int (max 1 tot.cycles), "words");
    ("gc.major_collections", float_of_int tot.majors, "count");
    ("ooo.ipc.gcc", ipc "gcc", "ratio");
    ("ooo.ipc.gobmk", ipc "gobmk", "ratio");
    ("ooo.ipc.mcf", ipc "mcf", "ratio");
    ("ooo.ipc.blackscholes", ipc "blackscholes", "ratio");
    ("ooo.ipc.streamcluster", ipc "streamcluster", "ratio");
    ("ooo.ipc.litmus", ipc "litmus", "ratio");
    ("branch.mispredict_pki", pki tot 0, "1/kinstr");
    ("mem.l1d_miss_pki", pki tot 1, "1/kinstr");
    ("mem.l2_miss_pki", pki tot 2, "1/kinstr");
    ("tlb.dtlb_miss_pki", pki tot 3, "1/kinstr");
    ("tlb.l2tlb_miss_pki", pki tot 4, "1/kinstr");
    ("ooo.ld_kill_pki", pki tot 5, "1/kinstr");
    ("mcheck.enum_s", enum_s, "s");
    ("mcheck.states", float_of_int states, "count");
    ("litmus.cycles_per_job", cycles_per_job, "cycles");
    ("farm.overhead_s", overhead_s, "s");
    ("farm.retries", float_of_int retries, "count");
    ("farm.quarantined", float_of_int quarantined, "count");
    ("harness.self_s", self_s, "s");
    ("trace.overhead_share", trace_overhead, "ratio");
    ("trace.reconcile_err_share", reconcile_err, "ratio");
    ("host.speed_factor", factor, "x");
    ("raw.sim_kips", raw_kips, "kinstr/s");
    ("raw.jobs_per_s", raw_jobs_per_s, "1/s");
    ("raw.job_ms_p50", raw_job_ms, "ms");
  ]

let run_kernels w ~seed ~seconds ~traced =
  let jobs = 1 in
  compute_golden w;
  let rng = Random.State.make [| seed |] in
  let tot = totals () in
  let rounds =
    rounds_for ~seconds ~min_rounds:1 (fun _ -> kernel_round w ~rng ~jobs ~traced ~tot) (fun r -> r.rwall)
  in
  let ops = List.concat_map (fun r -> r.ops) rounds in
  let failed = List.length (List.filter (fun o -> not o.ok) ops) in
  let attempted = List.length ops in
  let per_round f = median (List.map f rounds) in
  let kips run r = float_of_int r.rinstrs /. run r /. 1e3 in
  let raw_kips = per_round (kips (fun r -> sum (List.map (fun o -> o.raw_run) r.ops))) in
  let raw_jobs_per_s = per_round (fun r -> float_of_int (List.length r.ops) /. sum (List.map (fun o -> o.raw_wall) r.ops)) in
  let raw_job_ms = median (List.map (fun o -> 1e3 *. o.raw_wall) ops) in
  let factor = median (List.map (fun o -> o.ofactor) ops) in
  let self r = r.rwall -. sum (List.map (fun o -> o.raw_wall) r.ops) in
  let notes =
    [
      Printf.sprintf "rounds: %d, kernel runs: %d, jobs: %d, epoch: %s" (List.length rounds) attempted jobs
        (if w.epoch = 0 then "derived" else string_of_int w.epoch);
      Printf.sprintf "host speed factor per kernel run: %s"
        (String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.ofactor) ops));
      Printf.sprintf "unscaled: sim_kips %.4f, jobs_per_s %.4f, job_ms_p50 %.2f" raw_kips raw_jobs_per_s raw_job_ms;
    ]
  in
  if not traced then
    let walls = List.map (fun o -> 1e3 *. o.wall) ops in
    let setups = List.map (fun o -> o.setup) ops @ extra_setups w ~jobs ~n:5 in
    {
      attempted;
      failed;
      metrics =
        [
          ("sim_kips", per_round (kips round_run), "kinstr/s");
          ("setup_s", median setups, "s");
          ("ipc", ratio tot.instrs tot.cycles, "instr/cycle");
          ("peak_rss_mb", List.fold_left (fun m (o : op) -> Float.max m o.rss_mb) 0. ops, "MB");
          ("jobs_per_s", per_round (fun r -> float_of_int (List.length r.ops) /. round_ops_wall r), "1/s");
          ("job_ms_p50", median walls, "ms");
          ("job_ms_p99", tail walls, "ms");
        ];
      notes = notes @ [ Printf.sprintf "set-up samples: %d" (List.length setups) ];
    }
  else begin
    (* untraced reference rounds: the same work (tracing overhead) and,
       on a partitioned machine, the same work on every domain of the
       host (partition speedup) *)
    let ref_tot = totals () in
    let untraced jobs = kernel_round w ~rng ~jobs ~traced:false ~tot:ref_tot in
    let ref_round = untraced jobs in
    let pool_round = if w.partitioned then untraced nproc else ref_round in
    let extra = if w.partitioned then [ ref_round; pool_round ] else [ ref_round ] in
    let snap = snapshot_probe (fun () -> create w ~jobs ((List.hd w.kernels).build ())) in
    let mcheck = mcheck_probe () in
    let reconcile_err, bad = reconcile !spans in
    List.iter (complain "reconciliation: %s") bad;
    {
      attempted = attempted + List.fold_left (fun n r -> n + List.length r.ops) 0 extra;
      failed =
        failed
        + List.length (List.filter (fun o -> not o.ok) (List.concat_map (fun r -> r.ops) extra))
        + if bad = [] then 0 else 1;
      metrics =
        layer_metrics ~tot
          ~program_s:(median (List.map (fun o -> o.program_s) ops))
          ~create_s:(median (List.map (fun o -> o.create_s) ops))
          ~run_s:(per_round round_run) ~jobs1_run_s:(round_run ref_round)
          ~speedup:(round_run ref_round /. round_run pool_round)
          ~snap ~mcheck ~cycles_per_job:0. ~overhead_s:(per_round self) ~retries:0 ~quarantined:0
          ~self_s:(per_round self)
          ~trace_overhead:((per_round round_ops_wall /. round_ops_wall ref_round) -. 1.)
          ~reconcile_err ~raw:(raw_kips, raw_jobs_per_s, raw_job_ms) ~factor;
      notes =
        notes
        @ [
            Printf.sprintf "untraced reference round (scaled): %.3fs at jobs 1%s" (round_ops_wall ref_round)
              (if w.partitioned then Printf.sprintf ", %.3fs at jobs %d" (round_ops_wall pool_round) nproc
               else "");
          ];
    }
  end

let run_farm ~seed ~seconds ~traced =
  let workers = max 0 (nproc - 1) in
  let base = litmus_base seed in
  let tot = totals () in
  let next = ref 0 in
  let round ~workers ~traced ~tot =
    let lo = base + (!next * litmus_seeds_per_round) + 1 in
    incr next;
    forked_round ~traced ~tot ~workers ~lo
  in
  let rounds = rounds_for ~seconds ~min_rounds:2 (fun _ -> round ~workers ~traced ~tot) (fun r -> r.fwall) in
  (* untraced reference sweeps for a traced run: the same work on all
     lanes (tracing overhead) and on one lane (partition speedup) *)
  let extra =
    if traced then begin
      let ref_tot = totals () in
      let ref_round = round ~workers ~traced:false ~tot:ref_tot in
      Some (ref_round, round ~workers:0 ~traced:false ~tot:ref_tot)
    end
    else None
  in
  let repeat_bad = farm_repeat_check (List.hd rounds) in
  let jobs = List.concat_map (fun r -> r.jobs) rounds in
  let attempted = List.fold_left (fun n r -> n + r.n_jobs) 0 rounds in
  let failed = List.fold_left (fun n r -> n + r.bad_jobs) 0 rounds + repeat_bad in
  let per_round f = median (List.map f rounds) in
  let sweep_s r = r.sweep *. r.factor in
  let jobs_per_s sweep r = float_of_int (List.length r.jobs) /. sweep r in
  let raw_jobs_per_s = per_round (jobs_per_s (fun r -> r.sweep)) in
  let raw_job_ms = median (List.map (fun j -> 1e3 *. (j.jt1 -. j.jt0)) jobs) in
  let raw_kips =
    per_round (fun r -> float_of_int (List.fold_left (fun n j -> n + j.jinstrs) 0 r.jobs) /. r.sweep /. 1e3)
  in
  let factor = per_round (fun r -> r.factor) in
  let notes =
    [
      Printf.sprintf "rounds: %d, jobs: %d, lanes: %d, litmus seeds %d..%d" (List.length rounds) attempted
        (workers + 1) (base + 1)
        (base + (!next * litmus_seeds_per_round));
      Printf.sprintf "host speed factor per round: %s"
        (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.factor) rounds));
      Printf.sprintf "unscaled: sim_kips %.4f, jobs_per_s %.4f, job_ms_p50 %.4f" raw_kips raw_jobs_per_s raw_job_ms;
    ]
  in
  if not traced then
    let job_ms = List.map (fun j -> 1e3 *. (j.jt1 -. j.jt0) *. j.jfactor) jobs in
    {
      attempted;
      failed;
      metrics =
        [
          ( "sim_kips",
            per_round (fun r ->
                float_of_int (List.fold_left (fun n j -> n + j.jinstrs) 0 r.jobs) /. sweep_s r /. 1e3),
            "kinstr/s" );
          ("setup_s", per_round (fun r -> r.fsetup *. r.factor), "s");
          ("ipc", ratio tot.instrs tot.cycles, "instr/cycle");
          ("peak_rss_mb", List.fold_left (fun m r -> Float.max m r.rss_mb) 0. rounds, "MB");
          ("jobs_per_s", per_round (jobs_per_s sweep_s), "1/s");
          ("job_ms_p50", median job_ms, "ms");
          ("job_ms_p99", tail job_ms, "ms");
        ];
      notes = notes @ [ Printf.sprintf "job latency samples: %d" (List.length job_ms) ];
    }
  else begin
    let ref_round, jobs1_round = Option.get extra in
    (* the cold path a domain pays once per test: program, machine, run *)
    let probe =
      List.map
        (fun (t : Litmus.Test.t) ->
          let tp = now () in
          ignore (Litmus.Compile.program ~seed:1 ~stagger:false t);
          let program_s = now () -. tp in
          let first = ref nan and machine = ref None in
          let t0 = now () in
          ignore
            (Litmus.Run.run_one ~seed:1 ~stagger:false ~warm:false
               ~on_cycle:(fun n -> if n = 0 then first := now ())
               ~on_machine:(fun m -> machine := Some m)
               ~model:Ooo.Config.TSO t);
          (program_s, !first -. t0 -. program_s, Option.get !machine))
        Litmus.Test.all
    in
    let probe_m = match probe with (_, _, m) :: _ -> m | [] -> assert false in
    let snap = snapshot_probe (fun () -> probe_m) in
    let mcheck = mcheck_probe () in
    let reconcile_err, bad = reconcile !spans in
    List.iter (complain "reconciliation: %s") bad;
    let busy r = r.factor *. sum (List.map (fun j -> j.jt1 -. j.jt0) r.jobs) in
    let run_s r = r.factor *. sum (List.map (fun j -> j.jrun_s) r.jobs) in
    let ref_failed = ref_round.bad_jobs + jobs1_round.bad_jobs in
    (* at jobs 1 and epoch 1 a window is one cycle *)
    window_bufs := !cycle_bufs;
    {
      attempted = attempted + ref_round.n_jobs + jobs1_round.n_jobs;
      failed = failed + ref_failed + if bad = [] then 0 else 1;
      metrics =
        layer_metrics ~tot
          ~program_s:(median (List.map (fun (p, _, _) -> p) probe))
          ~create_s:(median (List.map (fun (_, c, _) -> c) probe))
          ~run_s:(per_round run_s) ~jobs1_run_s:(run_s jobs1_round)
          ~speedup:(sweep_s jobs1_round /. sweep_s ref_round)
          ~snap ~mcheck
          ~cycles_per_job:(float_of_int tot.cycles /. float_of_int (max 1 (List.length jobs)))
          ~overhead_s:(per_round (fun r -> sweep_s r -. (busy r /. float_of_int r.lanes)))
          ~retries:(List.fold_left (fun n r -> n + r.retries) 0 rounds)
          ~quarantined:(List.fold_left (fun n r -> n + r.quarantined) 0 rounds)
          ~self_s:(per_round (fun r -> r.fwall -. r.sweep))
          ~trace_overhead:((per_round sweep_s /. sweep_s ref_round) -. 1.)
          ~reconcile_err ~raw:(raw_kips, raw_jobs_per_s, raw_job_ms) ~factor;
      notes =
        notes
        @ [
            Printf.sprintf "reference sweeps: untraced %.3fs on %d lanes, %.3fs on 1 lane" (sweep_s ref_round)
              (workers + 1) (sweep_s jobs1_round);
            "gc counts: per job, on the domain that ran it";
          ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let workloads = [ "spec-serial"; "mc16-epoch"; "litmus-farm" ]

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "perfbench: need --workload (spec-serial|mc16-epoch|litmus-farm) --seed N>=0 --seconds S>=1 --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  tracing := traced;
  let out_dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let seconds = float_of_int !seconds in
  let r =
    match !workload with
    | "spec-serial" -> run_kernels spec_serial ~seed:!seed ~seconds ~traced
    | "mc16-epoch" -> run_kernels mc16_epoch ~seed:!seed ~seconds ~traced
    | _ -> run_farm ~seed:!seed ~seconds ~traced
  in
  if traced then
    write_trace
      ~path:(Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
      ~workload:!workload ~seed:!seed !spans;
  Cmd.Sim.shutdown_pool ();
  let correct = r.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  Printf.printf "workload: %s  seed: %d  trace: %d\n" !workload !seed !trace;
  List.iter print_endline r.notes;
  Printf.printf "attempted: %d  failed: %d  correct: %b\n" r.attempted r.failed correct;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6f %s\n" n v u) r.metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u) r.metrics));
  if not correct then exit 1
