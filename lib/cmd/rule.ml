type t = {
  name : string;
  body : Kernel.ctx -> unit;
  can_fire : (unit -> bool) option;
  watches : Wakeup.signal array;
  vacuous : bool;
  part : int;
  touches : Partition.token array;
  fp : Conflict.atom list option;
  total : bool;
  mutable fired : int;
  mutable guard_failed : int;
  mutable conflicted : int;
  mutable skipped : int;
  mutable wasted : int;
  mutable parked : bool;
  mutable park_sum : int;
  mutable last_fired : int;
  mutable rid : int;
}

let make ?can_fire ?(watches = []) ?(touches = []) ?fp ?(total = false) ?(vacuous = false) name
    body =
  {
    name;
    body;
    can_fire;
    watches = Array.of_list watches;
    vacuous;
    part = Partition.ambient ();
    touches = Array.of_list touches;
    fp;
    total;
    fired = 0;
    guard_failed = 0;
    conflicted = 0;
    skipped = 0;
    wasted = 0;
    parked = false;
    park_sum = 0;
    last_fired = -1;
    rid = -1;
  }

let reset_stats t =
  t.fired <- 0;
  t.guard_failed <- 0;
  t.conflicted <- 0;
  t.skipped <- 0;
  t.wasted <- 0;
  t.last_fired <- -1
