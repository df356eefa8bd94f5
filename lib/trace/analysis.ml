type pc_report = {
  conflicts : int;
  violations : int;
  undecidable : int;
  first_violation_seq : int;
}

(* Pass 1: final outcome of every attempt uid. Pass 2: sweep in seq order
   keeping counts of live attempts by eventual outcome; a Resolve with no
   live committer is a violation (or undecidable if a live attempt's outcome
   never shows up, e.g. the run was truncated mid-attempt). The [live] table
   guards the counters against unbalanced begin/terminal pairs from ring
   drops. *)
let pending_commit (trace : Event.t array) =
  let outcomes : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Commit -> Hashtbl.replace outcomes e.b true
      | Event.Abort -> Hashtbl.replace outcomes e.b false
      | _ -> ())
    trace;
  let live : (int, [ `C | `A | `U ]) Hashtbl.t = Hashtbl.create 256 in
  let live_commit = ref 0 and live_unknown = ref 0 in
  let conflicts = ref 0 and violations = ref 0 and undecidable = ref 0 in
  let first_violation = ref (-1) in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Begin ->
        if not (Hashtbl.mem live e.b) then begin
          let cls =
            match Hashtbl.find_opt outcomes e.b with
            | Some true -> incr live_commit; `C
            | Some false -> `A
            | None -> incr live_unknown; `U
          in
          Hashtbl.replace live e.b cls
        end
      | Event.Commit | Event.Abort -> (
        match Hashtbl.find_opt live e.b with
        | Some cls ->
          Hashtbl.remove live e.b;
          (match cls with
          | `C -> decr live_commit
          | `U -> decr live_unknown
          | `A -> ())
        | None -> ())
      | Event.Resolve ->
        incr conflicts;
        if !live_commit = 0 then
          if !live_unknown > 0 then incr undecidable
          else begin
            incr violations;
            if !first_violation < 0 then first_violation := e.seq
          end
      | _ -> ())
    trace;
  {
    conflicts = !conflicts;
    violations = !violations;
    undecidable = !undecidable;
    first_violation_seq = !first_violation;
  }

type cascade_report = { enemy_aborts : int; max_cascade : int; mean_cascade : float }

(* Backward sweep: [best] maps a txid to the longest abort chain rooted at an
   abort_other verdict (at a later seq) whose victim is that txid. An
   abort_other of victim V by A at seq s extends A's best later chain by 1. *)
let cascades (trace : Event.t array) =
  let best : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let max_c = ref 0 and total = ref 0 and count = ref 0 in
  for i = Array.length trace - 1 downto 0 do
    let e = trace.(i) in
    if e.kind = Event.Resolve && e.c = Event.d_abort_other then begin
      let len = 1 + Option.value (Hashtbl.find_opt best e.a) ~default:0 in
      let cur = Option.value (Hashtbl.find_opt best e.b) ~default:0 in
      if len > cur then Hashtbl.replace best e.b len;
      if len > !max_c then max_c := len;
      total := !total + len;
      incr count
    end
  done;
  {
    enemy_aborts = !count;
    max_cascade = !max_c;
    mean_cascade = (if !count = 0 then 0. else float_of_int !total /. float_of_int !count);
  }

type price_report = {
  p_attempts : int;
  p_committed : int;
  p_aborted : int;
  work_total : int;
  work_wasted : int;
  waits : int;
  wait_cost : int;
  price : int;
  price_per_commit : float;
}

(* Pass 1: final outcome of every attempt uid.  Pass 2: count attempts
   and outcomes, charge each [Open] to its txid's current attempt, and
   pair wait intervals: a Wait_begin opens an interval for its txid,
   closed by the matching Wait_end — or by the attempt's terminal
   event, since an attempt blocked on an enemy can be aborted while
   waiting and never emit Wait_end.  Intervals are measured in ticks
   when the trace carries them, in seq units otherwise (same
   convention as [empirical_makespan]). *)
let price (trace : Event.t array) =
  let outcomes : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Commit -> Hashtbl.replace outcomes e.b true
      | Event.Abort -> Hashtbl.replace outcomes e.b false
      | _ -> ())
    trace;
  let has_ticks = Array.exists (fun (e : Event.t) -> e.tick > 0) trace in
  let time (e : Event.t) = if has_ticks then e.tick else e.seq in
  let cur : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let wait_start : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let attempts = ref 0 and committed = ref 0 and aborted = ref 0 in
  let work_total = ref 0 and work_wasted = ref 0 in
  let waits = ref 0 and wait_cost = ref 0 in
  let close_wait txid t =
    match Hashtbl.find_opt wait_start txid with
    | None -> ()
    | Some t0 ->
      Hashtbl.remove wait_start txid;
      incr waits;
      wait_cost := !wait_cost + max 0 (t - t0)
  in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Begin ->
        incr attempts;
        Hashtbl.replace cur e.a e.b
      | Event.Commit ->
        incr committed;
        close_wait e.a (time e)
      | Event.Abort ->
        incr aborted;
        close_wait e.a (time e)
      | Event.Wait_begin -> Hashtbl.replace wait_start e.a (time e)
      | Event.Wait_end -> close_wait e.a (time e)
      | Event.Open -> (
        incr work_total;
        match Hashtbl.find_opt cur e.a with
        | Some uid -> (
          match Hashtbl.find_opt outcomes uid with
          | Some false -> incr work_wasted
          | Some true | None -> ())
        | None -> ())
      | _ -> ())
    trace;
  {
    p_attempts = !attempts;
    p_committed = !committed;
    p_aborted = !aborted;
    work_total = !work_total;
    work_wasted = !work_wasted;
    waits = !waits;
    wait_cost = !wait_cost;
    price = !work_wasted + !wait_cost;
    price_per_commit =
      (if !committed = 0 then infinity
       else float_of_int (!work_wasted + !wait_cost) /. float_of_int !committed);
  }

let pp_price fmt p =
  Format.fprintf fmt
    "price: attempts=%d committed=%d aborted=%d work=%d wasted=%d waits=%d wait-cost=%d price=%d per-commit=%s@."
    p.p_attempts p.p_committed p.p_aborted p.work_total p.work_wasted p.waits
    p.wait_cost p.price
    (if p.price_per_commit = infinity then "inf"
     else Printf.sprintf "%.2f" p.price_per_commit)

let empirical_makespan (trace : Event.t array) =
  let has_ticks = Array.exists (fun (e : Event.t) -> e.tick > 0) trace in
  let time (e : Event.t) = if has_ticks then e.tick else e.seq in
  let first_begin = ref max_int and last_commit = ref min_int in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Begin -> if time e < !first_begin then first_begin := time e
      | Event.Commit -> if time e > !last_commit then last_commit := time e
      | _ -> ())
    trace;
  if !last_commit = min_int || !first_begin = max_int then 0
  else !last_commit - !first_begin

type makespan_report = {
  measured : int;
  optimal : int;
  ratio : float;
  bound_factor : int;
  within_bound : bool;
}

let makespan_report ~optimal ~bound_factor trace =
  let measured = empirical_makespan trace in
  {
    measured;
    optimal;
    ratio = (if optimal <= 0 then 0. else float_of_int measured /. float_of_int optimal);
    bound_factor;
    within_bound = measured <= bound_factor * optimal;
  }

let kind_counts (trace : Event.t array) =
  let kinds =
    [
      Event.Begin; Event.Commit; Event.Abort; Event.Resolve; Event.Wait_begin;
      Event.Wait_end; Event.Open;
    ]
  in
  let counts = Array.make (List.length kinds) 0 in
  Array.iter
    (fun (e : Event.t) ->
      let c = Event.kind_code e.kind in
      counts.(c) <- counts.(c) + 1)
    trace;
  List.map (fun k -> (k, counts.(Event.kind_code k))) kinds

let pp_summary fmt trace =
  Format.fprintf fmt "events: %d@." (Array.length trace);
  List.iter
    (fun (k, n) ->
      if n > 0 then Format.fprintf fmt "  %-10s %d@." (Event.kind_name k) n)
    (kind_counts trace);
  let pc = pending_commit trace in
  Format.fprintf fmt "pending-commit: conflicts=%d violations=%d undecidable=%d@."
    pc.conflicts pc.violations pc.undecidable;
  (if pc.first_violation_seq >= 0 then
     Format.fprintf fmt "  first violation at seq %d@." pc.first_violation_seq);
  let ca = cascades trace in
  Format.fprintf fmt "cascades: enemy-aborts=%d max=%d mean=%.2f@." ca.enemy_aborts
    ca.max_cascade ca.mean_cascade;
  let p = price trace in
  Format.fprintf fmt
    "wasted work: attempts=%d committed=%d aborted=%d opens=%d wasted=%d (%.1f%%)@."
    p.p_attempts p.p_committed p.p_aborted p.work_total p.work_wasted
    (if p.work_total = 0 then 0.
     else 100. *. float_of_int p.work_wasted /. float_of_int p.work_total);
  let mk = empirical_makespan trace in
  Format.fprintf fmt "makespan (%s): %d@."
    (if Array.exists (fun (e : Event.t) -> e.tick > 0) trace then "ticks" else "seq")
    mk
