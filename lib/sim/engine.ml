(** Deterministic two-phase tick engine.

    Each simulated thread executes a stream of transactions.  A tick
    has two phases:

    - {b Phase A} (access phase, thread-id order): threads start
      pending transactions, re-check waits and backoffs, and attempt
      the object accesses due at their current progress point.
      Conflicts are resolved by the thread's contention manager;
      aborts take effect immediately (the victim restarts at the next
      tick, keeping its timestamp).
    - {b Phase B} (work phase): every thread still running advances one
      tick of work; a thread completing its duration commits at the end
      of the tick.

    Accesses thus happen strictly before the commits of the same tick,
    which reproduces the paper's "at time 1 - epsilon, T1 accesses X1,
    aborting T0" scheduling of the Section 4 chain exactly.

    The managers are the live [Tcm_core] modules, one instance per
    simulated thread, each seeing the real [Txn.t] descriptors it sees
    in the runtimes.  Managers never read a clock: all time reaches
    them as {!Tcm_stm.Decision} durations, which the engine converts
    at [usec_per_tick] (default {!default_usec_per_tick}).

    Everything is deterministic: thread-id order breaks ties, managers
    draw their jitter from streams seeded by [seed], and timestamps are
    assigned in arrival order. *)

open Tcm_stm

(* A family of int stacks, stack [i] being the array [s.(i)]: its
   length in slot 0, its elements in slots 1 to length, the top last.
   Every stack starts as the shared [empty], which is never written,
   and gets an array of its own on its first push, doubled when full:
   an object nobody reads costs no array.  Every operation compares
   ints only. *)
module Stacks = struct
  type t = int array array

  let empty = [| 0 |]
  let create n : t = Array.make n empty
  let length (s : t) i = s.(i).(0)

  (* The [k]th element from the bottom, [0 <= k < length s i]. *)
  let get (s : t) i k = s.(i).(k + 1)

  let clear (s : t) i = if s.(i).(0) > 0 then s.(i).(0) <- 0

  let push (s : t) i x =
    let a = s.(i) in
    let n = a.(0) in
    let a =
      if n + 1 < Array.length a then a
      else begin
        let b = Array.make (max 5 ((2 * n) + 1)) 0 in
        Array.blit a 0 b 0 (n + 1);
        s.(i) <- b;
        b
      end
    in
    a.(n + 1) <- x;
    a.(0) <- n + 1

  (* Slot of the topmost [x] in stack [i], 0 when absent. *)
  let slot (s : t) i x =
    let a = s.(i) in
    let k = ref a.(0) in
    while !k > 0 && a.(!k) <> x do
      decr k
    done;
    !k

  let mem s i x = slot s i x > 0

  (* Drop [x] from stack [i] if it is there, keeping the others'
     order. *)
  let remove (s : t) i x =
    let k = slot s i x in
    if k > 0 then begin
      let a = s.(i) in
      let n = a.(0) in
      Array.blit a (k + 1) a k (n - k);
      a.(0) <- n - 1
    end

  (* The topmost element of stack [i] other than [x], or -1. *)
  let top_other (s : t) i x =
    let a = s.(i) in
    let k = ref a.(0) in
    while !k > 0 && a.(!k) = x do
      decr k
    done;
    if !k > 0 then a.(!k) else -1
end

(* Object state and read/write sets outlive a run.  A run takes its
   domain's arrays, growing them to fit, and hands them back clean, so
   a sweep of many runs allocates them once: fresh arrays of
   [n_objects] words per run kept a sweep's peak memory about 2 MB
   higher (EXPERIMENTS.md).  A run that raises, or one nested in
   another's stream, works on fresh arrays. *)
type scratch = {
  owner : int array;  (** The owning thread, -1 when free. *)
  readers : Stacks.t;  (** Registered readers, most recent on top. *)
  writes : Stacks.t;  (** Per thread: the objects it owns. *)
  reads : Stacks.t;  (** Per thread: the objects it registered to read. *)
}

let scratch_key : scratch option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let take_scratch ~n_objects ~threads =
  let prev = Domain.DLS.get scratch_key in
  Domain.DLS.set scratch_key None;
  match prev with
  | Some s when Array.length s.owner >= n_objects && Array.length s.writes >= threads -> s
  | _ ->
      (* Grown to the largest run seen, so runs of alternating sizes
         do not allocate every time. *)
      let n_objects, threads =
        match prev with
        | Some s -> (max n_objects (Array.length s.owner), max threads (Array.length s.writes))
        | None -> (n_objects, threads)
      in
      {
        owner = Array.make n_objects (-1);
        readers = Stacks.create n_objects;
        writes = Stacks.create threads;
        reads = Stacks.create threads;
      }

type thread_status = Idle_s | Running_s | Waiting_s | Backing_off_s | Finished_s

type tstate = {
  tid : int;
  stream : int -> Spec.txn option;
  cm : Cm_intf.packed;  (** This thread's manager instance. *)
  probe : Tcm_obs.Probe.t;  (** This thread's lane of the run's probe. *)
  mutable txn_index : int;
  mutable accesses : Spec.access list;  (** The current transaction's. *)
  mutable dur : int;
  mutable halts_at : int;  (** [max_int] when the transaction never halts. *)
  mutable txn : Txn.t;
      (** The current attempt's descriptor — all the manager sees of
          this thread, exactly as in the live runtimes. *)
  mutable attempt : int;  (** Global per-thread attempt counter. *)
  mutable status : thread_status;
  mutable until : int;  (** Backing off: the tick to resume at. *)
  mutable wait_obj : int;  (** Waiting: the object ... *)
  mutable wait_enemy : int;  (** ... its owner's thread ... *)
  mutable wait_enemy_attempt : int;  (** ... and attempt when the wait began ... *)
  mutable wait_deadline : int;  (** ... and the timeout's tick, [max_int] for none. *)
  mutable opens : int;  (** Opens in the current attempt (its read-set size). *)
  mutable progress : int;
  mutable pending : Spec.access list;
  mutable aborts : int;
  mutable stuck : int;  (** Consecutive resolves at the current access. *)
  mutable commits : int;
  mutable cur_aborts : int;  (** Restarts of the current transaction. *)
  mutable aborted_this_tick : bool;
}

type result = {
  ticks : int;
  completed : bool;  (** All streams exhausted within the horizon. *)
  makespan : int option;  (** Tick of the last commit, when [completed]. *)
  commits : int;
  aborts : int;
  per_thread_commits : int array;
  per_thread_aborts : int array;
  max_aborts_one_txn : int;
      (** Worst number of restarts any single transaction needed — the
          starvation metric for the timestamp-retention ablation. *)
  manager_name : string;
}

let default_horizon = 1_000_000

let cm_begin (Cm_intf.Packed ((module M), st)) txn = M.begin_attempt st txn
let cm_opened (Cm_intf.Packed ((module M), st)) txn = M.opened st txn
let cm_committed (Cm_intf.Packed ((module M), st)) txn = M.committed st txn
let cm_aborted (Cm_intf.Packed ((module M), st)) txn = M.aborted st txn

(* Manager durations are live microseconds.  One tick is one of them:
   a live greedy attempt on the 2-domain list workload takes 3.9 us at
   the median and a simulated one 3.5 ticks (EXPERIMENTS.md, metrics
   table), about 1.1 us per tick. *)
let default_usec_per_tick = 1

let new_shared timestamp =
  { Txn.timestamp; priority = 0; aborts = 0; opens = 0; cm_stamp = Txn.no_cm_stamp }

let run ?(horizon = default_horizon) ?ranks
    ?(ts_on_restart = `Keep) ?(seed = 0) ?(usec_per_tick = default_usec_per_tick)
    ~(manager : Cm_intf.factory) ~n_objects (streams : (int -> Spec.txn option) array) :
    result =
  if usec_per_tick < 1 then invalid_arg "Engine.run: usec_per_tick < 1";
  (* Rounded up, so any nonzero duration costs at least a tick. *)
  let ticks_of_usec us = (us + usec_per_tick - 1) / usec_per_tick in
  (* Managers built in the scope draw their jitter from [seed] and hand
     their plane slots back when the run ends. *)
  Tcm_core.Cm_util.scoped ~seed @@ fun () ->
  let n = Array.length streams in
  let manager_name = Cm_intf.name manager in
  (* Same instruments as the live runtime; runtime="sim" keeps the
     units (ticks vs us) apart in the registry.  Without a statistics
     group the probe is tick-clocked: durations and wait prices are in
     ticks.  The simulator models the eager locator
     protocol, so its series carry backend="locator" explicitly;
     conflict keys are the scenario's object ids. *)
  let probe = Tcm_obs.Probe.create ~runtime:"sim" ~backend:"locator" manager_name in
  let ts_counter =
    (* Later transactions must be younger than any explicit rank. *)
    ref (match ranks with None -> 0 | Some r -> Array.fold_left max 0 r)
  in
  let fresh_timestamp () =
    incr ts_counter;
    !ts_counter
  in
  let initial_timestamp tid =
    match ranks with
    | Some r when tid < Array.length r -> r.(tid)
    | _ -> fresh_timestamp ()
  in
  let threads =
    Array.init n (fun tid ->
        {
          tid;
          stream = streams.(tid);
          cm = Cm_intf.instantiate manager;
          probe = Tcm_obs.Probe.lane probe;
          txn_index = 0;
          accesses = [];
          dur = 0;
          halts_at = max_int;
          txn = Txn.committed_sentinel;
          attempt = 0;
          status = Idle_s;
          until = 0;
          wait_obj = 0;
          wait_enemy = 0;
          wait_enemy_attempt = 0;
          wait_deadline = max_int;
          opens = 0;
          progress = 0;
          pending = [];
          aborts = 0;
          stuck = 0;
          commits = 0;
          cur_aborts = 0;
          aborted_this_tick = false;
        })
  in
  let scratch = take_scratch ~n_objects ~threads:n in
  let { owner; readers; writes; reads } = scratch in
  let finished = ref 0 in
  let finish (t : tstate) =
    t.status <- Finished_s;
    incr finished
  in
  let total_aborts = ref 0 in
  let total_commits = ref 0 in
  let max_aborts_one_txn = ref 0 in
  let last_commit = ref 0 in

  (* Fault injection: a halted transaction stops acting but stays
     active and keeps its objects (Section 6's "transactions that stop
     prematurely").  Its thread is dead: if an enemy aborts it, the
     thread is finished rather than restarted. *)
  let is_halted (t : tstate) = t.progress >= t.halts_at in

  (* A read set may name an object the thread has since upgraded to a
     write: it is no longer registered there, so [remove] finds
     nothing.  No other thread can have taken the object meanwhile
     without aborting this one. *)
  let release (t : tstate) =
    let tid = t.tid in
    for k = 0 to Stacks.length writes tid - 1 do
      let o = Stacks.get writes tid k in
      if owner.(o) = tid then owner.(o) <- -1
    done;
    for k = 0 to Stacks.length reads tid - 1 do
      Stacks.remove readers (Stacks.get reads tid k) tid
    done;
    Stacks.clear writes tid;
    Stacks.clear reads tid
  in

  (* A fresh attempt of the current transaction, starting at [start]:
     the same lifecycle the live runtime drives ([Txn.new_attempt],
     then the manager's [begin_attempt]). *)
  let begin_attempt (t : tstate) shared ~start =
    t.txn <- Txn.new_attempt shared;
    t.attempt <- t.attempt + 1;
    t.opens <- 0;
    t.progress <- 0;
    t.stuck <- 0;
    t.pending <- t.accesses;
    cm_begin t.cm t.txn;
    Tcm_obs.Probe.attempt_begin t.probe ~txid:(Txn.timestamp t.txn)
      ~attempt:t.txn.Txn.attempt_id ~tick:start
  in

  let abort (victim : tstate) ~now =
    let halted = is_halted victim in
    Tcm_obs.Probe.abort victim.probe ~txid:(Txn.timestamp victim.txn)
      ~attempt:victim.txn.Txn.attempt_id ~tick:now ~opens:victim.opens;
    release victim;
    ignore (Txn.try_abort victim.txn);
    cm_aborted victim.cm victim.txn;
    victim.aborts <- victim.aborts + 1;
    victim.cur_aborts <- victim.cur_aborts + 1;
    max_aborts_one_txn := max !max_aborts_one_txn victim.cur_aborts;
    victim.aborted_this_tick <- true;
    if halted then
      (* The thread behind it is dead; clearing the objects is all an
         enemy can do. *)
      finish victim
    else begin
      (* Ablation hook: the paper's greedy retains the timestamp across
         aborts; [`Fresh] deliberately breaks that to demonstrate why. *)
      let shared =
        match ts_on_restart with
        | `Keep -> victim.txn.Txn.shared
        | `Fresh -> { victim.txn.Txn.shared with timestamp = fresh_timestamp () }
      in
      (* Restart (same transaction) at the next tick. *)
      victim.status <- Backing_off_s;
      victim.until <- now + 1;
      begin_attempt victim shared ~start:(now + 1)
    end;
    incr total_aborts
  in

  (* First conflicting thread for an access, or -1.  A writer meets an
     owner first, else the most recently registered other reader. *)
  let conflict_of (t : tstate) (a : Spec.access) =
    let o = a.Spec.obj in
    let w = owner.(o) in
    if w >= 0 && w <> t.tid then w
    else
      match a.Spec.kind with
      | Spec.Read -> -1
      | Spec.Write -> Stacks.top_other readers o t.tid
  in

  (* The caller has checked that [t] does not own the object.  An
     upgrade drops [t]'s reader registration but leaves its read set
     alone (see [release]). *)
  let do_acquire (t : tstate) (a : Spec.access) ~now =
    let o = a.Spec.obj in
    let write =
      match a.Spec.kind with
      | Spec.Write ->
          owner.(o) <- t.tid;
          Stacks.remove readers o t.tid;
          Stacks.push writes t.tid o;
          true
      | Spec.Read ->
          if not (Stacks.mem readers o t.tid) then begin
            Stacks.push readers o t.tid;
            Stacks.push reads t.tid o
          end;
          false
    in
    t.opens <- t.opens + 1;
    Txn.record_open t.txn;
    cm_opened t.cm t.txn;
    t.stuck <- 0;
    Tcm_trace.Sink.acquired ~txid:(Txn.timestamp t.txn) ~obj:o ~write ~tick:now
  in

  (* Attempt all accesses due at the current progress point.  Returns
     when the thread is no longer Running or all due accesses are in. *)
  let rec process_accesses (t : tstate) ~now =
    match t.pending with
    | a :: rest when a.Spec.at <= t.progress ->
        (* The arrays may be longer than this run's [n_objects]. *)
        if a.Spec.obj >= n_objects then invalid_arg "Engine.run: object id >= n_objects";
        if
          (* Already own it for writing: nothing to do. *)
          owner.(a.Spec.obj) = t.tid
        then begin
          t.pending <- rest;
          t.stuck <- 0;
          process_accesses t ~now
        end
        else
          let e = conflict_of t a in
          if e < 0 then begin
            do_acquire t a ~now;
            t.pending <- rest;
            process_accesses t ~now
          end
          else begin
            let enemy = threads.(e) in
            (* The live runtime's conflict adapter: the simulator
               models the eager locator protocol, and its verdicts come
               from the code path both live backends take. *)
            let d = Runtime_intf.consult t.cm ~me:t.txn ~other:enemy.txn ~attempts:t.stuck in
            Tcm_obs.Probe.verdict t.probe ~me:(Txn.timestamp t.txn)
              ~other:(Txn.timestamp enemy.txn) ~code:(Runtime_intf.decision_trace_code d)
              ~key:a.Spec.obj ~tick:now;
            t.stuck <- t.stuck + 1;
            match d with
            | Decision.Abort_other ->
                abort enemy ~now;
                process_accesses t ~now
            | Decision.Abort_self -> abort t ~now
            | Decision.Block { timeout_usec } ->
                Atomic.set t.txn.Txn.waiting true;
                Tcm_obs.Probe.wait_begin t.probe ~me:(Txn.timestamp t.txn)
                  ~enemy:(Txn.timestamp enemy.txn) ~tick:now;
                t.status <- Waiting_s;
                t.wait_obj <- a.Spec.obj;
                t.wait_enemy <- e;
                t.wait_enemy_attempt <- enemy.attempt;
                t.wait_deadline <-
                  (match timeout_usec with Some d -> now + ticks_of_usec d | None -> max_int)
            | Decision.Backoff { usec } ->
                t.status <- Backing_off_s;
                t.until <- now + max 1 (ticks_of_usec usec)
          end
    | _ -> ()
  in

  let start_next_txn (t : tstate) ~now =
    match t.stream t.txn_index with
    | None -> finish t
    | Some spec ->
        t.accesses <- spec.Spec.accesses;
        t.dur <- spec.Spec.dur;
        t.halts_at <- Option.value spec.Spec.halts_at ~default:max_int;
        let ts = if t.txn_index = 0 then initial_timestamp t.tid else fresh_timestamp () in
        t.cur_aborts <- 0;
        begin_attempt t (new_shared ts) ~start:now;
        t.status <- Running_s;
        process_accesses t ~now
  in

  let phase_a now =
    for i = 0 to n - 1 do
      let t = threads.(i) in
      t.aborted_this_tick <- false;
      match t.status with
      | Finished_s -> ()
      | Idle_s -> start_next_txn t ~now
      | Running_s -> if not (is_halted t) then process_accesses t ~now
      | Backing_off_s ->
          if now >= t.until then begin
            t.status <- Running_s;
            process_accesses t ~now
          end
      | Waiting_s ->
          let w = owner.(t.wait_obj) in
          let resume =
            w < 0
            || w <> t.wait_enemy
            || threads.(w).attempt <> t.wait_enemy_attempt
            || Txn.is_waiting threads.(w).txn
            || now >= t.wait_deadline
          in
          if resume then begin
            Atomic.set t.txn.Txn.waiting false;
            (* Ticks are the sim's native duration: the probe prices
               the wait by it, with no spin/yield ladder. *)
            Tcm_obs.Probe.wait_end t.probe ~me:(Txn.timestamp t.txn)
              ~enemy:(Txn.timestamp threads.(t.wait_enemy).txn) ~tick:now ~rounds:0;
            t.status <- Running_s;
            process_accesses t ~now
          end
    done
  in

  let phase_b now =
    for i = 0 to n - 1 do
      let t = threads.(i) in
      match t.status with
      | Running_s when (not t.aborted_this_tick) && not (is_halted t) ->
          t.progress <- t.progress + 1;
          if t.progress >= t.dur then begin
            release t;
            ignore (Txn.try_commit t.txn);
            Tcm_obs.Probe.commit t.probe ~txid:(Txn.timestamp t.txn)
              ~attempt:t.txn.Txn.attempt_id ~tick:(now + 1) ~opens:t.opens;
            cm_committed t.cm t.txn;
            t.commits <- t.commits + 1;
            incr total_commits;
            last_commit := now + 1;
            t.txn_index <- t.txn_index + 1;
            t.status <- Idle_s
          end
      | _ -> ()
    done
  in

  let tick = ref 0 in
  (* Threads discover stream exhaustion when Idle; prime the check. *)
  while !finished < n && !tick < horizon do
    phase_a !tick;
    phase_b !tick;
    incr tick
  done;
  (* Every object free and unread again: the arrays are clean for the
     next run. *)
  Array.iter release threads;
  Domain.DLS.set scratch_key (Some scratch);
  let completed = !finished = n in
  {
    ticks = !tick;
    completed;
    makespan = (if completed then Some !last_commit else None);
    commits = !total_commits;
    aborts = !total_aborts;
    per_thread_commits = Array.map (fun (t : tstate) -> t.commits) threads;
    per_thread_aborts = Array.map (fun (t : tstate) -> t.aborts) threads;
    max_aborts_one_txn = !max_aborts_one_txn;
    manager_name;
  }

(** One transaction per thread, all arriving at tick 0.  Without
    [ranks], thread order is priority order (thread 0 oldest);
    [ranks.(i)] overrides the timestamp of thread [i]'s transaction
    (smaller = older). *)
let run_instance ?horizon ?ranks ?ts_on_restart ?seed ~manager
    (inst : Spec.instance) : result =
  let streams =
    Array.map (fun txn k -> if k = 0 then Some txn else None) inst.txns
  in
  run ?horizon ?ranks ?ts_on_restart ?seed ~manager
    ~n_objects:inst.n_objects streams
