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

type cell_kind = Run | Wait | Back | Idle | Done

type cell = { attempt : int; kind : cell_kind }

type thread_status =
  | Idle_s
  | Running_s
  | Waiting_s of {
      obj : int;
      enemy : int * int;
      deadline : int option;
    }
  | Backing_off_s of { until : int }
  | Finished_s

type tstate = {
  tid : int;
  stream : int -> Spec.txn option;
  cm : Cm_intf.packed;  (** This thread's manager instance. *)
  probe : Tcm_obs.Probe.t;  (** This thread's lane of the run's probe. *)
  mutable txn_index : int;
  mutable spec : Spec.txn option;
  mutable txn : Txn.t;
      (** The current attempt's descriptor — all the manager sees of
          this thread, exactly as in the live runtimes. *)
  mutable attempt : int;  (** Global per-thread attempt counter. *)
  mutable status : thread_status;
  mutable opens : int;  (** Opens in the current attempt (its read-set size). *)
  mutable progress : int;
  mutable pending : Spec.access list;
  mutable held : int list;  (** Objects owned for writing. *)
  mutable reading : int list;  (** Objects registered as reader. *)
  mutable aborts : int;
  mutable stuck : int;  (** Consecutive resolves at the current access. *)
  mutable commits : int;
  mutable cur_aborts : int;  (** Restarts of the current transaction. *)
  mutable aborted_this_tick : bool;
}

type obj_state = { mutable owner : int option; mutable readers : int list }

type result = {
  ticks : int;
  completed : bool;  (** All streams exhausted within the horizon. *)
  makespan : int option;  (** Tick of the last commit, when [completed]. *)
  commits : int;
  aborts : int;
  commit_log : (int * int * int) list;
      (** [(thread, txn_index, tick)] in commit order. *)
  per_thread_commits : int array;
  per_thread_aborts : int array;
  max_aborts_one_txn : int;
      (** Worst number of restarts any single transaction needed — the
          starvation metric for the timestamp-retention ablation. *)
  grid : cell array array;  (** [grid.(tick).(thread)], possibly empty. *)
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

let run ?(horizon = default_horizon) ?(record_grid = false) ?ranks
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
          spec = None;
          txn = Txn.committed_sentinel;
          attempt = 0;
          status = Idle_s;
          opens = 0;
          progress = 0;
          pending = [];
          held = [];
          reading = [];
          aborts = 0;
          stuck = 0;
          commits = 0;
          cur_aborts = 0;
          aborted_this_tick = false;
        })
  in
  let objs = Array.init n_objects (fun _ -> { owner = None; readers = [] }) in
  let total_aborts = ref 0 in
  let total_commits = ref 0 in
  let max_aborts_one_txn = ref 0 in
  let commit_log = ref [] in
  let grid = ref [] in

  (* Fault injection: a halted transaction stops acting but stays
     active and keeps its objects (Section 6's "transactions that stop
     prematurely").  Its thread is dead: if an enemy aborts it, the
     thread is finished rather than restarted. *)
  let is_halted (t : tstate) =
    match t.spec with
    | Some { Spec.halts_at = Some p; _ } -> t.progress >= p
    | _ -> false
  in

  let release (t : tstate) =
    List.iter (fun o -> if objs.(o).owner = Some t.tid then objs.(o).owner <- None) t.held;
    List.iter
      (fun o -> objs.(o).readers <- List.filter (fun r -> r <> t.tid) objs.(o).readers)
      t.reading;
    t.held <- [];
    t.reading <- []
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
    t.pending <- (match t.spec with Some s -> s.Spec.accesses | None -> []);
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
    if halted then begin
      (* The thread behind it is dead; clearing the objects is all an
         enemy can do. *)
      victim.spec <- None;
      victim.status <- Finished_s
    end
    else begin
      (* Ablation hook: the paper's greedy retains the timestamp across
         aborts; [`Fresh] deliberately breaks that to demonstrate why. *)
      let shared =
        match ts_on_restart with
        | `Keep -> victim.txn.Txn.shared
        | `Fresh -> { victim.txn.Txn.shared with timestamp = fresh_timestamp () }
      in
      (* Restart (same transaction) at the next tick. *)
      victim.status <- Backing_off_s { until = now + 1 };
      begin_attempt victim shared ~start:(now + 1)
    end;
    incr total_aborts
  in

  (* First conflicting party for an access, if any. *)
  let conflict_of (t : tstate) (a : Spec.access) : tstate option =
    let o = objs.(a.Spec.obj) in
    let owner_conflict =
      match o.owner with Some w when w <> t.tid -> Some threads.(w) | _ -> None
    in
    match a.Spec.kind with
    | Spec.Read -> owner_conflict
    | Spec.Write -> (
        match owner_conflict with
        | Some _ as c -> c
        | None -> (
            match List.find_opt (fun r -> r <> t.tid) o.readers with
            | Some r -> Some threads.(r)
            | None -> None))
  in

  let do_acquire (t : tstate) (a : Spec.access) ~now =
    let o = objs.(a.Spec.obj) in
    (match a.Spec.kind with
    | Spec.Write ->
        o.owner <- Some t.tid;
        o.readers <- List.filter (fun r -> r <> t.tid) o.readers;
        if not (List.mem a.Spec.obj t.held) then t.held <- a.Spec.obj :: t.held;
        t.reading <- List.filter (fun x -> x <> a.Spec.obj) t.reading
    | Spec.Read ->
        if o.owner <> Some t.tid && not (List.mem t.tid o.readers) then begin
          o.readers <- t.tid :: o.readers;
          t.reading <- a.Spec.obj :: t.reading
        end);
    t.opens <- t.opens + 1;
    Txn.record_open t.txn;
    cm_opened t.cm t.txn;
    t.stuck <- 0;
    Tcm_trace.Sink.acquired ~txid:(Txn.timestamp t.txn) ~obj:a.Spec.obj
      ~write:(a.Spec.kind = Spec.Write) ~tick:now
  in

  (* Attempt all accesses due at the current progress point.  Returns
     when the thread is no longer Running or all due accesses are in. *)
  let rec process_accesses (t : tstate) ~now =
    match t.pending with
    | a :: rest when a.Spec.at <= t.progress -> (
        if
          (* Already own it for writing: nothing to do. *)
          objs.(a.Spec.obj).owner = Some t.tid
        then begin
          t.pending <- rest;
          t.stuck <- 0;
          process_accesses t ~now
        end
        else
          match conflict_of t a with
          | None ->
              do_acquire t a ~now;
              t.pending <- rest;
              process_accesses t ~now
          | Some enemy -> (
              (* The locator backend's conflict adapter: the simulator
                 models the eager locator protocol, so its verdicts
                 come from the code path the live runtime takes. *)
              let d = Runtime.consult t.cm ~me:t.txn ~other:enemy.txn ~attempts:t.stuck in
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
                  t.status <-
                    Waiting_s
                      {
                        obj = a.Spec.obj;
                        enemy = (enemy.tid, enemy.attempt);
                        deadline = Option.map (fun d -> now + ticks_of_usec d) timeout_usec;
                      }
              | Decision.Backoff { usec } ->
                  t.status <- Backing_off_s { until = now + max 1 (ticks_of_usec usec) }))
    | _ -> ()
  in

  let start_next_txn (t : tstate) ~now =
    match t.stream t.txn_index with
    | None -> t.status <- Finished_s
    | Some spec ->
        t.spec <- Some spec;
        let ts = if t.txn_index = 0 then initial_timestamp t.tid else fresh_timestamp () in
        t.cur_aborts <- 0;
        begin_attempt t (new_shared ts) ~start:now;
        t.status <- Running_s;
        process_accesses t ~now
  in

  let phase_a now =
    Array.iter
      (fun t ->
        t.aborted_this_tick <- false;
        match t.status with
        | Finished_s -> ()
        | Idle_s -> start_next_txn t ~now
        | Running_s -> if not (is_halted t) then process_accesses t ~now
        | Backing_off_s { until } ->
            if now >= until then begin
              t.status <- Running_s;
              process_accesses t ~now
            end
        | Waiting_s { obj; enemy = enemy_tid, enemy_attempt; deadline } ->
            let resume =
              (match objs.(obj).owner with
              | None -> true
              | Some w ->
                  w <> enemy_tid
                  || threads.(w).attempt <> enemy_attempt
                  || Txn.is_waiting threads.(w).txn)
              || match deadline with Some d -> now >= d | None -> false
            in
            if resume then begin
              Atomic.set t.txn.Txn.waiting false;
              (* Ticks are the sim's native duration: the probe prices
                 the wait by it, with no spin/yield ladder. *)
              Tcm_obs.Probe.wait_end t.probe ~me:(Txn.timestamp t.txn)
                ~enemy:(Txn.timestamp threads.(enemy_tid).txn) ~tick:now ~rounds:0;
              t.status <- Running_s;
              process_accesses t ~now
            end)
      threads
  in

  let phase_b now =
    Array.iter
      (fun t ->
        match t.status with
        | Running_s when (not t.aborted_this_tick) && not (is_halted t) -> (
            match t.spec with
            | None -> ()
            | Some spec ->
                t.progress <- t.progress + 1;
                if t.progress >= spec.Spec.dur then begin
                  release t;
                  ignore (Txn.try_commit t.txn);
                  Tcm_obs.Probe.commit t.probe ~txid:(Txn.timestamp t.txn)
                    ~attempt:t.txn.Txn.attempt_id ~tick:(now + 1) ~opens:t.opens;
                  cm_committed t.cm t.txn;
                  t.commits <- t.commits + 1;
                  incr total_commits;
                  commit_log := (t.tid, t.txn_index, now + 1) :: !commit_log;
                  t.spec <- None;
                  t.txn_index <- t.txn_index + 1;
                  t.status <- Idle_s
                end)
        | _ -> ())
      threads
  in

  let snapshot () =
    Array.map
      (fun t ->
        let kind =
          match t.status with
          | Running_s -> Run
          | Waiting_s _ -> Wait
          | Backing_off_s _ -> Back
          | Idle_s -> Idle
          | Finished_s -> Done
        in
        { attempt = t.attempt; kind })
      threads
  in

  let all_finished () = Array.for_all (fun t -> t.status = Finished_s) threads in

  let tick = ref 0 in
  (* Threads discover stream exhaustion when Idle; prime the check. *)
  while (not (all_finished ())) && !tick < horizon do
    phase_a !tick;
    if record_grid then grid := snapshot () :: !grid;
    phase_b !tick;
    incr tick
  done;
  let completed = all_finished () in
  let commit_log = List.rev !commit_log in
  let makespan =
    if completed then
      Some (List.fold_left (fun acc (_, _, t) -> max acc t) 0 commit_log)
    else None
  in
  {
    ticks = !tick;
    completed;
    makespan;
    commits = !total_commits;
    aborts = !total_aborts;
    commit_log;
    per_thread_commits = Array.map (fun (t : tstate) -> t.commits) threads;
    per_thread_aborts = Array.map (fun (t : tstate) -> t.aborts) threads;
    max_aborts_one_txn = !max_aborts_one_txn;
    grid = Array.of_list (List.rev !grid);
    manager_name;
  }

(** One transaction per thread, all arriving at tick 0.  Without
    [ranks], thread order is priority order (thread 0 oldest);
    [ranks.(i)] overrides the timestamp of thread [i]'s transaction
    (smaller = older). *)
let run_instance ?horizon ?record_grid ?ranks ?ts_on_restart ?seed ~manager
    (inst : Spec.instance) : result =
  let streams =
    Array.map (fun txn k -> if k = 0 then Some txn else None) inst.txns
  in
  run ?horizon ?record_grid ?ranks ?ts_on_restart ?seed ~manager
    ~n_objects:inst.n_objects streams
