(** Property checkers over simulation results.

    These turn the paper's definitions into executable checks:
    the pending-commit property (Section 4.3), bounded commit delay
    (Theorem 1), and the Theorem 9 competitive bound against an optimal
    off-line list schedule. *)

(** Did every thread finish all its transactions? (Theorem 1 requires
    it under greedy whenever delays are finite.) *)
let all_committed (r : Engine.result) = r.Engine.completed

(** The pending-commit property: at any tick [t] before the makespan,
    some attempt running at [t] runs uninterrupted until its commit.
    Requires the result to carry a recorded grid. *)
let pending_commit (r : Engine.result) : bool =
  match r.Engine.makespan with
  | None -> false
  | Some makespan ->
      let grid = r.Engine.grid in
      if Array.length grid = 0 then invalid_arg "Props.pending_commit: run with ~record_grid:true";
      let n = Array.length grid.(0) in
      (* commit_tick.(thread) for each attempt that committed: derive
         from the grid — an attempt commits at tick t+1 if the thread is
         Run at t and at t+1 is a different attempt / Idle / Done. *)
      let ticks = Array.length grid in
      let runs_to_commit t i =
        (* Does the attempt running at tick t for thread i keep running
           continuously until it commits? *)
        let a = grid.(t).(i).Engine.attempt in
        let rec go u =
          if u >= ticks then false
          else
            let c = grid.(u).(i) in
            if c.Engine.kind <> Engine.Run || c.Engine.attempt <> a then false
            else if
              (* commits at end of tick u if next tick it is a new
                 txn/attempt in Idle/Run/Done with different attempt, or
                 the grid ends *)
              u + 1 >= ticks
              ||
              let nxt = grid.(u + 1).(i) in
              (nxt.Engine.kind = Engine.Idle || nxt.Engine.kind = Engine.Done
              || nxt.Engine.attempt <> a)
              && nxt.Engine.kind <> Engine.Back && nxt.Engine.kind <> Engine.Wait
            then true
            else go (u + 1)
        in
        go t
      in
      let ok = ref true in
      for t = 0 to min (makespan - 1) (ticks - 1) do
        let found = ref false in
        for i = 0 to n - 1 do
          if (not !found) && grid.(t).(i).Engine.kind = Engine.Run && runs_to_commit t i then
            found := true
        done;
        if not !found then ok := false
      done;
      !ok

(** Theorem 9 check on a one-shot instance: measured makespan vs the
    best off-line list schedule, against the [s(s+1)+2] factor. *)
type bound_report = {
  s : int;
  measured : int;  (** Simulated makespan, in ticks. *)
  optimal : int;  (** Best list-schedule makespan, in ticks. *)
  factor : int;  (** s(s+1) + 2. *)
  ok : bool;
}

let theorem9_check ~(inst : Spec.instance) (r : Engine.result) : bound_report =
  match r.Engine.makespan with
  | None ->
      let s = inst.Spec.n_objects in
      { s; measured = max_int; optimal = 0; factor = Tcm_sched.Bounds.pending_commit_factor ~s; ok = false }
  | Some measured ->
      let s = inst.Spec.n_objects in
      let ts = Spec.to_task_system inst in
      let optimal = Tcm_sched.Optimal.optimal_makespan ts in
      let factor = Tcm_sched.Bounds.pending_commit_factor ~s in
      { s; measured; optimal; factor; ok = measured <= factor * optimal }

(** Abort budget (Theorem 1 flavour): total aborts in a one-shot
    n-transaction greedy run are at most n(n-1)/2.  It holds when every
    transaction writes one object (between two commits an object's
    owners only get older).  With several objects per transaction it
    can fail: Rule 1 lets a younger transaction abort a waiting older
    one, which then aborts the younger again. *)
let greedy_abort_budget ~n (r : Engine.result) : bool =
  r.Engine.aborts <= n * (n - 1) / 2
