(** Property checkers over simulation results.

    These turn the paper's definitions into executable checks:
    the pending-commit property (Section 4.3), bounded commit delay
    (Theorem 1), and the Theorem 9 competitive bound against an optimal
    off-line list schedule. *)

(** Did every thread finish all its transactions? (Theorem 1 requires
    it under greedy whenever delays are finite.) *)
let all_committed (r : Engine.result) = r.Engine.completed

(** The pending-commit property: every tick [t] before the makespan
    lies inside the final uninterrupted run of some attempt that
    commits, the run [Record.fold] ends with [Commit]. *)
let pending_commit (r : Engine.result) events =
  match r.Engine.makespan with
  | None -> false
  | Some makespan ->
      let covered = Array.make makespan false in
      let (), _ =
        Record.fold r events
          (fun () ~row:_ state ~from ~until ending ->
            match (state, ending) with
            | Record.Run, Record.Commit -> Array.fill covered from (until - from) true
            | _ -> ())
          ()
      in
      Array.for_all Fun.id covered

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
