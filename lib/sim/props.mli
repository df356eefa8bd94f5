(** Executable checkers for the paper's properties. *)

val all_committed : Engine.result -> bool
(** Every thread finished all its transactions (Theorem 1 under
    greedy, given finite delays). *)

val pending_commit : Engine.result -> Tcm_trace.Event.t array -> bool
(** Section 4.3: every tick before the makespan lies inside some
    committed attempt's final uninterrupted run, read from the run's
    events (see {!Record.fold}); false on an incomplete run. *)

type bound_report = {
  s : int;
  measured : int;
  optimal : int;
  factor : int;  (** s(s+1) + 2. *)
  ok : bool;
}

val theorem9_check : inst:Spec.instance -> Engine.result -> bound_report
(** Simulated makespan vs the best off-line list schedule. *)

val greedy_abort_budget : n:int -> Engine.result -> bool
(** Aggregate Theorem 1 check: one-shot aborts <= n(n-1)/2.  A theorem
    when every transaction writes one object; it can fail otherwise. *)
