(** Offline analyses over a merged trace (an [Event.t array] sorted by [seq],
    as returned by {!Sink.collect} or {!Export.read}). *)

(** {1 Pending commit (Theorem 1, empirically)}

    The paper's pending-commit property: at any time, some running
    transaction will run uninterrupted until it commits.  The observable
    consequence in a trace: at every conflict-resolution event, at least one
    attempt that has begun and not yet terminated goes on to commit.  This is
    deliberately the global (any live attempt) reading, not the per-pair one:
    under Greedy the paper's own Section 4 chain has both parties of a
    conflict eventually aborted (T_{i+1} aborts T_i and is later aborted by
    T_{i+2}) while the property still holds. *)

type pc_report = {
  conflicts : int;  (** [Resolve] events examined *)
  violations : int;
      (** conflicts where every live attempt's outcome is known and none
          commits *)
  undecidable : int;
      (** conflicts where no live attempt commits but some live attempt's
          outcome never appears in the trace (truncated run) *)
  first_violation_seq : int;  (** seq of the first violation, or -1 *)
}

val pending_commit : Event.t array -> pc_report

(** {1 Abort cascades}

    A cascade is a chain of [Resolve]/abort_other events where each aborter
    is later itself aborted by another transaction: its length bounds how far
    one decision's wasted work propagates.  Chains are matched on logical
    txids; a resolve verdict whose victim had already terminated still counts
    (the manager chose to abort — this measures decisions, not outcomes). *)

type cascade_report = {
  enemy_aborts : int;  (** abort_other verdicts *)
  max_cascade : int;
  mean_cascade : float;
}

val cascades : Event.t array -> cascade_report

(** {1 Conflict pricing ("The Transactional Conflict Problem")}

    Alistarh et al. price each abort-vs-wait decision by the work it
    destroys: an abort wastes everything the dead attempt had done, a
    wait costs the time spent blocked.  Applied to a trace: wasted
    work is the [Open]s (locator installs) charged to attempts that go
    on to abort, the paper's "work is wasted when a transaction
    aborts", and wait cost is the summed length
    of [Wait_begin]/[Wait_end] intervals — an interval an abort cuts
    short (the victim never emits [Wait_end]) is closed at the
    terminal event.  Time is in ticks when the trace carries them, seq
    units otherwise, so live and simulated runs of the manager zoo can
    be ranked on the same scalar. *)

type price_report = {
  p_attempts : int;
  p_committed : int;
  p_aborted : int;
  work_total : int;  (** opens *)
  work_wasted : int;  (** opens by attempts that abort *)
  waits : int;  (** wait intervals (terminal-closed ones included) *)
  wait_cost : int;  (** summed interval length, ticks or seq units *)
  price : int;  (** [work_wasted + wait_cost] *)
  price_per_commit : float;  (** [price / committed]; [inf] when none *)
}

val price : Event.t array -> price_report
val pp_price : Format.formatter -> price_report -> unit

(** {1 Makespan (Theorem 9, empirically)} *)

val empirical_makespan : Event.t array -> int
(** Last [Commit] time minus first [Begin] time; measured in ticks when the
    trace carries simulator ticks, in seq units otherwise. 0 on a trace with
    no commit. *)

type makespan_report = {
  measured : int;
  optimal : int;  (** caller-supplied clairvoyant makespan *)
  ratio : float;
  bound_factor : int;  (** caller-supplied, e.g. s(s+1)+2 from tcm_sched *)
  within_bound : bool;
}

val makespan_report : optimal:int -> bound_factor:int -> Event.t array -> makespan_report
(** [tcm_trace] depends on nothing, so the scheduler-side quantities come in
    as arguments: pass [Tcm_sched.Optimal] results and
    [Tcm_sched.Bounds.pending_commit_factor]. *)

(** {1 Summary} *)

val kind_counts : Event.t array -> (Event.kind * int) list
val pp_summary : Format.formatter -> Event.t array -> unit
