(** Deterministic two-phase tick engine.

    Each tick: {b Phase A} (thread-id order) starts pending
    transactions, re-checks waits/backoffs and performs the due object
    accesses, resolving conflicts through the manager — aborts take
    effect immediately, victims restart next tick with their timestamp
    retained.  {b Phase B} advances every still-running thread one tick
    of work; completed transactions commit at the end of the tick.
    Accesses thus strictly precede same-tick commits, reproducing the
    paper's "at time 1-eps, T1 accesses X1, aborting T0" exactly.

    Conflicts are resolved by the live [Tcm_core] managers, one
    instance per thread, over real [Txn.t] descriptors, through the
    live runtime's [Runtime_intf.consult]; decision durations convert to
    ticks at [usec_per_tick] (default {!default_usec_per_tick}).

    A run's record is the [Tcm_trace] events its probe emits at each
    lifecycle point; {!Record} captures and reads them. *)

open Tcm_stm

type result = {
  ticks : int;
  completed : bool;  (** All streams exhausted within the horizon. *)
  makespan : int option;  (** Tick of the last commit, when completed. *)
  commits : int;
  aborts : int;
  per_thread_commits : int array;
  per_thread_aborts : int array;
  max_aborts_one_txn : int;
      (** Worst restarts of a single transaction (starvation metric). *)
  manager_name : string;
}

val default_horizon : int

val default_usec_per_tick : int
(** Microseconds of a [Block] timeout or [Backoff] per tick (1, rounded
    up): the measured ratio of a live list attempt's duration to a
    simulated one's. *)

val run :
  ?horizon:int ->
  ?ranks:int array ->
  ?ts_on_restart:[ `Keep | `Fresh ] ->
  ?seed:int ->
  ?usec_per_tick:int ->
  manager:Cm_intf.factory ->
  n_objects:int ->
  (int -> Spec.txn option) array ->
  result
(** [run ~manager ~n_objects streams]: thread [i] executes
    [streams.(i) 0], [streams.(i) 1], ... until [None].  [ranks]
    overrides the first transactions' timestamps; [ts_on_restart]
    is the Theorem 1 ablation hook ([`Fresh] breaks retention); [seed]
    (default 0) seeds the managers' jitter; [usec_per_tick] scales
    decision durations to ticks (a sensitivity knob).
    @raise Invalid_argument if [usec_per_tick < 1]. *)

val run_instance :
  ?horizon:int ->
  ?ranks:int array ->
  ?ts_on_restart:[ `Keep | `Fresh ] ->
  ?seed:int ->
  manager:Cm_intf.factory ->
  Spec.instance ->
  result
(** One transaction per thread, all arriving at tick 0; without
    [ranks], thread order is priority order. *)
