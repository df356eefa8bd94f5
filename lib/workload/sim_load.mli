(** Simulator-backed figure workloads: each benchmark structure's
    access pattern modelled as simulator transactions, yielding
    deterministic, hardware-independent reproductions of the Figure 1–4
    shapes (see DESIGN.md for the substitution argument). *)

open Tcm_sim

val key_space : int

type model = {
  name : string;
  n_objects : int;
  gen : Tcm_stm.Splitmix.t -> tail:int -> Spec.txn;
}

val list_model : model
val skiplist_model : model
val rbtree_model : model
val rbforest_model : model

val rb_dur : int
(** Ticks of one red-black path transaction (forest building block). *)

val model_of_structure : Harness.structure -> model

type outcome = {
  commits : int;
  aborts : int;
  ticks : int;
  throughput : float;  (** Commits per 1000 ticks. *)
  max_aborts_one_txn : int;
  fairness_min_commits : int;
}

val run :
  ?horizon:int ->
  ?seed:int ->
  ?tail:int ->
  ?ts_on_restart:[ `Keep | `Fresh ] ->
  ?usec_per_tick:int ->
  threads:int ->
  manager:Tcm_stm.Cm_intf.factory ->
  model ->
  outcome
(** [threads] infinite streams of the model's transactions for
    [horizon] ticks; deterministic in [seed].  [usec_per_tick] as in
    {!Tcm_sim.Engine.run}. *)
