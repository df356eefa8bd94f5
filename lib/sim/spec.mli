(** Transaction specifications for the discrete-event simulator.
    Time is integer ticks; an access fires once the transaction has
    completed [at] ticks of work; acquired objects are held to commit
    or abort. *)

type kind = Read | Write

type access = { at : int; obj : int; kind : kind }

type txn = {
  dur : int;
  accesses : access list;  (** Sorted by [at]. *)
  halts_at : int option;
      (** Fault injection (Section 6): stop progressing after this many
          ticks, staying active and holding objects. *)
}

val txn : ?halts_at:int -> dur:int -> access list -> txn
(** The accesses in a stable order by [at]; a list already in that
    order is returned as it is (physically).
    @raise Invalid_argument on non-positive durations or out-of-range
    access times / halt points. *)

val write : at:int -> obj:int -> access
val read : at:int -> obj:int -> access

val n_objects_of_txns : txn list -> int

type instance = { txns : txn array; n_objects : int }
(** One-shot instance: one transaction per thread. *)

val instance : txn list -> instance

val to_task_system : instance -> Tcm_sched.Task_system.t
(** The corresponding Garey–Graham task system (Section 4.2): same
    durations, updates use the whole object, reads use [1/n]. *)
