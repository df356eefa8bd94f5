(** The locator protocol: the obstruction-free DSTM/SXM backend.

    Conflicts are detected eagerly, at access time, exactly as in
    DSTM/SXM: the acquirer consults its local manager and either
    aborts the enemy or stands back.  Reads are visible: readers
    register on the variable, and writers resolve each active reader
    through the manager after acquiring, so read-write conflicts go
    through the manager and executions are serializable without read
    validation.

    This module is the protocol only.  {!Stm} runs the one transaction
    lifecycle over it and over {!Tl2}: [create], [atomically], the
    attempt loop, the abort path and the retry API, calling the hooks
    below at commit and abort. *)

type stats_snapshot = Tcm_obs.Probe.stats = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}
(** A runtime's counters (see {!Stm.stats}); re-exported so callers
    name the fields through [Runtime]. *)

val read : Runtime_intf.tx -> 'a Tvar.t -> 'a
(** Visible read: registers the attempt as a reader. *)

val write : Runtime_intf.tx -> 'a Tvar.t -> 'a -> unit
(** Acquire the variable (install a pooled locator owned by the
    attempt) and set its tentative value. *)

val read_for_write : Runtime_intf.tx -> 'a Tvar.t -> 'a
(** Read through the write path (acquires the variable exclusively);
    use for read-modify-write accesses to avoid upgrade conflicts. *)

val commit : Runtime_intf.tx -> bool
(** Commit hook: the attempt's status CAS, then the hazard-slot
    release; [false] iff an enemy aborted the attempt first. *)

val abort : Runtime_intf.tx -> unit
(** Abort hook: release the hazard slot, which an abort raised
    mid-open may leave covering a locator. *)
