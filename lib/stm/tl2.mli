(** The TL2-style lock-based protocol.

    A progressive (lock-based) STM: global version clock, striped
    ownership-record table whose owner cells double as versioned write
    locks, invisible clock-validated reads, lazy write buffering with
    commit-time lock acquisition.  The contention manager zoo runs
    unmodified, consulted at lock-acquire and at locked-stripe reads
    ([Abort_other] maps to lock-steal, [Block] to the shared bounded
    spin-then-retry ladder).

    This module is the protocol only.  {!Stm} runs the one transaction
    lifecycle over it and over the locator protocol ({!Runtime}),
    calling the hooks below at attempt begin, commit and abort.

    Progress caveat: progressive, not obstruction-free — a stalled
    lock holder blocks later writers of its stripes until a manager
    verdict aborts it and steals the lock.  A given [Tvar.t] must be
    used under a single backend (see the implementation comment). *)

val read : Runtime_intf.tx -> 'a Tvar.t -> 'a
(** Invisible read, validated against the attempt's read stamp (a
    newer stripe version extends the read set to the current clock). *)

val write : Runtime_intf.tx -> 'a Tvar.t -> 'a -> unit
(** Buffer the write in the redo log; the commit locks its stripe. *)

val read_for_write : Runtime_intf.tx -> 'a Tvar.t -> 'a
(** Validated read that also enters the variable into the redo log, so
    the commit locks its stripe — the read-modify-write idiom. *)

val begin_attempt : Runtime_intf.tx -> unit
(** Begin hook: sample the read stamp and reset the logs. *)

val commit : Runtime_intf.tx -> bool
(** Commit hook: lock the written stripes, validate the read set,
    take the status CAS and write back (a read-only attempt does none
    of these); [false] when validation failed, the manager aborted the
    attempt or an enemy did. *)

val abort : Runtime_intf.tx -> unit
(** Abort hook: release any stripe still held and scrub the logs. *)

(** Test hooks: fabricate and release stripe locks deterministically
    (the TL2 trace test locks a variable's stripe under a scripted
    enemy attempt to force a conflict without racing domains). *)
module Internal : sig
  val orec_version : 'a Tvar.t -> int
  (** Version of the variable's stripe (post-commit it carries the
      committing attempt's write stamp). *)

  val lock_for_test : 'a Tvar.t -> Txn.t -> unit
  (** Acquire the variable's stripe on behalf of [txn] (spins out any
      unlocked/dead-owner state first). *)

  val unlock_for_test : 'a Tvar.t -> Txn.t -> unit
  (** Release the stripe if [txn] still holds it (a lock-steal by a
      live transaction may already have dispossessed it). *)
end
