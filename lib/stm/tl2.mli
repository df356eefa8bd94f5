(** The TL2-style lock-based runtime backend.

    A progressive (lock-based) STM: global version clock, striped
    ownership-record table whose owner cells double as versioned write
    locks, invisible clock-validated reads, lazy write buffering with
    commit-time lock acquisition.  Shares {!Runtime_intf.S} with the
    obstruction-free locator runtime ({!Runtime}); the contention
    manager zoo runs unmodified, consulted at lock-acquire and at
    locked-stripe reads ([Abort_other] maps to lock-steal, [Block] to
    the shared bounded spin-then-retry ladder).

    Progress caveat: progressive, not obstruction-free — a stalled
    lock holder blocks later writers of its stripes until a manager
    verdict aborts it and steals the lock.  A given [Tvar.t] must be
    used under a single backend (see the implementation comment).

    The control-flow exceptions, [config] and [stats_snapshot] are the
    shared ones from {!Runtime_intf} (equal to {!Runtime}'s). *)

exception Abort_attempt
exception Too_many_attempts of int
exception Retry_wait

type config = Runtime_intf.config = {
  max_attempts : int option;
  block_poll_usec : int;
  backoff_cap_usec : int;
}

val default_config : config

type stats_snapshot = Runtime_intf.stats_snapshot

val backend_name : string
(** ["tl2"]. *)

type t
type tx

val create : ?config:config -> Cm_intf.factory -> t
val manager_name : t -> string
val stats : t -> stats_snapshot
val atomically : t -> (tx -> 'a) -> 'a
val read : tx -> 'a Tvar.t -> 'a
val write : tx -> 'a Tvar.t -> 'a -> unit

val read_for_write : tx -> 'a Tvar.t -> 'a
(** Validated read that also enters the variable into the redo log, so
    the commit locks its stripe — the read-modify-write idiom. *)

val modify : tx -> 'a Tvar.t -> ('a -> 'a) -> unit
val retry_now : tx -> 'a
val retry_wait : tx -> 'a
val check : tx -> bool -> unit
val current_txn : t -> Txn.t option

val consult : Cm_intf.packed -> me:Txn.t -> other:Txn.t -> attempts:int -> Decision.t
(** The backend's conflict adapter (see {!Runtime_intf.S.consult});
    exposed for the cross-backend verdict-agreement test. *)

(** How this backend executes each manager verdict; total by
    construction (the registry duel test pins the mapping). *)
type action = Steal_lock | Release_and_abort | Spin_then_retry | Backoff_then_retry

val action_of_decision : Decision.t -> action

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
