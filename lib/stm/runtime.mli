(** The STM execution engine.

    [atomically rt f] runs [f] as a transaction under the runtime's
    contention manager, retrying on abort until the commit CAS
    succeeds.  Conflicts are detected eagerly, at access time, exactly
    as in DSTM/SXM: the acquirer consults its local manager and either
    aborts the enemy or stands back.

    Reads are visible: readers register on the variable, and writers
    resolve each active reader through the manager after acquiring, so
    read-write conflicts go through the manager and executions are
    serializable without read validation. *)

val backend_name : string
(** ["locator"]. *)

exception Abort_attempt
(** Internal control flow: the current attempt is aborted and must
    restart.  User code inside [atomically] should let it propagate.
    (Equal to {!Runtime_intf.Abort_attempt}, shared with the TL2
    backend.) *)

exception Too_many_attempts of int
(** Raised when [max_attempts] is exceeded.  (Equal to
    {!Runtime_intf.Too_many_attempts}.) *)

type config = Runtime_intf.config = {
  max_attempts : int option;  (** [None] = retry forever. *)
  block_poll_usec : int;
      (** Cap on the sleep period while blocked on an enemy; the wait
          spins, then yields, then sleeps geometrically up to this. *)
  backoff_cap_usec : int;  (** Cap applied to [Backoff] verdicts. *)
}

val default_config : config

type t
(** A runtime: configuration + contention-manager factory + statistics.
    Create one per experiment; it instantiates one manager per domain
    via domain-local storage. *)

type tx
(** Per-attempt context threaded through transactional operations. *)

type stats_snapshot = Runtime_intf.stats_snapshot = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}

val create : ?config:config -> Cm_intf.factory -> t
val manager_name : t -> string
val stats : t -> stats_snapshot
val pp_stats : Format.formatter -> stats_snapshot -> unit

val atomically : t -> (tx -> 'a) -> 'a
(** Run a transaction to commit, retrying on aborts.  Nested calls on
    the same domain flatten into the enclosing transaction.  [f] may
    run several times and so must be free of non-transactional side
    effects.  User exceptions abort the transaction and propagate. *)

val read : tx -> 'a Tvar.t -> 'a
val write : tx -> 'a Tvar.t -> 'a -> unit

val read_for_write : tx -> 'a Tvar.t -> 'a
(** Read through the write path (acquires the variable exclusively);
    use for read-modify-write accesses to avoid upgrade conflicts. *)

val modify : tx -> 'a Tvar.t -> ('a -> 'a) -> unit

val retry_now : tx -> 'a
(** Abort the current attempt and restart the transaction. *)

val retry_wait : tx -> 'a
(** Blocking retry (Harris-et-al style): abort and re-run after a
    geometrically growing pause — wait for the state read so far to
    change. *)

val check : tx -> bool -> unit
(** [check tx cond] proceeds if [cond] holds, else blocks via
    {!retry_wait} until a re-execution sees it hold. *)

val current_txn : t -> Txn.t option
(** Descriptor of the transaction currently running on this domain. *)

val consult : Cm_intf.packed -> me:Txn.t -> other:Txn.t -> attempts:int -> Decision.t
(** The backend's conflict adapter (see {!Runtime_intf.S.consult});
    exposed for the cross-backend verdict-agreement test. *)
