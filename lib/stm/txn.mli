(** Transaction descriptors.

    A {e logical transaction} is one call to [Stm.atomically]; it
    may run as several {e attempts}.  Fields the paper requires to
    survive aborts — above all the timestamp ("a timestamp which it
    retains even if it aborts and restarts", Section 3) — live in
    [shared], pointed to by every attempt of the same logical
    transaction.  Per-attempt fields ([status], [waiting]) are fresh
    each retry, because enemies abort a specific attempt by CAS-ing its
    status word.

    [status] and [waiting] are atomic — they carry the inter-thread
    protocol.  The heuristic counters ([priority], [aborts], [opens])
    are plain mutable ints: monotone advisory inputs to the contention
    managers, read cross-domain as racy snapshots (no tearing on
    OCaml ints; a lagging read yields at worst a different but equally
    legitimate verdict from a heuristic that is defined over stale
    views anyway). *)

type shared = {
  timestamp : int;  (** Priority: smaller = older = higher. *)
  mutable priority : int;  (** Karma-style accumulated priority. *)
  mutable aborts : int;  (** Times this logical transaction aborted. *)
  mutable opens : int;  (** Successful opens across attempts. *)
  mutable cm_stamp : int;
      (** Manager-owned priority stamp published to enemies;
          [no_cm_stamp] until a manager assigns one. *)
}

type t = {
  attempt_id : int;  (** Unique across all attempts. *)
  status : Status.t Atomic.t;
  waiting : bool Atomic.t;
      (** Public flag: set while blocked behind an enemy; greedy's
          Rule 1 aborts enemies whose flag is set. *)
  shared : shared;
}

val new_shared : unit -> shared
(** Fresh logical transaction: takes the next global timestamp. *)

val new_attempt : shared -> t

val committed_sentinel : t
(** Permanently committed owner used by initial locators. *)

val status : t -> Status.t
val is_active : t -> bool
val is_committed : t -> bool
val is_aborted : t -> bool
val is_waiting : t -> bool
val timestamp : t -> int
val priority : t -> int
val abort_count : t -> int
val open_count : t -> int

val cm_stamp : t -> int
(** The manager-owned priority stamp (see {!shared}); [no_cm_stamp]
    while none has been acquired. *)

val set_cm_stamp : t -> int -> unit

val no_cm_stamp : int
(** Reserved [cm_stamp] sentinel ([max_int]): no stamp acquired. *)

val older_than : t -> t -> bool
(** [older_than a b]: [a] has the earlier timestamp (higher priority). *)

val try_abort : t -> bool
(** Enemy-side abort; [true] if the attempt is aborted after the call
    (whether by us or already). *)

val try_commit : t -> bool
(** Owner-side commit CAS; fails iff an enemy aborted us first. *)

val add_priority : t -> int -> unit
(** Used by Eruption to push pressure onto a blocker. *)

val record_open : t -> unit
(** Bumps the open and priority counters (runtime hook). *)

val pp : Format.formatter -> t -> unit
