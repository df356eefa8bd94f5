(** The wasted-work ledger: every abort and every CM-induced wait,
    priced in the cost model of Alistarh et al.'s "The Transactional
    Conflict Problem" and charged to a [{backend; manager; runtime}]
    family crossed with the service transaction class.

    The ledger is a read-side view of the metric store: a metric
    counter keeps one word per class, so a row's commits and aborts
    are the class's words of the family's [tcm_commits_total] /
    [tcm_aborts_total] lines, and its other figures live in
    ledger-only lines of the same store.  Recording therefore follows
    the [tcm.metrics] switch and costs plain int stores by the owning
    domain; {!Probe} is the one writer.

    Cost model:
    - an abort wastes the dead attempt's work, measured in opens
      (reads + writes + upgrades — the same unit
      {!Tcm_trace.Analysis.wasted_work} and [Analysis.price] use, so
      ledger totals and trace pricing agree);
    - a CM-induced wait costs its duration in the runtime's native
      unit (microseconds live, ticks in the simulator — the same
      integer observed into [tcm_wait_duration]), plus the spin/yield
      ladder rounds spent, recorded separately as [wait_ticks]. *)

val class_slots : int
(** Fixed class capacity per family (8, a counter line's words).  Slot
    0 is the unclassified ["-"] bucket; classes past the capacity fold
    into it. *)

val class_slot : string -> int
(** Register (idempotently) a transaction class, returning its slot. *)

val set_class : int -> unit
(** Set the calling domain's current class slot; subsequent records on
    this domain land there.  The service sets this around [execute];
    everything else runs in slot 0. *)

type t
(** A family handle, deduplicated per (backend, manager, runtime)
    under a mutex like metric series. *)

val for_manager : ?backend:string -> runtime:string -> string -> t
(** Mirrors [Tcm_metrics.Conventions.for_manager], whose commit and
    abort lines the family shares. *)

val charge_abort : t -> work:int -> unit
(** Add a dead attempt's opens to the wasted work (the abort itself is
    counted by [Conventions.attempt_abort]). *)

val charge_wait : t -> cost:int -> ticks:int -> unit
(** One CM-induced wait: [cost] in the runtime's duration unit (the
    same value given to [Conventions.wait]), [ticks] the spin/yield
    ladder rounds spent. *)

val note_commit : t -> work:int -> unit
(** Add a committed attempt's opens to the useful work (the commit
    itself is counted by [Conventions.attempt_commit]). *)

type row = {
  backend : string;
  manager : string;
  runtime : string;
  cls : string;
  aborts : int;
  wasted_work : int;  (** Opens discarded by aborts. *)
  waits : int;
  wait_cost : int;  (** Wait durations (us live / ticks sim). *)
  wait_ticks : int;  (** Spin/yield ladder rounds. *)
  commits : int;
  useful_work : int;  (** Opens retired by commits. *)
}

val price : row -> int
(** The row's total price: [wasted_work + wait_ticks] — work thrown
    away plus time spent not making progress, in comparable attempt
    units. *)

val rows : unit -> row list
(** Every family's rows, one per class, in family registration order;
    all-zero rows are dropped.  Like metric snapshots, a read
    concurrent with recording domains may lag a few events; one
    ordered after the recording domains joined is exact. *)

val pp : Format.formatter -> row list -> unit
