(** The standard instrument set shared by the live STM runtime, the
    simulator and the workload harness: identical metric names, with a
    [runtime] label ("live" / "sim") separating microsecond series
    from tick series. *)

type t
(** Per-(runtime, manager) handles; create once per component. *)

(** Verdict codes, aligned with [Tcm_trace.Event.d_*]. *)

val v_abort_other : int
val v_abort_self : int
val v_block : int
val v_backoff : int
val verdict_names : string array

(** Locator-pool event codes ([tcm_pool_total{event=...}]). *)

val p_hit : int
val p_miss : int
val p_recycled : int
val pool_event_names : string array

(** Metric names (shared with {!Health} and the tests). *)

val n_attempts : string
val n_commits : string
val n_aborts : string
val n_resolve : string
val n_pool : string
val n_wait : string
val n_attempt_d : string
val n_read_set : string

val for_manager : ?backend:string -> runtime:string -> string -> t
(** Handles labelled [{backend; manager; runtime}].  [backend]
    defaults to ["locator"]; the TL2 runtime passes ["tl2"], and the
    simulator pins ["locator"] explicitly (it models the eager locator
    protocol). *)

val commits : t -> Core.Counter.t
val aborts : t -> Core.Counter.t
(** The family's [tcm_commits_total] / [tcm_aborts_total] lines, whose
    per-class words the [tcm.obs] ledger reads as its commit and abort
    counts. *)

val attempt_begin : t -> unit
val attempt_commit : t -> duration:int -> read_set:int -> unit
val attempt_abort : t -> duration:int -> unit

val resolve : t -> int -> unit
(** Record one contention-manager verdict by code (out-of-range codes
    are dropped). *)

val wait : t -> duration:int -> unit

val pool_event : t -> int -> unit
(** Record one locator-pool event by code (out-of-range codes are
    dropped). *)

type workload
(** Per-(workload, manager) counters recorded by the harness. *)

val for_workload : workload:string -> manager:string -> workload

val workload_outcome :
  workload -> commits:int -> aborts:int -> conflicts:int -> elapsed_us:int -> unit

(** Per-(backend, manager, class) service instruments recorded by the
    [tcm.service] engine.  The [class] label carries the transaction
    class ("read" / "scan" / "rmw"); latency is arrival-to-commit in
    microseconds, admission-queue time included. *)

type service

val n_service_requests : string
val n_service_dropped : string
val n_service_slo_ok : string
val n_service_latency : string

val for_service : ?backend:string -> manager:string -> cls:string -> unit -> service

val service_request : service -> unit
(** One request generated (whether admitted or shed). *)

val service_drop : service -> unit
(** One request shed by the bounded admission queue. *)

val service_complete : service -> latency_us:int -> within_slo:bool -> unit
(** One request completed: observe its arrival-to-commit latency and
    count it against the class SLO. *)

(** Per-(backend, manager, shard) admission-queue instruments,
    recorded by the generator (the queue's single producer) at push
    time; emits are int stores only, keeping the admission hot loop
    allocation-free. *)

type shard

val n_shard_pushed : string
val n_shard_shed : string
val n_shard_spill : string
val n_shard_occupancy : string

val for_shard : ?backend:string -> manager:string -> shard:int -> unit -> shard

val shard_push : shard -> occupancy:int -> spilled:bool -> unit
(** One request admitted: occupancy just after the push, and whether
    the push spilled off its round-robin target. *)

val shard_shed : shard -> unit
(** One request shed with this shard as the round-robin target. *)
