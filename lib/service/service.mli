(** The service engine: open-loop transactional KV traffic with
    Zipf-skewed keys, mixed transaction classes and per-class SLO
    accounting, on either runtime backend under any contention
    manager.  The whole run's arrivals, classes and keys are
    precomputed into flat arrays, so the generator allocates nothing
    per request and can drive both backends past saturation.  Latency
    is arrival-to-commit (admission-queue time included); a full queue
    sheds the request and the shed counts against SLO attainment. *)

open Tcm_stm

val request_latency_us : arrival_s:float -> now_s:float -> float
(** Arrival-to-commit latency in us — measured from the scheduled
    arrival, so time spent queued is included; clamped at 0. *)

type class_stats = {
  cls : Sclass.t;
  submitted : int;  (** Generated: admitted + dropped. *)
  completed : int;
  dropped : int;
  slo_us : float;
  slo_ok : int;  (** Completed within the class SLO. *)
  attainment : float;
      (** [slo_ok /. submitted]: drops and over-SLO completions both
          miss; [nan] when nothing was submitted. *)
  p50_us : float;
  p99_us : float;
  mean_us : float;
}

(** Pure per-class aggregation (one instance per domain, merged after
    join) — exposed so the SLO arithmetic is testable without running
    the engine.  Latencies are kept in flat {!Tcm_dist.Stats.Sample}s;
    [complete] allocates nothing while a class's sample has room. *)
module Agg : sig
  type t

  val create : slo_us:float array -> capacity:int array -> t
  (** [capacity.(i)]: completions of class [i] to make room for (the
      samples grow past it).
      @raise Invalid_argument unless one SLO and one capacity per
      class. *)

  val submit : t -> Sclass.t -> unit
  val drop : t -> Sclass.t -> unit
  val complete : t -> Sclass.t -> latency_us:float -> unit
  val within_slo : t -> Sclass.t -> latency_us:float -> bool
  val merge_into : into:t -> t -> unit

  val all_lats : t -> Tcm_dist.Stats.Sample.t
  (** Every completion latency, classes pooled (a fresh sample). *)

  val class_stats : t -> class_stats list
end

type config = {
  backend : Stm.backend;
  manager : Cm_intf.factory;
  workers : int;
  duration_s : float;
  process : Arrival.process;
  queue_cap : int;
  n_keys : int;
  buckets : int option;
      (** Ignored: {!Store} sizes its fixed table from [n_keys] alone.
          Kept while the repository benchmark still sets it. *)
  theta : float;  (** Zipf key skew, [0, 1). *)
  mix : Sclass.mix;
  reads_per_txn : int;
  rmws_per_txn : int;
  scan_len : int;
  slo_us : float array;  (** Per-class SLO, indexed like {!Sclass.all}. *)
  seed : int;
  flight : Tcm_obs.Flight.t option;
      (** SLO-breach flight recorder ([None] by default).  When set,
          the engine arms the [tcm.trace] rings for the run, reports
          every completion and shed to the recorder, and tags ledger
          charges with the request's class. *)
}

val default : config
(** Locator backend, greedy manager, 2 workers, Poisson 2k rps, 8192
    keys at θ = 0.9, the default mix and SLOs. *)

type summary = {
  backend : string;
  manager : string;
  process : string;
  classes : class_stats list;
  submitted : int;
  completed : int;
  dropped : int;
  aborts : int;  (** STM aborts during the run (preload excluded). *)
  conflicts : int;
  elapsed_s : float;
  throughput : float;  (** Completed requests per second. *)
  offered : float;  (** Generated requests per second. *)
  p50_us : float;  (** Overall completion latency, classes pooled. *)
  p99_us : float;
  queue_high_water : int;  (** Max single-shard occupancy observed. *)
  queue_spills : int;
      (** Pushes that overflowed their round-robin shard onto the
          least-loaded one. *)
  gen_minor_words_per_req : float;
      (** Generator minor words allocated per generated request —
          should stay in the single digits on the precomputed-schedule
          path (clock reads only). *)
  trace_drops : int;  (** Ring-buffer drops during the run (0 unarmed). *)
  metrics_on : bool;  (** Whether [tcm.metrics] was enabled. *)
  trace_on : bool;  (** Whether the [tcm.trace] rings were armed. *)
}

val run : config -> summary
(** Preload the store (directly, without transactions), precompute the
    request schedule, then drive [duration_s] of open-loop traffic
    through one queue shard per worker; returns after the admission
    queue has drained.  At return, [submitted = completed + dropped].
    @raise Invalid_argument on a non-positive duration or worker
    count, or an invalid arrival process. *)

val pp_summary : Format.formatter -> summary -> unit
