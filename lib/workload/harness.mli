(** Real-thread benchmark harness: N OCaml domains continuously insert
    and remove elements from a small key set (the paper's setup),
    reporting committed transactions per second. *)

open Tcm_stm

type structure = List_s | Skiplist_s | Rbtree_s | Rbforest_s

val structure_name : structure -> string

val structure_of_name : string -> structure
(** @raise Invalid_argument on unknown names. *)

type config = {
  structure : structure;
  manager : Cm_intf.factory;
  threads : int;
  duration_s : float;
  key_range : int;  (** The paper uses 256. *)
  update_pct : int;  (** The paper uses 100. *)
  post_work : int;
      (** Unrelated computation inside the transaction after its
          accesses — the Figure 3 low-contention tail. *)
  prefill : int;
  seed : int;
  read_mode : [ `Visible ];
      (** One-valued: the locator backend has one read path.  Kept only
          so configurations that still name the field compile. *)
  backend : Stm.backend;
      (** Which runtime executes the workload (defaults to the
          locator STM); structures are created fresh per run, so the
          single-backend-per-variable rule holds by construction. *)
}

val default : config

type outcome = {
  commits : int;
  aborts : int;
  conflicts : int;
  throughput : float;  (** Committed transactions per second. *)
  per_thread : int array;
  elapsed_s : float;
  latency_p50_us : float;  (** Median sampled transaction latency. *)
  latency_p99_us : float;  (** Tail latency (fairness indicator). *)
  minor_words : float;
      (** Minor-heap words allocated by the worker domains during the
          window (each domain's own [Gc.counters] delta, summed);
          divide by [commits] for the per-transaction allocation
          cost. *)
  major_words : float;  (** Major-heap words, same accounting. *)
  stats : Runtime.stats_snapshot;  (** Full runtime counters. *)
}

val make_ops : structure -> Tcm_structures.Intset.ops
(** A fresh instance of the structure with its operation closures. *)

val run : ?poll:(unit -> unit) -> config -> outcome
(** [?poll] is called from the driver thread every ~10 ms during the
    measurement window — hook for {!Tcm_metrics.Sampler.poll} so
    throughput-over-time windows can be cut without a background
    thread. *)
