(** Real-thread benchmark harness.

    Reproduces the paper's experimental setup on the live STM: a number
    of threads (OCaml domains) continuously insert and remove elements
    taken from a small set of integers, forcing contention, with a
    configurable update rate and an optional uncontended computation at
    the end of each transaction (the paper's Figure 3 "low contention"
    variant).  Reported metric: committed transactions per second. *)

open Tcm_stm

type structure = List_s | Skiplist_s | Rbtree_s | Rbforest_s

let structure_name = function
  | List_s -> "list"
  | Skiplist_s -> "skiplist"
  | Rbtree_s -> "rbtree"
  | Rbforest_s -> "rbforest"

let structure_of_name = function
  | "list" -> List_s
  | "skiplist" -> Skiplist_s
  | "rbtree" -> Rbtree_s
  | "rbforest" -> Rbforest_s
  | s -> invalid_arg (Printf.sprintf "unknown structure %S" s)

type config = {
  structure : structure;
  manager : Cm_intf.factory;
  threads : int;
  duration_s : float;
  key_range : int;  (** The paper uses 256. *)
  update_pct : int;  (** The paper uses 100. *)
  post_work : int;
      (** Iterations of computation unrelated to the transaction,
          performed inside the transaction after its accesses — the
          paper's low-contention tail (Figure 3). *)
  prefill : int;  (** Keys inserted before measuring (half-full set). *)
  seed : int;
  read_mode : [ `Visible ];
  backend : Stm.backend;
      (** Which runtime executes the workload: the obstruction-free
          locator STM or the lock-based TL2-style STM.  Structures are
          created fresh per run, so the single-backend-per-variable
          rule holds by construction. *)
}

let default =
  {
    structure = List_s;
    manager = (module Tcm_core.Greedy : Cm_intf.S);
    threads = 2;
    duration_s = 0.25;
    key_range = 256;
    update_pct = 100;
    post_work = 0;
    prefill = 128;
    seed = 42;
    read_mode = `Visible;
    backend = Stm.Locator;
  }

type outcome = {
  commits : int;
  aborts : int;
  conflicts : int;
  throughput : float;  (** Committed transactions per second. *)
  per_thread : int array;
  elapsed_s : float;
  latency_p50_us : float;  (** Median transaction latency, sampled. *)
  latency_p99_us : float;
      (** Tail latency: where contention-manager fairness shows up. *)
  minor_words : float;
      (** Minor-heap words allocated by the worker domains during the
          measurement window: each domain's own [Gc.minor_words]
          delta, exact, summed ([Gc.quick_stat] counts every domain's
          allocation, so summing its deltas would count k domains k
          times).  Divide by [commits] for the allocation cost per
          committed transaction. *)
  major_words : float;  (** Major-heap words: each domain's [Gc.counters] delta, summed. *)
  stats : Tcm_stm.Runtime.stats_snapshot;
      (** Full runtime counters (enemy/self aborts, blocks, backoffs)
          for detailed reporting, e.g. the bench's JSON dump. *)
}

(* Sample every k-th operation's latency to keep overhead negligible. *)
let latency_sample_period = 16

let make_ops structure : Tcm_structures.Intset.ops =
  let module I = Tcm_structures.Intset in
  match structure with
  | List_s -> I.ops_of (module Tcm_structures.Tlist) (Tcm_structures.Tlist.create ())
  | Skiplist_s -> I.ops_of (module Tcm_structures.Tskiplist) (Tcm_structures.Tskiplist.create ())
  | Rbtree_s -> I.ops_of (module Tcm_structures.Trbtree) (Tcm_structures.Trbtree.create ())
  | Rbforest_s -> Tcm_structures.Trbforest.ops (Tcm_structures.Trbforest.create ())

(* Opaque spin so the compiler cannot drop the low-contention tail. *)
let sink = Atomic.make 0

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i land 7)
  done;
  if !acc = -1 then Atomic.incr sink

(* Polling granularity for the measurement wait: fine enough for the
   metrics sampler's windows, coarse enough to stay out of the way. *)
let poll_step_s = 0.01

let run ?poll (cfg : config) : outcome =
  let rt = Stm.create ~backend:cfg.backend cfg.manager in
  let ops = make_ops cfg.structure in
  (* Prefill with every other key so inserts and removes both hit. *)
  let prefill_rng = Splitmix.create cfg.seed in
  for k = 0 to cfg.prefill - 1 do
    let key = k * 2 mod cfg.key_range in
    ignore
      (Stm.atomically rt (fun tx ->
           ops.Tcm_structures.Intset.insert tx ~key
             ~r:(Splitmix.int prefill_rng max_int)))
  done;
  let stop = Atomic.make false in
  let per_thread = Array.make cfg.threads 0 in
  let latencies = Array.make cfg.threads (Tcm_dist.Stats.Sample.create 0) in
  let minor_w = Array.make cfg.threads 0. in
  let major_w = Array.make cfg.threads 0. in
  let body tid () =
    let samples = Tcm_dist.Stats.Sample.create 1024 in
    let minor0 = Gc.minor_words () in
    let _, _, major0 = Gc.counters () in
    let rng = Splitmix.create (cfg.seed + (tid * 7919) + 1) in
    let count = ref 0 in
    while not (Atomic.get stop) do
      let key = Splitmix.int rng cfg.key_range in
      let r = Splitmix.int rng max_int in
      let updating = Splitmix.int rng 100 < cfg.update_pct in
      let inserting = Splitmix.bool rng in
      let sampling = !count mod latency_sample_period = 0 in
      let t0 = if sampling then Unix.gettimeofday () else 0. in
      ignore
        (Stm.atomically rt (fun tx ->
             let res =
               if not updating then ops.Tcm_structures.Intset.member tx ~key ~r
               else if inserting then ops.Tcm_structures.Intset.insert tx ~key ~r
               else ops.Tcm_structures.Intset.remove tx ~key ~r
             in
             if cfg.post_work > 0 then spin cfg.post_work;
             res));
      if sampling then
        Tcm_dist.Stats.Sample.add samples ((Unix.gettimeofday () -. t0) *. 1e6);
      incr count
    done;
    per_thread.(tid) <- !count;
    latencies.(tid) <- samples;
    let minor1 = Gc.minor_words () in
    let _, _, major1 = Gc.counters () in
    minor_w.(tid) <- minor1 -. minor0;
    major_w.(tid) <- major1 -. major0
  in
  let t0 = Unix.gettimeofday () in
  let doms = List.init cfg.threads (fun tid -> Domain.spawn (body tid)) in
  (match poll with
  | None -> Unix.sleepf cfg.duration_s
  | Some poll ->
      (* Poll from the driver thread so samplers see throughput evolve
         without a background thread of their own. *)
      let deadline = t0 +. cfg.duration_s in
      let rec loop () =
        let left = deadline -. Unix.gettimeofday () in
        if left > 0. then begin
          Unix.sleepf (Float.min poll_step_s left);
          poll ();
          loop ()
        end
      in
      loop ());
  Atomic.set stop true;
  List.iter Domain.join doms;
  let elapsed = Unix.gettimeofday () -. t0 in
  let s = Stm.stats rt in
  let commits = Array.fold_left ( + ) 0 per_thread in
  let all_latencies = Tcm_dist.Stats.Sample.concat latencies in
  let wx =
    Tcm_metrics.Conventions.for_workload
      ~workload:(structure_name cfg.structure)
      ~manager:(Cm_intf.name cfg.manager)
  in
  Tcm_metrics.Conventions.workload_outcome wx ~commits ~aborts:s.Runtime.n_aborts
    ~conflicts:s.Runtime.n_conflicts
    ~elapsed_us:(int_of_float (elapsed *. 1e6));
  {
    commits;
    aborts = s.Runtime.n_aborts;
    conflicts = s.Runtime.n_conflicts;
    throughput = float_of_int commits /. elapsed;
    per_thread;
    elapsed_s = elapsed;
    latency_p50_us = Tcm_dist.Stats.Sample.percentile all_latencies 50.;
    latency_p99_us = Tcm_dist.Stats.Sample.percentile all_latencies 99.;
    minor_words = Array.fold_left ( +. ) 0. minor_w;
    major_words = Array.fold_left ( +. ) 0. major_w;
    stats = s;
  }
