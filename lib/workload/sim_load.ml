(** Simulator-backed figure workloads.

    Live runs get only as many hardware threads as the host has (two
    vCPUs in the measurements reported here), and domains beyond them
    timeslice, so the live benchmark cannot exhibit the paper's
    1–32-thread scaling shapes.  This module models each benchmark
    structure's {e access pattern} as simulator transactions and runs
    them under the same contention managers, which yields
    deterministic, hardware-independent reproductions of the Figure 1–4
    shapes:

    - {b list}: an operation on key [k] reads the [j] node slots before
      its position and rewrites slot [j] — long, heavily overlapping
      prefix traversals (the paper's most contended workload);
    - {b skiplist}: reads one marker per level along the search path,
      then writes the bottom slot — logarithmic footprint;
    - {b rbtree}: reads a root-to-leaf path (near-root objects shared
      by everyone), then writes the leaf and its parent (rebalance);
    - {b rbforest}: with small probability performs the rbtree pattern
      on {e all} trees (a very long transaction), otherwise on one —
      the paper's high-variance length distribution.

    The low-contention variant (Figure 3) appends an uncontended tail
    of ticks after the last access, modelling the paper's "computations
    unrelated to the effective transactions at the end". *)

open Tcm_stm
open Tcm_sim

let key_space = 64

type model = {
  name : string;
  n_objects : int;
  gen : Splitmix.t -> tail:int -> Spec.txn
}

(* --- list ---------------------------------------------------------- *)

let list_model =
  let gen rng ~tail =
    let k = Splitmix.int rng key_space in
    let accesses = ref [ Spec.write ~at:k ~obj:k ] in
    for i = k - 1 downto 0 do
      accesses := Spec.read ~at:i ~obj:i :: !accesses
    done;
    Spec.txn ~dur:(k + 1 + tail) !accesses
  in
  { name = "list"; n_objects = key_space; gen }

(* --- skiplist ------------------------------------------------------ *)

let skiplist_levels = 6

let skiplist_model =
  (* Marker objects: level l (l = levels-1 .. 0) has key_space >> l
     markers, distinct object ranges per level. *)
  let base = Array.make skiplist_levels 0 in
  let () =
    let acc = ref 0 in
    for l = skiplist_levels - 1 downto 0 do
      base.(l) <- !acc;
      acc := !acc + (key_space lsr l)
    done
  in
  let n_objects =
    Array.fold_left max 0 (Array.mapi (fun l b -> b + (key_space lsr l)) base)
  in
  let gen rng ~tail =
    let k = Splitmix.int rng key_space in
    let accesses = ref [ Spec.write ~at:skiplist_levels ~obj:(base.(0) + k) ] in
    for i = skiplist_levels - 1 downto 0 do
      let l = skiplist_levels - 1 - i in
      accesses := Spec.read ~at:i ~obj:(base.(l) + (k lsr l)) :: !accesses
    done;
    Spec.txn ~dur:(skiplist_levels + 1 + tail) !accesses
  in
  { name = "skiplist"; n_objects; gen }

(* --- red-black tree ------------------------------------------------ *)

let rb_depth = 6 (* interior depths 0..5, leaves below *)

let rb_n_objects = (1 lsl (rb_depth + 1)) - 1 + key_space

(* Interior node at depth d on the path to key k. *)
let rb_interior d k = (1 lsl d) - 1 + (k lsr (rb_depth - d))

let rb_leaf k = (1 lsl rb_depth) - 1 + k

(* The path to key [k] prepended to [rest]: its reads, then the leaf
   write. *)
let rb_accesses ?(obj_offset = 0) ?(tick_offset = 0) k rest =
  let accesses =
    ref
      (Spec.write ~at:(tick_offset + rb_depth) ~obj:(obj_offset + rb_leaf k)
      (* Rebalance touches the leaf's parent. *)
      :: Spec.write ~at:(tick_offset + rb_depth)
           ~obj:(obj_offset + rb_interior (rb_depth - 1) k)
      :: rest)
  in
  for d = rb_depth - 1 downto 0 do
    accesses := Spec.read ~at:(tick_offset + d) ~obj:(obj_offset + rb_interior d k) :: !accesses
  done;
  !accesses

let rb_dur = rb_depth + 1

let rbtree_model =
  let gen rng ~tail =
    let k = Splitmix.int rng key_space in
    Spec.txn ~dur:(rb_dur + tail) (rb_accesses k [])
  in
  { name = "rbtree"; n_objects = rb_n_objects; gen }

(* --- red-black forest ---------------------------------------------- *)

let forest_trees = 50
let forest_all_pct = 2

let rbforest_model =
  let gen rng ~tail =
    let k = Splitmix.int rng key_space in
    if Splitmix.int rng 100 < forest_all_pct then
      (* Long transaction: the rbtree pattern on every tree in turn. *)
      let accesses = ref [] in
      for tr = forest_trees - 1 downto 0 do
        accesses :=
          rb_accesses ~obj_offset:(tr * rb_n_objects) ~tick_offset:(tr * rb_dur) k !accesses
      done;
      Spec.txn ~dur:((forest_trees * rb_dur) + tail) !accesses
    else
      let tr = Splitmix.int rng forest_trees in
      Spec.txn ~dur:(rb_dur + tail) (rb_accesses ~obj_offset:(tr * rb_n_objects) k [])
  in
  { name = "rbforest"; n_objects = forest_trees * rb_n_objects; gen }

let model_of_structure = function
  | Harness.List_s -> list_model
  | Harness.Skiplist_s -> skiplist_model
  | Harness.Rbtree_s -> rbtree_model
  | Harness.Rbforest_s -> rbforest_model

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  commits : int;
  aborts : int;
  ticks : int;
  throughput : float;  (** Commits per 1000 ticks. *)
  max_aborts_one_txn : int;
      (** Worst restart count of a single transaction (starvation). *)
  fairness_min_commits : int;
      (** Commits of the least-served thread. *)
}

(** Run [threads] infinite streams of the model's transactions under
    [manager] for [horizon] ticks.  Fully deterministic in [seed]. *)
let run ?(horizon = 6_000) ?(seed = 42) ?(tail = 0) ?ts_on_restart ?usec_per_tick ~threads
    ~(manager : Cm_intf.factory) (model : model) : outcome =
  let stream tid idx =
    let rng = Splitmix.create ((seed * 1_000_003) + (tid * 7919) + idx) in
    Some (model.gen rng ~tail)
  in
  let streams = Array.init threads (fun tid -> stream tid) in
  let r =
    Engine.run ~horizon ?ts_on_restart ~seed ?usec_per_tick ~manager
      ~n_objects:model.n_objects streams
  in
  {
    commits = r.Engine.commits;
    aborts = r.Engine.aborts;
    ticks = r.Engine.ticks;
    throughput = float_of_int r.Engine.commits *. 1000. /. float_of_int (max 1 r.Engine.ticks);
    max_aborts_one_txn = r.Engine.max_aborts_one_txn;
    fairness_min_commits = Array.fold_left min max_int r.Engine.per_thread_commits;
  }
