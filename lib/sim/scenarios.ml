(** Canonical simulation scenarios.

    Includes the Section 4 adversarial chain, random instances for the
    Theorem 9 bound sweep, and the dependency-cycle instance that
    defeats unbounded FIFO waiting. *)

(* Deterministic splitmix64 for instance generation. *)
module Prng = Tcm_stm.Splitmix

(** The Section 4 chain, in ticks of [granularity] per paper time unit
    (>= 2 so the late access lands strictly before the commit, the
    paper's [1 - epsilon]).

    Thread [i] plays transaction [T_i]: every [T_i] runs one time
    unit; [T_i] (0 < i < s) opens [X_{i+1}] at time 0 and [X_i] at time
    [1 - epsilon]; [T_0] opens only [X_1] at time 0; [T_s] opens only
    [X_s] at [1 - epsilon].  [T_i] has an earlier timestamp than
    [T_{i-1}], so the returned ranks are inverted. *)
let adversarial_chain ?(granularity = 2) ~s () : Spec.instance * int array =
  if s < 1 then invalid_arg "Scenarios.adversarial_chain: s >= 1";
  if granularity < 2 then invalid_arg "Scenarios.adversarial_chain: granularity >= 2";
  let m = granularity in
  let obj x = x - 1 in
  let txn_of i =
    let accesses =
      if i = 0 then [ Spec.write ~at:0 ~obj:(obj 1) ]
      else if i = s then [ Spec.write ~at:(m - 1) ~obj:(obj s) ]
      else [ Spec.write ~at:0 ~obj:(obj (i + 1)); Spec.write ~at:(m - 1) ~obj:(obj i) ]
    in
    Spec.txn ~dur:m accesses
  in
  let inst = Spec.instance (List.init (s + 1) txn_of) in
  (* T_i older than T_{i-1}: rank s - i + 1 (T_s gets rank 1). *)
  let ranks = Array.init (s + 1) (fun i -> s - i + 1) in
  (inst, ranks)

(** Two transactions that each open the other's first object late —
    under unbounded FIFO waiting ([Tcm_core.Queue_on_block.Unbounded])
    they cycle forever. *)
let dependency_cycle () : Spec.instance =
  Spec.instance
    [
      Spec.txn ~dur:4 [ Spec.write ~at:0 ~obj:0; Spec.write ~at:3 ~obj:1 ];
      Spec.txn ~dur:4 [ Spec.write ~at:0 ~obj:1; Spec.write ~at:3 ~obj:0 ];
    ]

(** Fault-injection instance (Section 6): thread 0 acquires the hot
    object and then halts undetectably, still holding it; threads
    1..[n-1] need the object to commit.  Pure greedy waits on the
    corpse forever (its Rule 2 wait is unbounded); greedy-ft and the
    timeout-based managers abort it and finish. *)
let halted_owner ?(n = 4) () : Spec.instance =
  let victim = Spec.txn ~halts_at:1 ~dur:10 [ Spec.write ~at:0 ~obj:0 ] in
  let others = List.init (n - 1) (fun _ -> Spec.txn ~dur:2 [ Spec.write ~at:0 ~obj:0 ]) in
  Spec.instance (victim :: others)

(** Random one-shot instance: [n] transactions over [s] objects,
    durations in [1, max_dur], each transaction making 1..[max_acc]
    write accesses at random progress points.  Deterministic in
    [seed]. *)
let random_instance ~seed ~n ~s ?(max_dur = 6) ?(max_acc = 3) () : Spec.instance =
  let prng = Prng.create seed in
  let txn_of _ =
    let dur = 1 + Prng.int prng max_dur in
    let k = 1 + Prng.int prng max_acc in
    let accesses =
      List.init k (fun _ -> Spec.write ~at:(Prng.int prng dur) ~obj:(Prng.int prng s))
    in
    (* Deduplicate objects: keep the earliest access to each. *)
    let seen = Hashtbl.create 8 in
    let accesses =
      List.filter
        (fun a ->
          if Hashtbl.mem seen a.Spec.obj then false
          else begin
            Hashtbl.add seen a.Spec.obj ();
            true
          end)
        (List.sort (fun a b -> compare a.Spec.at b.Spec.at) accesses)
    in
    Spec.txn ~dur accesses
  in
  Spec.instance (List.init n txn_of)

(** A contended hot-spot workload: every transaction updates one of
    [s] objects chosen Zipf([theta])-distributed (object 0 hottest),
    for throughput shapes.  Draws come from the shared
    {!Tcm_dist.Samplers.Zipf} sampler — the same distribution the
    service layer skews its keys with — and stay deterministic in
    [seed]. *)
let hotspot_instance ~seed ~n ~s ?(theta = 0.9) ~dur () : Spec.instance =
  let prng = Prng.create seed in
  let zipf = Tcm_dist.Samplers.Zipf.create ~n:s ~theta in
  let txn_of _ =
    let o = Tcm_dist.Samplers.Zipf.draw zipf prng in
    Spec.txn ~dur [ Spec.write ~at:(Prng.int prng dur) ~obj:o ]
  in
  Spec.instance (List.init n txn_of)
