(* Layer probes for the traced run: each times one layer's public
   functions from outside, single-domain, on the workload's own
   configuration, and checks what they return.  A probe's [check]
   failures are reported like any other wrong output. *)

open Tcm_stm
open Tcm_service

let now = Unix.gettimeofday
let greedy = Tcm_core.Registry.find_exn "greedy"

(* fig1's transaction: one insert or remove on the 256-key list, under
   the locator backend with visible reads, on one domain — the
   uncontended ceiling for the list workload's commit rate. *)
let list_op_ns ~check ~seed ~ops =
  let rt = Stm.create ~backend:Stm.Locator greedy in
  let set = Tcm_workload.Harness.make_ops Tcm_workload.Harness.List_s in
  for k = 0 to 127 do
    ignore (Stm.atomically rt (fun tx -> set.insert tx ~key:(k * 2) ~r:0))
  done;
  let rng = Splitmix.create seed in
  let t0 = now () in
  for i = 1 to ops do
    let key = Splitmix.int rng 256 in
    ignore
      (Stm.atomically rt (fun tx ->
           if i land 1 = 0 then set.insert tx ~key ~r:0 else set.remove tx ~key ~r:0))
  done;
  let ns = (now () -. t0) *. 1e9 /. float_of_int ops in
  let keys = Stm.atomically rt set.snapshot in
  let rec ordered = function a :: (b :: _ as tl) -> a < b && ordered tl | _ -> true in
  check "list probe: set stays ordered and within 0..255"
    (ordered keys && List.for_all (fun k -> k >= 0 && k < 256) keys);
  ns

(* One admission-queue round trip: a non-blocking push and the pop that
   takes it back, on one shard. *)
let push_pop_ns ~check ~ops =
  let q = Squeue.create ~shards:1 4096 in
  let fifo = ref true in
  let t0 = now () in
  for i = 0 to ops - 1 do
    if not (Squeue.try_push q i) then fifo := false;
    if Squeue.pop q ~shard:0 <> i then fifo := false
  done;
  let ns = (now () -. t0) *. 1e9 /. float_of_int ops in
  check "squeue probe: every push is accepted and popped back in order" !fifo;
  ns

type store = { get_ns : float; rmw_ns : float; scan_ns : float; preload_s : float }

(* Store operations inside [Stm.atomically], one per transaction, on a
   freshly preloaded store of the workload's backend and size, with
   keys drawn at the workload's skew. *)
let store ~check ~seed ~backend ~n_keys ~theta ~ops =
  let t0 = now () in
  let st = Store.create ~n_keys () in
  Store.preload st;
  let preload_s = now () -. t0 in
  let rt = Stm.create ~backend greedy in
  let zipf = Tcm_dist.Samplers.Zipf.create ~n:n_keys ~theta in
  let rng = Splitmix.create seed in
  let keys = Array.init ops (fun _ -> Tcm_dist.Samplers.Zipf.draw zipf rng) in
  let bad_get = ref 0 in
  let t0 = now () in
  Array.iter
    (fun k -> if Stm.atomically rt (fun tx -> Store.get tx st k) <> Some k then incr bad_get)
    keys;
  let get_ns = (now () -. t0) *. 1e9 /. float_of_int ops in
  check "store probe: get k = Some k on a fresh preload" (!bad_get = 0);
  let scans = max 1 (ops / 16) and len = 32 in
  let bad_scan = ref 0 in
  let t0 = now () in
  for i = 0 to scans - 1 do
    let lo = keys.(i) in
    let n, sum = Stm.atomically rt (fun tx -> Store.scan tx st ~lo ~len) in
    (* Values equal keys after preload, so an in-order scan of [n]
       bindings from [lo] sums to lo + (lo+1) + ... + (lo+n-1). *)
    if n <> min len (n_keys - lo) || sum <> (n * lo) + (n * (n - 1) / 2) then incr bad_scan
  done;
  let scan_ns = (now () -. t0) *. 1e9 /. float_of_int scans in
  check "store probe: scan returns consecutive bindings in key order" (!bad_scan = 0);
  let t0 = now () in
  Array.iter
    (fun k ->
      Stm.atomically rt (fun tx ->
          Store.rmw tx st k (function Some v -> Some (v + 1) | None -> Some 1)))
    keys;
  let rmw_ns = (now () -. t0) *. 1e9 /. float_of_int ops in
  { get_ns; rmw_ns; scan_ns; preload_s }

(* The request schedule one measured window needs: Poisson arrivals at
   [rate] for [horizon] seconds, a class per request and its keys at
   the workload's skew (what Service.run precomputes before traffic). *)
let schedule_ms ~seed ~rate ~horizon ~n_keys ~theta ~mix ~keys_per_class =
  let t0 = now () in
  let rng = Splitmix.create seed in
  let zipf = Tcm_dist.Samplers.Zipf.create ~n:n_keys ~theta in
  let times = Arrival.schedule (Arrival.Poisson { rate }) rng ~horizon in
  let sink = ref 0 in
  Array.iter
    (fun _ ->
      let c = Sclass.pick mix rng in
      for _ = 1 to keys_per_class c do
        sink := !sink + Tcm_dist.Samplers.Zipf.draw zipf rng
      done)
    times;
  ignore (Sys.opaque_identity !sink);
  (now () -. t0) *. 1e3
