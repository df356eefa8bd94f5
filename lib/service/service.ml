(** The service engine: a user-scale transactional KV service driven
    by open-loop traffic.

    The whole run's traffic is {e precomputed} before any domain
    spawns: arrival times (via {!Arrival.schedule}), per-request
    classes and pre-drawn Zipf keys land in flat arrays, so the
    generator's hot loop is sleep-until-deadline, a couple of counter
    bumps, and an int push into the sharded {!Squeue} — nothing is
    allocated per request, and the generator can drive both backends
    past saturation.  [workers] domains each own one queue shard, pop
    request indices and execute each request as one STM transaction
    against the {!Store}, on either runtime backend under any
    registered contention manager.

    Latency is measured arrival-to-commit — from the *scheduled*
    arrival time, not the dequeue time — so admission-queue delay is
    charged to the service and overload cannot hide behind a slowing
    generator (no coordinated omission).  A full queue sheds the
    request and counts it against the class's SLO attainment. *)

open Tcm_stm

(** Arrival-to-commit latency in microseconds, [now_s] in seconds from
    run start.  Clamped at 0 against clock slop. *)
let request_latency_us ~arrival_s ~now_s = Float.max 0. ((now_s -. arrival_s) *. 1e6)

(* ------------------------------------------------------------------ *)
(* Per-class accounting                                                *)
(* ------------------------------------------------------------------ *)

type class_stats = {
  cls : Sclass.t;
  submitted : int;  (** Generated: admitted + dropped. *)
  completed : int;
  dropped : int;
  slo_us : float;
  slo_ok : int;  (** Completed within the class SLO. *)
  attainment : float;
      (** [slo_ok /. submitted]: drops and over-SLO completions both
          miss.  [nan] when nothing was submitted. *)
  p50_us : float;
  p99_us : float;
  mean_us : float;
}

(** Pure per-class aggregation, separated from the engine so the SLO
    arithmetic (queue time included, drops count as misses) is
    testable deterministically.  Each domain owns a private [t];
    results are merged after join.  Latencies go into flat
    per-class samples, sized up front by the engine so that recording
    a completion stores one float and allocates nothing. *)
module Agg = struct
  module Sample = Tcm_dist.Stats.Sample

  type t = {
    slo_us : float array;
    submitted : int array;
    dropped : int array;
    slo_ok : int array;
    lats : Sample.t array;  (** Per-class completion latencies, us. *)
  }

  let create ~slo_us ~capacity =
    if Array.length slo_us <> Sclass.count || Array.length capacity <> Sclass.count then
      invalid_arg "Service.Agg.create: one SLO and one capacity per class";
    {
      slo_us = Array.copy slo_us;
      submitted = Array.make Sclass.count 0;
      dropped = Array.make Sclass.count 0;
      slo_ok = Array.make Sclass.count 0;
      lats = Array.map Sample.create capacity;
    }

  let submit t c =
    let i = Sclass.index c in
    t.submitted.(i) <- t.submitted.(i) + 1

  let drop t c =
    let i = Sclass.index c in
    t.dropped.(i) <- t.dropped.(i) + 1

  let complete t c ~latency_us =
    let i = Sclass.index c in
    Sample.add t.lats.(i) latency_us;
    if latency_us <= t.slo_us.(i) then t.slo_ok.(i) <- t.slo_ok.(i) + 1

  let within_slo t c ~latency_us = latency_us <= t.slo_us.(Sclass.index c)

  let merge_into ~into src =
    for i = 0 to Sclass.count - 1 do
      into.submitted.(i) <- into.submitted.(i) + src.submitted.(i);
      into.dropped.(i) <- into.dropped.(i) + src.dropped.(i);
      into.slo_ok.(i) <- into.slo_ok.(i) + src.slo_ok.(i);
      Sample.append ~into:into.lats.(i) src.lats.(i)
    done

  (** Every completion latency, classes pooled — feeds the overall
      latency-degradation percentiles of the rate ladder. *)
  let all_lats t = Sample.concat t.lats

  let class_stats t : class_stats list =
    Array.to_list
      (Array.map
         (fun c ->
           let i = Sclass.index c in
           let lats = t.lats.(i) in
           {
             cls = c;
             submitted = t.submitted.(i);
             completed = Sample.length lats;
             dropped = t.dropped.(i);
             slo_us = t.slo_us.(i);
             slo_ok = t.slo_ok.(i);
             attainment =
               (if t.submitted.(i) = 0 then nan
                else float_of_int t.slo_ok.(i) /. float_of_int t.submitted.(i));
             p50_us = Sample.percentile lats 50.;
             p99_us = Sample.percentile lats 99.;
             mean_us = Sample.mean lats;
           })
         Sclass.all)
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  backend : Stm.backend;
  manager : Cm_intf.factory;
  workers : int;
  duration_s : float;
  process : Arrival.process;
  queue_cap : int;
  n_keys : int;
  buckets : int option;  (** Ignored (see the interface). *)
  theta : float;  (** Zipf key skew, [0, 1). *)
  mix : Sclass.mix;
  reads_per_txn : int;  (** Point gets in one Read transaction. *)
  rmws_per_txn : int;  (** Increments in one Rmw transaction. *)
  scan_len : int;  (** Bindings per Scan transaction. *)
  slo_us : float array;  (** Per-class SLO, indexed like {!Sclass.all}. *)
  seed : int;
  flight : Tcm_obs.Flight.t option;
      (** SLO-breach flight recorder.  When set, the engine arms the
          [tcm.trace] rings for the run and reports every completion
          and shed to the recorder, which snapshots ring + ledger +
          hot-key bundles on breach. *)
}

let default =
  {
    backend = Stm.Locator;
    manager = (module Tcm_core.Greedy : Cm_intf.S);
    workers = 2;
    duration_s = 0.5;
    process = Arrival.Poisson { rate = 2_000. };
    queue_cap = 512;
    n_keys = 8_192;
    buckets = None;
    theta = 0.9;
    mix = Sclass.default_mix;
    reads_per_txn = 8;
    rmws_per_txn = 2;
    scan_len = 32;
    slo_us = Sclass.default_slos;
    seed = 42;
    flight = None;
  }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  backend : string;
  manager : string;
  process : string;
  classes : class_stats list;
  submitted : int;
  completed : int;
  dropped : int;
  aborts : int;  (** STM aborts during the measurement (preload excluded). *)
  conflicts : int;
  elapsed_s : float;
  throughput : float;  (** Completed requests per second. *)
  offered : float;  (** Generated requests per second. *)
  p50_us : float;  (** Overall completion latency, classes pooled. *)
  p99_us : float;
  queue_high_water : int;  (** Max single-shard occupancy observed. *)
  queue_spills : int;
      (** Pushes that overflowed their round-robin shard onto the
          least-loaded one — the imbalance signature. *)
  gen_minor_words_per_req : float;
      (** Generator-domain minor words allocated per generated request
          (clock reads only on the precomputed-schedule path — a
          regression gate against per-request allocation creep). *)
  trace_drops : int;  (** Ring-buffer drops during the run. *)
  metrics_on : bool;  (** Whether [tcm.metrics] was enabled. *)
  trace_on : bool;  (** Whether the [tcm.trace] rings were armed. *)
}

(* ------------------------------------------------------------------ *)
(* The precomputed request schedule                                    *)
(* ------------------------------------------------------------------ *)

(* Flat arrays, one slot per request: arrival time, class index, and a
   [key_off]-delimited slice of the shared flat key array.  Workers
   and generator share it read-only, and a queued request is just its
   index. *)
type schedule = {
  times : float array;
  cls : int array;
  key_off : int array;  (** Length [n + 1]; request i's keys are
                            [keys.(key_off.(i)) .. keys.(key_off.(i+1) - 1)]. *)
  keys : int array;
  per_class : int array;  (** Requests of each class, indexed like {!Sclass.all}. *)
}

let keys_per_class cfg ci =
  match Sclass.all.(ci) with
  | Sclass.Read -> max 1 cfg.reads_per_txn
  | Sclass.Scan -> 1
  | Sclass.Rmw -> max 1 cfg.rmws_per_txn

let build_schedule cfg =
  let rng = Splitmix.create ((cfg.seed * 31) + 1) in
  let zipf = Tcm_dist.Samplers.Zipf.create ~n:cfg.n_keys ~theta:cfg.theta in
  let times = Arrival.schedule cfg.process rng ~horizon:cfg.duration_s in
  let n = Array.length times in
  let cls = Array.make n 0 in
  let key_off = Array.make (n + 1) 0 in
  let per_class = Array.make Sclass.count 0 in
  for i = 0 to n - 1 do
    let ci = Sclass.index (Sclass.pick cfg.mix rng) in
    cls.(i) <- ci;
    per_class.(ci) <- per_class.(ci) + 1;
    key_off.(i + 1) <- key_off.(i) + keys_per_class cfg ci
  done;
  let keys =
    Array.init key_off.(n) (fun _ -> Tcm_dist.Samplers.Zipf.draw zipf rng)
  in
  { times; cls; key_off; keys; per_class }

(* ------------------------------------------------------------------ *)
(* Transaction bodies                                                  *)
(* ------------------------------------------------------------------ *)

let execute rt store ~scan_len sched i =
  let lo = sched.key_off.(i) in
  let hi = sched.key_off.(i + 1) in
  match Sclass.all.(sched.cls.(i)) with
  | Sclass.Read ->
      ignore
        (Stm.atomically rt (fun tx ->
             let acc = ref 0 in
             for j = lo to hi - 1 do
               match Store.get tx store sched.keys.(j) with
               | Some v -> acc := !acc + v
               | None -> ()
             done;
             !acc))
  | Sclass.Scan ->
      ignore
        (Stm.atomically rt (fun tx ->
             Store.scan tx store ~lo:sched.keys.(lo) ~len:scan_len))
  | Sclass.Rmw ->
      ignore
        (Stm.atomically rt (fun tx ->
             for j = lo to hi - 1 do
               Store.rmw tx store sched.keys.(j) (function
                 | None -> Some 1
                 | Some v -> Some (v + 1))
             done;
             0))

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let run (cfg : config) : summary =
  Arrival.validate cfg.process;
  if cfg.workers < 1 then invalid_arg "Service.run: workers >= 1";
  if cfg.duration_s <= 0. then invalid_arg "Service.run: duration_s > 0";
  let rt = Stm.create ~backend:cfg.backend cfg.manager in
  let store = Store.create ~n_keys:cfg.n_keys () in
  (* Direct preload: the store is not yet visible to any worker, so
     the non-transactional build is sound — and it is what makes
     million-key configurations practical. *)
  Store.preload store;
  let sched = build_schedule cfg in
  let n_requests = Array.length sched.times in
  let s0 = Stm.stats rt in
  let mname = Cm_intf.name cfg.manager in
  let bname = Stm.backend_name cfg.backend in
  let mx =
    Array.map
      (fun c ->
        Tcm_metrics.Conventions.for_service ~backend:bname ~manager:mname
          ~cls:(Sclass.name c) ())
      Sclass.all
  in
  let smx =
    Array.init cfg.workers (fun shard ->
        Tcm_metrics.Conventions.for_shard ~backend:bname ~manager:mname ~shard ())
  in
  (* Obs class slots: the worker sets its domain's current slot around
     [execute], so ledger charges from inside the transaction land on
     the request's class. *)
  let obs_cls = Array.map (fun c -> Tcm_obs.Ledger.class_slot (Sclass.name c)) Sclass.all in
  (* A flight recorder needs the rings armed for the whole run; leave
     them armed at exit so the caller can flush a final bundle. *)
  (match cfg.flight with
  | Some _ when not (Tcm_trace.Sink.enabled ()) -> Tcm_trace.Sink.start ()
  | _ -> ());
  let trace_on = Tcm_trace.Sink.enabled () in
  let drops0 = if trace_on then Tcm_trace.Sink.drops () else 0 in
  let q = Squeue.create ~shards:cfg.workers cfg.queue_cap in
  let gen_agg = Agg.create ~slo_us:cfg.slo_us ~capacity:(Array.make Sclass.count 0) in
  (* Any worker may complete every request of a class, so each sizes
     its samples to the schedule's class counts: no sample grows while
     the run is timed. *)
  let worker_aggs =
    Array.init cfg.workers (fun _ -> Agg.create ~slo_us:cfg.slo_us ~capacity:sched.per_class)
  in
  (* Out-params written by the generator domain before it exits, read
     after join. *)
  let gen_minor_words = Array.make 1 0. in
  let gen_spills = Array.make 1 0 in
  let t0 = Unix.gettimeofday () in
  let generator () =
    let spills = ref 0 in
    let mw0 = Gc.minor_words () in
    for i = 0 to n_requests - 1 do
      (* Sleep until the scheduled arrival; when the generator itself
         runs late it pushes immediately and the schedule does not
         slip — the arrival clock is the process's, not ours. *)
      let wait = t0 +. sched.times.(i) -. Unix.gettimeofday () in
      if wait > 0. then Unix.sleepf wait;
      let ci = sched.cls.(i) in
      Agg.submit gen_agg Sclass.all.(ci);
      Tcm_metrics.Conventions.service_request mx.(ci);
      if Squeue.try_push q i then begin
        if Squeue.last_spilled q then incr spills;
        Tcm_metrics.Conventions.shard_push smx.(Squeue.last_shard q)
          ~occupancy:(Squeue.last_occupancy q) ~spilled:(Squeue.last_spilled q)
      end
      else begin
        Agg.drop gen_agg Sclass.all.(ci);
        Tcm_metrics.Conventions.service_drop mx.(ci);
        Tcm_metrics.Conventions.shard_shed smx.(Squeue.last_shard q);
        match cfg.flight with
        | Some f -> Tcm_obs.Flight.note_drop f
        | None -> ()
      end
    done;
    gen_minor_words.(0) <- Gc.minor_words () -. mw0;
    gen_spills.(0) <- !spills
  in
  let worker wid () =
    let agg = worker_aggs.(wid) in
    let rec loop () =
      let i = Squeue.pop q ~shard:wid in
      if i >= 0 then begin
        let ci = sched.cls.(i) in
        let cls = Sclass.all.(ci) in
        if Tcm_metrics.enabled () then Tcm_obs.Ledger.set_class obs_cls.(ci);
        execute rt store ~scan_len:cfg.scan_len sched i;
        if Tcm_metrics.enabled () then Tcm_obs.Ledger.set_class 0;
        let now_s = Unix.gettimeofday () -. t0 in
        let lat = request_latency_us ~arrival_s:sched.times.(i) ~now_s in
        Agg.complete agg cls ~latency_us:lat;
        let within = Agg.within_slo agg cls ~latency_us:lat in
        Tcm_metrics.Conventions.service_complete mx.(ci)
          ~latency_us:(int_of_float lat) ~within_slo:within;
        (match cfg.flight with
        | Some f ->
            Tcm_obs.Flight.note_completion f ~cls:(Sclass.name cls) ~within_slo:within
        | None -> ());
        loop ()
      end
    in
    loop ()
  in
  let workers = List.init cfg.workers (fun wid -> Domain.spawn (worker wid)) in
  let gen = Domain.spawn generator in
  Domain.join gen;
  (* Admissions stop at the deadline; queued requests drain (their
     latency keeps accruing — late completions are still charged). *)
  Squeue.close q;
  List.iter Domain.join workers;
  let elapsed = Unix.gettimeofday () -. t0 in
  let s1 = Stm.stats rt in
  (* Worker 0's samples already have room for every request, so the
     others merge into them without growing. *)
  let total = worker_aggs.(0) in
  Agg.merge_into ~into:total gen_agg;
  for w = 1 to cfg.workers - 1 do
    Agg.merge_into ~into:total worker_aggs.(w)
  done;
  let classes = Agg.class_stats total in
  let all_lats = Agg.all_lats total in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 classes in
  let submitted = sum (fun c -> c.submitted) in
  let completed = sum (fun c -> c.completed) in
  let dropped = sum (fun c -> c.dropped) in
  {
    backend = bname;
    manager = mname;
    process = Arrival.describe cfg.process;
    classes;
    submitted;
    completed;
    dropped;
    aborts = s1.Runtime.n_aborts - s0.Runtime.n_aborts;
    conflicts = s1.Runtime.n_conflicts - s0.Runtime.n_conflicts;
    elapsed_s = elapsed;
    throughput = float_of_int completed /. elapsed;
    offered = float_of_int submitted /. elapsed;
    p50_us = Tcm_dist.Stats.Sample.percentile all_lats 50.;
    p99_us = Tcm_dist.Stats.Sample.percentile all_lats 99.;
    queue_high_water = Squeue.high_water q;
    queue_spills = gen_spills.(0);
    gen_minor_words_per_req =
      (if submitted = 0 then 0. else gen_minor_words.(0) /. float_of_int submitted);
    trace_drops = (if trace_on then Tcm_trace.Sink.drops () - drops0 else 0);
    metrics_on = Tcm_metrics.enabled ();
    trace_on;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let fnum v =
  if Float.is_nan v then "-"
  else if v >= 10_000. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

let pp_summary fmt (s : summary) =
  Format.fprintf fmt
    "%s/%s  %s: offered %.0f rps, served %.0f rps, dropped %d, aborts %d, \
     queue-hw %d, spills %d, gen-alloc %.1f w/req@."
    s.manager s.backend s.process s.offered s.throughput s.dropped s.aborts
    s.queue_high_water s.queue_spills s.gen_minor_words_per_req;
  List.iter
    (fun (c : class_stats) ->
      Format.fprintf fmt
        "    %-5s submitted %6d completed %6d dropped %5d p50 %8s us p99 %8s us \
         slo %6.0f us attain %5.1f%%@."
        (Sclass.name c.cls) c.submitted c.completed c.dropped (fnum c.p50_us)
        (fnum c.p99_us) c.slo_us
        (100. *. if Float.is_nan c.attainment then 0. else c.attainment))
    s.classes
