(* The repository benchmark.  One process runs one workload:

     tcm_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--check] [--quick]
     tcm_bench.exe --workload all ...     (each workload in its own process)
     tcm_bench.exe compare BENCHMARK.json BASE.jsonl CHANGE.jsonl

   It drives only the entry points users run (Harness.run, Service.run,
   Figures.run in simulation mode), repeats each configuration, checks
   the outputs, and prints a human-readable report followed by one JSON
   result line.  With --trace 0 that line carries the end-to-end
   metrics, each a median or quartile over the repetitions; with --trace 1 it
   carries the per-layer metrics of one extra traced repetition plus
   layer probes.  See benchmark/README.md for the workloads and the
   metric definitions. *)

open Tcm_stm
open Tcm_service
module H = Tcm_workload.Harness
module F = Tcm_workload.Figures
module Snap = Tcm_metrics.Snapshot
module Conv = Tcm_metrics.Conventions

let now = Unix.gettimeofday
let greedy = Tcm_core.Registry.find_exn "greedy"

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  check : bool;
  quick : bool;
}

(* ------------------------------------------------------------------ *)
(* Metric tables                                                        *)
(* ------------------------------------------------------------------ *)

(* Every workload reports every end-to-end metric; what each one
   measures per workload is tabulated in README.md.  Set-up time and
   memory are the median of the run's repetitions.  Throughput and
   latency are the quartile on their better side: interference from
   other tenants of the host only ever slows a repetition, never speeds
   it up, so that quartile tracks the program with less of the host's
   noise. *)
type statistic = Median | Better_quartile of Bench_stats.better

let end_to_end =
  [
    ("setup_s", "s", Median);
    ("rss_peak_mb", "MB", Median);
    ("throughput", "1/s", Better_quartile Bench_stats.Higher);
    ("latency_us", "us", Better_quartile Bench_stats.Lower);
  ]

(* Layers a workload does not run report 0. *)
let per_layer =
  [
    ("stm.commit_ratio", "ratio");
    ("stm.attempt_us", "us");
    ("stm.read_set", "count");
    ("stm.pool_hit_ratio", "ratio");
    ("stm.list_op_ns", "ns");
    ("cm.resolves_per_commit", "count");
    ("cm.resolve_ns", "ns");
    ("cm.wait_us_per_commit", "us");
    ("cm.abort_other_share", "ratio");
    ("cm.block_share", "ratio");
    ("cm.wasted_open_ratio", "ratio");
    ("store.get_ns", "ns");
    ("store.rmw_ns", "ns");
    ("store.scan_ns", "ns");
    ("store.preload_s", "s");
    ("svc.service_us", "us");
    ("svc.queue_wait_us", "us");
    ("svc.queue_depth_mean", "count");
    ("svc.queue_high_water", "count");
    ("svc.queue_spills", "count");
    ("svc.drain_s", "s");
    ("svc.gen_words_per_req", "words");
    ("squeue.push_pop_ns", "ns");
    ("dist.schedule_ms", "ms");
    ("sim.fig1_s", "s");
    ("sim.fig2_s", "s");
    ("sim.fig3_s", "s");
    ("sim.fig4_s", "s");
    ("sim.commits", "count");
    ("sim.aborts", "count");
    ("gc.minor_per_kop", "count");
    ("gc.major_per_kop", "count");
    ("gc.pause_ms", "ms");
    ("gc.pause_max_ms", "ms");
    ("gc.alloc_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("trace.overhead_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Run state: samples, counts and checks                                *)
(* ------------------------------------------------------------------ *)

type result = {
  mutable e2e : (string * float list) list;  (** Per-repetition samples. *)
  mutable layer : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let res = { e2e = []; layer = []; attempted = 0; failed = 0; errors = [] }

let check what ok =
  if not ok then begin
    res.errors <- what :: res.errors;
    Printf.eprintf "CHECK FAILED: %s\n%!" what
  end

let sample name v =
  let prev = Option.value ~default:[] (List.assoc_opt name res.e2e) in
  res.e2e <- (name, v :: prev) :: List.remove_assoc name res.e2e

let layer l = res.layer <- l @ res.layer
let samples name = Array.of_list (Option.value ~default:[] (List.assoc_opt name res.e2e))
let ratio a b = if b = 0. then 0. else a /. b

(* Distinct inputs per repetition, all derived from --seed. *)
let rep_seed o i = (o.seed * 1_000) + i

(* Between repetitions, outside every timed window: back-to-back large
   heaps otherwise grow the top of the heap from one rep to the next. *)
let settle () = Gc.compact ()

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> find ()
      in
      find ())

(* [tcm.metrics] series summed over label sets: counters by name,
   histograms by name, restricted to one runtime label. *)
let metric_entries snap ~name ~runtime =
  List.filter
    (fun (e : Snap.entry) -> e.name = name && Snap.label e "runtime" = Some runtime)
    snap.Snap.entries

let counter_sum ?(pred = fun _ -> true) snap ~name ~runtime =
  List.fold_left
    (fun acc (e : Snap.entry) ->
      match e.value with Snap.Counter n when pred e -> acc +. float_of_int n | _ -> acc)
    0.
    (metric_entries snap ~name ~runtime)

let hist_mean snap ~name ~runtime =
  let sum, count =
    List.fold_left
      (fun (s, c) (e : Snap.entry) ->
        match e.value with
        | Snap.Histogram h -> (s + Snap.hist_sum h, c + Snap.hist_count h)
        | Snap.Counter _ -> (s, c))
      (0, 0)
      (metric_entries snap ~name ~runtime)
  in
  ratio (float_of_int sum) (float_of_int count)

(* The traced repetition: the contention manager wrapped in the
   counting decorator, [tcm.metrics] on, GC events recorded.  [f]
   returns its result and the length of the measured window it ended
   with.  Returns the result, the decorator's totals, the metrics
   snapshot and the GC activity inside the window. *)
let traced manager f =
  settle ();
  let wrapped, cm_totals = Cm_probe.wrap manager in
  Tcm_metrics.reset ();
  Tcm_metrics.enable ();
  let r, gc =
    Fun.protect ~finally:Tcm_metrics.disable (fun () -> Gc_probe.measure (fun () -> f wrapped))
  in
  if gc.Gc_probe.lost_events > 0 then
    Printf.printf "note: the GC event ring lost %d events\n" gc.lost_events;
  (r, cm_totals (), Tcm_metrics.snapshot (), gc)

let gc_layer (gc : Gc_probe.window) ~ops =
  [
    ("gc.minor_per_kop", 1e3 *. ratio (float_of_int gc.minors) ops);
    ("gc.major_per_kop", 1e3 *. ratio (float_of_int gc.majors) ops);
    ("gc.pause_ms", float_of_int gc.pause_ns /. 1e6);
    ("gc.pause_max_ms", float_of_int gc.pause_max_ns /. 1e6);
    ("gc.alloc_words_per_op", ratio (float_of_int gc.alloc_words) ops);
    ("gc.promoted_words_per_op", ratio (float_of_int gc.promoted_words) ops);
  ]

let cm_layer (t : Cm_probe.totals) =
  [
    ("cm.resolves_per_commit", t.resolves_per_commit);
    ("cm.resolve_ns", t.resolve_ns);
    ("cm.wait_us_per_commit", t.wait_us_per_commit);
    ("cm.abort_other_share", t.abort_other_share);
    ("cm.block_share", t.block_share);
    ("cm.wasted_open_ratio", t.wasted_open_ratio);
  ]

let stm_layer snap =
  let pool event =
    counter_sum snap ~name:Conv.n_pool ~runtime:"live" ~pred:(fun e ->
        Snap.label e "event" = Some event)
  in
  [
    ("stm.attempt_us", hist_mean snap ~name:Conv.n_attempt_d ~runtime:"live");
    ("stm.read_set", hist_mean snap ~name:Conv.n_read_set ~runtime:"live");
    ("stm.pool_hit_ratio", ratio (pool "hit") (pool "hit" +. pool "miss"));
  ]

(* Positive when tracing made the headline worse. *)
let overhead_pct ~better ~untraced traced =
  100. *. Bench_stats.worsening ~better ~base:(Bench_stats.median untraced) traced

(* ------------------------------------------------------------------ *)
(* list-contended: closed loop, Harness.run                             *)
(* ------------------------------------------------------------------ *)

let list_cfg ~seed ~duration_s manager =
  {
    H.structure = H.List_s;
    manager;
    threads = 2;
    duration_s;
    key_range = 256;
    update_pct = 100;
    post_work = 0;
    prefill = 128;
    seed;
    read_mode = `Visible;
    backend = Stm.Locator;
  }

(* One entry call: the outcome and the wall time outside its measured
   window (prefill before, latency percentiles after). *)
let list_rep (cfg : H.config) =
  let t0 = now () in
  match H.run cfg with
  | o ->
      let setup = now () -. t0 -. o.elapsed_s in
      check "list: per-thread counts sum to the commit count"
        (Array.fold_left ( + ) 0 o.per_thread = o.commits);
      check "list: runtime commits minus the prefill equal the commit count"
        (o.stats.Runtime.n_commits - cfg.prefill = o.commits);
      res.attempted <- res.attempted + o.commits;
      Some (o, setup)
  | exception e ->
      res.attempted <- res.attempted + 1;
      res.failed <- res.failed + 1;
      check ("list: a transaction escaped atomically: " ^ Printexc.to_string e) false;
      None

let list_contended o =
  let reps = if o.quick then 1 else 20 in
  let d = if o.quick then 0.2 else o.seconds /. float_of_int reps in
  Printf.printf "plan: %d reps x %.2f s, 2 domains, greedy, locator, visible reads\n%!" reps d;
  ignore (list_rep (list_cfg ~seed:(rep_seed o 999) ~duration_s:(Float.min d 0.3) greedy));
  for i = 0 to reps - 1 do
    settle ();
    match list_rep (list_cfg ~seed:(rep_seed o i) ~duration_s:d greedy) with
    | Some (r, setup) ->
        sample "setup_s" setup;
        sample "throughput" r.throughput;
        sample "latency_us" r.latency_p99_us;
        (* The harness times every 16th transaction of each domain. *)
        let n = r.commits / 16 in
        Printf.printf "rep %d: %.0f txn/s, p99 %.1f us over ~%d samples (%s), %d aborts\n%!" i
          r.throughput r.latency_p99_us n
          (match Bench_stats.tail_percentile n with
          | Some p when p >= 99. -> "p99 supported"
          | _ -> "too few samples for p99")
          r.aborts
    | None -> ()
  done;
  if o.trace then begin
    let r, cm, snap, gc =
      traced greedy (fun m ->
          let r = list_rep (list_cfg ~seed:(rep_seed o reps) ~duration_s:d m) in
          (r, match r with Some (o, _) -> o.elapsed_s | None -> 0.))
    in
    Option.iter
      (fun ((r : H.outcome), _) ->
        let commits = float_of_int r.commits in
        layer
          ((("stm.commit_ratio", ratio commits (commits +. float_of_int r.aborts))
           :: stm_layer snap)
          @ cm_layer cm @ gc_layer gc ~ops:commits
          @ [
              ( "trace.overhead_pct",
                overhead_pct ~better:Bench_stats.Higher ~untraced:(samples "throughput")
                  r.throughput );
            ]))
      r;
    layer
      [
        ( "stm.list_op_ns",
          Probes.list_op_ns ~check ~seed:(rep_seed o 1_000)
            ~ops:(if o.quick then 20_000 else 400_000) );
      ]
  end

(* ------------------------------------------------------------------ *)
(* kv-hot / kv-cold: open loop, Service.run                             *)
(* ------------------------------------------------------------------ *)

type kv = {
  backend : Stm.backend;
  n_keys : int;
  theta : float;
  mix : Sclass.mix;
  hi_rps : float;  (** The fixed rate latency is measured at. *)
  burst : int;  (** Requests queued at once in a drain rep. *)
}

(* Calibrated on a 2-vCPU host.  [hi_rps] sits below the rates where
   SLO attainment starts to flap (150k-450k rps on kv-hot, set by GC
   and host pauses rather than by queueing).  A drain rep queues
   [burst] requests at once and times the worker clearing them: about
   0.5 s of work on kv-hot (700k-800k req/s) and 1.2 s on kv-cold
   (120k-200k req/s).  Offering a rate above capacity instead kept the
   generator pushing and shedding beside the worker for the whole
   window, and 10-run spreads of 18-33% on kv-cold throughput. *)
let kv_hot =
  {
    backend = Stm.Tl2_backend;
    n_keys = 8_192;
    theta = 0.9;
    mix = { Sclass.read_w = 0.80; scan_w = 0.05; rmw_w = 0.15 };
    hi_rps = 150_000.;
    burst = 400_000;
  }

let kv_cold =
  {
    backend = Stm.Locator;
    n_keys = 262_144;
    theta = 0.;
    mix = { Sclass.read_w = 0.20; scan_w = 0.05; rmw_w = 0.75 };
    hi_rps = 40_000.;
    burst = 200_000;
  }

let reads_per_txn = 8
let rmws_per_txn = 2

(* Far above what the generator can push (about 10M rps), so a burst's
   arrivals all fall due within its first few milliseconds. *)
let burst_rps = 1e8

let kv_cfg k ~seed ~rate ~duration_s manager =
  {
    Service.backend = k.backend;
    manager;
    workers = 1;
    duration_s;
    process = Arrival.Poisson { rate };
    (* At [hi_rps], deep enough to ride out a 200 ms stall of the host
       without shedding: a stall is latency, not a failed request.  In
       a drain rep, room for the whole burst. *)
    queue_cap = max 32_768 (k.burst * 5 / 4);
    n_keys = k.n_keys;
    buckets = None;
    theta = k.theta;
    mix = k.mix;
    reads_per_txn;
    rmws_per_txn;
    scan_len = 32;
    slo_us = Sclass.default_slos;
    seed;
    flight = None;
  }

let kv_rep cfg =
  let t0 = now () in
  let s = Service.run cfg in
  let setup = now () -. t0 -. s.elapsed_s in
  check "kv: submitted = completed + dropped" (s.submitted = s.completed + s.dropped);
  check "kv: every request class completes"
    (List.for_all (fun (c : Service.class_stats) -> c.completed > 0) s.classes);
  (s, setup)

let mean_latency_us (s : Service.summary) =
  let sum, n =
    List.fold_left
      (fun (acc, n) (c : Service.class_stats) ->
        if c.completed = 0 then (acc, n)
        else (acc +. (c.mean_us *. float_of_int c.completed), n + c.completed))
      (0., 0) s.classes
  in
  ratio sum (float_of_int n)

let kv_workload k o =
  let reps = if o.quick then 1 else max 2 (truncate (o.seconds *. 0.6)) in
  let d_hi = if o.quick then 0.2 else 0.8 in
  let burst = if o.quick then 20_000 else k.burst in
  Printf.printf
    "plan: %d drains of a burst of %d requests, a %.2f s window at %.0f rps before every \
     second one; 1 worker, greedy, %s, %d keys, theta %.2f\n\
     %!"
    reps burst d_hi k.hi_rps (Stm.backend_name k.backend) k.n_keys k.theta;
  ignore (kv_rep (kv_cfg k ~seed:(rep_seed o 999) ~rate:k.hi_rps ~duration_s:0.3 greedy));
  let served (s : Service.summary) =
    res.attempted <- res.attempted + s.submitted;
    res.failed <- res.failed + s.dropped
  in
  (* Fixed-rate and drain reps interleave, so that both sample the whole
     run when the host's speed drifts.  The drains get most of the time:
     the p50 repeats within a few percent from half as many windows, the
     drain rate does not. *)
  for i = 0 to reps - 1 do
    if i land 1 = 0 then begin
      settle ();
      let s, setup =
        kv_rep (kv_cfg k ~seed:(rep_seed o i) ~rate:k.hi_rps ~duration_s:d_hi greedy)
      in
      served s;
      sample "setup_s" setup;
      sample "latency_us" s.p50_us;
      Printf.printf "rep %d: at %.0f rps p50 %.1f us, p99 %.1f us, %d shed, setup %.3f s\n" i
        k.hi_rps s.p50_us s.p99_us s.dropped setup
    end;
    settle ();
    let d, _ =
      kv_rep
        (kv_cfg k ~seed:(rep_seed o (100 + i)) ~rate:burst_rps
           ~duration_s:(float_of_int burst /. burst_rps) greedy)
    in
    served d;
    check "kv drain: the queue holds the whole burst" (d.dropped = 0);
    sample "throughput" d.throughput;
    Printf.printf "rep %d: drain: %d requests in %.3f s, %.0f req/s\n%!" i d.completed d.elapsed_s
      d.throughput
  done;
  if o.trace then begin
    let (s, _), cm, snap, gc =
      traced greedy (fun m ->
          let ((s : Service.summary), _) as r =
            kv_rep (kv_cfg k ~seed:(rep_seed o reps) ~rate:k.hi_rps ~duration_s:d_hi m)
          in
          (r, s.elapsed_s))
    in
    let completed = float_of_int s.completed in
    let stm = stm_layer snap in
    let attempts = counter_sum snap ~name:Conv.n_attempts ~runtime:"live" in
    let service_us = ratio attempts completed *. List.assoc "stm.attempt_us" stm in
    let ops = if o.quick then 20_000 else 200_000 in
    let p =
      Probes.store ~check ~seed:(rep_seed o 1_000) ~backend:k.backend ~n_keys:k.n_keys
        ~theta:k.theta ~ops
    in
    let keys_per_class = function
      | Sclass.Read -> reads_per_txn
      | Sclass.Scan -> 1
      | Sclass.Rmw -> rmws_per_txn
    in
    layer
      ((("stm.commit_ratio", ratio completed (completed +. float_of_int s.aborts)) :: stm)
      @ cm_layer cm @ gc_layer gc ~ops:completed
      @ [
          ("store.get_ns", p.get_ns);
          ("store.rmw_ns", p.rmw_ns);
          ("store.scan_ns", p.scan_ns);
          ("store.preload_s", p.preload_s);
          ("svc.service_us", service_us);
          ("svc.queue_wait_us", mean_latency_us s -. service_us);
          ( "svc.queue_depth_mean",
            hist_mean snap ~name:Conv.n_shard_occupancy ~runtime:"live" );
          ("svc.queue_high_water", float_of_int s.queue_high_water);
          ("svc.queue_spills", float_of_int s.queue_spills);
          ("svc.drain_s", s.elapsed_s -. d_hi);
          ("svc.gen_words_per_req", s.gen_minor_words_per_req);
          ( "squeue.push_pop_ns",
            Probes.push_pop_ns ~check ~ops:(if o.quick then 100_000 else 2_000_000) );
          ( "dist.schedule_ms",
            Probes.schedule_ms ~seed:(rep_seed o 1_001) ~rate:k.hi_rps ~horizon:d_hi
              ~n_keys:k.n_keys ~theta:k.theta ~mix:k.mix ~keys_per_class );
          ( "trace.overhead_pct",
            overhead_pct ~better:Bench_stats.Lower ~untraced:(samples "latency_us") s.p50_us );
        ])
  end

(* ------------------------------------------------------------------ *)
(* sim-figures: Figures.run in simulation mode                          *)
(* ------------------------------------------------------------------ *)

let sim_threads = [ 1; 2; 4; 8; 16; 32 ]
let sim_horizon = 6_000

(* One fig1-fig4 sweep: per-figure wall time, simulated thread-ticks
   and a digest of every result row (the simulator is deterministic, so
   the digest must not change between reps of one seed). *)
let sweep ~seed ~horizon =
  let figs =
    List.map
      (fun (spec : F.spec) ->
        let t0 = now () in
        let r = F.run ~threads_list:sim_threads ~seed ~mode:(F.Sim { horizon }) spec in
        (spec.id, now () -. t0, r))
      F.all
  in
  let thread_ticks =
    List.fold_left
      (fun acc (_, _, (r : F.result)) ->
        List.fold_left
          (fun acc (row : F.row) -> acc + (row.threads * horizon * List.length row.cells))
          acc r.rows)
      0 figs
  in
  let rows =
    String.concat ";"
      (List.concat_map
         (fun (id, _, (r : F.result)) ->
           List.map
             (fun (row : F.row) ->
               Printf.sprintf "%s/%d:%s" id row.threads
                 (String.concat ","
                    (List.map (fun (m, v) -> Printf.sprintf "%s=%h" m v) row.cells)))
             r.rows)
         figs)
  in
  let wall = List.fold_left (fun acc (_, t, _) -> acc +. t) 0. figs in
  (figs, float_of_int thread_ticks, Digest.to_hex (Digest.string rows), wall)

let sim_figures o =
  let seed = o.seed in
  let cells =
    List.length F.all * List.length sim_threads * List.length Tcm_core.Registry.paper_figures
  in
  Printf.printf "plan: fig1-fig4 sweeps, horizon %d, threads %s, for %.1f s (at least 3)\n%!"
    sim_horizon
    (String.concat "," (List.map string_of_int sim_threads))
    o.seconds;
  ignore (sweep ~seed ~horizon:(sim_horizon / 10));
  let digests = ref [] in
  let t_end = now () +. o.seconds in
  let reps = ref 0 in
  while !reps < (if o.quick then 1 else 3) || ((not o.quick) && now () < t_end) do
    settle ();
    (* Set-up: a sweep with nothing to simulate (one tick per cell) costs
       only building the policy line-up, the models and the engine
       state.  One before every sweep, so both sample the whole run. *)
    let _, _, _, setup = sweep ~seed ~horizon:1 in
    sample "setup_s" setup;
    (match sweep ~seed ~horizon:sim_horizon with
    | _, ticks, digest, wall ->
        sample "throughput" (ticks /. wall);
        sample "latency_us" (wall *. 1e6);
        Printf.printf "sweep %d: %.3f s, %.0f thread-ticks/s\n%!" !reps wall (ticks /. wall);
        digests := digest :: !digests;
        res.attempted <- res.attempted + cells
    | exception e ->
        res.attempted <- res.attempted + cells;
        res.failed <- res.failed + cells;
        check ("sim: a sweep raised " ^ Printexc.to_string e) false);
    incr reps
  done;
  let digest = match !digests with d :: _ -> d | [] -> "-" in
  check "sim: identical result rows on every rep" (List.for_all (String.equal digest) !digests);
  Printf.printf "%d sweeps, result digest %s\n%!" !reps digest;
  if o.trace then begin
    let (figs, ticks, d, wall), _, snap, gc =
      traced greedy (fun _ ->
          let (_, _, _, wall) as r = sweep ~seed ~horizon:sim_horizon in
          (r, wall))
    in
    check "sim: the traced sweep reproduces the untraced rows" (String.equal d digest);
    let commits = counter_sum snap ~name:Conv.n_commits ~runtime:"sim" in
    layer
      (List.map (fun (id, t, _) -> ("sim." ^ id ^ "_s", t)) figs
      @ [
          ("sim.commits", commits);
          ("sim.aborts", counter_sum snap ~name:Conv.n_aborts ~runtime:"sim");
          ( "trace.overhead_pct",
            overhead_pct ~better:Bench_stats.Higher ~untraced:(samples "throughput")
              (ticks /. wall) );
        ]
      @ gc_layer gc ~ops:commits)
  end

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("list-contended", list_contended);
    ("kv-hot", kv_workload kv_hot);
    ("kv-cold", kv_workload kv_cold);
    ("sim-figures", sim_figures);
  ]

(* Only a checkout that is itself a git repository has a revision; git
   is not asked to look further up the tree. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let rev = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when rev <> "" -> rev
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

(* Every digit, so no two runs read the same by rounding. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report o =
  let values =
    if o.trace then
      List.map
        (fun (name, unit) -> (name, unit, Option.value ~default:0. (List.assoc_opt name res.layer)))
        per_layer
    else
      List.map
        (fun (name, unit, stat) ->
          let xs = samples name in
          let q1, median, q3 = Bench_stats.quartiles xs in
          let v, what =
            match stat with
            | Median -> (median, "median")
            | Better_quartile Bench_stats.Higher -> (q3, "upper quartile")
            | Better_quartile Bench_stats.Lower -> (q1, "lower quartile")
          in
          Printf.printf "%-12s %16.6g %-4s  (%s)  q1 %.6g  median %.6g  q3 %.6g  spread %.1f%%  n=%d\n"
            name v unit what
            q1 median q3
            (100. *. Bench_stats.spread xs) (Array.length xs);
          (name, unit, v))
        end_to_end
  in
  if o.trace then
    List.iter (fun (name, unit, v) -> Printf.printf "%-26s %14.6g %s\n" name v unit) values;
  let correct = res.errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (max 1 res.attempted) res.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
          values));
  correct

(* ------------------------------------------------------------------ *)
(* compare: base runs against change runs                               *)
(* ------------------------------------------------------------------ *)

module Json = Tcm_workload.Report.Json

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  |> List.map Json.of_string

let metric_values docs name =
  Array.of_list
    (List.filter_map
       (fun d ->
         match Option.bind (Json.member "metrics" d) (Json.member name) with
         | Some m -> (
             match Json.member "value" m with
             | Some (Json.Float v) -> Some v
             | Some (Json.Int v) -> Some (float_of_int v)
             | _ -> None)
         | None -> None)
       docs)

let compare_cmd bench base change =
  let spec = Json.of_string (In_channel.with_open_text bench In_channel.input_all) in
  let base = read_lines base and change = read_lines change in
  let metrics = match Json.member "end_to_end" spec with Some (Json.Arr l) -> l | _ -> [] in
  let regressions = ref 0 in
  Printf.printf "%-12s %14s %14s %8s %8s  %s\n" "metric" "base median" "change median" "change"
    "bound" "verdict";
  List.iter
    (fun m ->
      let str k = match Json.member k m with Some (Json.Str s) -> s | _ -> "" in
      let bound = match Json.member "bound" m with Some (Json.Float b) -> b | _ -> 0. in
      let name = str "name" in
      let better = Bench_stats.better_of_string (str "better") in
      let b = metric_values base name and c = metric_values change name in
      if Array.length b > 0 && Array.length c > 0 then begin
        let v = Bench_stats.compare_runs ~better ~bound ~base:b ~change:c in
        if v = Bench_stats.Regression then incr regressions;
        let mb = Bench_stats.median b and mc = Bench_stats.median c in
        Printf.printf "%-12s %14.6g %14.6g %+7.1f%% %7.1f%%  %s (base spread %.1f%%, %d/%d runs)\n"
          name mb mc
          (100. *. (mc -. mb) /. Float.abs mb)
          (100. *. bound) (Bench_stats.verdict_name v)
          (100. *. Bench_stats.spread b) (Array.length b) (Array.length c)
      end)
    metrics;
  if !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "tcm_bench.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--check] [--quick]\n\
   tcm_bench.exe compare BENCHMARK.json BASE.jsonl CHANGE.jsonl"

(* Each workload in its own process, one after another. *)
let run_all argv =
  let ok =
    List.for_all
      (fun (name, _) ->
        let args =
          Array.mapi (fun i a -> if i > 0 && argv.(i - 1) = "--workload" then name else a) argv
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
      workloads
  in
  exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; bench; base; change ] -> compare_cmd bench base change
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
      let check_flag = ref false and quick = ref false in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, "NAME workload, or all");
          ("--seed", Arg.Set_int seed, "N seed every input is derived from");
          ("--seconds", Arg.Set_float seconds, "S measured seconds");
          ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
          ("--check", Arg.Set check_flag, " exit non-zero when an output check fails");
          ("--quick", Arg.Set quick, " one short rep per configuration (smoke test)");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        usage;
      if !workload = "all" then run_all Sys.argv;
      let f =
        match List.assoc_opt !workload workloads with
        | Some f -> f
        | None ->
            prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
            exit 2
      in
      if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline usage;
        exit 2
      end;
      let o =
        {
          workload = !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace = 1;
          check = !check_flag;
          quick = !quick;
        }
      in
      Printf.printf "# tcm_bench %s: seed %d, %.1f s measured, trace %d%s\n" o.workload o.seed
        o.seconds !trace (if o.quick then ", quick" else "");
      Printf.printf "# host: nproc %d, OCaml %s, rev %s\n%!" (Domain.recommended_domain_count ())
        Sys.ocaml_version (git_rev ());
      f o;
      sample "rss_peak_mb" (vm_hwm_mb ());
      let correct = report o in
      if o.check && not correct then exit 1
