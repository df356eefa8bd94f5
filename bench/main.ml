(** Benchmark harness: regenerates every figure and table of the paper
    plus the ablations called out in DESIGN.md.

    Sections (all printed to stdout):

    + Figures 1–4 — deterministic simulator reproduction (the primary
      one: live runs on a 2-vCPU host timeslice beyond two domains)
      and a live-STM reproduction on OCaml domains.
    + Section 4 table — the adversarial chain: greedy vs optimal
      makespan for growing [s].
    + Theorem 9 sweep — greedy makespan vs optimal list schedule on
      random instances.
    + Lemma 7 demo — scores of random partitions of G(m, s).
    + Ablations — fresh-vs-retained timestamps, greedy-vs-greedy-ft
      under the chain.

    Flags: [--quick] shrinks every sweep (used by CI/tests);
    [--no-real] skips the live-STM sweeps; [--json FILE] additionally
    writes the live-STM figure sweeps (throughput, p50/p99 latency,
    abort breakdown) as JSON — the perf-trajectory format committed as
    BENCH_*.json;
    [--trace FILE] captures tcm.trace event dumps of live-STM runs
    (writes greedy/backoff/aggressive as named sections of FILE,
    JSONL) and prints empirical pending-commit / cascade /
    wasted-work reports; [--metrics FILE]
    runs every registered manager on the list workload plus a short
    simulator sweep with tcm.metrics enabled, prints the contention
    health table and writes the snapshot + throughput windows to FILE
    (JSONL); [--seed N] seeds
    every live-STM workload (default 42) so captures reproduce;
    [--backend locator|tl2|both] selects the runtime backend(s) for
    the live-STM sections ("both" makes the JSON dump the
    locator-vs-TL2 head-to-head); [--service] runs the open-loop
    tcm.service KV sweep (bursty arrivals, Zipf keys, mixed classes)
    across the full manager registry on the selected backend(s),
    prints the per-class SLO table and adds [kind = "service"] figure
    entries to the JSON dump.  [--service] runs even under
    [--no-real]; combined with [--no-real], the JSON dump carries only
    the service figures — the smoke-test configuration.  [--obs]
    (implies [--service]) runs the sweep with tcm.obs enabled: prints
    the priced wasted-work ranking of the manager zoo, the hot-key
    tables and the ledger-vs-metrics reconciliation, and adds
    [kind = "obs"] attribution entries to the JSON dump.  [--consult]
    runs the consult-path microbench (ns + minor words per resolve for
    every manager, rows per backend) and adds [kind = "consult"]
    entries to the JSON dump.  Any other argument prints the usage and
    exits 2. *)

open Tcm_workload

let usage =
  "usage: main.exe [--quick] [--no-real] [--service] [--obs] [--consult] [--seed N]\n\
  \                [--backend locator|tl2|both] [--json FILE] [--trace FILE] [--metrics FILE]"

(* A mistyped flag must not be ignored: it would cost a full run of
   the wrong configuration. *)
let () =
  let switches = [ "--quick"; "--no-real"; "--service"; "--obs"; "--consult" ]
  and valued = [ "--seed"; "--backend"; "--json"; "--trace"; "--metrics" ] in
  let rec scan i =
    if i < Array.length Sys.argv then
      let a = Sys.argv.(i) in
      if List.mem a switches then scan (i + 1)
      else if List.mem a valued then scan (i + 2)
      else begin
        Printf.eprintf "bench: unknown argument %S\n%s\n" a usage;
        exit 2
      end
  in
  scan 1

let quick = Array.exists (( = ) "--quick") Sys.argv
let no_real = Array.exists (( = ) "--no-real") Sys.argv
let with_obs = Array.exists (( = ) "--obs") Sys.argv

(* --obs rides on the service sweep (that is where transaction classes
   exist), so asking for it implies the sweep. *)
let with_service = with_obs || Array.exists (( = ) "--service") Sys.argv

(* --consult: the consult-path microbench (ns + minor words per
   resolve, every manager, one row set per backend label); prints the
   table and adds [kind = "consult"] entries to the JSON dump. *)
let with_consult = Array.exists (( = ) "--consult") Sys.argv

(* Fail fast on a flag with a missing argument: silently dropping
   --json or --trace would cost a full run and write nothing. *)
let flag_value name =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
      else begin
        Printf.eprintf "bench: %s requires an argument\n" name;
        exit 2
      end
    else find (i + 1)
  in
  find 1

let json_path = flag_value "--json"
let trace_path = flag_value "--trace"
let metrics_path = flag_value "--metrics"

let seed =
  match flag_value "--seed" with
  | None -> 42
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          Printf.eprintf "bench: --seed requires an integer, got %S\n" s;
          exit 2)

(* Which runtime backend(s) the live-STM sections run on.  "both"
   doubles the real-mode sweeps and gives the JSON dump one figure
   entry per (figure, backend) pair — the locator-vs-TL2 head-to-head.
   The simulator sections are unaffected (the sim models the locator
   protocol). *)
let backends =
  match flag_value "--backend" with
  | None | Some "locator" -> [ Tcm_stm.Stm.Locator ]
  | Some "tl2" -> [ Tcm_stm.Stm.Tl2_backend ]
  | Some "both" -> Tcm_stm.Stm.all_backends
  | Some b ->
      Printf.eprintf "bench: --backend must be locator, tl2 or both, got %S\n" b;
      exit 2

let fmt = Format.std_formatter

let section title =
  Format.fprintf fmt "@.=====================================================@.";
  Format.fprintf fmt "  %s@." title;
  Format.fprintf fmt "=====================================================@.@."

(* ------------------------------------------------------------------ *)
(* Figures 1-4                                                         *)
(* ------------------------------------------------------------------ *)

let sim_threads = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 24; 32 ]
let sim_horizon = if quick then 2_000 else 6_000

let run_sim_figures () =
  section "Figures 1-4 (simulator; committed txns / 1000 ticks)";
  List.iter
    (fun spec ->
      let r =
        Figures.run ~threads_list:sim_threads ~seed
          ~mode:(Figures.Sim { horizon = sim_horizon })
          spec
      in
      Report.print_figure fmt r;
      let ws = Report.winners r in
      Format.fprintf fmt "best manager per thread count: %s@.@."
        (String.concat ", " (List.map (fun (t, n) -> Printf.sprintf "%d->%s" t n) ws)))
    Figures.all

let real_threads = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]
let real_duration = if quick then 0.05 else 0.15

let run_real_figures () =
  List.iter
    (fun backend ->
      section
        (Printf.sprintf
           "Figures 1-4 (live STM on domains, %s backend; %d-thread sweep)"
           (Tcm_stm.Stm.backend_name backend)
           (List.length real_threads));
      List.iter
        (fun spec ->
          let r =
            Figures.run ~threads_list:real_threads ~seed ~backend
              ~mode:(Figures.Real { duration_s = real_duration })
              spec
          in
          Report.print_figure fmt r)
        Figures.all)
    backends

(* ------------------------------------------------------------------ *)
(* Theory tables                                                       *)
(* ------------------------------------------------------------------ *)

let run_adversarial_table () =
  section "Section 4 example: greedy vs optimal on the chain instance";
  Format.fprintf fmt "%6s %16s %16s %8s %24s@." "s" "greedy makespan" "optimal makespan" "ratio"
    "theorem-9 factor s(s+1)+2";
  let granularity = 2 in
  List.iter
    (fun s ->
      let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~granularity ~s () in
      let r = Tcm_sim.Engine.run_instance ~ranks ~manager:(module Tcm_core.Greedy) inst in
      let greedy = Option.value r.Tcm_sim.Engine.makespan ~default:(-1) in
      let optimal = granularity * Tcm_sched.Adversarial.optimal_makespan ~s in
      Format.fprintf fmt "%6d %16d %16d %8.2f %24d@." s greedy optimal
        (float_of_int greedy /. float_of_int optimal)
        (Tcm_sched.Bounds.pending_commit_factor ~s))
    (if quick then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 6; 8; 12; 16 ]);
  Format.fprintf fmt
    "@.(paper: greedy needs s+1 time units where an optimal list schedule needs 2;@.";
  Format.fprintf fmt " one time unit = 2 ticks here)@.@."

let run_theorem9_sweep () =
  section "Theorem 9 sweep: greedy makespan vs optimal list schedule (random instances)";
  let trials = if quick then 20 else 200 in
  let worst = ref 0. in
  let violations = ref 0 in
  List.iter
    (fun (n, s) ->
      for seed = 1 to trials do
        let inst = Tcm_sim.Scenarios.random_instance ~seed ~n ~s () in
        let r = Tcm_sim.Engine.run_instance ~manager:(module Tcm_core.Greedy) inst in
        let rep = Tcm_sim.Props.theorem9_check ~inst r in
        if not rep.Tcm_sim.Props.ok then incr violations;
        if rep.Tcm_sim.Props.optimal > 0 then
          worst :=
            Float.max !worst
              (float_of_int rep.Tcm_sim.Props.measured
              /. float_of_int rep.Tcm_sim.Props.optimal)
      done)
    [ (4, 2); (5, 3); (6, 4) ];
  Format.fprintf fmt "instances: %d   violations of the s(s+1)+2 bound: %d@." (3 * trials)
    !violations;
  Format.fprintf fmt "worst measured/optimal ratio: %.2f (bound at s=4: %d)@.@." !worst
    (Tcm_sched.Bounds.pending_commit_factor ~s:4)

let run_lemma7_demo () =
  section "Lemma 7: scores of random partitions of G(m, s)";
  let open Tcm_sched in
  List.iter
    (fun (m, s) ->
      let g = Graph.g_m_s ~m ~s in
      let rng = Tcm_stm.Splitmix.create ((m * 31) + s) in
      let worst = ref max_int in
      let rounds = if quick then 5 else 25 in
      for _ = 1 to rounds do
        let parts = Graph.partition_edges g s (fun _ _ -> Tcm_stm.Splitmix.int rng s) in
        let max_x2, _ = Labeling.lemma7_check ~m parts in
        worst := min !worst max_x2
      done;
      Format.fprintf fmt
        "G(%d,%d): min over %d partitions of max_i S(H_i) = %.1f (lemma: >= %d)@." m s rounds
        (float_of_int !worst /. 2.)
        m)
    [ (2, 2); (3, 2); (2, 3) ];
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  section "Ablation: timestamps retained across aborts vs refreshed (Theorem 1)";
  (* One long transaction competing with seven streams of short ones on
     a hot object.  Retention bounds the long transaction's restarts by
     the number of concurrent competitors; refreshing starves it. *)
  let horizon = if quick then 2_000 else 8_000 in
  let long_dur = 32 and short_dur = 2 in
  let streams =
    Array.init 8 (fun tid ->
        if tid = 0 then fun _ -> Some (Tcm_sim.Spec.txn ~dur:long_dur [ Tcm_sim.Spec.write ~at:0 ~obj:0 ])
        else fun _ -> Some (Tcm_sim.Spec.txn ~dur:short_dur [ Tcm_sim.Spec.write ~at:0 ~obj:0 ]))
  in
  List.iter
    (fun (label, ts) ->
      let r =
        Tcm_sim.Engine.run ~horizon ~ts_on_restart:ts ~manager:(module Tcm_core.Greedy)
          ~n_objects:1 streams
      in
      Format.fprintf fmt
        "  greedy/%-22s long-txn commits=%4d  worst-restarts-of-one-txn=%5d  total commits=%5d@."
        label
        r.Tcm_sim.Engine.per_thread_commits.(0)
        r.Tcm_sim.Engine.max_aborts_one_txn r.Tcm_sim.Engine.commits)
    [ ("retained (paper)", `Keep); ("refreshed on restart", `Fresh) ];
  Format.fprintf fmt
    "  (retention bounds any transaction's restarts by its older competitors — Theorem 1;@.";
  Format.fprintf fmt "   refreshing starves the long transaction)@.@.";

  section "Section 6: progress with halted transactions";
  (* Thread 0 halts while holding the hot object; three short
     transactions need it.  Rule 2's unbounded wait dooms pure greedy;
     greedy-ft's doubling timeout recovers, as do the timeout-based
     Scherer-Scott managers. *)
  let inst = Tcm_sim.Scenarios.halted_owner ~n:4 () in
  List.iter
    (fun name ->
      let r =
        Tcm_sim.Engine.run_instance ~horizon:20_000
          ~manager:(Tcm_core.Registry.find_exn name) inst
      in
      Format.fprintf fmt "  %-12s survivors-committed=%d/3 finished=%b@."
        r.Tcm_sim.Engine.manager_name r.Tcm_sim.Engine.commits r.Tcm_sim.Engine.completed)
    [ "greedy"; "greedy-ft"; "timestamp"; "killblocked"; "aggressive" ];
  Format.fprintf fmt "@.";

  section "Ablation: greedy vs greedy-ft on the chain (no failures)";
  List.iter
    (fun s ->
      let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~s () in
      let m manager =
        let r = Tcm_sim.Engine.run_instance ~ranks ~manager inst in
        Option.value r.Tcm_sim.Engine.makespan ~default:(-1)
      in
      Format.fprintf fmt "  s=%2d greedy=%4d greedy-ft=%4d@." s
        (m (module Tcm_core.Greedy))
        (m (module Tcm_core.Greedy_ft)))
    (if quick then [ 4 ] else [ 4; 8; 12 ]);
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Update-rate sweep (live STM)                                        *)
(* ------------------------------------------------------------------ *)

let run_update_rate_sweep () =
  section "Ablation: update rate (live STM, rbtree, 4 domains; the paper fixes 100 %)";
  Format.fprintf fmt "%-14s %12s %12s %12s@." "manager" "0% upd" "50% upd" "100% upd";
  List.iter
    (fun manager ->
      let cell update_pct =
        let cfg =
          {
            Harness.default with
            structure = Harness.Rbtree_s;
            manager;
            threads = 4;
            duration_s = real_duration;
            seed;
            update_pct;
          }
        in
        (Harness.run cfg).Harness.throughput
      in
      Format.fprintf fmt "%-14s %12.0f %12.0f %12.0f@."
        (Tcm_stm.Cm_intf.name manager)
        (cell 0) (cell 50) (cell 100))
    Tcm_core.Registry.paper_figures;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Latency table (live STM)                                            *)
(* ------------------------------------------------------------------ *)

let run_latency_table () =
  section "Transaction latency by manager (live STM, skiplist, 4 domains)";
  Format.fprintf fmt "%-14s %10s %12s %12s %8s@." "manager" "commits/s" "p50 (us)"
    "p99 (us)" "aborts";
  List.iter
    (fun manager ->
      let cfg =
        {
          Harness.default with
          structure = Harness.Skiplist_s;
          manager;
          threads = 4;
          duration_s = real_duration;
          seed;
        }
      in
      let o = Harness.run cfg in
      Format.fprintf fmt "%-14s %10.0f %12.1f %12.1f %8d@."
        (Tcm_stm.Cm_intf.name manager)
        o.Harness.throughput o.Harness.latency_p50_us o.Harness.latency_p99_us
        o.Harness.aborts)
    (if quick then Tcm_core.Registry.paper_figures else Tcm_core.Registry.all);
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Open problems (Section 6)                                           *)
(* ------------------------------------------------------------------ *)

(* Greedy, karma and aggressive: the small simulator line-up used by
   the sequence experiment and the metrics capture. *)
let sim_trio : Tcm_stm.Cm_intf.factory list =
  [ (module Tcm_core.Greedy); (module Tcm_core.Karma); (module Tcm_core.Aggressive) ]

let run_open_problems () =
  section "Open problem: randomized priorities on the adversarial chain";
  (* The chain is crafted against arrival-order priorities.  Random
     ranks (retained across aborts) keep the pending-commit property
     but randomize which cascades are possible: the expected makespan
     drops well below s+1 while the worst case stays bounded. *)
  let s = if quick then 6 else 10 in
  let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~s () in
  let greedy_m =
    let r = Tcm_sim.Engine.run_instance ~ranks ~manager:(module Tcm_core.Greedy) inst in
    Option.value r.Tcm_sim.Engine.makespan ~default:(-1)
  in
  let trials = if quick then 10 else 50 in
  let rand_ms =
    List.init trials (fun seed ->
        let r =
          Tcm_sim.Engine.run_instance ~ranks ~seed
            ~manager:(module Tcm_core.Randomized_greedy) inst
        in
        float_of_int (Option.value r.Tcm_sim.Engine.makespan ~default:(-1)))
  in
  Format.fprintf fmt "  s=%d  greedy(arrival order) makespan=%d ticks@." s greedy_m;
  Format.fprintf fmt
    "  rand-greedy over %d seeds: mean=%.1f  median=%.1f  max=%.1f  (optimal=4)@." trials
    (Tcm_dist.Stats.mean rand_ms)
    Tcm_dist.Stats.Sample.(percentile (of_list rand_ms) 50.)
    (List.fold_left Float.max 0. rand_ms);
  Format.fprintf fmt "@.";

  section "Open problem: threads running sequences of transactions";
  (* The paper leaves multi-transaction threads unanalysed; we measure
     greedy's makespan for k transactions per thread against the
     work-conservation lower bound (total work on the hottest object). *)
  let threads = 6 and k = if quick then 5 else 20 in
  let dur = 4 in
  let streams =
    Array.init threads (fun tid ->
        fun idx ->
         if idx >= k then None
         else
           (* Alternate between a hot object and a private one. *)
           let obj = if (tid + idx) mod 2 = 0 then 0 else 1 + tid in
           Some (Tcm_sim.Spec.txn ~dur [ Tcm_sim.Spec.write ~at:0 ~obj ]))
  in
  List.iter
    (fun manager ->
      let r = Tcm_sim.Engine.run ~manager ~n_objects:(threads + 1) streams in
      let hot_work = threads * k / 2 * dur in
      match r.Tcm_sim.Engine.makespan with
      | Some m ->
          Format.fprintf fmt "  %-12s makespan=%5d ticks  hot-object lower bound=%d  ratio=%.2f@."
            r.Tcm_sim.Engine.manager_name m hot_work
            (float_of_int m /. float_of_int hot_work)
      | None -> Format.fprintf fmt "  %-12s did not finish@." r.Tcm_sim.Engine.manager_name)
    sim_trio;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Open-loop service sweep (--service)                                 *)
(* ------------------------------------------------------------------ *)

(* Bursty on/off arrivals: the base rate is comfortably sustainable on
   one worker, the burst overdrives the admission queue so
   overload shows up as queueing delay and sheds, not as a slower
   generator. *)
let service_process =
  Tcm_service.Arrival.Bursty
    {
      base_rate = 1_200.;
      burst_rate = 4_000.;
      period_s = (if quick then 0.06 else 0.2);
      burst_frac = 0.25;
    }

let service_config ~backend ~manager =
  {
    Tcm_service.Service.default with
    backend;
    manager;
    duration_s = (if quick then 0.12 else 0.4);
    process = service_process;
    queue_cap = 256;
    n_keys = (if quick then 2_048 else 8_192);
    seed;
  }

let service_summaries : Tcm_service.Service.summary list ref = ref []

let obs_figures : (Tcm_obs.Ledger.row * Tcm_obs.Sketch.entry list) list ref =
  ref []

(* Conflict attribution for the sweep that just ran: the priced
   wasted-work ranking of the manager zoo and the hot-key tables. *)
let report_obs () =
  let rows =
    List.sort
      (fun a b -> compare (Tcm_obs.Ledger.price b) (Tcm_obs.Ledger.price a))
      (Tcm_obs.Ledger.rows ())
  in
  let hot = Tcm_obs.Hot.snapshot () in
  let hot_for (r : Tcm_obs.Ledger.row) =
    match
      List.find_opt
        (fun ((f : Tcm_obs.Hot.family), _) ->
          f.backend = r.Tcm_obs.Ledger.backend
          && f.manager = r.Tcm_obs.Ledger.manager
          && f.runtime = r.Tcm_obs.Ledger.runtime)
        hot
    with
    | Some (_, entries) -> entries
    | None -> []
  in
  Format.fprintf fmt
    "conflict attribution (rows ranked by price = wasted opens + wait ticks)@.";
  Tcm_obs.Ledger.pp fmt rows;
  Tcm_obs.Hot.pp fmt (Tcm_obs.Hot.top ());
  Format.fprintf fmt "@.";
  obs_figures := List.map (fun r -> (r, hot_for r)) rows

let run_service_sweep () =
  section
    (Printf.sprintf
       "tcm.service: open-loop KV sweep (%s; Zipf theta=%.2f; %s)"
       (Tcm_service.Arrival.describe service_process)
       Tcm_service.Service.default.Tcm_service.Service.theta
       (String.concat "+" (List.map Tcm_stm.Stm.backend_name backends)));
  (* Metrics on for the whole sweep so the per-class SLO table below
     covers every (backend, manager, class) triple from one snapshot;
     the switch arms the ledger and hot keys too. *)
  Tcm_obs.reset ();
  Tcm_metrics.enable ();
  let summaries =
    List.concat_map
      (fun backend ->
        List.map
          (fun manager ->
            let s =
              Tcm_service.Service.run (service_config ~backend ~manager)
            in
            Format.fprintf fmt "%a@." Tcm_service.Service.pp_summary s;
            s)
          Tcm_core.Registry.all)
      backends
  in
  (* The open-loop sweep above only contends when worker domains truly
     overlap; with one worker per vCPU it prices mostly clean runs.  The
     deterministic simulator contends by construction, so with --obs
     we also sweep the whole manager zoo over the fig1 list model —
     the priced ranking in EXPERIMENTS.md reads from the resulting
     runtime=sim ledger rows (same tick currency). *)
  if with_obs then begin
    Format.fprintf fmt
      "(tcm.obs: pricing the manager zoo on the sim list model, %d threads, \
       horizon %d)@.@."
      16 sim_horizon;
    List.iter
      (fun manager ->
        ignore
          (Sim_load.run ~horizon:sim_horizon ~seed ~threads:16 ~manager
             Sim_load.list_model))
      Tcm_core.Registry.simulated
  end;
  Tcm_metrics.disable ();
  let snap = Tcm_metrics.snapshot () in
  Tcm_metrics.Health.pp_slo fmt (Tcm_metrics.Health.slo_rows snap);
  Format.fprintf fmt "@.";
  if with_obs then report_obs ();
  service_summaries := summaries

(* ------------------------------------------------------------------ *)
(* Offered-load rate ladder (rides on --service)                       *)
(* ------------------------------------------------------------------ *)

let ladder_curves : Tcm_service.Ladder.curve list ref = ref []

(* Saturation sweep: fixed-rate Poisson rungs rising past the knee on
   every backend × manager pair.  Quick mode runs the 3-rung
   mini-ladder on greedy only (the smoke configuration); full mode
   runs the 8-rung ladder over the paper's five managers. *)
let run_rate_ladder () =
  let rates =
    if quick then Tcm_service.Ladder.quick_rates
    else Tcm_service.Ladder.default_rates
  in
  let managers =
    if quick then [ Tcm_core.Registry.find_exn "greedy" ]
    else Tcm_core.Registry.paper_figures
  in
  section
    (Printf.sprintf
       "tcm.service: offered-load rate ladder (%d rungs, %.0f -> %.0f rps; \
        knee = first rung under %.0f%% attainment)"
       (Array.length rates) rates.(0)
       rates.(Array.length rates - 1)
       (100. *. Tcm_service.Ladder.knee_threshold));
  Format.fprintf fmt "%-8s %-14s %10s %12s %12s %12s %8s %8s@." "backend"
    "manager" "rps" "attainment" "p50 (us)" "p99 (us)" "dropped" "spills";
  let curves =
    List.concat_map
      (fun backend ->
        List.map
          (fun manager ->
            let cfg = service_config ~backend ~manager in
            let c = Tcm_service.Ladder.run ~rates cfg in
            List.iter
              (fun (r : Tcm_service.Ladder.rung) ->
                let s = r.Tcm_service.Ladder.summary in
                Format.fprintf fmt "%-8s %-14s %10.0f %11.1f%% %12.1f %12.1f %8d %8d@."
                  c.Tcm_service.Ladder.backend c.Tcm_service.Ladder.manager
                  r.Tcm_service.Ladder.offered_rps
                  (100. *. Tcm_service.Ladder.attainment s)
                  s.Tcm_service.Service.p50_us s.Tcm_service.Service.p99_us
                  s.Tcm_service.Service.dropped s.Tcm_service.Service.queue_spills)
              c.Tcm_service.Ladder.rungs;
            (match c.Tcm_service.Ladder.knee_rps with
            | Some r ->
                Format.fprintf fmt "  -> knee: %s/%s saturates at %.0f rps@."
                  c.Tcm_service.Ladder.backend c.Tcm_service.Ladder.manager r
            | None ->
                Format.fprintf fmt
                  "  -> no knee: %s/%s held its SLOs on every rung@."
                  c.Tcm_service.Ladder.backend c.Tcm_service.Ladder.manager);
            c)
          managers)
      backends
  in
  Format.fprintf fmt "@.";
  ladder_curves := curves

(* ------------------------------------------------------------------ *)
(* Consult-path microbench (--consult)                                 *)
(* ------------------------------------------------------------------ *)

let consult_figures : Consult_cost.row list ref = ref []

let run_consult_probe () =
  section "Consult-path cost (ns / minor words per resolve)";
  let iters = if quick then 50_000 else 200_000 in
  let rows = Consult_cost.measure_all ~iters () in
  Format.fprintf fmt "  %-10s %-14s %12s %14s@." "backend" "manager" "ns"
    "minor words";
  List.iter
    (fun (r : Consult_cost.row) ->
      Format.fprintf fmt "  %-10s %-14s %12.1f %14.4f@." r.Consult_cost.backend
        r.Consult_cost.manager r.Consult_cost.ns_per_resolve
        r.Consult_cost.minor_words_per_resolve)
    rows;
  (match Consult_cost.check rows with
  | [] -> Format.fprintf fmt "  (all managers within the @cm-smoke gates)@."
  | violations ->
      List.iter
        (fun v -> Format.fprintf fmt "  GATE VIOLATION: %s@." v)
        violations);
  Format.fprintf fmt "@.";
  consult_figures := rows

(* ------------------------------------------------------------------ *)
(* JSON dump (--json FILE)                                             *)
(* ------------------------------------------------------------------ *)

let run_json_dump path =
  section (Printf.sprintf "JSON dump (live-STM detailed sweeps) -> %s" path);
  (* Open the output before the sweeps so a bad path fails fast, not
     after minutes of measurement. *)
  let oc = open_out path in
  (* Under --no-real the closed-loop sweeps are skipped: the dump then
     carries only the service figures — the fast @service-smoke
     configuration. *)
  let figures =
    if no_real then []
    else
      List.concat_map
        (fun backend ->
          List.map
            (fun spec ->
              ( spec,
                Tcm_stm.Stm.backend_name backend,
                Figures.run_real_detailed ~threads_list:real_threads ~seed ~backend
                  ~duration_s:real_duration spec ))
            Figures.all)
        backends
  in
  let doc =
    Report.bench_json ~service_figures:!service_summaries
      ~obs_figures:!obs_figures ~consult_figures:!consult_figures
      ~ladder_figures:!ladder_curves
      ~mode:(if quick then "quick" else "full")
      ~duration_s:real_duration ~seed figures
  in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s (%d bytes)@.@." path (String.length doc + 1)

(* ------------------------------------------------------------------ *)
(* Event traces (--trace FILE)                                         *)
(* ------------------------------------------------------------------ *)

let run_trace_capture path =
  section (Printf.sprintf "Event traces (tcm.trace) -> %s" path);
  (* Live STM: the same list workload under three managers, on the
     locator backend, whose visible reads route every read-write
     conflict through the manager. *)
  let capture manager =
    Tcm_trace.Sink.start ();
    let cfg =
      {
        Harness.default with
        structure = Harness.List_s;
        manager;
        threads = 4;
        duration_s = real_duration;
        seed;
      }
    in
    ignore (Harness.run cfg);
    Tcm_trace.Sink.stop ();
    (Tcm_trace.Sink.collect (), Tcm_trace.Sink.drops ())
  in
  Format.fprintf fmt "%-12s %8s %6s %9s %10s %11s %11s %13s@." "manager" "events"
    "drops" "conflicts" "violations" "undecidable" "max-cascade" "wasted-opens";
  (* All three managers land in one file as named sections, so the
     analyzer's per-manager breakdown (tcm_trace.exe stats) has
     something to chew on. *)
  let oc = open_out path in
  List.iter
    (fun name ->
      let manager = Tcm_core.Registry.find_exn name in
      let trace, drops = capture manager in
      let pc = Tcm_trace.Analysis.pending_commit trace in
      let ca = Tcm_trace.Analysis.cascades trace in
      let p = Tcm_trace.Analysis.price trace in
      Format.fprintf fmt "%-12s %8d %6d %9d %10d %11d %11d %6d/%-6d@." name
        (Array.length trace) drops pc.Tcm_trace.Analysis.conflicts
        pc.Tcm_trace.Analysis.violations pc.Tcm_trace.Analysis.undecidable
        ca.Tcm_trace.Analysis.max_cascade p.Tcm_trace.Analysis.work_wasted
        p.Tcm_trace.Analysis.work_total;
      Tcm_trace.Export.output_jsonl ~drops ~manager:name oc trace)
    [ "greedy"; "backoff"; "aggressive" ];
  close_out oc;
  Format.fprintf fmt
    "(3 manager sections -> %s; analyze with bin/tcm_trace.exe)@.@." path;

  (* Deterministic simulator captures: greedy on the Section 4 chain
     holds pending-commit and the Theorem 9 bound; aggressive on a
     symmetric duel livelocks and violates it at every decided conflict. *)
  let s = 6 in
  let granularity = 2 in
  let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~granularity ~s () in
  Tcm_trace.Sink.start ();
  ignore (Tcm_sim.Engine.run_instance ~ranks ~manager:(module Tcm_core.Greedy) inst);
  Tcm_trace.Sink.stop ();
  let chain = Tcm_trace.Sink.collect () in
  let pc = Tcm_trace.Analysis.pending_commit chain in
  let mk =
    Tcm_trace.Analysis.makespan_report
      ~optimal:(granularity * Tcm_sched.Adversarial.optimal_makespan ~s)
      ~bound_factor:(Tcm_sched.Bounds.pending_commit_factor ~s)
      chain
  in
  Format.fprintf fmt
    "sim chain (greedy, s=%d): conflicts=%d violations=%d makespan=%d optimal=%d \
     ratio=%.2f bound=%d -> %s@."
    s pc.Tcm_trace.Analysis.conflicts pc.Tcm_trace.Analysis.violations
    mk.Tcm_trace.Analysis.measured mk.Tcm_trace.Analysis.optimal
    mk.Tcm_trace.Analysis.ratio mk.Tcm_trace.Analysis.bound_factor
    (if mk.Tcm_trace.Analysis.within_bound then "within" else "EXCEEDED");
  Tcm_trace.Sink.start ();
  let duel =
    Array.init 2 (fun _ ->
        fun _ -> Some (Tcm_sim.Spec.txn ~dur:3 [ Tcm_sim.Spec.write ~at:0 ~obj:0 ]))
  in
  ignore
    (Tcm_sim.Engine.run ~horizon:60 ~manager:(module Tcm_core.Aggressive)
       ~n_objects:1 duel);
  Tcm_trace.Sink.stop ();
  let duel_tr = Tcm_trace.Sink.collect () in
  let pc2 = Tcm_trace.Analysis.pending_commit duel_tr in
  Format.fprintf fmt
    "sim duel (aggressive livelock): conflicts=%d violations=%d (expected: a \
     non-pending-commit manager)@.@."
    pc2.Tcm_trace.Analysis.conflicts pc2.Tcm_trace.Analysis.violations

(* ------------------------------------------------------------------ *)
(* Metrics capture (--metrics FILE)                                    *)
(* ------------------------------------------------------------------ *)

let run_metrics_capture path =
  section (Printf.sprintf "Metrics capture (tcm.metrics) -> %s" path);
  Tcm_metrics.reset ();
  Tcm_metrics.enable ();
  let sampler = Tcm_metrics.Sampler.create ~period_s:0.02 () in
  Tcm_metrics.Sampler.force sampler;
  (* Live STM: every registered manager on the list workload, so the
     health report covers the whole registry from one capture. *)
  List.iter
    (fun manager ->
      let cfg =
        {
          Harness.default with
          structure = Harness.List_s;
          manager;
          threads = 2;
          duration_s = real_duration;
          seed;
        }
      in
      ignore (Harness.run ~poll:(fun () -> Tcm_metrics.Sampler.poll sampler) cfg))
    Tcm_core.Registry.all;
  (* Simulator: the same instrument names under runtime="sim" (ticks),
     so live and simulated behaviour line up in one snapshot. *)
  List.iter
    (fun manager ->
      let streams =
        Array.init 4 (fun tid ->
            fun idx ->
             if idx >= 20 then None
             else
               let obj = if (tid + idx) mod 2 = 0 then 0 else 1 + tid in
               Some (Tcm_sim.Spec.txn ~dur:3 [ Tcm_sim.Spec.write ~at:0 ~obj ]))
      in
      ignore (Tcm_sim.Engine.run ~horizon:5_000 ~manager ~n_objects:5 streams))
    sim_trio;
  Tcm_metrics.Sampler.force sampler;
  Tcm_metrics.disable ();
  let snap = Tcm_metrics.snapshot () in
  let windows = Tcm_metrics.Sampler.windows sampler in
  Tcm_metrics.Health.pp fmt (Tcm_metrics.Health.rows snap);
  Tcm_metrics.Export.write_jsonl ~windows path snap;
  Format.fprintf fmt "@.wrote %s (%d series, %d windows; analyze with bin/tcm_metrics.exe)@.@."
    path
    (List.length snap.Tcm_metrics.Snapshot.entries)
    (List.length windows)

let () =
  Format.fprintf fmt "tcm benchmark harness (%s mode)@." (if quick then "quick" else "full");
  run_sim_figures ();
  if not no_real then run_real_figures ();
  run_adversarial_table ();
  run_theorem9_sweep ();
  run_lemma7_demo ();
  run_ablations ();
  run_open_problems ();
  if not no_real then begin
    run_update_rate_sweep ();
    run_latency_table ()
  end;
  if with_service then begin
    run_service_sweep ();
    run_rate_ladder ()
  end;
  if with_consult then run_consult_probe ();
  Option.iter run_trace_capture trace_path;
  Option.iter run_metrics_capture metrics_path;
  Option.iter run_json_dump json_path;
  Format.fprintf fmt "done.@."
