(** Plain-text rendering of figure sweeps and theory tables, printed in
    the same layout as the paper's plots (threads on the x-axis, one
    series per contention manager). *)

let float_to_string v =
  if v >= 10_000. then Printf.sprintf "%.0f" v
  else if v >= 100. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let print_figure fmt (r : Figures.result) =
  let mode_label =
    match r.Figures.mode with
    | Figures.Real { duration_s } -> Printf.sprintf "real, %.2fs per point" duration_s
    | Figures.Sim { horizon } -> Printf.sprintf "sim, %d ticks per point" horizon
  in
  Format.fprintf fmt "== %s: %s (%s; %s) ==@." r.Figures.spec.Figures.id
    r.Figures.spec.Figures.title mode_label r.Figures.unit_label;
  (match r.Figures.rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf fmt "%8s" "threads";
      List.iter (fun (name, _) -> Format.fprintf fmt " %12s" name) first.Figures.cells;
      Format.fprintf fmt "@.";
      List.iter
        (fun row ->
          Format.fprintf fmt "%8d" row.Figures.threads;
          List.iter
            (fun (_, v) -> Format.fprintf fmt " %12s" (float_to_string v))
            row.Figures.cells;
          Format.fprintf fmt "@.")
        r.Figures.rows);
  Format.fprintf fmt "@."

(** Winner per thread count — handy for eyeballing shape claims. *)
let winners (r : Figures.result) : (int * string) list =
  List.map
    (fun row ->
      let name, _ =
        List.fold_left
          (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
          ("", neg_infinity) row.Figures.cells
      in
      (row.Figures.threads, name))
    r.Figures.rows

let print_kv_table fmt ~title rows =
  Format.fprintf fmt "== %s ==@." title;
  List.iter (fun (k, v) -> Format.fprintf fmt "  %-40s %s@." k v) rows;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* JSON rendering (the bench's machine-readable trajectory dump)       *)
(* ------------------------------------------------------------------ *)

module Json = Tcm_json

let json_of_outcome (o : Harness.outcome) : Json.t =
  let s = o.Harness.stats in
  Json.Obj
    [
      ("throughput", Json.Float o.Harness.throughput);
      ("commits", Json.Int o.Harness.commits);
      ("aborts", Json.Int o.Harness.aborts);
      ("conflicts", Json.Int o.Harness.conflicts);
      ("latency_p50_us", Json.Float o.Harness.latency_p50_us);
      ("latency_p99_us", Json.Float o.Harness.latency_p99_us);
      (* GC allocation during the measurement window (each worker
         domain's own Gc.counters delta, summed). *)
      ("minor_words", Json.Float o.Harness.minor_words);
      ("major_words", Json.Float o.Harness.major_words);
      ("enemy_aborts", Json.Int s.Tcm_stm.Runtime.n_enemy_aborts);
      ("self_aborts", Json.Int s.Tcm_stm.Runtime.n_self_aborts);
      ("blocks", Json.Int s.Tcm_stm.Runtime.n_blocks);
      ("backoffs", Json.Int s.Tcm_stm.Runtime.n_backoffs);
      ("elapsed_s", Json.Float o.Harness.elapsed_s);
    ]

let json_of_detailed_figure ~backend (spec : Figures.spec)
    (rows : Figures.detailed_row list) : Json.t =
  Json.Obj
    [
      ("id", Json.Str spec.Figures.id);
      ("title", Json.Str spec.Figures.title);
      (* Figure entries carry a "kind" discriminator so readers can
         tell closed-loop sweeps from the other entries without
         sniffing fields. *)
      ("kind", Json.Str "sweep");
      (* The runtime backend that executed this sweep
         ("locator" | "tl2").  One figure entry per (figure, backend)
         pair, so a dump can carry the head-to-head comparison. *)
      ("backend", Json.Str backend);
      ("structure", Json.Str (Harness.structure_name spec.Figures.structure));
      ("post_work", Json.Int spec.Figures.post_work);
      ( "rows",
        Json.Arr
          (List.map
             (fun (r : Figures.detailed_row) ->
               Json.Obj
                 [
                   ("threads", Json.Int r.Figures.d_threads);
                   ( "managers",
                     Json.Arr
                       (List.map
                          (fun (name, o) ->
                            match json_of_outcome o with
                            | Json.Obj kvs -> Json.Obj (("name", Json.Str name) :: kvs)
                            | j -> j)
                          r.Figures.outcomes) );
                 ])
             rows) );
    ]

let json_of_class_stats (c : Tcm_service.Service.class_stats) : Json.t =
  Json.Obj
    [
      ("class", Json.Str (Tcm_service.Sclass.name c.Tcm_service.Service.cls));
      ("submitted", Json.Int c.Tcm_service.Service.submitted);
      ("completed", Json.Int c.Tcm_service.Service.completed);
      ("dropped", Json.Int c.Tcm_service.Service.dropped);
      ("slo_us", Json.Float c.Tcm_service.Service.slo_us);
      ("slo_ok", Json.Int c.Tcm_service.Service.slo_ok);
      ("slo_attainment", Json.Float c.Tcm_service.Service.attainment);
      ("latency_p50_us", Json.Float c.Tcm_service.Service.p50_us);
      ("latency_p99_us", Json.Float c.Tcm_service.Service.p99_us);
      ("latency_mean_us", Json.Float c.Tcm_service.Service.mean_us);
    ]

(* Open-loop service figures — one entry per (backend,
   manager) pair, per-class latency measured arrival-to-commit with
   queue time included, and SLO attainment charged for sheds. *)
let json_of_service_figure (s : Tcm_service.Service.summary) : Json.t =
  let open Tcm_service.Service in
  Json.Obj
    [
      ("id", Json.Str "service-kv");
      ("title", Json.Str "open-loop transactional KV service");
      ("kind", Json.Str "service");
      ("backend", Json.Str s.backend);
      ("manager", Json.Str s.manager);
      ("process", Json.Str s.process);
      ("submitted", Json.Int s.submitted);
      ("completed", Json.Int s.completed);
      ("dropped", Json.Int s.dropped);
      ("aborts", Json.Int s.aborts);
      ("conflicts", Json.Int s.conflicts);
      ("elapsed_s", Json.Float s.elapsed_s);
      ("throughput", Json.Float s.throughput);
      ("offered", Json.Float s.offered);
      ("latency_p50_us", Json.Float s.p50_us);
      ("latency_p99_us", Json.Float s.p99_us);
      ("queue_high_water", Json.Int s.queue_high_water);
      ("queue_spills", Json.Int s.queue_spills);
      ("gen_minor_words_per_req", Json.Float s.gen_minor_words_per_req);
      (* Every service figure is self-describing about
         observability overhead — which layers were live and how many
         trace events the rings dropped. *)
      ("trace_drops", Json.Int s.trace_drops);
      ("metrics_enabled", Json.Bool s.metrics_on);
      ("trace_enabled", Json.Bool s.trace_on);
      ("classes", Json.Arr (List.map json_of_class_stats s.classes));
    ]

(* Conflict-attribution figures from tcm.obs — one entry
   per ledger family, wasted work priced in Alistarh et al.'s cost
   model plus the family's hottest conflict keys from the
   space-saving sketches. *)
let json_of_obs_figure ~(row : Tcm_obs.Ledger.row)
    ~(hot : Tcm_obs.Sketch.entry list) : Json.t =
  Json.Obj
    [
      ("id", Json.Str "obs-attribution");
      ("title", Json.Str "priced wasted-work attribution");
      ("kind", Json.Str "obs");
      ("backend", Json.Str row.Tcm_obs.Ledger.backend);
      ("manager", Json.Str row.Tcm_obs.Ledger.manager);
      ("runtime", Json.Str row.Tcm_obs.Ledger.runtime);
      ("class", Json.Str row.Tcm_obs.Ledger.cls);
      ("commits", Json.Int row.Tcm_obs.Ledger.commits);
      ("aborts", Json.Int row.Tcm_obs.Ledger.aborts);
      ("useful_work", Json.Int row.Tcm_obs.Ledger.useful_work);
      ("wasted_work", Json.Int row.Tcm_obs.Ledger.wasted_work);
      ("waits", Json.Int row.Tcm_obs.Ledger.waits);
      ("wait_cost", Json.Int row.Tcm_obs.Ledger.wait_cost);
      ("wait_ticks", Json.Int row.Tcm_obs.Ledger.wait_ticks);
      ("price", Json.Int (Tcm_obs.Ledger.price row));
      ( "hot_keys",
        Json.Arr
          (List.map
             (fun (e : Tcm_obs.Sketch.entry) ->
               Json.Obj
                 [
                   ("key", Json.Int e.key);
                   ("count", Json.Int e.count);
                   ("err", Json.Int e.err);
                 ])
             hot) );
    ]

(* Consult-path microbench figures — one entry per
   (backend, manager), latency and minor-heap allocation per resolve
   from the consult-cost probe (dumps up to BENCH_10 also carry
   backend "sim" rows, from the simulator's former policy table). *)
let json_of_consult_figure (r : Consult_cost.row) : Json.t =
  Json.Obj
    [
      ("id", Json.Str "consult-cost");
      ("title", Json.Str "consult-path cost per resolve");
      ("kind", Json.Str "consult");
      ("backend", Json.Str r.Consult_cost.backend);
      ("manager", Json.Str r.Consult_cost.manager);
      ("ns_per_resolve", Json.Float r.Consult_cost.ns_per_resolve);
      ( "minor_words_per_resolve",
        Json.Float r.Consult_cost.minor_words_per_resolve );
    ]

(* Overload-regime rate-ladder figures — one entry per
   (backend, manager) curve, one row per rung with the rung's offered
   rate, overall attainment and pooled p50/p99, plus the detected
   knee (first rung whose attainment fell under 99%). *)
let json_of_ladder_figure (c : Tcm_service.Ladder.curve) : Json.t =
  let open Tcm_service in
  Json.Obj
    [
      ("id", Json.Str "service-ladder");
      ("title", Json.Str "offered-load rate ladder (saturation sweep)");
      ("kind", Json.Str "ladder");
      ("backend", Json.Str c.Ladder.backend);
      ("manager", Json.Str c.Ladder.manager);
      ("knee_threshold", Json.Float Ladder.knee_threshold);
      ( "knee_rps",
        match c.Ladder.knee_rps with
        | Some r -> Json.Float r
        | None -> Json.Null );
      ( "rungs",
        Json.Arr
          (List.map
             (fun (r : Ladder.rung) ->
               let s = r.Ladder.summary in
               Json.Obj
                 [
                   ("offered_rps", Json.Float r.Ladder.offered_rps);
                   ("attainment", Json.Float (Ladder.attainment s));
                   ("submitted", Json.Int s.Service.submitted);
                   ("completed", Json.Int s.Service.completed);
                   ("dropped", Json.Int s.Service.dropped);
                   ("aborts", Json.Int s.Service.aborts);
                   ("throughput", Json.Float s.Service.throughput);
                   ("latency_p50_us", Json.Float s.Service.p50_us);
                   ("latency_p99_us", Json.Float s.Service.p99_us);
                   ("queue_high_water", Json.Int s.Service.queue_high_water);
                   ("queue_spills", Json.Int s.Service.queue_spills);
                   ( "gen_minor_words_per_req",
                     Json.Float s.Service.gen_minor_words_per_req );
                   ( "classes",
                     Json.Arr (List.map json_of_class_stats s.Service.classes)
                   );
                 ])
             c.Ladder.rungs) );
    ]

(* The one bench schema, read and written.  A change to the dump's
   layout bumps it and converts the committed BENCH_*.json in the same
   change, so no reader carries an older version. *)
let bench_schema = "tcm-bench/7"

let bench_schema_of (j : Json.t) : (string, string) result =
  match Json.member "schema" j with
  | None -> Error "missing \"schema\" field (not a bench dump?)"
  | Some (Json.Str s) when s = bench_schema -> Ok s
  | Some (Json.Str s) ->
      Error (Printf.sprintf "unknown schema %S (expected %s)" s bench_schema)
  | Some _ -> Error "\"schema\" field is not a string"

(** The bench's machine-readable dump: per-figure live-STM sweeps with
    throughput, p50/p99 latency and the abort breakdown per manager,
    one figure entry per (figure, backend) pair.  [service_figures]
    are open-loop service summaries appended to the same "figures"
    array with [kind = "service"]; [obs_figures] are conflict-
    attribution entries appended with [kind = "obs"];
    [consult_figures] are consult-cost microbench rows appended with
    [kind = "consult"]; [ladder_figures] are rate-ladder curves
    appended with [kind = "ladder"]. *)
let bench_json ?(service_figures = []) ?(obs_figures = [])
    ?(consult_figures = []) ?(ladder_figures = []) ~mode ~duration_s ~seed
    (figures : (Figures.spec * string * Figures.detailed_row list) list) : string =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str bench_schema);
         ("mode", Json.Str mode);
         ("duration_s_per_point", Json.Float duration_s);
         ("seed", Json.Int seed);
         ( "figures",
           Json.Arr
             (List.map
                (fun (spec, backend, rows) -> json_of_detailed_figure ~backend spec rows)
                figures
             @ List.map json_of_service_figure service_figures
             @ List.map (fun (row, hot) -> json_of_obs_figure ~row ~hot) obs_figures
             @ List.map json_of_consult_figure consult_figures
             @ List.map json_of_ladder_figure ladder_figures) );
       ])
