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

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        (* nan/inf have no JSON representation. *)
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
        else Buffer.add_string buf "null"
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf (Str k);
            Buffer.add_char buf ':';
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    emit buf t;
    Buffer.contents buf

  exception Parse_error of string

  (* Recursive-descent parser for the dialect [emit] writes (strict
     JSON; numbers with a '.', 'e' or 'E' become [Float], the rest
     [Int]).  Enough for the analyzer CLIs to re-read bench dumps
     without an external dependency. *)
  let of_string str =
    let n = String.length str in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then str.[!pos] else '\255' in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    let keyword w v =
      if !pos + String.length w <= n && String.sub str !pos (String.length w) = w then begin
        pos := !pos + String.length w;
        v
      end
      else fail (Printf.sprintf "expected %s" w)
    in
    let utf8 buf cp =
      (* Encode one code point; surrogate pairs are not recombined
         ([emit] never writes them — it only escapes C0 controls). *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match str.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape");
            (match str.[!pos] with
            | '"' -> Buffer.add_char buf '"'; incr pos
            | '\\' -> Buffer.add_char buf '\\'; incr pos
            | '/' -> Buffer.add_char buf '/'; incr pos
            | 'b' -> Buffer.add_char buf '\b'; incr pos
            | 'f' -> Buffer.add_char buf '\012'; incr pos
            | 'n' -> Buffer.add_char buf '\n'; incr pos
            | 'r' -> Buffer.add_char buf '\r'; incr pos
            | 't' -> Buffer.add_char buf '\t'; incr pos
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub str (!pos + 1) 4 in
                (match int_of_string_opt ("0x" ^ hex) with
                | Some cp -> utf8 buf cp
                | None -> fail "bad \\u escape");
                pos := !pos + 5
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char str.[!pos] do
        incr pos
      done;
      let tok = String.sub str start (!pos - start) in
      let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
      if floaty then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | 'n' -> keyword "null" Null
      | 't' -> keyword "true" (Bool true)
      | 'f' -> keyword "false" (Bool false)
      | '"' -> Str (parse_string ())
      | '[' ->
          incr pos;
          skip_ws ();
          if peek () = ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  elems (v :: acc)
              | ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elems [])
          end
      | '{' ->
          incr pos;
          skip_ws ();
          if peek () = '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let member () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec members acc =
              let kv = member () in
              skip_ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  members (kv :: acc)
              | '}' ->
                  incr pos;
                  List.rev (kv :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | '-' | '0' .. '9' -> parse_number ()
      | '\255' -> fail "unexpected end of input"
      | c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

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
      (* tcm-bench/2: GC allocation during the measurement window
         (summed per-domain quick_stat deltas). *)
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
      (* tcm-bench/4: figure entries carry a "kind" discriminator so
         readers can tell closed-loop sweeps from open-loop service
         figures without sniffing fields. *)
      ("kind", Json.Str "sweep");
      (* tcm-bench/3: the runtime backend that executed this sweep
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

(* tcm-bench/4: open-loop service figures — one entry per (backend,
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
      (* tcm-bench/7: pooled latency, shard-spill count and generator
         allocation per request. *)
      ("latency_p50_us", Json.Float s.p50_us);
      ("latency_p99_us", Json.Float s.p99_us);
      ("queue_high_water", Json.Int s.queue_high_water);
      ("queue_spills", Json.Int s.queue_spills);
      ("gen_minor_words_per_req", Json.Float s.gen_minor_words_per_req);
      (* tcm-bench/5: every service figure is self-describing about
         observability overhead — which layers were live and how many
         trace events the rings dropped. *)
      ("trace_drops", Json.Int s.trace_drops);
      ("metrics_enabled", Json.Bool s.metrics_on);
      ("trace_enabled", Json.Bool s.trace_on);
      ("classes", Json.Arr (List.map json_of_class_stats s.classes));
    ]

(* tcm-bench/5: conflict-attribution figures from tcm.obs — one entry
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

(* tcm-bench/6: consult-path microbench figures — one entry per
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

(* tcm-bench/7: overload-regime rate-ladder figures — one entry per
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

(* Schema lineage of the bench dump:
   - tcm-bench/1: throughput + latency + abort breakdown;
   - tcm-bench/2: adds per-window GC words (minor/major);
   - tcm-bench/3: adds the per-figure "backend" field (locator | tl2);
   - tcm-bench/4: figure entries carry a "kind" discriminator
     ("sweep" | "service") and service entries report per-class
     arrival-to-commit latency and SLO attainment;
   - tcm-bench/5: service entries are self-describing about
     observability (trace_drops, metrics_enabled, trace_enabled) and
     the dump may carry kind = "obs" conflict-attribution entries
     (per-family priced wasted work + hot-key list from tcm.obs);
   - tcm-bench/6: the dump may carry kind = "consult" entries — the
     consult-cost microbench's ns + minor words per resolve, per
     (backend | "sim") × manager;
   - tcm-bench/7: the dump may carry kind = "ladder" entries — the
     offered-load rate ladder per (backend, manager), one row per
     rung (attainment, pooled p50/p99, sheds, spills) plus the
     detected saturation knee; service entries additionally report
     pooled p50/p99, queue spills and generator allocation per
     request.
   Readers accept every shipped version; the writer always emits the
   newest. *)
let bench_schema = "tcm-bench/7"

let bench_schemas =
  [
    "tcm-bench/1";
    "tcm-bench/2";
    "tcm-bench/3";
    "tcm-bench/4";
    "tcm-bench/5";
    "tcm-bench/6";
    bench_schema;
  ]

let bench_schema_of (j : Json.t) : (string, string) result =
  match Json.member "schema" j with
  | None -> Error "missing \"schema\" field (not a bench dump?)"
  | Some (Json.Str s) when List.mem s bench_schemas -> Ok s
  | Some (Json.Str s) ->
      Error
        (Printf.sprintf "unknown schema %S (expected %s)" s
           (String.concat " or " bench_schemas))
  | Some _ -> Error "\"schema\" field is not a string"

(** The bench's machine-readable dump: per-figure live-STM sweeps with
    throughput, p50/p99 latency and the abort breakdown per manager,
    one figure entry per (figure, backend) pair.  [service_figures]
    are open-loop service summaries appended to the same "figures"
    array with [kind = "service"]; [obs_figures] are conflict-
    attribution entries appended with [kind = "obs"];
    [consult_figures] are consult-cost microbench rows appended with
    [kind = "consult"]; [ladder_figures] are rate-ladder curves
    appended with [kind = "ladder"].  [extra] lets the caller attach
    more top-level sections. *)
let bench_json ?(extra = []) ?(service_figures = []) ?(obs_figures = [])
    ?(consult_figures = []) ?(ladder_figures = []) ~mode ~duration_s ~seed
    (figures : (Figures.spec * string * Figures.detailed_row list) list) : string =
  Json.to_string
    (Json.Obj
       ([
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
        ]
       @ extra))
