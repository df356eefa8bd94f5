(** Plain-text rendering of figure sweeps, in the paper's layout
    (threads on the x-axis, one series per manager). *)

val float_to_string : float -> string

val print_figure : Format.formatter -> Figures.result -> unit

val winners : Figures.result -> (int * string) list
(** Best manager per thread count. *)

val print_kv_table :
  Format.formatter -> title:string -> (string * string) list -> unit

module Json = Tcm_json
(** The repo's one JSON codec, under the name the bench readers use. *)

val json_of_service_figure : Tcm_service.Service.summary -> Json.t
(** One open-loop service run as a figure entry ([kind = "service"]):
    per-class arrival-to-commit latency (queue time included), SLO
    attainment with sheds charged against the class, the abort /
    conflict deltas of the run, and the observability
    self-description: trace drops and whether metrics / trace were
    enabled. *)

val json_of_obs_figure :
  row:Tcm_obs.Ledger.row -> hot:Tcm_obs.Sketch.entry list -> Json.t
(** One conflict-attribution entry ([kind = "obs"]): a ledger family's
    priced wasted work plus its hottest conflict keys. *)

val json_of_consult_figure : Consult_cost.row -> Json.t
(** One consult-cost entry ([kind = "consult"]): ns and minor words
    per resolve for a (backend | "sim") × manager pair. *)

val json_of_ladder_figure : Tcm_service.Ladder.curve -> Json.t
(** One rate-ladder entry ([kind = "ladder"]): a (backend, manager)
    saturation sweep — per-rung offered rate, overall attainment,
    pooled p50/p99, sheds and shard spills — plus the detected knee
    (first rung under the 99% attainment threshold, [null] when every
    rung held). *)

val bench_schema : string
(** The one bench schema, written and read: ["tcm-bench/7"]. *)

val bench_schema_of : Json.t -> (string, string) result
(** Validate a parsed bench dump's schema header.  [Error _] names the
    expected version when the [schema] field is missing, not a string,
    or not {!bench_schema} — readers must refuse such documents rather
    than misrender half-recognized fields. *)

val bench_json :
  ?service_figures:Tcm_service.Service.summary list ->
  ?obs_figures:(Tcm_obs.Ledger.row * Tcm_obs.Sketch.entry list) list ->
  ?consult_figures:Consult_cost.row list ->
  ?ladder_figures:Tcm_service.Ladder.curve list ->
  mode:string ->
  duration_s:float ->
  seed:int ->
  (Figures.spec * string * Figures.detailed_row list) list ->
  string
(** The bench's machine-readable dump ([--json FILE]): schema header
    plus one entry per (figure, backend-name) pair with
    per-thread-count, per-manager outcomes; [service_figures] append
    open-loop service entries, [obs_figures] conflict-attribution
    entries, [consult_figures] consult-cost entries and
    [ladder_figures] rate-ladder curves to the same figures array. *)
