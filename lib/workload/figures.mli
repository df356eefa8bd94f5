(** Parameter sweeps reproducing the paper's Figures 1–4 with the
    paper's manager line-up (greedy, karma, eruption, aggressive,
    backoff). *)

type mode =
  | Real of { duration_s : float }  (** Live STM on domains. *)
  | Sim of { horizon : int }  (** Deterministic simulation. *)

type spec = {
  id : string;
  title : string;
  structure : Harness.structure;
  post_work : int;
  sim_tail : int;
}

(** List application. *)
val fig1 : spec

(** Skiplist application. *)
val fig2 : spec

(** Red-black tree, low contention. *)
val fig3 : spec

(** Red-black forest. *)
val fig4 : spec
val all : spec list
val of_id : string -> spec option

val default_threads : int list

type row = { threads : int; cells : (string * float) list }

type result = {
  spec : spec;
  mode : mode;
  unit_label : string;
  rows : row list;
}

type detailed_row = { d_threads : int; outcomes : (string * Harness.outcome) list }
(** One thread count with the full per-manager outcome (latency
    percentiles, abort breakdown) — the raw material of the bench's
    JSON dump. *)

val run_real_detailed :
  ?threads_list:int list ->
  ?seed:int ->
  ?backend:Tcm_stm.Stm.backend ->
  duration_s:float ->
  spec ->
  detailed_row list
(** [backend] (default locator) selects the runtime executing the
    sweep; managers and access patterns are identical either way, so
    the same sweep run under both backends is the locator-vs-TL2
    head-to-head. *)

val run :
  ?threads_list:int list ->
  ?seed:int ->
  ?backend:Tcm_stm.Stm.backend ->
  ?usec_per_tick:int ->
  mode:mode ->
  spec ->
  result
(** [backend] applies to [Real] mode only; the simulator models the
    locator protocol.  [usec_per_tick] applies to [Sim] mode only (see
    {!Tcm_sim.Engine.run}). *)
