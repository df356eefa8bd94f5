(** Consult-path cost probe: ns and GC minor words per [resolve], per
    manager × backend ("locator" or "tl2"; the simulator takes its
    verdicts through the locator's entry point).  Measurement core
    shared by [bench/consult_cost.exe] (the @cm-smoke gate) and [bench
    --consult]; {!check} holds the gate thresholds. *)

type row = {
  manager : string;
  backend : string;  (** "locator" or "tl2". *)
  ns_per_resolve : float;
  minor_words_per_resolve : float;
}

val max_minor_words : float
val max_ns : float
val flatness_ratio : float
val flatness_floor_ns : float

val measure_backend : ?iters:int -> Tcm_stm.Stm.backend -> row list
(** One row per registered manager, driven through the given backend's
    [consult] entry point. *)

val measure_all : ?iters:int -> unit -> row list
(** Both backends. *)

val check : row list -> string list
(** Violation messages for the allocation (≤ {!max_minor_words} minor
    words/resolve), latency (≤ {!max_ns} ns) and per-backend flatness
    (≤ {!flatness_ratio} between slowest and fastest manager, after
    clamping to {!flatness_floor_ns}) gates; empty means all hold. *)
