(** Consult-path cost probe: ns and GC minor words per [resolve], per
    manager × backend ("locator" or "tl2"; both backends and the
    simulator take their verdicts through the one
    [Runtime_intf.consult], so the backend only labels a row).  Measurement core
    shared by [bench/consult_cost.exe] (the @cm-smoke gate) and [bench
    --consult]; {!check} holds the gate thresholds. *)

type row = {
  manager : string;
  backend : string;  (** "locator" or "tl2". *)
  ns_per_resolve : float;
  minor_words_per_resolve : float;
  minor_words : float;  (** The whole timed loop's, exact ([Gc.minor_words]). *)
}

val max_minor_words : float
(** Minor words the whole timed loop may allocate: 0. *)

val max_ns : float
val flatness_ratio : float
val flatness_floor_ns : float

val measure_backend : ?iters:int -> Tcm_stm.Stm.backend -> row list
(** One row per registered manager, labelled with the given backend. *)

val measure_all : ?iters:int -> unit -> row list
(** Both backends. *)

val check : row list -> string list
(** Violation messages for the allocation (≤ {!max_minor_words} minor
    words over the timed loop), latency (≤ {!max_ns} ns) and
    per-backend flatness (≤ {!flatness_ratio} between slowest and
    fastest manager, after clamping to {!flatness_floor_ns}) gates;
    empty means all hold. *)
