(** Offered-load rate ladder over the service engine: one
    {!Service.run} per rung at a rising Poisson rate, overall
    SLO-attainment per rung, and knee detection (first rung under the
    99% threshold) — the attainment-vs-load and latency-degradation
    curves behind the overload-regime figures. *)

type rung = { offered_rps : float; summary : Service.summary }

type curve = {
  backend : string;
  manager : string;
  rungs : rung list;  (** Ascending offered-rate order. *)
  knee_rps : float option;
      (** First rung under {!knee_threshold}; [None] when every rung
          held its SLOs. *)
}

val knee_threshold : float
(** 0.99. *)

val attainment : Service.summary -> float
(** Overall SLO attainment, classes pooled (drops count as misses);
    [nan] when nothing was submitted. *)

val knee : rung list -> float option
(** First rung (ascending order assumed) whose attainment is below
    {!knee_threshold}. *)

val quick_rates : float array
(** 3-rung mini-ladder (8k / 64k / 2M rps) for smoke gates — the top
    rung sits well past single-host capacity. *)

val default_rates : float array
(** 8 rungs, 12k → 1.536M rps, crossing the knee mid-ladder. *)

val run : ?rates:float array -> Service.config -> curve
(** Run every rung with [cfg]'s arrival process replaced by a Poisson
    at the rung's rate; everything else held fixed. *)
