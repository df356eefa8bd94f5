(** The offered-load rate ladder: run the service engine at a rising
    sequence of Poisson rates until both sides of the saturation knee
    are visible.

    Each rung is one full {!Service.run} at a fixed offered rate;
    attainment is the overall SLO attainment (all classes pooled,
    drops counted as misses).  The {e knee} is the first rung whose
    attainment falls below the threshold (99%) — below it the service
    keeps its SLOs, above it queueing delay and load shedding take
    over.  The paper's contention managers only differentiate past the
    knee, which is exactly the regime the single-mutex admission queue
    could never reach. *)

type rung = { offered_rps : float; summary : Service.summary }

type curve = {
  backend : string;
  manager : string;
  rungs : rung list;  (** In ascending offered-rate order. *)
  knee_rps : float option;
      (** First rung whose overall attainment dropped below
          {!knee_threshold}; [None] when every rung held. *)
}

let knee_threshold = 0.99

(** Overall SLO attainment of one summary: [Σ slo_ok / Σ submitted]
    across classes (drops miss by construction); [nan] when nothing
    was submitted. *)
let attainment (s : Service.summary) =
  let ok, sub =
    List.fold_left
      (fun (ok, sub) (c : Service.class_stats) -> (ok + c.slo_ok, sub + c.submitted))
      (0, 0) s.classes
  in
  if sub = 0 then nan else float_of_int ok /. float_of_int sub

(** First rung (ascending order assumed) whose attainment is below
    {!knee_threshold}. *)
let knee rungs =
  List.find_map
    (fun r ->
      let a = attainment r.summary in
      if (not (Float.is_nan a)) && a < knee_threshold then Some r.offered_rps
      else None)
    rungs

(* Rung sequences: both cross saturation comfortably on the reference
   2-vCPU host.  There the smoke configuration (4 workers, 8,192 keys)
   holds 99% attainment through 96k rps, reads 72-100% between 192k and
   768k rps, where the knee falls from run to run, and 31-61% at 1.5M
   rps, so the knee lands mid-ladder and the curves show both the flat
   SLO-holding regime and the collapse.  The quick ladder's top rung
   read at most 47% attainment over 20 smoke runs per backend. *)
let quick_rates = [| 8_000.; 64_000.; 2_000_000. |]
let default_rates =
  [| 12_000.; 24_000.; 48_000.; 96_000.; 192_000.; 384_000.; 768_000.; 1_536_000. |]

(** Run the ladder: [cfg] with its arrival process replaced by
    [Poisson rate] per rung, everything else (backend, manager,
    workers, store sizing, mix, SLOs, seed) held fixed. *)
let run ?(rates = default_rates) (cfg : Service.config) : curve =
  let rungs =
    Array.to_list rates
    |> List.map (fun rate ->
           let summary =
             Service.run { cfg with process = Arrival.Poisson { rate } }
           in
           { offered_rps = rate; summary })
  in
  {
    backend = Tcm_stm.Stm.backend_name cfg.backend;
    manager = Tcm_stm.Cm_intf.name cfg.manager;
    rungs;
    knee_rps = knee rungs;
  }
