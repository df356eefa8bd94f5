(** Open-loop arrival processes.

    The generator schedules request arrival times from one of these
    processes without ever waiting on the service — that is the
    open-loop discipline: when the service falls behind, requests pile
    up in the admission queue (and the latency accounting charges the
    queueing delay to the service), instead of the generator silently
    slowing down and hiding the overload (the closed-loop
    coordinated-omission trap). *)

module Rng = Tcm_stm.Splitmix

type process =
  | Poisson of { rate : float }  (** Requests per second. *)
  | Bursty of {
      base_rate : float;
      burst_rate : float;
      period_s : float;  (** One on+off cycle. *)
      burst_frac : float;  (** Fraction of the period spent bursting. *)
    }
      (** On/off-modulated Poisson: [burst_rate] for the first
          [burst_frac] of every [period_s], [base_rate] for the rest. *)

let validate = function
  | Poisson { rate } ->
      if not (rate > 0.) then invalid_arg "Arrival: rate > 0"
  | Bursty { base_rate; burst_rate; period_s; burst_frac } ->
      if not (base_rate > 0. && burst_rate > 0.) then
        invalid_arg "Arrival: rates > 0";
      if not (period_s > 0.) then invalid_arg "Arrival: period_s > 0";
      if not (burst_frac >= 0. && burst_frac <= 1.) then
        invalid_arg "Arrival: burst_frac in [0, 1]"

let rate_at process ~t =
  match process with
  | Poisson { rate } -> rate
  | Bursty { base_rate; burst_rate; period_s; burst_frac } ->
      let phase = Float.rem t period_s in
      if phase < burst_frac *. period_s then burst_rate else base_rate

let peak_rate = function
  | Poisson { rate } -> rate
  | Bursty { base_rate; burst_rate; _ } -> Float.max base_rate burst_rate

(** Next arrival strictly after time [t] (seconds from run start).
    Non-homogeneous Poisson via thinning against the peak rate, so
    inter-arrival gaps stay exactly exponential within each phase of a
    bursty process.  Deterministic in the rng stream. *)
let next process rng ~t =
  let peak = peak_rate process in
  let rec go t =
    let t = t +. Tcm_dist.Samplers.exp_draw rng ~rate:peak in
    if Rng.float rng *. peak <= rate_at process ~t then t else go t
  in
  go t

(** The whole run's arrival times at once (strictly increasing, in
    [0, horizon)), via {!Tcm_dist.Samplers.Schedule} — the same
    thinning discipline as {!next}, materialized ahead of the run so
    the generator's hot loop allocates nothing per request. *)
let schedule process rng ~horizon =
  validate process;
  let peak = peak_rate process in
  match process with
  | Poisson _ -> Tcm_dist.Samplers.Schedule.arrivals rng ~peak ~horizon
  | Bursty { base_rate; burst_rate; period_s; burst_frac } ->
      Tcm_dist.Samplers.Schedule.arrivals rng
        ~on_off:{ base_rate; burst_rate; period_s; burst_frac }
        ~peak ~horizon

let describe = function
  | Poisson { rate } -> Printf.sprintf "poisson(%.0f rps)" rate
  | Bursty { base_rate; burst_rate; period_s; burst_frac } ->
      Printf.sprintf "bursty(%.0f/%.0f rps, %.2fs period, %.0f%% on)" base_rate
        burst_rate period_s (100. *. burst_frac)
