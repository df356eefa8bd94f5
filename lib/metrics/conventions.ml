(** The standard instrument set shared by the live STM runtime, the
    deterministic simulator and the workload harness.

    Both runtimes record under the same metric names so a live run and
    a simulated run of the same workload produce directly comparable
    series; the [runtime] label ("live" / "sim") keeps their units
    apart (durations are microseconds on the live runtime and ticks in
    the simulator).  Handles are created once per component (cold
    path); every emit helper below is one enabled-check branch and a
    couple of int stores when metrics are on, a single branch when
    off. *)

type t = {
  attempts : Core.Counter.t;
  commits : Core.Counter.t;
  aborts : Core.Counter.t;
  resolve : Core.Counter.t array;  (** Indexed by verdict code 0..3. *)
  pool : Core.Counter.t array;  (** Indexed by pool-event code 0..2. *)
  wait_d : Core.Histogram.t;
  attempt_d : Core.Histogram.t;
  read_set : Core.Histogram.t;
}

(* Verdict codes, aligned with [Tcm_trace.Event.d_*]. *)
let v_abort_other = 0
let v_abort_self = 1
let v_block = 2
let v_backoff = 3
let verdict_names = [| "abort_other"; "abort_self"; "block"; "backoff" |]

(* Locator-pool event codes: [hit] = write acquired a recycled locator,
   [miss] = the freelist was empty (or every candidate hazard-held) and
   a locator was freshly allocated, [recycled] = a displaced dead
   locator was returned to the freelist. *)
let p_hit = 0
let p_miss = 1
let p_recycled = 2
let pool_event_names = [| "hit"; "miss"; "recycled" |]

let n_attempts = "tcm_attempts_total"
let n_commits = "tcm_commits_total"
let n_aborts = "tcm_aborts_total"
let n_resolve = "tcm_resolve_total"
let n_pool = "tcm_pool_total"
let n_wait = "tcm_wait_duration"
let n_attempt_d = "tcm_attempt_duration"
let n_read_set = "tcm_read_set_size"

let for_manager ?(backend = "locator") ~runtime manager =
  let labels = [ ("backend", backend); ("manager", manager); ("runtime", runtime) ] in
  {
    attempts = Core.Counter.create n_attempts ~labels ~help:"Transaction attempts started.";
    commits = Core.Counter.create n_commits ~labels ~help:"Attempts that committed.";
    aborts = Core.Counter.create n_aborts ~labels ~help:"Attempts that aborted.";
    resolve =
      Array.map
        (fun v ->
          Core.Counter.create n_resolve
            ~labels:(("verdict", v) :: labels)
            ~help:"Contention-manager verdicts, by kind.")
        verdict_names;
    pool =
      Array.map
        (fun e ->
          Core.Counter.create n_pool
            ~labels:(("event", e) :: labels)
            ~help:"Locator-pool events: hit / miss / recycled.")
        pool_event_names;
    wait_d =
      Core.Histogram.create n_wait ~labels
        ~help:"Time blocked behind an enemy (us live / ticks sim).";
    attempt_d =
      Core.Histogram.create n_attempt_d ~labels
        ~help:"Attempt latency, commit or abort (us live / ticks sim).";
    read_set =
      Core.Histogram.create n_read_set ~labels
        ~help:"Objects opened by the committed attempt.";
  }

let commits h = h.commits
let aborts h = h.aborts
let[@inline] attempt_begin h = Core.Counter.incr h.attempts

let[@inline] attempt_commit h ~duration ~read_set =
  Core.Counter.incr h.commits;
  Core.Histogram.observe h.attempt_d duration;
  Core.Histogram.observe h.read_set read_set

let[@inline] attempt_abort h ~duration =
  Core.Counter.incr h.aborts;
  Core.Histogram.observe h.attempt_d duration

let[@inline] resolve h code =
  if code >= 0 && code < Array.length h.resolve then Core.Counter.incr h.resolve.(code)

let[@inline] wait h ~duration = Core.Histogram.observe h.wait_d duration

let[@inline] pool_event h code =
  if code >= 0 && code < Array.length h.pool then Core.Counter.incr h.pool.(code)

(* ------------------------------------------------------------------ *)
(* Per-workload labels (harness)                                       *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_commits : Core.Counter.t;
  w_aborts : Core.Counter.t;
  w_conflicts : Core.Counter.t;
  w_elapsed_us : Core.Counter.t;
}

let for_workload ~workload ~manager =
  let labels = [ ("workload", workload); ("manager", manager); ("runtime", "live") ] in
  {
    w_commits =
      Core.Counter.create "tcm_workload_commits_total" ~labels
        ~help:"Committed transactions, per harness workload.";
    w_aborts =
      Core.Counter.create "tcm_workload_aborts_total" ~labels
        ~help:"Aborted attempts, per harness workload.";
    w_conflicts =
      Core.Counter.create "tcm_workload_conflicts_total" ~labels
        ~help:"Conflicts resolved, per harness workload.";
    w_elapsed_us =
      Core.Counter.create "tcm_workload_runtime_us_total" ~labels
        ~help:"Measured wall-clock time, per harness workload.";
  }

let workload_outcome w ~commits ~aborts ~conflicts ~elapsed_us =
  Core.Counter.add w.w_commits commits;
  Core.Counter.add w.w_aborts aborts;
  Core.Counter.add w.w_conflicts conflicts;
  Core.Counter.add w.w_elapsed_us elapsed_us

(* ------------------------------------------------------------------ *)
(* Per-class service labels (tcm.service)                              *)
(* ------------------------------------------------------------------ *)

type service = {
  s_requests : Core.Counter.t;
  s_dropped : Core.Counter.t;
  s_slo_ok : Core.Counter.t;
  s_latency : Core.Histogram.t;
}

let n_service_requests = "tcm_service_requests_total"
let n_service_dropped = "tcm_service_dropped_total"
let n_service_slo_ok = "tcm_service_slo_ok_total"
let n_service_latency = "tcm_service_latency"

(* The [class] label carries the transaction class ("read" / "scan" /
   "rmw").  Latency is arrival-to-commit in microseconds — it includes
   admission-queue time, which is where open-loop overload shows up. *)
let for_service ?(backend = "locator") ~manager ~cls () =
  let labels =
    [ ("backend", backend); ("class", cls); ("manager", manager); ("runtime", "live") ]
  in
  {
    s_requests =
      Core.Counter.create n_service_requests ~labels
        ~help:"Service requests generated (admitted or dropped).";
    s_dropped =
      Core.Counter.create n_service_dropped ~labels
        ~help:"Requests shed by the bounded admission queue.";
    s_slo_ok =
      Core.Counter.create n_service_slo_ok ~labels
        ~help:"Requests completed within their class SLO.";
    s_latency =
      Core.Histogram.create n_service_latency ~labels
        ~help:"Arrival-to-commit latency, queue time included (us).";
  }

let[@inline] service_request h = Core.Counter.incr h.s_requests
let[@inline] service_drop h = Core.Counter.incr h.s_dropped

let[@inline] service_complete h ~latency_us ~within_slo =
  Core.Histogram.observe h.s_latency latency_us;
  if within_slo then Core.Counter.incr h.s_slo_ok

(* ------------------------------------------------------------------ *)
(* Per-shard admission-queue labels (tcm.service)                      *)
(* ------------------------------------------------------------------ *)

type shard = {
  q_pushed : Core.Counter.t;
  q_shed : Core.Counter.t;
  q_spill : Core.Counter.t;
  q_occupancy : Core.Histogram.t;
}

let n_shard_pushed = "tcm_service_shard_pushed_total"
let n_shard_shed = "tcm_service_shard_shed_total"
let n_shard_spill = "tcm_service_shard_spill_total"
let n_shard_occupancy = "tcm_service_shard_occupancy"

(* One handle per admission-queue shard.  Recorded by the generator at
   push time (the single producer), so every emit is int stores on
   already-created handles — the admission hot loop stays
   allocation-free. *)
let for_shard ?(backend = "locator") ~manager ~shard () =
  let labels =
    [
      ("backend", backend);
      ("manager", manager);
      ("runtime", "live");
      ("shard", string_of_int shard);
    ]
  in
  {
    q_pushed =
      Core.Counter.create n_shard_pushed ~labels
        ~help:"Requests admitted to this admission-queue shard.";
    q_shed =
      Core.Counter.create n_shard_shed ~labels
        ~help:"Requests shed with this shard as the round-robin target.";
    q_spill =
      Core.Counter.create n_shard_spill ~labels
        ~help:"Pushes that overflowed their round-robin target onto this shard.";
    q_occupancy =
      Core.Histogram.create n_shard_occupancy ~labels
        ~help:"Shard occupancy observed just after each push.";
  }

let[@inline] shard_push h ~occupancy ~spilled =
  Core.Counter.incr h.q_pushed;
  if spilled then Core.Counter.incr h.q_spill;
  Core.Histogram.observe h.q_occupancy occupancy

let[@inline] shard_shed h = Core.Counter.incr h.q_shed
