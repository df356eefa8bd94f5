module Plane = Tcm_metrics.Plane
module Conventions = Tcm_metrics.Conventions

type stats = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}

(* Cells of a statistics slot: one domain writes them all, so they need
   no padding from each other. *)
let ix_commits = 0
let ix_aborts = 1
let ix_conflicts = 2
let ix_enemy_aborts = 3
let ix_self_aborts = 4
let ix_blocks = 5
let ix_backoffs = 6
let stat_words = 7

let stats g =
  let a = Plane.totals g in
  let v i = if i < Array.length a then a.(i) else 0 in
  {
    n_commits = v ix_commits;
    n_aborts = v ix_aborts;
    n_conflicts = v ix_conflicts;
    n_enemy_aborts = v ix_enemy_aborts;
    n_self_aborts = v ix_self_aborts;
    n_blocks = v ix_blocks;
    n_backoffs = v ix_backoffs;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "commits=%d aborts=%d conflicts=%d enemy-aborts=%d self-aborts=%d blocks=%d backoffs=%d"
    s.n_commits s.n_aborts s.n_conflicts s.n_enemy_aborts s.n_self_aborts s.n_blocks
    s.n_backoffs

type t = {
  stats : Plane.slot option;
      (** The instance's statistics slot.  A probe with one is a live
          probe, clocked in wall-clock microseconds; one without is
          tick-clocked and counts no statistics. *)
  mx : Conventions.t;
  ledger : Ledger.t;
  hot : Hot.t;
  mutable t0 : int;  (** Attempt start; -1 if metrics were off at its begin. *)
  mutable w0 : int;  (** Wait start, likewise. *)
}

let create ?stats ?(backend = "locator") ~runtime manager =
  {
    stats = Option.map (fun group -> Plane.acquire ~group stat_words) stats;
    mx = Conventions.for_manager ~backend ~runtime manager;
    ledger = Ledger.for_manager ~backend ~runtime manager;
    hot = Hot.for_manager ~backend ~runtime manager;
    t0 = -1;
    w0 = -1;
  }

let lane t = { t with t0 = -1; w0 = -1 }

let[@inline] count t ix =
  match t.stats with
  | Some s -> s.Plane.arr.(s.Plane.base + ix) <- s.Plane.arr.(s.Plane.base + ix) + 1
  | None -> ()

(* Read only behind the metrics switch.  [Unix.gettimeofday] returns
   an unboxed float, so the int conversion allocates nothing. *)
let[@inline] now t ~tick =
  match t.stats with
  | Some _ -> int_of_float (Unix.gettimeofday () *. 1e6)
  | None -> tick

(* An attempt or wait is timed when metrics were on at its start (the
   start is then >= 0) and are still on at its end. *)
let[@inline] timed start = start >= 0 && Tcm_metrics.enabled ()

let attempt_begin t ~txid ~attempt ~tick =
  Tcm_trace.Sink.attempt_begin ~txid ~attempt ~tick;
  if Tcm_metrics.enabled () then begin
    t.t0 <- now t ~tick;
    Conventions.attempt_begin t.mx
  end
  else t.t0 <- -1

let commit t ~txid ~attempt ~tick ~opens =
  count t ix_commits;
  Tcm_trace.Sink.attempt_commit ~txid ~attempt ~tick;
  if timed t.t0 then begin
    Conventions.attempt_commit t.mx ~duration:(now t ~tick - t.t0) ~read_set:opens;
    Ledger.note_commit t.ledger ~work:opens
  end

let abort t ~txid ~attempt ~tick ~opens =
  count t ix_aborts;
  Tcm_trace.Sink.attempt_abort ~txid ~attempt ~tick;
  if timed t.t0 then begin
    Conventions.attempt_abort t.mx ~duration:(now t ~tick - t.t0);
    Ledger.charge_abort t.ledger ~work:opens
  end

let verdict t ~me ~other ~code ~key ~tick =
  count t ix_conflicts;
  if code = Conventions.v_abort_self then count t ix_self_aborts
  else if code = Conventions.v_block then count t ix_blocks
  else if code = Conventions.v_backoff then count t ix_backoffs;
  Tcm_trace.Sink.conflict ~me ~other ~decision:code ~tick;
  if Tcm_metrics.enabled () then begin
    Conventions.resolve t.mx code;
    Hot.record t.hot key
  end

let enemy_abort t = count t ix_enemy_aborts

let wait_begin t ~me ~enemy ~tick =
  Tcm_trace.Sink.wait_begin ~me ~enemy ~tick;
  t.w0 <- (if Tcm_metrics.enabled () then now t ~tick else -1)

let wait_end t ~me ~enemy ~tick ~rounds =
  Tcm_trace.Sink.wait_end ~me ~enemy ~tick;
  if timed t.w0 then begin
    let duration = now t ~tick - t.w0 in
    Conventions.wait t.mx ~duration;
    let ticks = match t.stats with Some _ -> rounds | None -> duration in
    Ledger.charge_wait t.ledger ~cost:duration ~ticks
  end

let pool t code = Conventions.pool_event t.mx code
