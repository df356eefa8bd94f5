(** Shared types and conflict path of the one transaction runtime.

    The repo carries two STM protocols over one transaction
    lifecycle: the obstruction-free DSTM/SXM locator protocol
    ({!Runtime}) and the lock-based TL2-style protocol ({!Tl2}).
    {!Stm} owns the lifecycle — [create], [atomically], the attempt
    loop, the abort path and the retry API, each defined once — and
    dispatches every operation and lifecycle hook with one [match] on
    the backend.  The backends implement only their protocols: reads,
    writes, [read_for_write], and the begin, commit and abort hooks.

    Everything the facade and both protocols share lives here:

    - the backend tag, the runtime record, the per-domain context and
      the scratch transaction context (which carries TL2's logs);
    - the control-flow exceptions;
    - the conflict path: the manager consult, the verdict execution
      and the adaptive-wait ladder used while blocked behind an
      enemy. *)

exception Abort_attempt
(** Internal control flow: the current attempt is (being) aborted and
    must restart. *)

exception Retry_wait
(** Internal control flow for [retry_wait]/[check]: abort the attempt
    and re-run after a pause, i.e. block until the world changes. *)

type backend = Locator | Tl2_backend

(* A TL2 ownership record: [o_owner] doubles as the stripe's write
   lock, [o_version] is the stamp of its last committed write (see
   {!Tl2}).  Declared here because the scratch context's logs hold
   orecs. *)
type orec = { o_version : int Atomic.t; o_owner : Txn.t Atomic.t }

type t = {
  cm : Cm_intf.factory;
  stats : Tcm_metrics.Plane.group;  (** One slot per domain that used this runtime. *)
  dls : ctx Domain.DLS.key;
}

(* The per-domain context: created on a domain's first transaction
   under the runtime, never reallocated. *)
and ctx = {
  cm_state : Cm_intf.packed;  (** This domain's manager instance. *)
  probe : Tcm_obs.Probe.t;
      (** This domain's lifecycle handle: statistics, trace, metrics,
          ledger and hot keys, one call per lifecycle point.  Conflict
          keys are tvar ids on the locator, orec stripes on TL2. *)
  pool : Tvar.pool;
      (** The domain's locator freelist and hazard slot on a locator
          runtime; {!Tvar.no_pool} on TL2, which registers neither. *)
  scratch : tx;
      (** The domain's reusable transaction context; reset by field
          stores, never reallocated, at each attempt start. *)
  mutable running : bool;
      (** Whether [scratch] is inside [atomically] (the nested
          transaction test). *)
}

and tx = {
  backend : backend;
  dom : ctx;
  mutable txn : Txn.t;  (** Current attempt; fresh per attempt. *)
  mutable n_opens : int;
      (** Objects opened by this attempt (reads and writes): the
          wasted work an abort charges and the read-set sample a
          commit records. *)
  (* TL2's logs; unused on the locator. *)
  mutable rv : int;
      (** Read version: the whole read set is known valid at this
          clock value; advanced by successful extensions. *)
  mutable rs : orec array;  (** Read set: stripes sampled by reads. *)
  mutable rs_len : int;
  mutable ws_var : Obj.t array;  (** Redo log: written variables, erased. *)
  mutable ws_val : Obj.t array;  (** Redo log: buffered values, erased. *)
  mutable ws_len : int;
  mutable locked : orec array;  (** Stripes this attempt holds (commit). *)
  mutable locked_len : int;
}

(* ------------------------------------------------------------------ *)
(* Adaptive waiting                                                    *)
(* ------------------------------------------------------------------ *)

(* Cap on the sleeping period while blocked on an enemy, and on the
   pause of a [Backoff] verdict. *)
let block_poll_usec = 50
let backoff_cap_usec = 100_000

let sleep_usec usec = if usec > 0 then Unix.sleepf (float_of_int usec *. 1e-6)

(* Adaptive waiting: spin on the CPU hint first (an enemy on another
   core often finishes within nanoseconds), then yield the timeslice,
   then sleep with geometrically growing pauses capped at
   [block_poll_usec].  The wall clock is consulted only once a wait
   reaches the sleeping phase — never in the spin loop. *)
let spin_rounds = 32
let yield_rounds = 16

let wait_step round =
  if round < spin_rounds then Domain.cpu_relax ()
  else if round < spin_rounds + yield_rounds then Unix.sleepf 0.
  else
    let r = round - spin_rounds - yield_rounds in
    sleep_usec (min block_poll_usec (1 lsl min r 10))

(* Block until [other] is no longer active, or starts waiting itself,
   or the timeout expires.  Sets [me]'s public waiting flag for the
   duration, so that greedy enemies may abort the blocked party
   (Rule 1); raises {!Abort_attempt} when [me] is aborted while
   waiting.  The locator blocks at open time, TL2 at commit-time lock
   acquisition, so the cycle-breaking dynamics (a wait ends when the
   enemy starts waiting, and the manager is then re-consulted with the
   enemy's waiting flag visible) are identical on both. *)
let block_on ~(me : Txn.t) ~(other : Txn.t) ~(probe : Tcm_obs.Probe.t) ~timeout_usec =
  Atomic.set me.Txn.waiting true;
  let me_ts = Txn.timestamp me and enemy = Txn.timestamp other in
  Tcm_obs.Probe.wait_begin probe ~me:me_ts ~enemy ~tick:0;
  (* [rounds] is how far the spin/yield ladder got — the wait's price
     in ladder ticks. *)
  let finish rounds =
    Atomic.set me.Txn.waiting false;
    Tcm_obs.Probe.wait_end probe ~me:me_ts ~enemy ~tick:0 ~rounds
  in
  let deadline =
    match timeout_usec with
    | None -> infinity
    | Some us -> Unix.gettimeofday () +. (float_of_int us *. 1e-6)
  in
  let rec wait round =
    if not (Txn.is_active me) then begin
      finish round;
      raise Abort_attempt
    end;
    if
      Txn.is_active other
      && (not (Txn.is_waiting other))
      && (deadline = infinity || round < spin_rounds || Unix.gettimeofday () < deadline)
    then begin
      wait_step round;
      wait (round + 1)
    end
    else round
  in
  finish (wait 0)

let decision_trace_code = function
  | Decision.Abort_other -> Tcm_trace.Event.d_abort_other
  | Decision.Abort_self -> Tcm_trace.Event.d_abort_self
  | Decision.Block _ -> Tcm_trace.Event.d_block
  | Decision.Backoff _ -> Tcm_trace.Event.d_backoff

(* The conflict adapter: ask the manager for a verdict.  Both backends
   and the simulator consult through it. *)
let consult (Cm_intf.Packed ((module M), st)) ~me ~other ~attempts =
  M.resolve st ~me ~other ~attempts

let check_self tx = if not (Txn.is_active tx.txn) then raise Abort_attempt

(* Consult the manager on the attempt's conflict with [other] over
   [key] (a tvar id or an orec stripe) and execute the verdict: abort
   the enemy, abort the attempt, block behind the enemy, or back off.
   Returns when the caller should re-examine the object — on TL2 the
   lock steal happens there, when it re-reads the owner and finds it
   aborted. *)
let resolve_conflict tx ~other ~attempts ~key =
  check_self tx;
  let me = tx.txn and probe = tx.dom.probe in
  let verdict = consult tx.dom.cm_state ~me ~other ~attempts in
  Tcm_obs.Probe.verdict probe ~me:(Txn.timestamp me) ~other:(Txn.timestamp other)
    ~code:(decision_trace_code verdict) ~key ~tick:0;
  match verdict with
  | Decision.Abort_other -> if Txn.try_abort other then Tcm_obs.Probe.enemy_abort probe
  | Decision.Abort_self ->
      ignore (Txn.try_abort me);
      raise Abort_attempt
  | Decision.Block { timeout_usec } -> block_on ~me ~other ~probe ~timeout_usec
  | Decision.Backoff { usec } ->
      sleep_usec (min usec backoff_cap_usec);
      check_self tx

(* A successful open: count it for the attempt, the logical
   transaction and the manager. *)
let cm_opened tx =
  tx.n_opens <- tx.n_opens + 1;
  Txn.record_open tx.txn;
  let (Cm_intf.Packed ((module M), st)) = tx.dom.cm_state in
  M.opened st tx.txn

(* The pause before re-running a transaction that called [retry_wait]:
   yield first (the writer is often already runnable), then sleep
   geometrically. *)
let retry_pause wait_round =
  if wait_round = 0 then Unix.sleepf 0.
  else sleep_usec (min backoff_cap_usec (block_poll_usec * (1 lsl min (wait_round - 1) 12)))
