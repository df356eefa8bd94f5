(** Shared surface of the runtime backends.

    The repo carries two interchangeable STM engines — the
    obstruction-free DSTM/SXM locator runtime ({!Runtime}) and the
    lock-based TL2-style runtime ({!Tl2}) — behind one signature
    ({!S}), so structures, the workload harness and the benches are
    backend-agnostic.  Everything both engines share lives here:

    - the configuration record and its default;
    - the statistics snapshot;
    - the control-flow exceptions (shared so the facade in {!Stm} can
      re-raise and catch uniformly, and so tests written against one
      backend's exceptions hold for the other);
    - the adaptive-wait ladder used while blocked behind an enemy.

    Both backends re-export the types with equations
    ([type config = Runtime_intf.config = {...}]), so existing callers
    that name them through [Runtime] keep compiling unchanged. *)

exception Abort_attempt
(** Internal control flow: the current attempt is (being) aborted and
    must restart. *)

exception Too_many_attempts of int
(** Raised when [max_attempts] is exceeded. *)

exception Retry_wait
(** Internal control flow for [retry_wait]/[check]: abort the attempt
    and re-run after a pause, i.e. block until the world changes. *)

type config = {
  max_attempts : int option;  (** [None] = retry forever. *)
  block_poll_usec : int;
      (** Cap on the sleeping period while blocked on an enemy (the
          wait spins, then yields, then sleeps with geometrically
          growing pauses up to this cap). *)
  backoff_cap_usec : int;  (** Upper bound applied to [Backoff] verdicts. *)
}

let default_config = { max_attempts = None; block_poll_usec = 50; backoff_cap_usec = 100_000 }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Counted by each domain's [Tcm_obs.Probe] into its own plane slot of
   the instance's statistics group, and folded into the group's
   retired total when the domain exits.  A snapshot ordered after the
   counting domains' work — joined domains, as in the harness and
   every test — is exact. *)
type stats_snapshot = Tcm_obs.Probe.stats = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}

let pp_stats = Tcm_obs.Probe.pp_stats

(* ------------------------------------------------------------------ *)
(* Adaptive waiting                                                    *)
(* ------------------------------------------------------------------ *)

let sleep_usec usec = if usec > 0 then Unix.sleepf (float_of_int usec *. 1e-6)

(* Adaptive waiting: spin on the CPU hint first (an enemy on another
   core often finishes within nanoseconds), then yield the timeslice,
   then sleep with geometrically growing pauses capped at [cap_usec].
   The wall clock is consulted only once a wait reaches the sleeping
   phase — never in the spin loop. *)
let spin_rounds = 32
let yield_rounds = 16

let wait_step ~round ~cap_usec =
  if round < spin_rounds then Domain.cpu_relax ()
  else if round < spin_rounds + yield_rounds then Unix.sleepf 0.
  else
    let r = round - spin_rounds - yield_rounds in
    sleep_usec (min cap_usec (1 lsl min r 10))

(* Block until [other] is no longer active, or starts waiting itself,
   or the timeout expires.  Sets [me]'s public waiting flag for the
   duration, so that greedy enemies may abort the blocked party
   (Rule 1); raises {!Abort_attempt} when [me] is aborted while
   waiting.  Shared by both backends — the locator runtime blocks at
   open time, the TL2 runtime at commit-time lock acquisition — so the
   cycle-breaking dynamics (a wait ends when the enemy starts waiting,
   and the manager is then re-consulted with the enemy's waiting flag
   visible) are identical on both. *)
let block_on ~(me : Txn.t) ~(other : Txn.t) ~(probe : Tcm_obs.Probe.t) ~cap_usec
    ~timeout_usec =
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
      wait_step ~round ~cap_usec;
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
   export it (see [S.consult]). *)
let consult (Cm_intf.Packed ((module M), st)) ~me ~other ~attempts =
  M.resolve st ~me ~other ~attempts

let check_active me = if not (Txn.is_active me) then raise Abort_attempt

(* Consult the manager on [me]'s conflict with [other] over [key] (a
   tvar id or an orec stripe) and execute the verdict: abort the enemy,
   abort [me], block behind the enemy, or back off.  Returns when the
   caller should re-examine the object — on TL2 the lock steal happens
   there, when it re-reads the owner and finds it aborted. *)
let resolve_conflict ~cm ~probe ~(config : config) ~(me : Txn.t) ~(other : Txn.t) ~attempts
    ~key =
  check_active me;
  let verdict = consult cm ~me ~other ~attempts in
  Tcm_obs.Probe.verdict probe ~me:(Txn.timestamp me) ~other:(Txn.timestamp other)
    ~code:(decision_trace_code verdict) ~key ~tick:0;
  match verdict with
  | Decision.Abort_other -> if Txn.try_abort other then Tcm_obs.Probe.enemy_abort probe
  | Decision.Abort_self ->
      ignore (Txn.try_abort me);
      raise Abort_attempt
  | Decision.Block { timeout_usec } ->
      block_on ~me ~other ~probe ~cap_usec:config.block_poll_usec ~timeout_usec
  | Decision.Backoff { usec } ->
      sleep_usec (min usec config.backoff_cap_usec);
      check_active me

(* The pause before re-running a transaction that called [retry_wait]:
   yield first (the writer is often already runnable), then sleep
   geometrically. *)
let retry_pause (config : config) wait_round =
  if wait_round = 0 then Unix.sleepf 0.
  else
    sleep_usec
      (min config.backoff_cap_usec (config.block_poll_usec * (1 lsl min (wait_round - 1) 12)))

(* ------------------------------------------------------------------ *)
(* The backend signature                                               *)
(* ------------------------------------------------------------------ *)

(** What a runtime backend must provide.  [Stm] dispatches over the
    two implementations; both are checked against this signature, so a
    drift in either surface is a compile error. *)
module type S = sig
  val backend_name : string

  type t
  type tx

  val create : ?config:config -> Cm_intf.factory -> t
  val manager_name : t -> string
  val stats : t -> stats_snapshot
  val atomically : t -> (tx -> 'a) -> 'a
  val read : tx -> 'a Tvar.t -> 'a
  val write : tx -> 'a Tvar.t -> 'a -> unit
  val read_for_write : tx -> 'a Tvar.t -> 'a
  val modify : tx -> 'a Tvar.t -> ('a -> 'a) -> unit
  val retry_now : tx -> 'a
  val retry_wait : tx -> 'a
  val check : tx -> bool -> unit
  val current_txn : t -> Txn.t option

  val consult : Cm_intf.packed -> me:Txn.t -> other:Txn.t -> attempts:int -> Decision.t
  (** The backend's conflict adapter: ask the packed manager instance
      for a verdict on the [me]/[other] conflict.  Exposed so tests
      can drive a scripted duel through both backends and assert the
      verdicts agree (the execution of a verdict differs — the locator
      backend aborts enemies in place, the TL2 backend maps
      [Abort_other] to a lock steal — but the verdict itself must
      not). *)
end
