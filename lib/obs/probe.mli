(** The probe: the one lifecycle handle, one per runtime instance and
    domain (one per simulator run, with a {!lane} per simulated
    thread).

    The runtimes and the simulator make one call per transaction
    lifecycle point; the probe feeds every view that counts it: the
    [tcm.trace] rings, the instance's always-on statistics and —
    behind the single [Tcm_metrics.enabled] switch — the metric
    series, the wasted-work ledger and the hot-key sketch.  No call
    allocates.

    A probe created with [~stats] is a live probe: it counts the
    instance's statistics and times in wall-clock microseconds, read
    only while metrics are on.  One created without (the simulator's)
    counts no statistics and times in the [tick]s its calls pass.  The
    labels carry no behaviour.  The current attempt's and wait's start
    times are ints held in the probe. *)

type stats = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}
(** A runtime instance's totals over every domain that used it,
    counted whether or not metrics are on. *)

val stats : Tcm_metrics.Plane.group -> stats
val pp_stats : Format.formatter -> stats -> unit

type t

val create :
  ?stats:Tcm_metrics.Plane.group -> ?backend:string -> runtime:string -> string -> t
(** [create ~runtime manager] registers the family's instruments
    ([backend] defaults to ["locator"]).  [stats] is the runtime
    instance's group: the probe counts into a slot of it, acquired on
    the calling domain, which must be the one that uses the probe, and
    reads the wall clock.  Without [stats] the probe is tick-clocked. *)

val lane : t -> t
(** A probe sharing [t]'s instruments, with its own start times. *)

val attempt_begin : t -> txid:int -> attempt:int -> tick:int -> unit

val commit : t -> txid:int -> attempt:int -> tick:int -> opens:int -> unit
(** The attempt committed after [opens] object opens. *)

val abort : t -> txid:int -> attempt:int -> tick:int -> opens:int -> unit
(** The attempt aborted, wasting its [opens] opens. *)

val verdict : t -> me:int -> other:int -> code:int -> key:int -> tick:int -> unit
(** The manager ruled [code] ([Tcm_trace.Event.d_*], which are the
    [Conventions.v_*] codes) on a conflict over [key]: a tvar id, an
    orec stripe or an object id. *)

val enemy_abort : t -> unit
(** An [Abort_other] verdict aborted the enemy. *)

val wait_begin : t -> me:int -> enemy:int -> tick:int -> unit

val wait_end : t -> me:int -> enemy:int -> tick:int -> rounds:int -> unit
(** [rounds]: how far the spin/yield ladder got, the wait's price; a
    tick-clocked probe prices a wait by its ticks instead. *)

val pool : t -> int -> unit
(** One locator-pool event ([Conventions.p_*]). *)
