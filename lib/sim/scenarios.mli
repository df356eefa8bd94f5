(** Canonical simulation scenarios. *)

val adversarial_chain :
  ?granularity:int -> s:int -> unit -> Spec.instance * int array
(** The Section 4 chain in [granularity] ticks per paper time unit
    (>= 2).  Returns the instance and the inverted priority ranks
    ([T_i] older than [T_{i-1}]).
    @raise Invalid_argument if [s < 1] or [granularity < 2]. *)

val dependency_cycle : unit -> Spec.instance
(** Two transactions that each open the other's first object late:
    unbounded FIFO waiting cycles forever. *)

val halted_owner : ?n:int -> unit -> Spec.instance
(** Thread 0 halts holding the hot object (Section 6); threads
    [1..n-1] need it to commit. *)

val random_instance :
  seed:int -> n:int -> s:int -> ?max_dur:int -> ?max_acc:int -> unit -> Spec.instance

val hotspot_instance :
  seed:int -> n:int -> s:int -> ?theta:float -> dur:int -> unit -> Spec.instance
(** [n] single-write transactions over [s] objects with Zipf([theta])
    skew (default 0.9, object 0 hottest), via the shared
    {!Tcm_dist.Samplers.Zipf} sampler; deterministic in [seed]. *)
