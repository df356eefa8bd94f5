(** The plane: the repo's one cache-line-strided per-domain store.

    Every per-domain counter and every piece of mutable manager state
    lives in a {e slot}: ints carved from a flat [int array] chunk,
    rounded up to whole cache lines plus a line of slack, so slots of
    different domains never share a line.  A slot is acquired on the
    domain that writes it — recording is then a plain int store: no
    atomics, no allocation — and released at that domain's exit:
    scrubbed and recycled through a per-stride freelist, so
    spawned-and-joined domains leave nothing behind.

    A slot may belong to a {!group}, the counter view it feeds (the
    metric registry, one runtime instance's statistics).  Releasing it
    folds its counts into the group's retired total, so {!totals}
    survive the domains that counted them.  Acquire, release, growth
    and {!totals} share one mutex: a reader sees each count exactly
    once, so successive totals never go down. *)

val line_words : int
(** Ints per 64-byte cache line (8). *)

type group

val group : unit -> group

type slot = private {
  arr : int array;  (** The slot's cells are [arr.(base + i)], [i < words]. *)
  base : int;
  words : int;
  owner : group option;
  mutable released : bool;
}

val acquire : ?group:group -> int -> slot
(** [acquire n] carves a zeroed slot of [n] ints, released when the
    calling domain exits — or, for an ungrouped slot acquired inside
    {!scoped}, when the scope closes.  Takes a mutex and may allocate
    a chunk: call it at set-up, never on a record path. *)

val release : slot -> unit
(** Fold a grouped slot into its group's retired total, scrub it and
    recycle it.  Idempotent. *)

val grow : slot -> int -> slot
(** [grow s n] moves a grouped slot's counts into a fresh [n]-cell
    slot of the calling domain and recycles [s], which must not be
    written again. *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f]: the ungrouped slots [f] acquires on this domain are
    released when [f] returns, not at domain exit. *)

val get : slot -> int -> int
val set : slot -> int -> int -> unit

val totals : group -> int array
(** Per-cell sum over the group's live slots and retired total. *)

val clear : group -> unit
(** Zero the group's live slots and retired total. *)

val live_slots : unit -> int
(** Slots currently acquired, over every group — the leak probe. *)

val free_words : unit -> int
(** Words of released slots parked for reuse. *)
