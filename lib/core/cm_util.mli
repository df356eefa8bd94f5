(** Shared helpers for contention-manager implementations.

    {!Cm_state} is the allocation-discipline backbone of the manager
    zoo: flat slab storage carved into cache-line-strided [int array]
    slots, acquired once per manager instance (per domain) and released
    at domain exit.  {!Prng} and {!Table} are the two state shapes the
    managers need, both living entirely in slab cells so that the
    consult path — [resolve] plus all lifecycle hooks — allocates zero
    minor words for every manager. *)

open Tcm_stm

module Cm_state : sig
  type slot = {
    arr : int array;  (** Backing chunk; index via [base + i]. *)
    base : int;
    words : int;  (** Usable payload size requested at acquire. *)
    mutable released : bool;
  }

  val acquire : words:int -> slot
  (** Carve a zeroed slot of [words] ints off the slab and register a
      [Domain.at_exit] hook (on the calling domain) that releases it —
      or, inside {!scoped}, hand it to the scope to release.
      Call once per manager instance from [create] — never on the
      consult path (it takes a mutex and may allocate a chunk). *)

  val release : slot -> unit
  (** Scrub the slot and return it to the freelist.  Idempotent: the
      domain-exit hook and an explicit release do not double-free. *)

  val scoped : seed:int -> (unit -> 'a) -> 'a
  (** [scoped ~seed f] runs [f] with manager creation made
      deterministic and short-lived: slots acquired inside [f] are
      released when [f] returns (not at domain exit), and every
      {!Prng} created inside [f] is seeded from [seed], in creation
      order.  The simulator builds its per-thread managers this way, so
      runs are reproducible and leave no slots behind. *)

  val get : slot -> int -> int
  val set : slot -> int -> int -> unit

  val live_slots : unit -> int
  (** Number of currently acquired slots — for leak regressions. *)

  val line_words : int

  val stride_of : int -> int
  (** Slot footprint in slab words for a given payload: rounded up to
      whole cache lines plus one slack line, so adjacent slots (which
      may belong to managers on different domains) never share a
      line. *)
end

(** Deterministic per-instance pseudo-random stream for backoff jitter
    and coin flips.  State is two slab cells; every draw is plain int
    arithmetic — no allocation (the previous [Splitmix]-based wrapper
    boxed an [Int64] per draw).  Seeded process-uniquely at creation,
    or from the seed of an enclosing {!Cm_state.scoped}. *)
module Prng : sig
  type t

  val state_words : int
  (** Cells of slab state a stream occupies (2). *)

  val create : unit -> t
  (** Stream in a freshly acquired slot of its own. *)

  val in_slot : Cm_state.slot -> int -> t
  (** [in_slot slot ix] places (and seeds) the stream's state at cells
      [ix, ix + 1] of [slot], for managers packing several pieces of
      state into one slot. *)

  val int : t -> int -> int
  (** [int t bound] is uniform-ish in [0, bound); [0] if [bound <= 1]. *)

  val bool : t -> bool
end

(** Bounded open-addressed int->int map in slab cells, for per-enemy
    manager memory (Kindergarten grudges, Greedy-FT timeout grants).
    Entries are generation-stamped: {!reset} forgets everything with a
    single int bump — no [Hashtbl.reset], no bucket-array churn.
    Capacity is fixed; when a probe window fills, the oldest probe
    position is evicted.  Dropping an entry under pressure is benign:
    the managers are heuristics over advisory state. *)
module Table : sig
  type t

  val probe_window : int

  val words : cap:int -> int
  (** Slab words a table of capacity [cap] occupies. *)

  val create : cap:int -> t
  (** Table in a freshly acquired slot of its own.  [cap] must be a
      power of two, at least {!probe_window}. *)

  val in_slot : Cm_state.slot -> ix:int -> cap:int -> t
  (** Place the table at cell offset [ix] of an existing slot. *)

  val reset : t -> unit
  (** Forget all entries (a generation bump — O(1), no allocation). *)

  val find : t -> int -> default:int -> int
  val mem : t -> int -> bool
  val put : t -> int -> int -> unit
end

val exp_backoff : ?base:int -> ?cap:int -> Prng.t -> int -> int
(** [exp_backoff prng n] is a truncated-exponential backoff duration in
    microseconds: [base * 2^n] capped at [cap], plus jitter. *)

val brief_backoff : Prng.t -> Decision.t
(** Short jittered backoff verdict (16–32 us) from the {!Decision}
    flyweight table — never allocates. *)

(** No-op lifecycle hooks for stateless managers. *)
module No_lifecycle : sig
  val begin_attempt : 'a -> 'b -> unit
  val opened : 'a -> 'b -> unit
  val committed : 'a -> 'b -> unit
  val aborted : 'a -> 'b -> unit
end
