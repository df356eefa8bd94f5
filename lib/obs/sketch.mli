(** Space-saving heavy-hitter sketch (Metwally et al.) over integer
    keys, used to track the hottest conflicting tvar / orec-stripe
    identities.  A sketch of capacity [k] holds at most [k] counters;
    any key whose true frequency exceeds [total / k] is guaranteed
    present, and each reported count overestimates the true count by
    at most that entry's [err] (itself bounded by [total / k]).

    The record path is a single O(k) scan over two int arrays — no
    allocation, no hashing — which is why the per-domain sketches kept
    by {!Hot} stay cheap enough to sit on the conflict-resolution
    path. *)

type t

val create : int -> t
(** [create k] — capacity [k] (clamped to at least 1) counters. *)

val capacity : t -> int

val total : t -> int
(** Sum of all recorded weights, including those of evicted keys. *)

val record : ?weight:int -> t -> int -> unit
(** Count one occurrence of a key (or [weight] occurrences).  When the
    sketch is full and the key absent, the minimum counter is
    recycled: the new key inherits its count as error bound. *)

val clear : t -> unit

type entry = { key : int; count : int; err : int }
(** [count] overestimates the key's true frequency by at most [err]
    ([count - err] is a guaranteed lower bound). *)

val entries : t -> entry list
(** Sorted by count descending, then key ascending (deterministic). *)

val max_error : t -> int
(** The eviction floor: 0 until the sketch fills, then the smallest
    resident count — the worst-case overestimate for a new arrival. *)

val merge : cap:int -> entry list list -> entry list
(** Merge entry lists by the rule of {!merged}, truncated to [cap]
    entries. *)

val merged : t list -> entry list
(** Merge per-domain sketches: counts and error bounds add per key
    (the standard mergeable-summary rule), the result is sorted like
    {!entries} and truncated to the largest input capacity.  The
    outcome is independent of the order of the list. *)
