(** Transactional KV store: values in a {!Tcm_structures.Thashmap}.

    The keyspace is dense: {!preload} or {!prefill} binds every key of
    [0 .. n_keys - 1], and {!scan} relies on that, reading keys
    [lo, lo + 1, ...] by point lookups instead of walking a key
    index. *)

open Tcm_stm

type t

val create : ?buckets:int -> n_keys:int -> unit -> t
(** Hashmap sized for [n_keys] at low occupancy ([buckets] overrides).
    @raise Invalid_argument on [n_keys < 1]. *)

val preload : t -> unit
(** Insert keys [0 .. n_keys - 1] (value = key) {e non-transactionally}
    — only sound on a fresh store before any worker can see it.  The
    fast path for million-key stores. *)

val prefill : Stm.runtime -> t -> unit
(** Insert keys [0 .. n_keys - 1] (value = key), batched into small
    transactions — the slow reference build {!preload} is checked
    against. *)

val n_keys : t -> int
val get : Stm.tx -> t -> int -> int option
val put : Stm.tx -> t -> int -> int -> unit

val rmw : Stm.tx -> t -> int -> (int option -> int option) -> unit
(** Atomic read-modify-write of one binding. *)

val scan : Stm.tx -> t -> lo:int -> len:int -> int * int
(** Looks up keys [max 0 lo] to [min n_keys (max 0 lo + len) - 1] in
    ascending order (none when [len <= 0]; no overflow at
    [len = max_int]); returns (bindings found, sum of their values).
    Keys outside [0 .. n_keys - 1] are never read, even when [put]
    bound them.  On a built store this is "up to [len] bindings from
    the smallest key >= [lo]", less any key an [rmw] deleted.  On a
    store never preloaded or prefilled it counts only the keys of that
    range that [put] or [rmw] have bound. *)
