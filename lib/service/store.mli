(** Transactional KV store: a fixed hash table over the dense keyspace
    [[0, n_keys)].

    A key's bucket is given by its low bits; a bucket is one variable
    holding an immutable [int array] of its keys' values (at most four
    keys), so point ops conflict only per bucket.
    {!preload} or {!prefill} binds every key of [0 .. n_keys - 1], and
    {!scan} relies on that, reading keys [lo, lo + 1, ...] by point
    lookups instead of walking a key index.  Values are ints other than
    [min_int], which marks a slot with no binding. *)

open Tcm_stm

type t

val create : n_keys:int -> unit -> t
(** An unbuilt store: [2^b] buckets, [2^b] the least power of two
    [>= max 64 (n_keys / 4)], and no key bound.
    @raise Invalid_argument on [n_keys < 1]. *)

val preload : t -> unit
(** Bind keys [0 .. n_keys - 1] (value = key) {e non-transactionally}
    — only sound on a fresh store before any worker can see it.  The
    fast path for million-key stores. *)

val prefill : Stm.runtime -> t -> unit
(** Bind keys [0 .. n_keys - 1] (value = key), batched into small
    transactions — the slow reference build {!preload} is checked
    against. *)

val n_keys : t -> int

val get : Stm.tx -> t -> int -> int option
(** One bucket read; [None] for a key outside [[0, n_keys)], without a
    read. *)

val put : Stm.tx -> t -> int -> int -> unit
(** Bind a key: one open for write of its bucket, a copy of the
    bucket's array and one write.
    @raise Invalid_argument on a key outside [[0, n_keys)] or the
    value [min_int]. *)

val rmw : Stm.tx -> t -> int -> (int option -> int option) -> unit
(** Atomic read-modify-write of one binding, [None] deleting it, in one
    open for write of its bucket; deleting an absent binding writes
    nothing.
    @raise Invalid_argument on a key outside [[0, n_keys)] or when
    the function returns [Some min_int]. *)

val scan : Stm.tx -> t -> lo:int -> len:int -> int * int
(** Looks up keys [max 0 lo] to [min n_keys (max 0 lo + len) - 1] in
    ascending order, one bucket read each (none when [len <= 0]; no
    overflow at [len = max_int]); returns (bindings found, sum of their
    values).  On a built store this is "up to [len] bindings from the
    smallest key >= [lo]", less any key an [rmw] deleted.  On a store
    never preloaded or prefilled it counts only the keys of that range
    that [put] or [rmw] have bound. *)
