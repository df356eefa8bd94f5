(** Deterministic splitmix64 pseudo-random stream.

    Used wherever randomness is needed — seeding manager jitter,
    simulator scenarios, workload generators — so every experiment reproduces from
    its seed and nothing touches the global [Random] state shared
    across domains.

    The state is one unboxed 64-bit word: {!int}, {!bool} and {!bits53}
    allocate nothing.  {!float} returns a boxed float (two words), so a
    hot loop in another module scales {!bits53} itself.  Each draw
    consumes exactly one {!next} output (except [int t b] with
    [b <= 1], which consumes none), so every derived stream replays
    from its seed. *)

type t

val create : int -> t
(** Stream determined entirely by the seed. *)

val create_self_seeded : unit -> t
(** Fresh stream with a process-unique seed, for per-instance jitter
    where cross-run determinism is not required. *)

val next : t -> int64
(** Next raw 64-bit output.  The result is a boxed [int64]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]: the low 63 bits of
    {!next} modulo [bound].  [bound <= 1] yields 0 without consuming an
    output. *)

val bool : t -> bool
(** The lowest bit of {!next}. *)

val bits53 : t -> int
(** The top 53 bits of {!next}, uniform in [\[0, 2^53)]: the integer
    {!float} scales, and the one the Zipf sampler of [tcm.dist] indexes
    its key table with. *)

val float : t -> float
(** [bits53 t / 2^53], uniform in [\[0, 1)]; exact, so a caller that
    scales {!bits53} itself sees the same value. *)
