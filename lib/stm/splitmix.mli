(** Deterministic splitmix64 pseudo-random stream.

    Used wherever randomness is needed — seeding manager jitter,
    simulator scenarios, workload generators — so every experiment reproduces from
    its seed and nothing touches the global [Random] state shared
    across domains. *)

type t

val create : int -> t
(** Stream determined entirely by the seed. *)

val create_self_seeded : unit -> t
(** Fresh stream with a process-unique seed, for per-instance jitter
    where cross-run determinism is not required. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]; [bound <= 1] yields 0. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)
