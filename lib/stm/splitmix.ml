(** Deterministic splitmix64 pseudo-random stream.

    Used everywhere randomness is needed — seeding contention-manager
    jitter, simulator scenarios, workload generators — so that every experiment
    is reproducible from its seed and nothing touches the global
    [Random] state shared across domains. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int ((seed * 0x9E3779B9) + 1) }

let global_seed = Atomic.make 0x51ED270B

(** Fresh stream with a process-unique seed (for per-instance jitter
    where cross-run determinism is not required). *)
let create_self_seeded () = create (Atomic.fetch_and_add global_seed 0x61c88647)

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform int in [0, bound); [bound <= 1] yields 0. *)
let int t bound =
  if bound <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

(** Uniform float in [0, 1). *)
let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
