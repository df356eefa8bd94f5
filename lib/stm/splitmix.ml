(** Deterministic splitmix64 pseudo-random stream.

    Used everywhere randomness is needed — seeding contention-manager
    jitter, simulator scenarios, workload generators — so that every experiment
    is reproducible from its seed and nothing touches the global
    [Random] state shared across domains.

    The 64-bit state sits unboxed in an 8-byte [Bytes.t], read and
    written in native byte order: a [mutable state : int64] field
    would box a fresh [Int64] on every step.  The mixing step is
    inlined into each draw, where the native compiler keeps its
    [int64] intermediates in registers, so a draw that returns an
    [int] or a [bool] allocates nothing. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 (Int64.of_int ((seed * 0x9E3779B9) + 1));
  t

let global_seed = Atomic.make 0x51ED270B

(** Fresh stream with a process-unique seed (for per-instance jitter
    where cross-run determinism is not required). *)
let create_self_seeded () = create (Atomic.fetch_and_add global_seed 0x61c88647)

let[@inline] step t =
  let z = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t = step t

(** Uniform int in [0, bound); [bound <= 1] yields 0 and consumes no
    output. *)
let int t bound =
  if bound <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.logand (step t) Int64.max_int) (Int64.of_int bound))

let bool t = Int64.logand (step t) 1L = 1L

(** The top 53 bits of the next output, uniform in [0, 2^53). *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

(** Uniform float in [0, 1): [bits53 / 2^53], exact. *)
let float t = float_of_int (bits53 t) /. 9007199254740992.0
