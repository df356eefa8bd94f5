(** The one JSON codec behind every artifact this repo writes and
    reads: bench dumps ([tcm-bench/7]), metrics dumps
    ([tcm-metrics/1]), traces ([tcm-trace/1]) and flight bundles
    ([tcm-flight/1]).  Writers build a {!t} and call {!to_string}, or
    keep their own [Printf] line layouts and pass every string through
    {!quote}; readers parse with {!of_string} (one document) or
    {!iter_jsonl} (one document per line) and take fields with the
    typed accessors.  No dependencies, so every library can use it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact JSON.  Floats print as [%.6g]; non-finite floats, which
    have no JSON form (e.g. the [nan] of an empty latency sample),
    print as [null]. *)

val quote : string -> string
(** A JSON string literal, quotes included: ["\""], ["\\"] and the
    control characters below U+0020 are escaped, every other byte
    (UTF-8 included) is copied. *)

exception Parse_error of string

val of_string : string -> t
(** Strict RFC 8259 parser.  A number without ['.'] or an exponent is
    an [Int] (a [Float] if it overflows), so {!get_float} accepts
    both.  Raw control characters inside strings are rejected.
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys and non-objects. *)

(** {1 Typed access}

    Each raises [Parse_error] naming the field when it is missing or
    has another type. *)

val get_int : string -> t -> int
val get_float : string -> t -> float
val get_str : string -> t -> string
val get_list : string -> t -> t list
val get_assoc : string -> t -> (string * t) list

val to_int : t -> int
val to_str : t -> string
(** The element forms, for array items and object values. *)

val iter_jsonl : string -> (t -> unit) -> unit
(** [iter_jsonl path f] parses each non-blank line of the file [path]
    and passes it to [f].  A [Parse_error] or [Failure], from the
    parser or from [f], becomes [Failure "PATH:LINE: message"].
    @raise Sys_error on I/O errors. *)
