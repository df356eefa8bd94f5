(** Trace serialization.

    JSONL: first line is a header
    [{"schema":"tcm-trace/1","events":N,"drops":D}] (plus an optional
    ["manager"] label naming the capture), then one event object per
    line with keys [seq dom tick kind a b c].  A file may concatenate
    several header-led sections — one per captured manager, as
    [bench --trace] writes them.  [read] accepts traces with or
    without the header and raises [Failure] naming the file and line
    on malformed lines.

    Chrome: the Trace Event Format (chrome://tracing, Perfetto).  Attempts
    become duration (B/E) slices named [tx<txid>] on track [dom]; waits
    become nested slices; resolves and opens become instants.  Timestamps are
    the linearized [seq] (one unit = 1us); the simulator tick, when present,
    rides along in [args]. *)

val write_jsonl : ?drops:int -> ?manager:string -> string -> Event.t array -> unit
val output_jsonl : ?drops:int -> ?manager:string -> out_channel -> Event.t array -> unit

val read_jsonl : string -> Event.t array * int
(** Returns the events (sorted by seq) and the summed drop counts.  On
    a multi-section file the sections are concatenated with each
    section's seqs re-offset past its predecessor's, so seq stays
    monotone for the analyses. *)

val read_jsonl_sections : string -> (string option * Event.t array * int) list
(** One [(manager, events, drops)] triple per header-led section, in
    file order; a headerless trace reads as a single anonymous
    section. *)

val output_event : ?prefix:string -> out_channel -> Event.t -> unit
(** One event line: an object with keys [seq dom tick kind a b c],
    after [prefix], raw JSON members (with their trailing comma) that
    another format puts first — flight bundles write
    [{"rec":"event",...}] lines with it. *)

val event_of_json : Tcm_json.t -> Event.t
(** Read an event back from an object carrying those keys; other keys
    are ignored.  @raise Tcm_json.Parse_error on a missing or
    mistyped field or an unknown kind. *)

val write_chrome : string -> Event.t array -> unit
val output_chrome : out_channel -> Event.t array -> unit
