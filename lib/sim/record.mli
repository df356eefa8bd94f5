(** A simulated run's one record: the trace events its probe emitted,
    once per lifecycle point, read back as spans of ticks.
    {!Props.pending_commit} and {!Timeline} both read a run through
    {!fold}.

    A transaction runs from its [Begin], waits from [Wait_begin] to
    [Wait_end], and backs off from a [Resolve] with the backoff verdict
    to its next [Open] or [Resolve].  An [Abort] followed at once by a
    [Begin] is a restart: the transaction backs off until that
    [Begin]'s tick.  Any other [Abort] ends a halted thread.  A span
    covers the ticks [from] to [until - 1], the ticks whose access
    phase left the transaction in that state; its [until] is the
    [Commit] or [Abort] that ended it, the next span's start, or the
    run's last tick. *)

val capture : (unit -> 'a) -> 'a * Tcm_trace.Event.t array
(** [capture f] runs [f] with the trace sink started afresh
    ({!Tcm_trace.Sink.start}) and returns its result with the events
    it emitted.
    @raise Failure if the sink dropped events. *)

type state = Run | Wait | Back

type ending =
  | Commit  (** The attempt committed at the end of tick [until - 1]. *)
  | Abort  (** The attempt was aborted at tick [until]. *)
  | Other  (** Another span follows, or the run ended at [until]. *)

val fold :
  Engine.result ->
  Tcm_trace.Event.t array ->
  ('a -> row:int -> state -> from:int -> until:int -> ending -> 'a) ->
  'a ->
  'a * int
(** [fold r events f init] calls [f] on every span of the run [r]
    whose events are [events], each transaction's in order, and
    returns the result with the number of transactions.  A span is
    empty ([from = until]) when the transaction left it in the access
    phase that entered it.  [row] numbers a transaction by its first
    [Begin]: on a one-shot instance, its thread. *)
