(** ASCII rendering of a simulated run from its trace events: one row
    per transaction, one column per tick. *)

val render : Engine.result -> Tcm_trace.Event.t array -> string
(** [render r events], [events] being the run's capture (see
    {!Record.fold}). *)
