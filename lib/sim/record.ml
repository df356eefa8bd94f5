open Tcm_trace

let capture f =
  Sink.start ();
  let r = Fun.protect ~finally:Sink.stop f in
  let events = Sink.collect () in
  let drops = Sink.drops () in
  if drops > 0 then
    failwith (Printf.sprintf "Record.capture: the trace sink dropped %d events" drops);
  (r, events)

type state = Run | Wait | Back
type ending = Commit | Abort | Other

(* A transaction's open span: its state since tick [from], [from < 0]
   when none is open. *)
type row = { id : int; mutable state : state; mutable from : int }

let fold (r : Engine.result) (events : Event.t array) f init =
  let rows = Hashtbl.create 16 in
  let count = ref 0 in
  let acc = ref init in
  let close row ~until ending =
    if row.from >= 0 then acc := f !acc ~row:row.id row.state ~from:row.from ~until ending;
    row.from <- -1
  in
  let enter row state ~at =
    if row.from < 0 || row.state <> state then begin
      close row ~until:at Other;
      row.state <- state;
      row.from <- at
    end
  in
  let backing_off row = row.from >= 0 && row.state = Back in
  let n = Array.length events in
  Array.iteri
    (fun i (e : Event.t) ->
      match (e.kind, Hashtbl.find_opt rows e.a) with
      | Event.Begin, None ->
          let row = { id = !count; state = Run; from = e.tick } in
          Hashtbl.add rows e.a row;
          incr count
      | Event.Begin, Some row | Event.Wait_end, Some row -> enter row Run ~at:e.tick
      | Event.Open, Some row -> if backing_off row then enter row Run ~at:e.tick
      | Event.Resolve, Some row ->
          if backing_off row then enter row Run ~at:e.tick;
          if e.c = Event.d_backoff then enter row Back ~at:e.tick
      | Event.Wait_begin, Some row -> enter row Wait ~at:e.tick
      | Event.Commit, Some row -> close row ~until:e.tick Commit
      | Event.Abort, Some row ->
          close row ~until:e.tick Abort;
          if i + 1 < n && events.(i + 1).kind = Event.Begin then begin
            (* The restart, under the same timestamp or a fresh one. *)
            Hashtbl.replace rows events.(i + 1).a row;
            row.state <- Back;
            row.from <- e.tick
          end
      | _, None -> ())
    events;
  (* A restarted transaction may sit under two timestamps: the second
     close finds nothing open. *)
  Hashtbl.iter (fun _ row -> close row ~until:r.Engine.ticks Other) rows;
  (!acc, !count)
