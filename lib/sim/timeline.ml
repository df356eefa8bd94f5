(** ASCII rendering of a simulated run: one row per transaction, in
    the order of their first [Begin] (thread order on a one-shot
    instance), one column per tick.

    Legend: ['R'] running, ['w'] waiting, ['b'] backing off or waiting
    to restart, ['C'] the tick at whose end the attempt committed,
    ['X'] a running tick followed by the attempt's abort, [' '] before
    the transaction began or after it ended. *)

let render (r : Engine.result) events =
  let ticks = r.Engine.ticks in
  let spans, rows =
    Record.fold r events
      (fun acc ~row state ~from ~until ending -> (row, state, from, until, ending) :: acc)
      []
  in
  let cells = Array.init rows (fun _ -> Bytes.make ticks ' ') in
  List.iter
    (fun (row, state, from, until, ending) ->
      let cells = cells.(row) in
      Bytes.fill cells from (until - from)
        (match state with Record.Run -> 'R' | Record.Wait -> 'w' | Record.Back -> 'b');
      match ending with
      | Record.Commit -> Bytes.set cells (until - 1) 'C'
      | Record.Abort when until > 0 && Bytes.get cells (until - 1) = 'R' ->
          Bytes.set cells (until - 1) 'X'
      | _ -> ())
    (List.rev spans);
  let buf = Buffer.create ((rows + 2) * (ticks + 16)) in
  (* Tick ruler every 10 columns. *)
  Buffer.add_string buf "        ";
  for t = 0 to ticks - 1 do
    Buffer.add_char buf (if t mod 10 = 0 then '|' else ' ')
  done;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i cells ->
      Buffer.add_string buf (Printf.sprintf "T%-3d    " i);
      Buffer.add_bytes buf cells;
      Buffer.add_char buf '\n')
    cells;
  Buffer.add_string buf "        R running  w waiting  b backoff/restart  C commit  X aborted\n";
  Buffer.contents buf
