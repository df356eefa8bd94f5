let schema = "tcm-trace/1"

module Json = Tcm_json

(* The event codec, shared with flight bundles. *)
let output_event ?(prefix = "") oc (e : Event.t) =
  Printf.fprintf oc
    "{%s\"seq\":%d,\"dom\":%d,\"tick\":%d,\"kind\":\"%s\",\"a\":%d,\"b\":%d,\"c\":%d}\n"
    prefix e.seq e.dom e.tick (Event.kind_name e.kind) e.a e.b e.c

let event_of_json j : Event.t =
  let kind = Json.get_str "kind" j in
  {
    seq = Json.get_int "seq" j;
    dom = Json.get_int "dom" j;
    tick = Json.get_int "tick" j;
    kind =
      (try Event.kind_of_name kind
       with Invalid_argument _ ->
         raise (Json.Parse_error (Printf.sprintf "unknown event kind %S" kind)));
    a = Json.get_int "a" j;
    b = Json.get_int "b" j;
    c = Json.get_int "c" j;
  }

let output_jsonl ?(drops = 0) ?manager oc (trace : Event.t array) =
  (match manager with
  | None ->
    Printf.fprintf oc "{\"schema\":\"%s\",\"events\":%d,\"drops\":%d}\n" schema
      (Array.length trace) drops
  | Some m ->
    Printf.fprintf oc
      "{\"schema\":\"%s\",\"manager\":%s,\"events\":%d,\"drops\":%d}\n" schema
      (Json.quote m) (Array.length trace) drops);
  Array.iter (output_event oc) trace

let write_jsonl ?drops ?manager path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_jsonl ?drops ?manager oc trace)

(* A file holds one or more sections, each opened by a header line
   (optionally labelled with the manager that produced the capture)
   and followed by its events.  Headerless files read as one anonymous
   section, so pre-section traces keep parsing unchanged. *)
let read_jsonl_sections path =
  let sections = ref [] in
  let cur_mgr = ref None and cur_drops = ref 0 and cur_events = ref [] in
  let in_section = ref false in
  let flush () =
    if !in_section || !cur_events <> [] then begin
      let arr = Array.of_list !cur_events in
      Array.sort (fun (x : Event.t) (y : Event.t) -> compare x.seq y.seq) arr;
      sections := (!cur_mgr, arr, !cur_drops) :: !sections
    end
  in
  Json.iter_jsonl path (fun j ->
      match Json.member "schema" j with
      | Some _ ->
        let s = Json.get_str "schema" j in
        if s <> schema then failwith ("unknown trace schema: " ^ s);
        flush ();
        in_section := true;
        cur_mgr := Option.map Json.to_str (Json.member "manager" j);
        cur_drops := Json.get_int "drops" j;
        cur_events := []
      | None -> cur_events := event_of_json j :: !cur_events);
  flush ();
  List.rev !sections

let read_jsonl path =
  match read_jsonl_sections path with
  | [] -> ([||], 0)
  | sections ->
    (* Sections come from separate captures whose seq counters restart
       at 0, so re-offset each one past its predecessor's range before
       concatenating: downstream analyses assume seq is monotone. *)
    let drops = List.fold_left (fun a (_, _, d) -> a + d) 0 sections in
    let base = ref 0 in
    let parts =
      List.map
        (fun (_, arr, _) ->
          let b = !base in
          let shifted =
            Array.map (fun (e : Event.t) -> { e with Event.seq = e.seq + b }) arr
          in
          let n = Array.length shifted in
          if n > 0 then base := shifted.(n - 1).Event.seq + 1;
          shifted)
        sections
    in
    (Array.concat parts, drops)

(* Chrome Trace Event Format. Tracks are domains; attempts and waits are B/E
   slices, resolves and opens are instants. Waits nest inside attempts, but a
   waiting attempt can be aborted without a Wait_end event, so slice closure
   is tracked per track and forced before closing the enclosing attempt. *)

type track = { mutable txn_open : bool; mutable wait_open : bool }

let output_chrome oc (trace : Event.t array) =
  let tracks : (int, track) Hashtbl.t = Hashtbl.create 16 in
  let track dom =
    match Hashtbl.find_opt tracks dom with
    | Some t -> t
    | None ->
      let t = { txn_open = false; wait_open = false } in
      Hashtbl.add tracks dom t;
      t
  in
  let first = ref true in
  let emit dom ts ph name cat args =
    if !first then first := false else output_string oc ",\n";
    Printf.fprintf oc
      "{\"pid\":0,\"tid\":%d,\"ts\":%d,\"ph\":\"%s\",\"name\":\"%s\",\"cat\":\"%s\"%s}"
      dom ts ph name cat
      (if args = "" then "" else ",\"args\":{" ^ args ^ "}")
  in
  let close_wait dom ts =
    let t = track dom in
    if t.wait_open then begin
      t.wait_open <- false;
      emit dom ts "E" "wait" "wait" ""
    end
  in
  let close_txn dom ts =
    let t = track dom in
    close_wait dom ts;
    if t.txn_open then begin
      t.txn_open <- false;
      emit dom ts "E" "tx" "txn" ""
    end
  in
  output_string oc "{\"traceEvents\":[\n";
  let last_ts = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      let ts = e.seq in
      last_ts := ts;
      match e.kind with
      | Event.Begin ->
        close_txn e.dom ts;
        (track e.dom).txn_open <- true;
        emit e.dom ts "B" (Printf.sprintf "tx%d" e.a) "txn"
          (Printf.sprintf "\"txid\":%d,\"attempt\":%d,\"tick\":%d" e.a e.b e.tick)
      | Event.Commit ->
        close_wait e.dom ts;
        (track e.dom).txn_open <- false;
        emit e.dom ts "E" (Printf.sprintf "tx%d" e.a) "txn"
          (Printf.sprintf "\"outcome\":\"commit\",\"tick\":%d" e.tick)
      | Event.Abort ->
        close_wait e.dom ts;
        (track e.dom).txn_open <- false;
        emit e.dom ts "E" (Printf.sprintf "tx%d" e.a) "txn"
          (Printf.sprintf "\"outcome\":\"abort\",\"tick\":%d" e.tick)
      | Event.Wait_begin ->
        close_wait e.dom ts;
        (track e.dom).wait_open <- true;
        emit e.dom ts "B" "wait" "wait"
          (Printf.sprintf "\"me\":%d,\"enemy\":%d,\"tick\":%d" e.a e.b e.tick)
      | Event.Wait_end -> close_wait e.dom ts
      | Event.Resolve ->
        emit e.dom ts "i" ("resolve:" ^ Event.decision_name e.c) "cm"
          (Printf.sprintf "\"me\":%d,\"other\":%d,\"tick\":%d" e.a e.b e.tick)
      | Event.Open ->
        emit e.dom ts "i" "open" "obj"
          (Printf.sprintf "\"txid\":%d,\"obj\":%d,\"write\":%s,\"tick\":%d" e.a e.b
             (if e.c = 1 then "true" else "false")
             e.tick))
    trace;
  Hashtbl.iter (fun dom _ -> close_txn dom (!last_ts + 1)) tracks;
  output_string oc "\n]}\n"

let write_chrome path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_chrome oc trace)
