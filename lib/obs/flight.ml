let schema = "tcm-flight/1"

type cls_window = { mutable seen : int; mutable missed : int }

type t = {
  f_dir : string;
  tag : string;
  window : int;
  miss_frac : float;
  shed_spike : int;
  min_interval_s : float;
  max_bundles : int;
  mu : Mutex.t;
  per_class : (string, cls_window) Hashtbl.t;
  mutable drops_pending : int;
  mutable last_dump : float;
  mutable written : int;
}

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(window = 64) ?(miss_frac = 0.5) ?(shed_spike = 64)
    ?(min_interval_s = 0.25) ?(max_bundles = 16) ~dir ~tag () =
  mkdir_p dir;
  {
    f_dir = dir;
    tag;
    window = max 1 window;
    miss_frac;
    shed_spike = max 1 shed_spike;
    min_interval_s;
    max_bundles;
    mu = Mutex.create ();
    per_class = Hashtbl.create 8;
    drops_pending = 0;
    last_dump = 0.;
    written = 0;
  }

let dir t = t.f_dir
let count t = Mutex.lock t.mu; let n = t.written in Mutex.unlock t.mu; n

(* ------------------------------------------------------------------ *)
(* Bundle writer                                                       *)
(* ------------------------------------------------------------------ *)

module Json = Tcm_json

let output_bundle oc t ~trigger ~unix_ms (events : Tcm_trace.Event.t array)
    ~drops =
  let q = Json.quote in
  Printf.fprintf oc
    "{\"schema\":\"%s\",\"tag\":%s,\"trigger\":%s,\"unix_ms\":%d,\"events\":%d,\"drops\":%d}\n"
    schema (q t.tag) (q trigger) unix_ms (Array.length events) drops;
  List.iter
    (fun (r : Ledger.row) ->
      Printf.fprintf oc
        "{\"rec\":\"ledger\",\"backend\":%s,\"manager\":%s,\"runtime\":%s,\"class\":%s,\"aborts\":%d,\"wasted_work\":%d,\"waits\":%d,\"wait_cost\":%d,\"wait_ticks\":%d,\"commits\":%d,\"useful_work\":%d}\n"
        (q r.backend) (q r.manager) (q r.runtime) (q r.cls) r.aborts r.wasted_work r.waits
        r.wait_cost r.wait_ticks r.commits r.useful_work)
    (Ledger.rows ());
  List.iter
    (fun ((f : Hot.family), es) ->
      List.iter
        (fun (e : Sketch.entry) ->
          Printf.fprintf oc
            "{\"rec\":\"hot\",\"backend\":%s,\"manager\":%s,\"runtime\":%s,\"key\":%d,\"count\":%d,\"err\":%d}\n"
            (q f.backend) (q f.manager) (q f.runtime) e.key e.count e.err)
        es)
    (Hot.snapshot ());
  Array.iter (Tcm_trace.Export.output_event ~prefix:"\"rec\":\"event\"," oc) events

(* Caller holds t.mu. *)
let dump_locked t ~trigger =
  let now = Unix.gettimeofday () in
  let unix_ms = int_of_float (now *. 1e3) in
  (* Drain the rings: each bundle carries the window since the
     previous one (Sink.collect only returns new events). *)
  let events = Tcm_trace.Sink.collect () in
  let drops = Tcm_trace.Sink.drops () in
  let name = Printf.sprintf "flight-%013d-%02d-%s.jsonl" unix_ms t.written trigger in
  let path = Filename.concat t.f_dir name in
  let tmp = Filename.concat t.f_dir ("." ^ name ^ ".tmp") in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bundle oc t ~trigger ~unix_ms events ~drops);
  Sys.rename tmp path;
  t.written <- t.written + 1;
  t.last_dump <- now

let maybe_dump_locked t ~trigger =
  if
    t.written < t.max_bundles
    && Unix.gettimeofday () -. t.last_dump >= t.min_interval_s
  then dump_locked t ~trigger

let force t ~trigger =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () ->
      dump_locked t ~trigger)

let note_completion t ~cls ~within_slo =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () ->
      let w =
        match Hashtbl.find_opt t.per_class cls with
        | Some w -> w
        | None ->
            let w = { seen = 0; missed = 0 } in
            Hashtbl.replace t.per_class cls w;
            w
      in
      w.seen <- w.seen + 1;
      if not within_slo then w.missed <- w.missed + 1;
      if w.seen >= t.window then begin
        let breach =
          float_of_int w.missed >= t.miss_frac *. float_of_int w.seen
        in
        w.seen <- 0;
        w.missed <- 0;
        if breach then maybe_dump_locked t ~trigger:"slo_breach"
      end)

let note_drop t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) (fun () ->
      t.drops_pending <- t.drops_pending + 1;
      if t.drops_pending >= t.shed_spike then begin
        t.drops_pending <- 0;
        maybe_dump_locked t ~trigger:"shed_spike"
      end)

(* ------------------------------------------------------------------ *)
(* Bundle reader                                                       *)
(* ------------------------------------------------------------------ *)

type bundle = {
  b_tag : string;
  b_trigger : string;
  b_unix_ms : int;
  b_events : Tcm_trace.Event.t array;
  b_drops : int;
  b_ledger : Ledger.row list;
  b_hot : (Hot.family * Sketch.entry list) list;
}

let read_bundle path =
  let header = ref None in
  let events = ref [] in
  let ledger = ref [] in
  let hot : (Hot.family, Sketch.entry list ref) Hashtbl.t = Hashtbl.create 8 in
  Json.iter_jsonl path (fun j ->
      match Json.member "schema" j with
      | Some _ ->
          let s = Json.get_str "schema" j in
          if s <> schema then failwith ("unknown flight schema: " ^ s);
          header :=
            Some
              ( Json.get_str "tag" j,
                Json.get_str "trigger" j,
                Json.get_int "unix_ms" j,
                Json.get_int "drops" j )
      | None -> (
          let str k = Json.get_str k j and int k = Json.get_int k j in
          match str "rec" with
          | "event" -> events := Tcm_trace.Export.event_of_json j :: !events
          | "ledger" ->
              ledger :=
                {
                  Ledger.backend = str "backend";
                  manager = str "manager";
                  runtime = str "runtime";
                  cls = str "class";
                  aborts = int "aborts";
                  wasted_work = int "wasted_work";
                  waits = int "waits";
                  wait_cost = int "wait_cost";
                  wait_ticks = int "wait_ticks";
                  commits = int "commits";
                  useful_work = int "useful_work";
                }
                :: !ledger
          | "hot" ->
              let f =
                { Hot.backend = str "backend"; manager = str "manager"; runtime = str "runtime" }
              in
              let e = { Sketch.key = int "key"; count = int "count"; err = int "err" } in
              let cell =
                match Hashtbl.find_opt hot f with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.replace hot f c;
                    c
              in
              cell := e :: !cell
          | other -> failwith ("unknown flight record kind: " ^ other)));
  let tag, trigger, unix_ms, drops =
    match !header with
    | Some h -> h
    | None -> failwith ("flight bundle missing header: " ^ path)
  in
  let ev = Array.of_list (List.rev !events) in
  Array.sort (fun a b -> compare a.Tcm_trace.Event.seq b.Tcm_trace.Event.seq) ev;
  let hot_list = Hashtbl.fold (fun f es acc -> (f, List.rev !es) :: acc) hot [] in
  {
    b_tag = tag;
    b_trigger = trigger;
    b_unix_ms = unix_ms;
    b_events = ev;
    b_drops = drops;
    b_ledger = List.rev !ledger;
    b_hot = List.sort compare hot_list;
  }

let bundles dirname =
  if not (Sys.file_exists dirname) then []
  else
    Sys.readdir dirname |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 7
           && String.sub f 0 7 = "flight-"
           && Filename.check_suffix f ".jsonl")
    |> List.sort compare
    |> List.map (Filename.concat dirname)
