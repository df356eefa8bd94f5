(* GC accounting for the traced run, read from outside the program
   through the OCaml runtime's own event ring (stdlib runtime_events).

   The ring is drained by a system thread of the calling domain, not by
   a domain of its own: an extra domain would have to join every
   stop-the-world minor collection and would inflate the pauses it is
   there to measure.  The ring file is created in a scratch directory
   under the working directory and unlinked as soon as it is mapped, so
   a run leaves nothing behind and touches nothing outside its
   checkout. *)

module RE = Runtime_events

let scratch_dir = ".bench_tmp"

(* Collection phases.  They nest; a domain is paused while it is inside
   any of them. *)
let is_gc_phase = function
  | RE.EV_MINOR | RE.EV_MAJOR | RE.EV_MAJOR_SLICE | RE.EV_STW_LEADER | RE.EV_STW_HANDLER
  | RE.EV_MAJOR_GC_STW | RE.EV_MAJOR_FINISH_CYCLE ->
      true
  | _ -> false

type window = {
  pause_ns : int;  (** Wall time during which some domain was collecting. *)
  pause_max_ns : int;  (** Longest such stretch. *)
  alloc_words : int;
  promoted_words : int;
  minors : int;
  majors : int;
  lost_events : int;
}

(* Count, total and longest length of the union of [(start, stop)]
   intervals.  A stop-the-world collection shows up once per domain and
   counts once. *)
let union spans =
  let sorted = List.sort compare spans in
  let rec go n total longest cur = function
    | [] -> (
        match cur with
        | None -> (n, total, longest)
        | Some (s, e) -> (n + 1, total + (e - s), max longest (e - s)))
    | (s, e) :: tl -> (
        match cur with
        | Some (cs, ce) when s <= ce -> go n total longest (Some (cs, max ce e)) tl
        | Some (cs, ce) ->
            go (n + 1) (total + (ce - cs)) (max longest (ce - cs)) (Some (s, e)) tl
        | None -> go n total longest (Some (s, e)) tl)
  in
  go 0 0 0 None sorted

let cursor = ref None

(* Start the runtime's event ring once per process: chdir into the
   scratch directory so the ring file lands there, map it, unlink it. *)
let ensure_started () =
  match !cursor with
  | Some c -> c
  | None ->
      let cwd = Sys.getcwd () in
      if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
      Sys.chdir scratch_dir;
      let c =
        Fun.protect
          ~finally:(fun () -> Sys.chdir cwd)
          (fun () ->
            RE.start ();
            let c = RE.create_cursor None in
            Sys.remove (Printf.sprintf "%d.events" (Unix.getpid ()));
            c)
      in
      (try Sys.rmdir scratch_dir with Sys_error _ -> ());
      cursor := Some c;
      c

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Run [f] while a thread drains the ring.  [f] returns its result and
   the length in seconds of the measured window it ended with; only
   events inside that window count, so set-up work is left out.  The
   ring's timestamps and [now_ns] read the same monotonic clock. *)
let measure f =
  let c = ensure_started () in
  RE.resume ();
  let depth = Hashtbl.create 8 and since = Hashtbl.create 8 in
  let gc = ref [] and minor = ref [] and cycle = ref [] in
  let alloc = ref [] and promoted = ref [] and lost = ref 0 in
  let ts t = Int64.to_int (RE.Timestamp.to_int64 t) in
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let callbacks =
    RE.Callbacks.create
      ~runtime_begin:(fun ring t phase ->
        Hashtbl.replace since (ring, Some phase) (ts t);
        if is_gc_phase phase then begin
          let d = get depth ring in
          if d = 0 then Hashtbl.replace since (ring, None) (ts t);
          Hashtbl.replace depth ring (d + 1)
        end)
      ~runtime_end:(fun ring t phase ->
        let span key = (get since (ring, key), ts t) in
        (match phase with
        | RE.EV_MINOR -> minor := span (Some phase) :: !minor
        | RE.EV_MAJOR_GC_CYCLE_DOMAINS -> cycle := span (Some phase) :: !cycle
        | _ -> ());
        if is_gc_phase phase then begin
          let d = get depth ring in
          if d = 1 then gc := span None :: !gc;
          Hashtbl.replace depth ring (max 0 (d - 1))
        end)
      ~runtime_counter:(fun _ring t counter v ->
        (* Both counters are in bytes. *)
        let words = v / (Sys.word_size / 8) in
        match counter with
        | RE.EV_C_MINOR_ALLOCATED -> alloc := (ts t, words) :: !alloc
        | RE.EV_C_MINOR_PROMOTED -> promoted := (ts t, words) :: !promoted
        | _ -> ())
      ~lost_events:(fun _ring n -> lost := !lost + n)
      ()
  in
  (* Events from before the call are not ours. *)
  ignore (RE.read_poll c (RE.Callbacks.create ()) None);
  let stop = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          ignore (RE.read_poll c callbacks None);
          Thread.delay 0.002
        done)
      ()
  in
  let r, from =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join poller)
      (fun () ->
        let r, window_s = f () in
        (r, now_ns () - int_of_float (window_s *. 1e9)))
  in
  ignore (RE.read_poll c callbacks None);
  RE.pause ();
  let inside spans = List.filter (fun (s, _) -> s >= from) !spans in
  let total events =
    List.fold_left (fun acc (t, w) -> if t >= from then acc + w else acc) 0 !events
  in
  let _, pause_ns, pause_max_ns = union (inside gc) in
  let minors, _, _ = union (inside minor) and majors, _, _ = union (inside cycle) in
  ( r,
    {
      pause_ns;
      pause_max_ns;
      alloc_words = total alloc;
      promoted_words = total promoted;
      minors;
      majors;
      lost_events = !lost;
    } )
