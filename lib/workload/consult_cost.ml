(** Consult-path cost probe: ns and GC minor words per [resolve], per
    manager × backend.

    The measurement core behind [bench/consult_cost.exe] (the
    @cm-smoke gate) and [bench --consult].  Each row drives one
    manager instance exactly as the runtimes do — [begin_attempt],
    enough [opened] events to push the STO-style adaptive manager past
    its timid threshold, then a tight loop of [Runtime_intf.consult]
    calls with cycling attempt counts — and reports the per-resolve
    latency and the loop's minor-heap allocation.  Minor words come
    from [Gc.minor_words], which reads the calling domain's allocation
    pointer, so the count is exact to the word.

    Both STM backends and the simulator take their verdicts through
    that one [consult], so a row's backend is only its label: the
    locator and TL2 rows time the same code twice, and the dump keeps
    one row per manager and backend.  The
    gates in {!check} are the teeth: not one minor word over the whole
    timed loop, an absolute latency ceiling, and a flatness band across
    managers of the same backend — a manager whose consult is an order
    of magnitude off its peers has smuggled work onto the decision
    path. *)

open Tcm_stm

type row = {
  manager : string;
  backend : string;  (** "locator" or "tl2". *)
  ns_per_resolve : float;
  minor_words_per_resolve : float;
  minor_words : float;  (** The whole timed loop's, exact. *)
}

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

let max_minor_words = 0.
(** Minor words the whole timed loop may allocate.  The count is exact,
    so the budget is the discipline itself. *)

let max_ns = 2_000.
(** Absolute per-resolve latency ceiling — generous, catches only
    pathology (a syscall or a table rebuild on the decision path). *)

let flatness_ratio = 16.
(** Within one backend, slowest / fastest manager bound. *)

let flatness_floor_ns = 30.
(** Managers cheaper than this are clamped to it before the flatness
    ratio, so sub-noise differences between trivial managers don't
    trip the band. *)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Opens driven before measuring: past Sto_adaptive.ts_threshold, so
   the adaptive manager is measured in its fight phase (the phase with
   actual work on the path). *)
let warm_opens = 12

let sink = ref 0

(* The minor-word reads sit inside the clock reads, so the boxed clock
   values are not counted. *)
let measure_loop ~iters f =
  f (max 1 (iters / 10));
  let t0 = Unix.gettimeofday () in
  let m0 = Gc.minor_words () in
  f iters;
  let m1 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  ((t1 -. t0) /. float_of_int iters *. 1e9, m1 -. m0)

(* A conflict pair the way the runtimes present one: [me] younger than
   [other] (so age-based managers exercise their non-trivial branch),
   both active, enemy not waiting, and the enemy carrying a real
   cm_stamp so the adaptive manager's fight phase reaches its
   randomized-wait arm rather than short-circuiting on the timid
   sentinel. *)
let conflict_pair () =
  let other = Txn.new_attempt (Txn.new_shared ()) in
  let me = Txn.new_attempt (Txn.new_shared ()) in
  Txn.set_cm_stamp other 1;
  (me, other)

let measure_manager ~iters backend factory =
  let (Cm_intf.Packed ((module M), st) as packed) =
    Cm_intf.instantiate factory
  in
  let me, other = conflict_pair () in
  M.begin_attempt st me;
  for _ = 1 to warm_opens do
    M.opened st me
  done;
  let ns, minor =
    measure_loop ~iters (fun n ->
        for i = 1 to n do
          (* Cycle the attempt count through each manager's give-up
             branches; count verdicts into [sink] so the loop body
             cannot be considered dead. *)
          match Runtime_intf.consult packed ~me ~other ~attempts:(i land 3) with
          | Decision.Abort_other -> incr sink
          | _ -> ()
        done)
  in
  {
    manager = M.name;
    backend = Stm.backend_name backend;
    ns_per_resolve = ns;
    minor_words_per_resolve = minor /. float_of_int iters;
    minor_words = minor;
  }

let measure_backend ?(iters = 200_000) backend =
  List.map (measure_manager ~iters backend) Tcm_core.Registry.all

let measure_all ?iters () =
  measure_backend ?iters Stm.Locator @ measure_backend ?iters Stm.Tl2_backend

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

(** Violation messages for the allocation, latency and flatness gates;
    empty means the discipline holds. *)
let check (rows : row list) : string list =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  List.iter
    (fun r ->
      if r.minor_words > max_minor_words then
        add "%s/%s: %.0f minor words over the timed loop (%.4f per resolve; budget %.0f)"
          r.backend r.manager r.minor_words r.minor_words_per_resolve
          max_minor_words;
      if r.ns_per_resolve > max_ns then
        add "%s/%s: %.0f ns per resolve (ceiling %.0f)" r.backend r.manager
          r.ns_per_resolve max_ns)
    rows;
  let backends = List.sort_uniq compare (List.map (fun r -> r.backend) rows) in
  List.iter
    (fun b ->
      let band =
        List.filter_map
          (fun r ->
            if r.backend = b then Some (max flatness_floor_ns r.ns_per_resolve)
            else None)
          rows
      in
      match band with
      | [] -> ()
      | ns :: rest ->
          let lo = List.fold_left min ns rest
          and hi = List.fold_left max ns rest in
          if hi > lo *. flatness_ratio then
            add "%s: consult latency band not flat (%.0f..%.0f ns, ratio %.1f > %.1f)"
              b lo hi (hi /. lo) flatness_ratio)
    backends;
  List.rev !violations
