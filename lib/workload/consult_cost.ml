(** Consult-path cost probe: ns and GC minor words per [resolve], per
    manager × backend.

    The measurement core behind [bench/consult_cost.exe] (the
    @cm-smoke gate) and [bench --consult].  Each row drives one
    manager instance exactly as the runtimes do — [begin_attempt],
    enough [opened] events to push the STO-style adaptive manager past
    its timid threshold, then a tight loop of backend [consult] calls
    with cycling attempt counts — and reports the per-resolve latency
    and minor-heap allocation from [Gc.quick_stat] deltas around the
    loop.  Everything runs on one domain, so the single-domain GC
    counters are exact.

    Rows exist for both STM backends, whose [consult] entry points are
    distinct code paths.  The simulator takes its verdicts through the
    locator's [Runtime.consult], so the locator rows cover it too.  The
    gates in {!check} are the teeth: at most {!max_minor_words} minor
    words per resolve (i.e. zero, with room for measurement noise), an
    absolute latency ceiling, and a flatness band across managers of the
    same backend — a manager whose consult is an order of magnitude off
    its peers has smuggled work onto the decision path. *)

open Tcm_stm

type row = {
  manager : string;
  backend : string;  (** "locator" or "tl2". *)
  ns_per_resolve : float;
  minor_words_per_resolve : float;
}

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

let max_minor_words = 0.01
(** Per-resolve minor-words budget: the discipline is zero; the slack
    only absorbs one-off allocations amortised over the loop. *)

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

let measure_loop ~iters f =
  f (max 1 (iters / 10));
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  f iters;
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  ( (t1 -. t0) /. float_of_int iters *. 1e9,
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int iters )

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

let backend_consult = function
  | Stm.Locator -> Runtime.consult
  | Stm.Tl2_backend -> Tl2.consult

let measure_manager ~iters backend factory =
  let (Cm_intf.Packed ((module M), st) as packed) =
    Cm_intf.instantiate factory
  in
  let me, other = conflict_pair () in
  M.begin_attempt st me;
  for _ = 1 to warm_opens do
    M.opened st me
  done;
  let consult = backend_consult backend in
  let ns, minor =
    measure_loop ~iters (fun n ->
        for i = 1 to n do
          (* Cycle the attempt count through each manager's give-up
             branches; count verdicts into [sink] so the loop body
             cannot be considered dead. *)
          match consult packed ~me ~other ~attempts:(i land 3) with
          | Decision.Abort_other -> incr sink
          | _ -> ()
        done)
  in
  {
    manager = M.name;
    backend = Stm.backend_name backend;
    ns_per_resolve = ns;
    minor_words_per_resolve = minor;
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
      if r.minor_words_per_resolve > max_minor_words then
        add "%s/%s: %.4f minor words per resolve (budget %.4f)" r.backend
          r.manager r.minor_words_per_resolve max_minor_words;
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
