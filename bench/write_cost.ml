(** Write/commit-path cost probe: ns per transaction and GC words per
    commit for small-write-set transactions.

    The A/B instrument for the allocation-free write path: each row
    times transactions that write [w] distinct tvars (plus a read-only
    row: TL2's CAS-free read-only commit, the locator's status CAS),
    and reports the per-commit minor- and major-heap allocation
    measured from GC counter deltas around the timed loop.  All loops
    run on one domain, and minor words come from [Gc.minor_words],
    which counts up to the allocation pointer, so the minor figures
    are exact.

    A last row allocates variables with [Tvar.make] and reports the
    words per variable, the footprint every structure node pays.

    Usage: write_cost.exe [iters] [--backend locator|tl2] [--check]

    [--check] is the @write-smoke / @tl2-smoke sanity bound.  It
    enforces the absolute minor-words budget for the steady-state
    4-write transaction (catching an accidental reintroduction of
    per-open allocation), fails if that transaction allocates more
    with [tcm.metrics] on (the "+metrics" row), and holds the
    [Tvar.make] row to exactly [tvar_words] words per variable, so a
    field added to the variable fails it.  On TL2 it
    additionally runs the same workload on the locator backend and
    fails if the TL2 uncontended commit allocates more minor words per
    commit than the locator's — the PR-4 allocation discipline must
    carry over to the second backend, not just to the first. *)

open Tcm_stm

let iters =
  let rec find i =
    if i >= Array.length Sys.argv then 100_000
    else
      match int_of_string_opt Sys.argv.(i) with Some n -> n | None -> find (i + 1)
  in
  find 1

let checking = Array.exists (( = ) "--check") Sys.argv

let backend =
  let rec find i =
    if i >= Array.length Sys.argv then Stm.Locator
    else if Sys.argv.(i) = "--backend" then
      if i + 1 >= Array.length Sys.argv then begin
        Printf.eprintf "write_cost: --backend requires an argument\n";
        exit 2
      end
      else
        match Stm.backend_of_name Sys.argv.(i + 1) with
        | Some b -> b
        | None ->
            Printf.eprintf "write_cost: unknown backend %S (locator or tl2)\n"
              Sys.argv.(i + 1);
            exit 2
    else find (i + 1)
  in
  find 1

type row = {
  label : string;
  ns_per_txn : float;
  minor_per_commit : float;
  major_per_commit : float;
  minor_words : float;  (** The whole timed loop's, exact. *)
}

(* Warm up (fills locator pools / scratch logs to steady state), then
   measure one timed pass bracketed by the GC counters.  Minor words
   come from [Gc.minor_words]: [Gc.quick_stat]'s count only moves at
   minor collections, which smears it by up to a couple of words per
   transaction. *)
let measure label f =
  f (max 1 (iters / 10));
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f iters;
  let t1 = Unix.gettimeofday () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let per v0 v1 = (v1 -. v0) /. float_of_int iters in
  {
    label;
    ns_per_txn = (t1 -. t0) /. float_of_int iters *. 1e9;
    minor_per_commit = per m0 m1;
    major_per_commit = per g0.Gc.major_words g1.Gc.major_words;
    minor_words = m1 -. m0;
  }

let sink = ref 0

let rt_of backend = Stm.create ~backend (module Tcm_core.Greedy)

(* [w] writes to [w] distinct tvars per transaction. *)
let bench_writes ?(suffix = "") backend w =
  let rt = rt_of backend in
  let vars = Array.init w (fun i -> Tvar.make i) in
  let body tx =
    for i = 0 to w - 1 do
      Stm.write tx vars.(i) i
    done
  in
  measure
    (Printf.sprintf "%-9s w=%-3d write txn%s" (Stm.backend_name backend) w suffix)
    (fun n ->
      for _ = 1 to n do
        Stm.atomically rt body
      done)

(* The 4-write row with tcm.metrics — and so the ledger and hot keys —
   on. *)
let bench_instrumented backend =
  Tcm_metrics.enable ();
  Fun.protect ~finally:Tcm_metrics.disable (fun () ->
      bench_writes ~suffix:" +metrics" backend 4)

(* Read-modify-write of [w] tvars (the counter pattern). *)
let bench_rmw backend w =
  let rt = rt_of backend in
  let vars = Array.init w (fun i -> Tvar.make i) in
  let body tx =
    for i = 0 to w - 1 do
      Stm.write tx vars.(i) (Stm.read_for_write tx vars.(i) + 1)
    done
  in
  measure
    (Printf.sprintf "%-9s w=%-3d rmw txn" (Stm.backend_name backend) w)
    (fun n ->
      for _ = 1 to n do
        Stm.atomically rt body
      done)

(* Read-only transaction over [k] tvars: on TL2 the commit takes no
   CAS at all; on the locator it is the status CAS. *)
let bench_read_only backend k =
  let rt = rt_of backend in
  let vars = Array.init k (fun i -> Tvar.make i) in
  let body tx =
    let acc = ref 0 in
    for i = 0 to k - 1 do
      acc := !acc + Stm.read tx vars.(i)
    done;
    !acc
  in
  measure
    (Printf.sprintf "%-9s k=%-3d read-only txn" (Stm.backend_name backend) k)
    (fun n ->
      for _ = 1 to n do
        sink := Stm.atomically rt body
      done)

(* [Tvar.make] alone: 18 words (DESIGN.md "Reader slots"). *)
let tvar_words = 18

let kept = ref (Tvar.make 0)

let bench_make () =
  measure "Tvar.make (words per variable)" (fun n ->
      for i = 1 to n do
        kept := Tvar.make i
      done)

let rows_for backend =
  [
    bench_writes backend 1;
    bench_writes backend 4;
    bench_instrumented backend;
    bench_writes backend 16;
    bench_rmw backend 4;
    bench_read_only backend 8;
  ]

(* Index of the steady-state 4-write row in [rows_for] — the gated
   workload for both backends — followed by its "+metrics" twin. *)
let w4_index = 1

let () =
  Printf.printf "write-cost probe: backend=%s iters=%d (per-txn figures; single domain)\n%!"
    (Stm.backend_name backend) iters;
  let rows = rows_for backend in
  let make_row = bench_make () in
  Printf.printf "  %-34s %12s %14s %14s\n" "workload" "ns/txn" "minor-w/txn" "major-w/txn";
  List.iter
    (fun r ->
      Printf.printf "  %-34s %12.1f %14.2f %14.2f\n" r.label r.ns_per_txn
        r.minor_per_commit r.major_per_commit)
    (rows @ [ make_row ]);
  if checking then begin
    (* Footprint: the exact count, both ways — creep fails, and so does
       a saving nobody recorded here. *)
    let expect = float_of_int (tvar_words * iters) in
    if make_row.minor_words <> expect then begin
      Printf.eprintf
        "write-smoke FAIL: Tvar.make allocates %.0f minor words over %d variables, \
         expected exactly %d per variable\n"
        make_row.minor_words iters tvar_words;
      exit 1
    end;
    Printf.printf "write-smoke OK: Tvar.make allocates exactly %d words per variable\n"
      tvar_words;
    (* Absolute ceiling: the steady-state 4-write transaction must stay
       well under the pre-pooling cost (~138 minor words per commit;
       pooled it measures ~14.4 on the locator — the fixed per-attempt
       overhead, independent of write-set size).  Generous enough to be
       scheduling-noise-proof, tight enough to catch a reintroduced
       per-open allocation (each write used to cost ~25 words). *)
    let budget = 24.0 in
    let w4 = List.nth rows w4_index in
    if w4.minor_per_commit > budget then begin
      Printf.eprintf
        "write-smoke FAIL: %s allocates %.2f minor words per commit (budget %.1f)\n"
        w4.label w4.minor_per_commit budget;
      exit 1
    end;
    Printf.printf "write-smoke OK: %.2f minor words per commit (budget %.1f)\n"
      w4.minor_per_commit budget;
    (* The enabled record path — clock reads, counter and histogram
       stores, ledger lines — must add no allocation: the two loops
       run the same number of commits, so their exact word counts
       must match, and one extra word anywhere in the loop fails. *)
    let metered = List.nth rows (w4_index + 1) in
    if metered.minor_words > w4.minor_words then begin
      Printf.eprintf
        "write-smoke FAIL: %s allocates %.0f minor words over %d commits, plain %.0f\n"
        metered.label metered.minor_words iters w4.minor_words;
      exit 1
    end;
    Printf.printf "write-smoke OK: %.0f minor words over %d commits with tcm.metrics on (plain %.0f)\n"
      metered.minor_words iters w4.minor_words;
    match backend with
    | Stm.Locator -> ()
    | Stm.Tl2_backend ->
        (* Relative gate: TL2's uncontended commit must not allocate
           more than the locator's on the identical workload.  Both
           backends allocate 21 words per 4-write commit (the
           per-attempt descriptor plus the facade dispatch, shared by
           both paths); the comparison allows sub-box slack — any
           genuine extra allocation site (a boxed log entry, a
           closure) costs at least one 2-word box and still trips
           it. *)
        let slack = 1.5 in
        let loc_w4 = List.nth (rows_for Stm.Locator) w4_index in
        if w4.minor_per_commit > loc_w4.minor_per_commit +. slack then begin
          Printf.eprintf
            "tl2-smoke FAIL: tl2 4-write commit allocates %.2f minor words per commit, \
             locator %.2f — the second backend must not allocate more\n"
            w4.minor_per_commit loc_w4.minor_per_commit;
          exit 1
        end;
        Printf.printf
          "tl2-smoke OK: tl2 %.2f vs locator %.2f minor words per commit\n"
          w4.minor_per_commit loc_w4.minor_per_commit
  end
