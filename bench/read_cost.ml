(** Focused per-read cost probe: the locator's visible reads against
    TL2's clock-validated invisible reads.

    Times transactions that read [k] distinct tvars ([k] on the command
    line, default 64) and transactions doing one insert/remove on a
    [Tlist] prefilled to the same size, one row per backend.  This is
    the A/B instrument for the read hot path: a locator read registers
    the reader on the variable, a TL2 read samples the variable's orec
    stripe and validates it against the version clock.

    Usage: read_cost.exe [k] [iters] [--backend locator|tl2]

    Without [--backend] both rows are printed; [--backend] narrows the
    probe to one.  A malformed argument prints the usage and exits 2. *)

open Tcm_stm

let usage () =
  prerr_endline "usage: read_cost.exe [k] [iters] [--backend locator|tl2]";
  exit 2

(* Up to two positive ints, [k] then [iters], and [--backend NAME]. *)
let positionals, backend_flag =
  let rec go i acc backend =
    if i >= Array.length Sys.argv then (List.rev acc, backend)
    else if Sys.argv.(i) = "--backend" then
      if i + 1 >= Array.length Sys.argv then usage ()
      else
        match Stm.backend_of_name Sys.argv.(i + 1) with
        | Some b -> go (i + 2) acc (Some b)
        | None ->
            Printf.eprintf "read_cost: unknown backend %S (locator or tl2)\n"
              Sys.argv.(i + 1);
            exit 2
    else
      match int_of_string_opt Sys.argv.(i) with
      | Some n when n > 0 -> go (i + 1) (n :: acc) backend
      | _ -> usage ()
  in
  go 1 [] None

let k, iters =
  match positionals with
  | [] -> (64, 200_000)
  | [ k ] -> (k, 200_000)
  | [ k; iters ] -> (k, iters)
  | _ -> usage ()

let backends = match backend_flag with Some b -> [ b ] | None -> Stm.all_backends

let time_per_txn f =
  (* One warmup pass, then the measured pass. *)
  f (iters / 10);
  let t0 = Unix.gettimeofday () in
  f iters;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9

let sink = ref 0

let bench_reads backend =
  let rt = Stm.create ~backend (module Tcm_core.Greedy) in
  let vars = Array.init k (fun i -> Tvar.make i) in
  time_per_txn (fun n ->
      for _ = 1 to n do
        sink :=
          Stm.atomically rt (fun tx ->
              let acc = ref 0 in
              Array.iter (fun v -> acc := !acc + Stm.read tx v) vars;
              !acc)
      done)

let bench_list backend =
  let rt = Stm.create ~backend (module Tcm_core.Greedy) in
  let l = Tcm_structures.Tlist.create () in
  for i = 0 to k - 1 do
    ignore (Stm.atomically rt (fun tx -> Tcm_structures.Tlist.insert tx l (i * 2)))
  done;
  let rng = Splitmix.create 11 in
  time_per_txn (fun n ->
      for _ = 1 to n do
        let key = Splitmix.int rng (2 * k) in
        ignore
          (Stm.atomically rt (fun tx ->
               if Splitmix.bool rng then Tcm_structures.Tlist.insert tx l key
               else Tcm_structures.Tlist.remove tx l key))
      done)

let () =
  Printf.printf "read-cost probe: k=%d iters=%d (ns per txn)\n%!" k iters;
  List.iter
    (fun backend ->
      Printf.printf "  %-10s %d-tvar read txn: %10.1f   list update (%d elems): %10.1f\n%!"
        (Stm.backend_name backend) k (bench_reads backend) k (bench_list backend))
    backends
