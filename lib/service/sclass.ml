(** Transaction classes of the service workload.

    Three classes cover the mixes the contention-manager question
    cares about: [Read] (point-get dominated, tiny read sets), [Scan]
    (long ordered range reads — the transactions that lose under
    kill-the-reader managers), and [Rmw] (read-modify-write on hot
    keys — the transactions that fight).  Each class carries its own
    latency SLO; the mix weights set the offered blend. *)

type t = Read | Scan | Rmw

let all = [| Read; Scan; Rmw |]
let count = Array.length all

let index = function Read -> 0 | Scan -> 1 | Rmw -> 2

let name = function Read -> "read" | Scan -> "scan" | Rmw -> "rmw"

let of_name = function
  | "read" -> Some Read
  | "scan" -> Some Scan
  | "rmw" -> Some Rmw
  | _ -> None

(** Offered mix, by weight (need not sum to 1). *)
type mix = { read_w : float; scan_w : float; rmw_w : float }

(** Read-heavy default: 80% point reads, 5% scans, 15% RMW. *)
let default_mix = { read_w = 0.80; scan_w = 0.05; rmw_w = 0.15 }

let weights mix = [| mix.read_w; mix.scan_w; mix.rmw_w |]

(* [Samplers.pick_weighted rng ~weights:(weights mix)] unrolled over
   the three weights, with the same float operations in the same order,
   so it returns the same class; it allocates nothing. *)
let pick mix rng : t =
  let r = mix.read_w and s = mix.scan_w and w = mix.rmw_w in
  let total = 0. +. r +. s +. w in
  if not (total > 0.) then invalid_arg "Sclass.pick: total weight > 0";
  let u = Tcm_stm.Splitmix.float rng *. total in
  if r > 0. && u < r then Read
  else if s > 0. && u < (if r > 0. then r +. s else s) then Scan
  else if w > 0. then Rmw
  else if s > 0. then Scan
  else Read

(** Default per-class arrival-to-commit SLO targets (us).  Scans are
    allowed an order of magnitude more than point reads. *)
let default_slo_us = function Read -> 2_000. | Scan -> 20_000. | Rmw -> 5_000.

let default_slos = Array.map default_slo_us all
