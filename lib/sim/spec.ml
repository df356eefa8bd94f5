(** Transaction specifications for the discrete-event simulator.

    Time is measured in integer ticks.  A transaction of duration [d]
    performs [d] ticks of work; an access [{ at; obj; kind }] is
    attempted when the transaction has completed [at] ticks ([0 <= at <
    d]), mirroring the paper's model where a transaction "requires the
    use of [Xi(Tj)] units of object [Xi] after some point in its
    execution".  Acquired objects are held until commit or abort. *)

type kind = Read | Write

type access = { at : int; obj : int; kind : kind }

type txn = {
  dur : int;  (** Ticks of work; > 0. *)
  accesses : access list;  (** Sorted by [at]. *)
  halts_at : int option;
      (** Fault injection (Section 6): if [Some p], the transaction
          stops making progress after completing [p] ticks — it stays
          active and keeps its objects, like a thread that halted
          undetectably.  Only timeout-based managers get past it. *)
}

let txn ?halts_at ~dur accesses =
  if dur <= 0 then invalid_arg "Spec.txn: dur must be positive";
  (match halts_at with
  | Some p when p < 0 || p >= dur -> invalid_arg "Spec.txn: halts_at out of range"
  | _ -> ());
  (* One pass validates every access and tells whether the list is
     already sorted by [at], as the repo's generators emit it: such a
     list is kept as it is. *)
  let rec check sorted prev = function
    | [] -> sorted
    | a :: rest ->
        if a.at < 0 || a.at >= dur then invalid_arg "Spec.txn: access time out of range";
        if a.obj < 0 then invalid_arg "Spec.txn: negative object";
        check (sorted && prev <= a.at) a.at rest
  in
  let accesses =
    if check true 0 accesses then accesses
    else List.stable_sort (fun a b -> Int.compare a.at b.at) accesses
  in
  { dur; accesses; halts_at }

let write ~at ~obj = { at; obj; kind = Write }
let read ~at ~obj = { at; obj; kind = Read }

let n_objects_of_txns txns =
  List.fold_left
    (fun acc t -> List.fold_left (fun acc a -> max acc (a.obj + 1)) acc t.accesses)
    0 txns

(** One-shot instance: [threads.(i)] runs exactly one transaction;
    thread order is priority order (index 0 = oldest timestamp). *)
type instance = { txns : txn array; n_objects : int }

let instance txns =
  let txns = Array.of_list txns in
  { txns; n_objects = n_objects_of_txns (Array.to_list txns) }

(** The corresponding Garey–Graham task system (Section 4.2): the task
    for a transaction has the same duration, an update uses the whole
    object for that duration, a read uses [1/n]. *)
let to_task_system (inst : instance) : Tcm_sched.Task_system.t =
  let n = Array.length inst.txns in
  let tasks =
    Array.to_list
      (Array.mapi
         (fun i t ->
           let needs =
             List.map
               (fun a ->
                 let amount =
                   match a.kind with
                   | Write -> Tcm_sched.Task_system.update_amount
                   | Read -> Tcm_sched.Task_system.read_amount ~n
                 in
                 (a.obj, amount))
               t.accesses
           in
           (* Merge duplicate objects, keeping the max amount. *)
           let needs =
             List.sort_uniq compare needs
             |> List.fold_left
                  (fun acc (r, a) ->
                    match acc with
                    | (r', a') :: rest when r' = r -> (r, Float.max a a') :: rest
                    | _ -> (r, a) :: acc)
                  []
             |> List.rev
           in
           Tcm_sched.Task_system.task ~id:i ~dur:t.dur needs)
         inst.txns)
  in
  Tcm_sched.Task_system.make tasks
