(* A contention-manager decorator for the traced run: it forwards every
   callback to the wrapped manager and counts, per domain instance,
   what the manager did and what it cost, so the tcm_core layer can be
   measured from outside the runtime. *)

open Tcm_stm

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type counters = {
  mutable commits : int;
  mutable resolves : int;
  mutable resolve_ns : int;
  mutable abort_other : int;
  mutable blocks : int;
  mutable wait_ns : int;
  mutable wait_since : int;  (** 0 unless a Block/Backoff verdict is pending. *)
  mutable opens : int;
  mutable attempt_opens : int;
  mutable wasted_opens : int;
}

type totals = {
  resolves_per_commit : float;
  resolve_ns : float;  (** Mean busy time of one [resolve] call. *)
  wait_us_per_commit : float;
  abort_other_share : float;
  block_share : float;
  wasted_open_ratio : float;
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* [wrap m] is a manager behaving exactly like [m] plus a reader of the
   counters summed over every instance the runtime created from it. *)
let wrap (module M : Cm_intf.S) : Cm_intf.factory * (unit -> totals) =
  let lock = Mutex.create () in
  let instances = ref [] in
  let module W = struct
    let name = M.name

    type t = { inner : M.t; c : counters }

    let create () =
      let c =
        {
          commits = 0;
          resolves = 0;
          resolve_ns = 0;
          abort_other = 0;
          blocks = 0;
          wait_ns = 0;
          wait_since = 0;
          opens = 0;
          attempt_opens = 0;
          wasted_opens = 0;
        }
      in
      Mutex.protect lock (fun () -> instances := c :: !instances);
      { inner = M.create (); c }

    (* A wait ends at the instance's next callback, whichever it is. *)
    let settle c =
      if c.wait_since > 0 then begin
        c.wait_ns <- c.wait_ns + (now_ns () - c.wait_since);
        c.wait_since <- 0
      end

    let begin_attempt t txn =
      settle t.c;
      t.c.attempt_opens <- 0;
      M.begin_attempt t.inner txn

    let opened t txn =
      settle t.c;
      t.c.opens <- t.c.opens + 1;
      t.c.attempt_opens <- t.c.attempt_opens + 1;
      M.opened t.inner txn

    let committed t txn =
      settle t.c;
      t.c.commits <- t.c.commits + 1;
      M.committed t.inner txn

    let aborted t txn =
      settle t.c;
      t.c.wasted_opens <- t.c.wasted_opens + t.c.attempt_opens;
      M.aborted t.inner txn

    let resolve t ~me ~other ~attempts =
      let c = t.c in
      settle c;
      let t0 = now_ns () in
      let d = M.resolve t.inner ~me ~other ~attempts in
      let t1 = now_ns () in
      c.resolves <- c.resolves + 1;
      c.resolve_ns <- c.resolve_ns + (t1 - t0);
      (match d with
      | Decision.Abort_other -> c.abort_other <- c.abort_other + 1
      | Decision.Abort_self -> ()
      | Decision.Block _ ->
          c.blocks <- c.blocks + 1;
          c.wait_since <- t1
      | Decision.Backoff _ -> c.wait_since <- t1);
      d
  end in
  let read () =
    let cs = Mutex.protect lock (fun () -> !instances) in
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
    let commits = sum (fun c -> c.commits) and resolves = sum (fun c -> c.resolves) in
    {
      resolves_per_commit = ratio resolves commits;
      resolve_ns = ratio (sum (fun c -> c.resolve_ns)) resolves;
      wait_us_per_commit = ratio (sum (fun c -> c.wait_ns)) commits /. 1e3;
      abort_other_share = ratio (sum (fun c -> c.abort_other)) resolves;
      block_share = ratio (sum (fun c -> c.blocks)) resolves;
      wasted_open_ratio = ratio (sum (fun c -> c.wasted_opens)) (sum (fun c -> c.opens));
    }
  in
  ((module W : Cm_intf.S), read)
