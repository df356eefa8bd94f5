type family = { backend : string; manager : string; runtime : string }

(* [sk] is [unset] until the handle's first enabled record, which
   attaches the recording domain's sketch for the family. *)
type t = { fam : family; k : int; mutable sk : Sketch.t }

let unset = Sketch.create 1
let mu = Mutex.create ()

(* The live sketches, tagged by family; one per (family, domain).  The
   per-domain table makes attachment idempotent on a domain, so the sim
   can re-create handles per run without leaking sketches.  A domain's
   sketches leave [all] at its exit, merged into their family's
   [retired] entries. *)
let all : (family * Sketch.t) list ref = ref []
let retired : (family, int * Sketch.entry list) Hashtbl.t = Hashtbl.create 8 (* cap, entries *)

let dls : (family, Sketch.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let for_manager ?(k = 32) ?(backend = "locator") ~runtime manager =
  { fam = { backend; manager; runtime }; k; sk = unset }

let retire fam sk =
  Mutex.lock mu;
  all := List.filter (fun (_, s) -> s != sk) !all;
  let cap, prev = Option.value (Hashtbl.find_opt retired fam) ~default:(0, []) in
  let cap = max cap (Sketch.capacity sk) in
  Hashtbl.replace retired fam (cap, Sketch.merge ~cap [ prev; Sketch.entries sk ]);
  Mutex.unlock mu

let[@inline never] attach t =
  let tbl = Domain.DLS.get dls in
  match Hashtbl.find_opt tbl t.fam with
  | Some sk -> t.sk <- sk
  | None ->
      let sk = Sketch.create t.k in
      Hashtbl.replace tbl t.fam sk;
      Mutex.lock mu;
      all := (t.fam, sk) :: !all;
      Mutex.unlock mu;
      Domain.at_exit (fun () -> retire t.fam sk);
      t.sk <- sk

let record t key =
  if Tcm_metrics.enabled () then begin
    if t.sk == unset then attach t;
    Sketch.record t.sk key
  end

let sketches () =
  Mutex.lock mu;
  let n = List.length !all in
  Mutex.unlock mu;
  n

let snapshot () =
  Mutex.lock mu;
  let live = !all in
  let old = Hashtbl.fold (fun f part acc -> (f, part) :: acc) retired [] in
  Mutex.unlock mu;
  let parts =
    old @ List.map (fun (f, sk) -> (f, (Sketch.capacity sk, Sketch.entries sk))) live
  in
  List.filter_map
    (fun f ->
      let mine = List.filter_map (fun (f', part) -> if f' = f then Some part else None) parts in
      let cap = List.fold_left (fun m (c, _) -> max m c) 0 mine in
      match Sketch.merge ~cap (List.map snd mine) with [] -> None | es -> Some (f, es))
    (List.sort_uniq compare (List.map fst parts))

let truncate n es = List.filteri (fun i _ -> i < n) es

let top ?(n = 10) () =
  List.map (fun (f, es) -> (f, truncate n es)) (snapshot ())

let pp ?(n = 10) fmt snap =
  Format.fprintf fmt "%-14s %-8s %-5s %10s  %s@." "manager" "backend" "rt"
    "conflicts" "hot keys (key:count, +-err when estimated)";
  List.iter
    (fun (f, es) ->
      let total = List.fold_left (fun a (e : Sketch.entry) -> a + e.count) 0 es in
      let keys =
        String.concat " "
          (List.map
             (fun (e : Sketch.entry) ->
               if e.err = 0 then Printf.sprintf "%d:%d" e.key e.count
               else Printf.sprintf "%d:%d(+-%d)" e.key e.count e.err)
             (truncate n es))
      in
      Format.fprintf fmt "%-14s %-8s %-5s %10d  %s@." f.manager f.backend
        f.runtime total keys)
    snap

let reset () =
  Mutex.lock mu;
  let entries = !all in
  Hashtbl.reset retired;
  Mutex.unlock mu;
  List.iter (fun (_, sk) -> Sketch.clear sk) entries
