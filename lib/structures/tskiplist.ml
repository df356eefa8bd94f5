(** Transactional skiplist (the paper's "Skiplist application",
    Figure 2).

    A classic skiplist with per-level forward pointers held in [Tvar]s.
    Node levels are drawn from a deterministic splitmix stream seeded
    per structure, so runs are reproducible regardless of thread
    interleaving (the level only affects performance, never
    correctness).  Towers are capped at 8 levels, right for the
    paper's 256-key micro-benchmarks. *)

open Tcm_stm

let name = "skiplist"

let max_level = 8

type link = Nil | N of node

and node = { key : int; forward : link Tvar.t array }

type t = {
  head : link Tvar.t array;  (** head.(lvl) = first node at that level. *)
  level_seed : int Atomic.t;
}

let create () =
  {
    head = Array.init max_level (fun _ -> Tvar.make Nil);
    level_seed = Atomic.make 0x2545F491;
  }

(* Geometric level in [1, max_level]: count trailing ones of a hashed
   counter (p = 1/2 per level). *)
let random_level t =
  let x = Atomic.fetch_and_add t.level_seed 0x61c88647 in
  let h = x * 0x45d9f3b in
  let h = (h lxor (h lsr 16)) * 0x45d9f3b in
  let h = h lxor (h lsr 16) in
  let rec count l h = if l >= max_level || h land 1 = 0 then l else count (l + 1) (h lsr 1) in
  max 1 (count 0 h + 1) |> min max_level

(* Collect, for each level, the slot (pointer tvar) whose content is
   the first link with key >= k; the search descends through
   predecessor nodes in the usual skiplist fashion.  The predecessor
   found at level l necessarily reaches level l, so indexing its
   forward array at l-1 is safe. *)
let find_slots tx t k : link Tvar.t array * link =
  let slots = Array.make max_level t.head.(0) in
  let pred = ref None in
  for lvl = max_level - 1 downto 0 do
    let slot =
      ref (match !pred with None -> t.head.(lvl) | Some n -> n.forward.(lvl))
    in
    let continue = ref true in
    while !continue do
      match Stm.read tx !slot with
      | N ({ key; forward } as n) when key < k ->
          pred := Some n;
          slot := forward.(lvl)
      | Nil | N _ -> continue := false
    done;
    slots.(lvl) <- !slot
  done;
  (slots, Stm.read tx slots.(0))

let member tx t k =
  match find_slots tx t k with
  | _, N { key; _ } -> key = k
  | _, Nil -> false

let insert tx t k =
  let slots, found = find_slots tx t k in
  match found with
  | N { key; _ } when key = k -> false
  | _ ->
      let lvl = random_level t in
      let forward = Array.init lvl (fun i -> Tvar.make (Stm.read tx slots.(i))) in
      let node = N { key = k; forward } in
      for i = 0 to lvl - 1 do
        Stm.write tx slots.(i) node
      done;
      true

let remove tx t k =
  let slots, found = find_slots tx t k in
  match found with
  | N { key; forward } when key = k ->
      let lvl = Array.length forward in
      for i = 0 to lvl - 1 do
        (* The slot at level i points at our node iff the node reaches
           that level; splice it out. *)
        match Stm.read tx slots.(i) with
        | N { key = key'; _ } when key' = k -> Stm.write tx slots.(i) (Stm.read tx forward.(i))
        | _ -> ()
      done;
      true
  | _ -> false

let to_list tx t =
  let rec go link acc =
    match link with
    | Nil -> List.rev acc
    | N { key; forward } -> go (Stm.read tx forward.(0)) (key :: acc)
  in
  go (Stm.read tx t.head.(0)) []
