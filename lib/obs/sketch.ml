type t = {
  cap : int;
  keys : int array;
  counts : int array;
  errs : int array;
  mutable n : int;
  mutable total : int;
}

let create k =
  let cap = max 1 k in
  {
    cap;
    keys = Array.make cap 0;
    counts = Array.make cap 0;
    errs = Array.make cap 0;
    n = 0;
    total = 0;
  }

let capacity t = t.cap
let total t = t.total

let clear t =
  t.n <- 0;
  t.total <- 0;
  Array.fill t.keys 0 t.cap 0;
  Array.fill t.counts 0 t.cap 0;
  Array.fill t.errs 0 t.cap 0

let record ?(weight = 1) t key =
  if weight > 0 then begin
    t.total <- t.total + weight;
    (* One scan finds both the key (if resident) and the minimum
       counter (the eviction victim if it is not). *)
    let hit = ref (-1) in
    let mn = ref 0 in
    for i = 0 to t.n - 1 do
      if t.keys.(i) = key then hit := i
      else if t.counts.(i) < t.counts.(!mn) then mn := i
    done;
    if !hit >= 0 then t.counts.(!hit) <- t.counts.(!hit) + weight
    else if t.n < t.cap then begin
      let i = t.n in
      t.n <- i + 1;
      t.keys.(i) <- key;
      t.counts.(i) <- weight;
      t.errs.(i) <- 0
    end
    else begin
      (* Space-saving eviction: the newcomer takes over the minimum
         counter and inherits its count as the error bound. *)
      let i = !mn in
      t.errs.(i) <- t.counts.(i);
      t.counts.(i) <- t.counts.(i) + weight;
      t.keys.(i) <- key
    end
  end

type entry = { key : int; count : int; err : int }

let compare_entries a b =
  if a.count <> b.count then compare b.count a.count else compare a.key b.key

let entries t =
  let es = ref [] in
  for i = t.n - 1 downto 0 do
    es := { key = t.keys.(i); count = t.counts.(i); err = t.errs.(i) } :: !es
  done;
  List.sort compare_entries !es

let max_error t =
  if t.n < t.cap then 0
  else begin
    let mn = ref max_int in
    for i = 0 to t.n - 1 do
      if t.counts.(i) < !mn then mn := t.counts.(i)
    done;
    if !mn = max_int then 0 else !mn
  end

let merge ~cap lists =
  (* Union-with-sum is commutative and associative, and the final sort
     is total (count desc, key asc), so the result cannot depend on
     the order the lists are presented in. *)
  let acc : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun e ->
         let c, er =
           match Hashtbl.find_opt acc e.key with
           | Some (c, er) -> (c, er)
           | None -> (0, 0)
         in
         Hashtbl.replace acc e.key (c + e.count, er + e.err)))
    lists;
  let all =
    Hashtbl.fold (fun key (count, err) l -> { key; count; err } :: l) acc []
  in
  let sorted = List.sort compare_entries all in
  List.filteri (fun i _ -> i < cap) sorted

let merged ts =
  merge ~cap:(List.fold_left (fun m t -> max m t.cap) 0 ts) (List.map entries ts)
