let line_words = 8 (* ints per 64-byte cache line *)

type group = { mutable retired : int array; mutable live : slot list }

and slot = {
  arr : int array;
  base : int;
  words : int;
  owner : group option;
  mutable released : bool;
      (* Guards double release: a slot freed explicitly must not be
         freed again by the domain-exit hook (a doubly-listed slot
         would be handed to two later tenants, which then share
         cells). *)
}

let group () = { retired = [||]; live = [] }

(* Slot footprint: the payload rounded up to whole lines, plus one line
   of slack, so two adjacent slots never share a cache line. *)
let stride_of words = (((words + line_words - 1) / line_words) * line_words) + line_words

let chunk_words = 4_096

(* One process-wide allocator under a mutex.  Everything it guards
   happens when a component is set up, when a domain exits, or when a
   reader merges a group — never on a record path. *)
let mu = Mutex.create ()
let free : (int, int array * int) Hashtbl.t = Hashtbl.create 8 (* stride -> cells *)
let chunk = ref [||]
let next = ref 0
let live = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Caller holds [mu].  Carved cells are zero, and released ones are
   scrubbed before they reach the freelist. *)
let take ~owner words =
  if words <= 0 then invalid_arg "Plane.acquire: words must be positive";
  let stride = stride_of words in
  let arr, base =
    match Hashtbl.find_opt free stride with
    | Some cells ->
        Hashtbl.remove free stride;
        cells
    | None ->
        if !next + stride > Array.length !chunk then begin
          (* A line of slack at the chunk head keeps the first slot off
             the array-header line. *)
          chunk := Array.make (max chunk_words (stride + line_words)) 0;
          next := line_words
        end;
        let base = !next in
        next := base + stride;
        (!chunk, base)
  in
  incr live;
  let s = { arr; base; words; owner; released = false } in
  Option.iter (fun g -> g.live <- s :: g.live) owner;
  s

(* Caller holds [mu]. *)
let recycle s =
  s.released <- true;
  Option.iter (fun g -> g.live <- List.filter (fun x -> x != s) g.live) s.owner;
  Array.fill s.arr s.base s.words 0;
  Hashtbl.add free (stride_of s.words) (s.arr, s.base);
  decr live

let widen g n =
  if Array.length g.retired < n then begin
    let r = Array.make n 0 in
    Array.blit g.retired 0 r 0 (Array.length g.retired);
    g.retired <- r
  end

let release s =
  locked (fun () ->
      if not s.released then begin
        Option.iter
          (fun g ->
            widen g s.words;
            for i = 0 to s.words - 1 do
              g.retired.(i) <- g.retired.(i) + s.arr.(s.base + i)
            done)
          s.owner;
        recycle s
      end)

(* The ungrouped slots of an open [scoped] region on this domain. *)
let scope_key : slot list ref option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let acquire ?group words =
  let s = locked (fun () -> take ~owner:group words) in
  (match (group, Domain.DLS.get scope_key) with
  | None, Some sc -> sc := s :: !sc
  | _ -> Domain.at_exit (fun () -> release s));
  s

let grow s words =
  let n =
    locked (fun () ->
        let n = take ~owner:s.owner words in
        Array.blit s.arr s.base n.arr n.base (min s.words words);
        recycle s;
        n)
  in
  Domain.at_exit (fun () -> release n);
  n

let scoped f =
  let outer = Domain.DLS.get scope_key in
  let sc = ref [] in
  Domain.DLS.set scope_key (Some sc);
  Fun.protect f ~finally:(fun () ->
      Domain.DLS.set scope_key outer;
      List.iter release !sc)

let get s i = s.arr.(s.base + i)
let set s i v = s.arr.(s.base + i) <- v

let totals g =
  locked (fun () ->
      let n = List.fold_left (fun n s -> max n s.words) (Array.length g.retired) g.live in
      let t = Array.make n 0 in
      Array.blit g.retired 0 t 0 (Array.length g.retired);
      List.iter
        (fun s ->
          for i = 0 to s.words - 1 do
            t.(i) <- t.(i) + s.arr.(s.base + i)
          done)
        g.live;
      t)

let clear g =
  locked (fun () ->
      Array.fill g.retired 0 (Array.length g.retired) 0;
      List.iter (fun s -> Array.fill s.arr s.base s.words 0) g.live)

let live_slots () = locked (fun () -> !live)
let free_words () = locked (fun () -> Hashtbl.fold (fun stride _ n -> n + stride) free 0)
