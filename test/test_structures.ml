(** Tests for the transactional data structures: model-based checks of
    the set semantics, red-black invariants, skiplist behaviour, the
    forest's one-vs-all dynamics, and multi-domain stress. *)

open Tcm_stm
module S = Tcm_structures

let rt () = Stm.create (module Tcm_core.Greedy)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Generic INTSET behaviour, instantiated per structure                *)
(* ------------------------------------------------------------------ *)

let basic_suite (module M : S.Intset.S) =
  let t_empty () =
    let rt = rt () in
    let s = M.create () in
    check_bool "member on empty" false (Stm.atomically rt (fun tx -> M.member tx s 5));
    check_bool "remove on empty" false (Stm.atomically rt (fun tx -> M.remove tx s 5));
    check_ilist "to_list empty" [] (Stm.atomically rt (fun tx -> M.to_list tx s))
  in
  let t_insert_remove () =
    let rt = rt () in
    let s = M.create () in
    check_bool "fresh insert" true (Stm.atomically rt (fun tx -> M.insert tx s 3));
    check_bool "duplicate insert" false (Stm.atomically rt (fun tx -> M.insert tx s 3));
    check_bool "member" true (Stm.atomically rt (fun tx -> M.member tx s 3));
    check_bool "remove present" true (Stm.atomically rt (fun tx -> M.remove tx s 3));
    check_bool "remove again" false (Stm.atomically rt (fun tx -> M.remove tx s 3));
    check_bool "gone" false (Stm.atomically rt (fun tx -> M.member tx s 3))
  in
  let t_sorted () =
    let rt = rt () in
    let s = M.create () in
    List.iter (fun k -> ignore (Stm.atomically rt (fun tx -> M.insert tx s k))) [ 5; 1; 9; 3; 7 ];
    check_ilist "sorted" [ 1; 3; 5; 7; 9 ] (Stm.atomically rt (fun tx -> M.to_list tx s))
  in
  let t_boundaries () =
    let rt = rt () in
    let s = M.create () in
    List.iter
      (fun k -> check_bool "insert extremes" true (Stm.atomically rt (fun tx -> M.insert tx s k)))
      [ 0; max_int / 2; 1 ];
    check_bool "middle removable" true (Stm.atomically rt (fun tx -> M.remove tx s 1));
    check_ilist "extremes stay" [ 0; max_int / 2 ] (Stm.atomically rt (fun tx -> M.to_list tx s))
  in
  let t_model_random () =
    let rt = rt () in
    let s = M.create () in
    let model = Hashtbl.create 64 in
    let rng = Splitmix.create 97 in
    for _ = 1 to 1500 do
      let k = Splitmix.int rng 48 in
      match Splitmix.int rng 3 with
      | 0 ->
          let got = Stm.atomically rt (fun tx -> M.insert tx s k) in
          check_bool "insert agrees with model" (not (Hashtbl.mem model k)) got;
          Hashtbl.replace model k ()
      | 1 ->
          let got = Stm.atomically rt (fun tx -> M.remove tx s k) in
          check_bool "remove agrees with model" (Hashtbl.mem model k) got;
          Hashtbl.remove model k
      | _ ->
          check_bool "member agrees with model" (Hashtbl.mem model k)
            (Stm.atomically rt (fun tx -> M.member tx s k))
    done;
    let expect = Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare in
    check_ilist "final contents" expect (Stm.atomically rt (fun tx -> M.to_list tx s))
  in
  let t_concurrent_balance () =
    let rt = rt () in
    let s = M.create () in
    let doms =
      List.init 4 (fun d ->
          Domain.spawn (fun () ->
              let rng = Splitmix.create (d + 11) in
              let bal = ref 0 in
              for _ = 1 to 300 do
                let k = Splitmix.int rng 32 in
                if Splitmix.bool rng then begin
                  if Stm.atomically rt (fun tx -> M.insert tx s k) then incr bal
                end
                else if Stm.atomically rt (fun tx -> M.remove tx s k) then decr bal
              done;
              !bal))
    in
    let balance = List.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
    let size = List.length (Stm.atomically rt (fun tx -> M.to_list tx s)) in
    check_int "size equals net insertions" balance size
  in
  [
    Alcotest.test_case "empty set" `Quick t_empty;
    Alcotest.test_case "insert/remove/member" `Quick t_insert_remove;
    Alcotest.test_case "to_list sorted" `Quick t_sorted;
    Alcotest.test_case "boundary keys" `Quick t_boundaries;
    Alcotest.test_case "random ops match model" `Quick t_model_random;
    Alcotest.test_case "concurrent balance conserved" `Quick t_concurrent_balance;
  ]

(* qcheck: a batch of inserts then removes behaves like a set, for each
   structure. *)
let prop_set_semantics (module M : S.Intset.S) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s behaves like a set" M.name)
    ~count:60
    QCheck.(pair (small_list (int_bound 40)) (small_list (int_bound 40)))
    (fun (ins, dels) ->
      let rt = rt () in
      let s = M.create () in
      List.iter (fun k -> ignore (Stm.atomically rt (fun tx -> M.insert tx s k))) ins;
      List.iter (fun k -> ignore (Stm.atomically rt (fun tx -> M.remove tx s k))) dels;
      let expect =
        List.sort_uniq compare (List.filter (fun k -> not (List.mem k dels)) ins)
      in
      Stm.atomically rt (fun tx -> M.to_list tx s) = expect)

(* ------------------------------------------------------------------ *)
(* Red-black specifics                                                 *)
(* ------------------------------------------------------------------ *)

let rb_check rt t =
  match Stm.atomically rt (fun tx -> S.Trbtree.check_invariants tx t) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "red-black invariant broken: %s" e

let t_rb_invariants_random () =
  let rt = rt () in
  let t = S.Trbtree.create () in
  let rng = Splitmix.create 5 in
  for _ = 1 to 3000 do
    let k = Splitmix.int rng 96 in
    ignore
      (Stm.atomically rt (fun tx ->
           if Splitmix.bool rng then S.Trbtree.insert tx t k else S.Trbtree.remove tx t k));
    ()
  done;
  rb_check rt t

let t_rb_invariants_each_step () =
  let rt = rt () in
  let t = S.Trbtree.create () in
  let rng = Splitmix.create 23 in
  for _ = 1 to 400 do
    let k = Splitmix.int rng 24 in
    ignore
      (Stm.atomically rt (fun tx ->
           if Splitmix.int rng 3 < 2 then S.Trbtree.insert tx t k else S.Trbtree.remove tx t k));
    rb_check rt t
  done

let t_rb_ascending_descending () =
  let rt = rt () in
  let t = S.Trbtree.create () in
  for k = 1 to 64 do
    ignore (Stm.atomically rt (fun tx -> S.Trbtree.insert tx t k))
  done;
  rb_check rt t;
  (match Stm.atomically rt (fun tx -> S.Trbtree.check_invariants tx t) with
  | Ok bh -> check_bool "logarithmic black height" true (bh <= 8)
  | Error e -> Alcotest.failf "broken: %s" e);
  for k = 64 downto 1 do
    check_bool "delete descending" true (Stm.atomically rt (fun tx -> S.Trbtree.remove tx t k));
    rb_check rt t
  done;
  check_ilist "empty at the end" [] (Stm.atomically rt (fun tx -> S.Trbtree.to_list tx t))

let t_rb_delete_cases () =
  let rt = rt () in
  let t = S.Trbtree.create () in
  (* Build a small known tree and delete nodes with 0, 1, 2 children
     and the root. *)
  List.iter
    (fun k -> ignore (Stm.atomically rt (fun tx -> S.Trbtree.insert tx t k)))
    [ 50; 25; 75; 12; 37; 62; 87; 6 ];
  rb_check rt t;
  check_bool "leaf delete" true (Stm.atomically rt (fun tx -> S.Trbtree.remove tx t 6));
  rb_check rt t;
  check_bool "one-child / internal delete" true
    (Stm.atomically rt (fun tx -> S.Trbtree.remove tx t 12));
  rb_check rt t;
  check_bool "two-children delete" true (Stm.atomically rt (fun tx -> S.Trbtree.remove tx t 25));
  rb_check rt t;
  check_bool "root delete" true (Stm.atomically rt (fun tx -> S.Trbtree.remove tx t 50));
  rb_check rt t;
  check_ilist "remaining" [ 37; 62; 75; 87 ] (Stm.atomically rt (fun tx -> S.Trbtree.to_list tx t))

let prop_rb_invariants =
  QCheck.Test.make ~name:"rbtree invariants after arbitrary op sequences" ~count:60
    QCheck.(small_list (pair bool (int_bound 32)))
    (fun ops ->
      let rt = rt () in
      let t = S.Trbtree.create () in
      List.iter
        (fun (ins, k) ->
          ignore
            (Stm.atomically rt (fun tx ->
                 if ins then S.Trbtree.insert tx t k else S.Trbtree.remove tx t k)))
        ops;
      match Stm.atomically rt (fun tx -> S.Trbtree.check_invariants tx t) with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Skiplist specifics                                                  *)
(* ------------------------------------------------------------------ *)

let t_skiplist_dense () =
  let rt = rt () in
  let s = S.Tskiplist.create () in
  for k = 0 to 200 do
    check_bool "insert" true (Stm.atomically rt (fun tx -> S.Tskiplist.insert tx s k))
  done;
  check_int "all present" 201
    (List.length (Stm.atomically rt (fun tx -> S.Tskiplist.to_list tx s)));
  for k = 0 to 200 do
    check_bool "member after mass insert" true
      (Stm.atomically rt (fun tx -> S.Tskiplist.member tx s k))
  done

let t_skiplist_interleaved_removal () =
  let rt = rt () in
  let s = S.Tskiplist.create () in
  for k = 0 to 99 do
    ignore (Stm.atomically rt (fun tx -> S.Tskiplist.insert tx s k))
  done;
  for k = 0 to 99 do
    if k mod 2 = 0 then
      check_bool "remove evens" true (Stm.atomically rt (fun tx -> S.Tskiplist.remove tx s k))
  done;
  let remaining = Stm.atomically rt (fun tx -> S.Tskiplist.to_list tx s) in
  check_ilist "odds remain" (List.init 50 (fun i -> (2 * i) + 1)) remaining

(* ------------------------------------------------------------------ *)
(* Forest specifics                                                    *)
(* ------------------------------------------------------------------ *)

let t_forest_all_trees () =
  let rt = rt () in
  let f = S.Trbforest.create ~n_trees:8 ~all_pct:100 () in
  (* all_pct=100: every op touches every tree. *)
  check_bool "insert everywhere" true (Stm.atomically rt (fun tx -> S.Trbforest.insert tx f ~r:1 5));
  check_bool "member from any r" true
    (Stm.atomically rt (fun tx -> S.Trbforest.member tx f ~r:123456 5));
  check_bool "remove everywhere" true
    (Stm.atomically rt (fun tx -> S.Trbforest.remove tx f ~r:99 5));
  check_ilist "empty union" [] (Stm.atomically rt (fun tx -> S.Trbforest.to_list tx f))

let t_forest_single_tree () =
  let rt = rt () in
  let f = S.Trbforest.create ~n_trees:8 ~all_pct:0 () in
  (* all_pct=0: each op touches exactly the tree selected by r. *)
  check_bool "insert in tree 3" true
    (Stm.atomically rt (fun tx -> S.Trbforest.insert tx f ~r:(300 + 50) 5));
  check_bool "same r finds it" true
    (Stm.atomically rt (fun tx -> S.Trbforest.member tx f ~r:(300 + 50) 5));
  check_bool "different tree misses" false
    (Stm.atomically rt (fun tx -> S.Trbforest.member tx f ~r:(400 + 50) 5));
  check_ilist "union sees it" [ 5 ] (Stm.atomically rt (fun tx -> S.Trbforest.to_list tx f))

let t_forest_pick () =
  let f = S.Trbforest.create ~n_trees:10 ~all_pct:10 () in
  check_bool "r below pct picks all" true (S.Trbforest.pick f 5 = `All);
  check_bool "r above pct picks one" true
    (match S.Trbforest.pick f 1234 with `One i -> i >= 0 && i < 10 | `All -> false);
  check_int "tree count" 10 (S.Trbforest.n_trees f)

let t_forest_ops_wrapper () =
  let rt = rt () in
  let f = S.Trbforest.create ~n_trees:4 ~all_pct:100 () in
  let ops = S.Trbforest.ops f in
  check_bool "ops insert" true (Stm.atomically rt (fun tx -> ops.S.Intset.insert tx ~key:9 ~r:0));
  check_ilist "ops snapshot" [ 9 ] (Stm.atomically rt (fun tx -> ops.S.Intset.snapshot tx))

(* ------------------------------------------------------------------ *)
(* Hash map                                                            *)
(* ------------------------------------------------------------------ *)

let t_hashmap_basics () =
  let rt = rt () in
  let m = S.Thashmap.create ~buckets:8 () in
  check_int "power-of-two buckets" 8 (S.Thashmap.n_buckets m);
  check_bool "find on empty" true (Stm.atomically rt (fun tx -> S.Thashmap.find tx m 1) = None);
  Stm.atomically rt (fun tx -> S.Thashmap.add tx m 1 "one");
  Stm.atomically rt (fun tx -> S.Thashmap.add tx m 2 "two");
  Alcotest.(check (option string)) "find" (Some "one")
    (Stm.atomically rt (fun tx -> S.Thashmap.find tx m 1));
  Stm.atomically rt (fun tx -> S.Thashmap.add tx m 1 "uno");
  Alcotest.(check (option string)) "replace" (Some "uno")
    (Stm.atomically rt (fun tx -> S.Thashmap.find tx m 1));
  check_int "length" 2 (Stm.atomically rt (fun tx -> S.Thashmap.length tx m));
  check_bool "remove" true (Stm.atomically rt (fun tx -> S.Thashmap.remove tx m 1));
  check_bool "remove again" false (Stm.atomically rt (fun tx -> S.Thashmap.remove tx m 1));
  check_bool "mem" true (Stm.atomically rt (fun tx -> S.Thashmap.mem tx m 2))

let t_hashmap_update () =
  let rt = rt () in
  let m = S.Thashmap.create () in
  Stm.atomically rt (fun tx ->
      S.Thashmap.update tx m 7 (function None -> Some 1 | Some v -> Some (v + 1)));
  Stm.atomically rt (fun tx ->
      S.Thashmap.update tx m 7 (function None -> Some 1 | Some v -> Some (v + 1)));
  Alcotest.(check (option int)) "upsert twice" (Some 2)
    (Stm.atomically rt (fun tx -> S.Thashmap.find tx m 7));
  Stm.atomically rt (fun tx -> S.Thashmap.update tx m 7 (fun _ -> None));
  Alcotest.(check (option int)) "update to None deletes" None
    (Stm.atomically rt (fun tx -> S.Thashmap.find tx m 7))

(* The write-avoidance paths: insert-new, remove-missing and
   delete-of-absent no longer rewrite the bucket, so they must stay
   semantically identical while touching fewer tvars.  The observable
   contract: a transaction doing only a no-op mutation takes the
   read-only commit path (no conflicts possible), and the map is
   unchanged. *)
let t_hashmap_noop_mutations () =
  let rt = rt () in
  let m = S.Thashmap.create ~buckets:4 () in
  Stm.atomically rt (fun tx -> S.Thashmap.add tx m 1 10);
  Stm.atomically rt (fun tx -> S.Thashmap.add tx m 5 50);
  (* Same bucket as key 1 (4 buckets): insert-new must not disturb the
     existing binding. *)
  Stm.atomically rt (fun tx -> S.Thashmap.add tx m 9 90);
  Alcotest.(check (option int)) "neighbor intact" (Some 10)
    (Stm.atomically rt (fun tx -> S.Thashmap.find tx m 1));
  check_bool "remove-missing is false" false
    (Stm.atomically rt (fun tx -> S.Thashmap.remove tx m 13));
  Stm.atomically rt (fun tx -> S.Thashmap.update tx m 13 (fun _ -> None));
  check_int "delete-of-absent leaves length" 3
    (Stm.atomically rt (fun tx -> S.Thashmap.length tx m));
  Alcotest.(check (list (pair int int))) "bindings unchanged"
    [ (1, 10); (5, 50); (9, 90) ]
    (Stm.atomically rt (fun tx -> S.Thashmap.bindings tx m))

let t_hashmap_bucket_rounding () =
  check_int "rounds up" 16 (S.Thashmap.n_buckets (S.Thashmap.create ~buckets:9 ()));
  check_int "minimum one" 1 (S.Thashmap.n_buckets (S.Thashmap.create ~buckets:0 ()))

let prop_hashmap_model =
  QCheck.Test.make ~name:"hashmap matches Hashtbl model" ~count:60
    QCheck.(small_list (pair (int_bound 64) (pair (int_bound 4) (int_bound 100))))
    (fun ops ->
      (* (k, (0, v)) = add; (k, (1, _)) = remove; (k, (2, v)) = update
         to [Some v] (insert or replace); (k, (3, _)) = update to [None]
         (delete); (k, (4, v)) = update adding [v] to a present binding.
         Two initial buckets, so every probe walks buckets holding
         several keys until splits spread them. *)
      let rt = rt () in
      let m = S.Thashmap.create ~buckets:2 () in
      let model = Hashtbl.create 16 in
      let seen_ok = ref true in
      let update k f =
        Stm.atomically rt (fun tx ->
            S.Thashmap.update tx m k (fun old ->
                if old <> Hashtbl.find_opt model k then seen_ok := false;
                f old));
        match f (Hashtbl.find_opt model k) with
        | Some v -> Hashtbl.replace model k v
        | None -> Hashtbl.remove model k
      in
      List.iter
        (fun (k, (op, v)) ->
          match op with
          | 0 ->
              Stm.atomically rt (fun tx -> S.Thashmap.add tx m k v);
              Hashtbl.replace model k v
          | 1 ->
              let present = Stm.atomically rt (fun tx -> S.Thashmap.remove tx m k) in
              if present <> Hashtbl.mem model k then seen_ok := false;
              Hashtbl.remove model k
          | 2 -> update k (fun _ -> Some v)
          | 3 -> update k (fun _ -> None)
          | _ -> update k (Option.map (fun x -> x + v)))
        ops;
      let expect =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let points_ok =
        Stm.atomically rt (fun tx ->
            List.for_all
              (fun k ->
                S.Thashmap.find tx m k = Hashtbl.find_opt model k
                && S.Thashmap.mem tx m k = Hashtbl.mem model k)
              (List.init 67 (fun k -> k - 1)))
      in
      !seen_ok && points_ok
      && Stm.atomically rt (fun tx -> S.Thashmap.bindings tx m) = expect)

let t_hashmap_concurrent () =
  let rt = rt () in
  let m = S.Thashmap.create ~buckets:16 () in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 199 do
              let k = ((d * 200) + i) mod 64 in
              Stm.atomically rt (fun tx ->
                  S.Thashmap.update tx m k (function None -> Some 1 | Some v -> Some (v + 1)))
            done))
  in
  List.iter Domain.join doms;
  let total =
    Stm.atomically rt (fun tx ->
        List.fold_left (fun acc (_, v) -> acc + v) 0 (S.Thashmap.bindings tx m))
  in
  check_int "no lost increments" 800 total

(* Incremental splits must not lose or corrupt bindings: a map forced
   through many doublings keeps exact point lookups and sorted dumps. *)
let t_hashmap_split_correctness () =
  let rt = rt () in
  let m = S.Thashmap.create ~buckets:1 () in
  let n = 400 in
  for k = 0 to n - 1 do
    Stm.atomically rt (fun tx -> S.Thashmap.add tx m k (k * 7))
  done;
  check_bool "table actually split" true (S.Thashmap.depth m > 0);
  check_bool "buckets grew" true (S.Thashmap.n_buckets m > 1);
  check_int "length survives splits" n
    (Stm.atomically rt (fun tx -> S.Thashmap.length tx m));
  for k = 0 to n - 1 do
    check_bool "find after splits" true
      (Stm.atomically rt (fun tx -> S.Thashmap.find tx m k) = Some (k * 7))
  done;
  check_ilist "bindings sorted and complete"
    (List.init n (fun k -> k))
    (List.map fst (Stm.atomically rt (fun tx -> S.Thashmap.bindings tx m)));
  check_int "size_hint exact without aborts" n (S.Thashmap.size_hint m)

(* Resize under concurrent transactional writers, on both runtime
   backends: 4 domains insert disjoint key ranges into a deliberately
   undersized table, so bucket splits race with inserts into the
   splitting bucket's buddy range.  Every binding must survive. *)
let t_hashmap_resize_concurrent backend () =
  let rt = Stm.create ~backend (module Tcm_core.Greedy) in
  let m = S.Thashmap.create ~buckets:2 () in
  let per = 150 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let k = (d * per) + i in
              Stm.atomically rt (fun tx -> S.Thashmap.add tx m k (k + 1))
            done))
  in
  List.iter Domain.join doms;
  let n = 4 * per in
  check_bool "splits happened under contention" true (S.Thashmap.depth m > 0);
  check_int "no bindings lost across racing splits" n
    (Stm.atomically rt (fun tx -> S.Thashmap.length tx m));
  let bad =
    Stm.atomically rt (fun tx ->
        List.filter (fun (k, v) -> v <> k + 1) (S.Thashmap.bindings tx m))
  in
  check_int "no bindings corrupted" 0 (List.length bad)

(* The bulk preload must agree with a transactional build of the same
   bindings — contents only: preload targets the depth-0 table, so the
   physical layout legitimately differs from a split-as-you-go build. *)
let t_hashmap_preload_equiv () =
  let rt = rt () in
  let n = 300 in
  let entries = Array.init n (fun i -> (i * 5, i)) in
  let pre = S.Thashmap.create ~expect:n () in
  S.Thashmap.unsafe_preload pre entries;
  let txn = S.Thashmap.create ~expect:n () in
  Array.iter
    (fun (k, v) -> Stm.atomically rt (fun tx -> S.Thashmap.add tx txn k v))
    entries;
  let dump m = Stm.atomically rt (fun tx -> S.Thashmap.bindings tx m) in
  Alcotest.(check (list (pair int int))) "same bindings" (dump txn) (dump pre);
  check_int "same length" n
    (Stm.atomically rt (fun tx -> S.Thashmap.length tx pre));
  check_int "size_hint primed by preload" n (S.Thashmap.size_hint pre);
  (* Preloaded maps stay live: mutations and splits keep working. *)
  Stm.atomically rt (fun tx -> S.Thashmap.add tx pre 1 99);
  check_bool "find after preload" true
    (Stm.atomically rt (fun tx -> S.Thashmap.find tx pre 1) = Some 99);
  check_bool "remove after preload" true
    (Stm.atomically rt (fun tx -> S.Thashmap.remove tx pre 0))

let () =
  Alcotest.run "structures"
    [
      ("list", basic_suite (module S.Tlist));
      ("skiplist", basic_suite (module S.Tskiplist));
      ("rbtree", basic_suite (module S.Trbtree));
      ( "set-properties",
        [
          QCheck_alcotest.to_alcotest (prop_set_semantics (module S.Tlist));
          QCheck_alcotest.to_alcotest (prop_set_semantics (module S.Tskiplist));
          QCheck_alcotest.to_alcotest (prop_set_semantics (module S.Trbtree));
        ] );
      ( "rbtree-invariants",
        [
          Alcotest.test_case "random workload" `Quick t_rb_invariants_random;
          Alcotest.test_case "checked after every op" `Quick t_rb_invariants_each_step;
          Alcotest.test_case "ascending insert, descending delete" `Quick
            t_rb_ascending_descending;
          Alcotest.test_case "delete shapes" `Quick t_rb_delete_cases;
          QCheck_alcotest.to_alcotest prop_rb_invariants;
        ] );
      ( "skiplist-specifics",
        [
          Alcotest.test_case "dense inserts" `Quick t_skiplist_dense;
          Alcotest.test_case "interleaved removal" `Quick t_skiplist_interleaved_removal;
        ] );
      ( "forest",
        [
          Alcotest.test_case "all-trees operations" `Quick t_forest_all_trees;
          Alcotest.test_case "single-tree operations" `Quick t_forest_single_tree;
          Alcotest.test_case "pick rule" `Quick t_forest_pick;
          Alcotest.test_case "ops wrapper" `Quick t_forest_ops_wrapper;
        ] );
      ( "hashmap",
        [
          Alcotest.test_case "basics" `Quick t_hashmap_basics;
          Alcotest.test_case "atomic update" `Quick t_hashmap_update;
          Alcotest.test_case "no-op mutations" `Quick t_hashmap_noop_mutations;
          Alcotest.test_case "bucket rounding" `Quick t_hashmap_bucket_rounding;
          QCheck_alcotest.to_alcotest prop_hashmap_model;
          Alcotest.test_case "concurrent increments" `Quick t_hashmap_concurrent;
          Alcotest.test_case "split correctness" `Quick t_hashmap_split_correctness;
          Alcotest.test_case "concurrent resize (locator)" `Quick
            (t_hashmap_resize_concurrent Stm.Locator);
          Alcotest.test_case "concurrent resize (tl2)" `Quick
            (t_hashmap_resize_concurrent Stm.Tl2_backend);
          Alcotest.test_case "preload equivalent to transactional build" `Quick
            t_hashmap_preload_equiv;
        ] );
    ]
