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
    ]
