(* Ordered structures: heaps, union-find, and the Section-6 (R,Q,L). *)

open Gbc

let int_cmp = (compare : int -> int -> int)

(* ---------------- heaps ---------------- *)

module type HEAP = sig
  type 'a t

  val create : cmp:('a -> 'a -> int) -> unit -> 'a t
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a option
  val peek : 'a t -> 'a option
  val length : 'a t -> int
  val is_empty : 'a t -> bool
end

let test_heap_basic (module H : HEAP) () =
  let h = H.create ~cmp:int_cmp () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (H.pop h);
  List.iter (H.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (H.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (H.peek h);
  Alcotest.(check (option int)) "pop1" (Some 1) (H.pop h);
  Alcotest.(check (option int)) "pop2 (duplicate)" (Some 1) (H.pop h);
  Alcotest.(check (option int)) "pop3" (Some 3) (H.pop h);
  Alcotest.(check int) "length after pops" 2 (H.length h)

module B = struct
  include Binary_heap
  let create ~cmp () = create ~cmp ()
end

let binary_basic = test_heap_basic (module B)

let test_binary_of_list_heapify () =
  let h = Binary_heap.of_list ~cmp:int_cmp [ 9; 2; 7; 2; 0; 5 ] in
  Alcotest.(check (list int)) "heapify + drain" [ 0; 2; 2; 5; 7; 9 ]
    (Binary_heap.to_sorted_list h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"binary heap drains sorted" ~count:300
    QCheck.(small_list small_signed_int)
    (fun xs ->
      Binary_heap.to_sorted_list (Binary_heap.of_list ~cmp:int_cmp xs) = List.sort int_cmp xs)

(* ---------------- union-find ---------------- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial classes" 6 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union 1 0 again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "union 2 3" true (Union_find.union uf 2 3);
  Alcotest.(check bool) "same 0 1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same 0 2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 0 2);
  Alcotest.(check int) "classes" 3 (Union_find.count uf)

let prop_union_find_vs_naive =
  QCheck.Test.make ~name:"union-find = naive partition" ~count:200
    QCheck.(small_list (pair (int_bound 9) (int_bound 9)))
    (fun unions ->
      let uf = Union_find.create 10 in
      let naive = Array.init 10 Fun.id in
      let relabel a b =
        let ra = naive.(a) and rb = naive.(b) in
        Array.iteri (fun i x -> if x = ra then naive.(i) <- rb) naive
      in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf a b);
          relabel a b)
        unions;
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> Union_find.same uf i j = (naive.(i) = naive.(j)))
            (List.init 10 Fun.id))
        (List.init 10 Fun.id))

(* ---------------- Rql ---------------- *)

type fact = { key : int; cost : int; stage : int }

let make_rql ?shadow ?newer_wins () =
  Rql.create ?shadow ?newer_wins ~key:(fun f -> f.key)
    ~cost_cmp:(fun a b -> compare a.cost b.cost)
    ~stage:(fun f -> f.stage) ()

let test_rql_pops_in_cost_order () =
  let q = make_rql ~shadow:false () in
  List.iteri
    (fun i c -> Rql.insert q { key = i; cost = c; stage = 0 })
    [ 7; 1; 5; 3 ];
  let pops = ref [] in
  let rec drain () =
    match Rql.retrieve_least q ~valid:(fun _ -> true) with
    | Some f ->
      pops := f.cost :: !pops;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5; 7 ] (List.rev !pops)

let test_rql_congruence_shadowing () =
  let q = make_rql () in
  Rql.insert q { key = 1; cost = 10; stage = 0 };
  Rql.insert q { key = 1; cost = 5; stage = 0 };  (* replaces *)
  Rql.insert q { key = 1; cost = 8; stage = 0 };  (* shadowed out *)
  Rql.insert q { key = 2; cost = 7; stage = 0 };
  Alcotest.(check int) "live queue" 2 (Rql.queue_length q);
  let first = Option.get (Rql.retrieve_least q ~valid:(fun _ -> true)) in
  Alcotest.(check int) "cheapest representative" 5 first.cost;
  (* Class 1 is now Used: later inserts are redundant. *)
  Rql.insert q { key = 1; cost = 1; stage = 0 };
  let second = Option.get (Rql.retrieve_least q ~valid:(fun _ -> true)) in
  Alcotest.(check int) "used class stays closed" 7 second.cost;
  Alcotest.(check (option int)) "drained" None
    (Option.map (fun f -> f.cost) (Rql.retrieve_least q ~valid:(fun _ -> true)));
  let s = Rql.stats q in
  Alcotest.(check int) "shadowed count" 3 s.Rql.shadowed;
  Alcotest.(check int) "used count" 2 s.Rql.used

let test_rql_invalid_reopens_class () =
  let q = make_rql () in
  Rql.insert q { key = 1; cost = 3; stage = 0 };
  Alcotest.(check (option int)) "invalid pop discarded" None
    (Option.map (fun f -> f.cost) (Rql.retrieve_least q ~valid:(fun _ -> false)));
  (* The class reopened: a new insert is live again. *)
  Rql.insert q { key = 1; cost = 9; stage = 0 };
  Alcotest.(check (option int)) "reinserted" (Some 9)
    (Option.map (fun f -> f.cost) (Rql.retrieve_least q ~valid:(fun _ -> true)));
  Alcotest.(check int) "invalid counted" 1 (Rql.stats q).Rql.invalid

let test_rql_newer_wins () =
  let q = make_rql ~newer_wins:true () in
  Rql.insert q { key = 1; cost = 1; stage = 1 };
  (* Newer stage shadows even at higher cost (TSP's I = J + 1). *)
  Rql.insert q { key = 1; cost = 100; stage = 2 };
  let f = Option.get (Rql.retrieve_least q ~valid:(fun _ -> true)) in
  Alcotest.(check int) "newer survived" 2 f.stage;
  (* And an older fact never displaces a newer incumbent. *)
  let q = make_rql ~newer_wins:true () in
  Rql.insert q { key = 1; cost = 100; stage = 2 };
  Rql.insert q { key = 1; cost = 1; stage = 1 };
  let f = Option.get (Rql.retrieve_least q ~valid:(fun _ -> true)) in
  Alcotest.(check int) "older rejected" 2 f.stage

let test_rql_stale_entries_skipped () =
  let q = make_rql () in
  Rql.insert q { key = 1; cost = 10; stage = 0 };
  Rql.insert q { key = 1; cost = 5; stage = 0 };
  (* The superseded cost-10 entry must be skipped silently. *)
  ignore (Rql.retrieve_least q ~valid:(fun _ -> true));
  Alcotest.(check (option int)) "no ghost" None
    (Option.map (fun f -> f.cost) (Rql.retrieve_least q ~valid:(fun _ -> true)));
  Alcotest.(check int) "stale counted" 1 (Rql.stats q).Rql.stale

let prop_rql_no_shadow_equals_heap =
  QCheck.Test.make ~name:"rql(no shadow, binary) drains like a heap" ~count:200
    QCheck.(small_list (int_bound 100))
    (fun costs ->
      let q = make_rql ~shadow:false () in
      List.iteri (fun i c -> Rql.insert q { key = i; cost = c; stage = 0 }) costs;
      let rec drain acc =
        match Rql.retrieve_least q ~valid:(fun _ -> true) with
        | Some f -> drain (f.cost :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare costs)

(* With shadowing off every fact is its own class, so [Rql] is exactly
   a queue ordered by (cost, insertion id) that drops the candidates
   the validity predicate rejects.  A sorted list is that model.
   Inserts and retrievals interleave, and every third validity check
   fails, to exercise the invalid-pop path. *)
let prop_rql_equals_sorted_model =
  QCheck.Test.make ~name:"rql(no shadow) = sorted-list model by (cost, id)" ~count:300
    QCheck.(small_list (option (int_bound 50)))
    (fun ops ->
      let q = make_rql ~shadow:false () in
      let model = ref [] and next_id = ref 0 in
      let checks_q = ref 0 and checks_m = ref 0 in
      let valid checks _ =
        incr checks;
        !checks mod 3 <> 0
      in
      let rec model_pop () =
        match !model with
        | [] -> None
        | (_, f) :: rest ->
          model := rest;
          if valid checks_m f then Some f else model_pop ()
      in
      let used = ref 0 in
      List.for_all
        (function
          | Some cost ->
            let f = { key = !next_id; cost; stage = 0 } in
            Rql.insert q f;
            model := List.merge compare !model [ ((cost, !next_id), f) ];
            incr next_id;
            Rql.queue_length q = List.length !model
          | None ->
            let got = Rql.retrieve_least q ~valid:(valid checks_q) in
            let want = model_pop () in
            if Option.is_some want then incr used;
            got = want && Rql.queue_length q = List.length !model)
        (ops @ List.init (List.length ops) (fun _ -> None))
      &&
      let s = Rql.stats q in
      s.Rql.inserted = !next_id && s.Rql.shadowed = 0 && s.Rql.stale = 0
      && s.Rql.used = !used && s.Rql.invalid = !checks_m - !used)

let prop_rql_shadow_one_per_class =
  QCheck.Test.make ~name:"rql shadowing yields at most one pop per class" ~count:200
    QCheck.(small_list (pair (int_bound 4) (int_bound 50)))
    (fun facts ->
      let q = make_rql () in
      List.iter (fun (k, c) -> Rql.insert q { key = k; cost = c; stage = 0 }) facts;
      let seen = Hashtbl.create 8 in
      let rec drain () =
        match Rql.retrieve_least q ~valid:(fun _ -> true) with
        | Some f ->
          if Hashtbl.mem seen f.key then false
          else begin
            Hashtbl.add seen f.key ();
            drain ()
          end
        | None -> true
      in
      drain ()
      && List.for_all (fun (k, _) -> Hashtbl.mem seen k) facts)

let () =
  Alcotest.run "ordered"
    [ ( "heaps",
        [ Alcotest.test_case "binary basics" `Quick binary_basic;
          Alcotest.test_case "binary heapify" `Quick test_binary_of_list_heapify;
          QCheck_alcotest.to_alcotest prop_heap_sorts ] );
      ( "union-find",
        [ Alcotest.test_case "basics" `Quick test_union_find;
          QCheck_alcotest.to_alcotest prop_union_find_vs_naive ] );
      ( "rql",
        [ Alcotest.test_case "cost order" `Quick test_rql_pops_in_cost_order;
          Alcotest.test_case "congruence shadowing" `Quick test_rql_congruence_shadowing;
          Alcotest.test_case "invalid pop reopens class" `Quick test_rql_invalid_reopens_class;
          Alcotest.test_case "newer wins" `Quick test_rql_newer_wins;
          Alcotest.test_case "stale entries skipped" `Quick test_rql_stale_entries_skipped;
          QCheck_alcotest.to_alcotest prop_rql_no_shadow_equals_heap;
          QCheck_alcotest.to_alcotest prop_rql_equals_sorted_model;
          QCheck_alcotest.to_alcotest prop_rql_shadow_one_per_class ] ) ]
