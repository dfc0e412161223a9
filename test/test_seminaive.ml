(* Semi-naive deltas as id ranges of the live relations.

   A step reads each delta occurrence as the ids appended to its
   relation since the previous round, so it must bind no relation of
   its own, and a range that holds dead ids (rows removed between
   steps) must read only the live ones.  Models are compared with a
   from-scratch evaluation by canonical rendering and by
   [Database.digest]; the sharded fire must also keep every relation's
   insertion order. *)

open Gbc

(* Every delta occurrence shape: plain (e, reach), masked by a
   constant (reach(1, Y)), by a filter the planner runs before the
   scan (Z = 6), and a repeated variable (e(X, X)). *)
let rules =
  Parser.parse_program
    "reach(X, Y) <- e(X, Y).\n\
     reach(X, Y) <- e(X, Z), reach(Z, Y).\n\
     six(Y) <- Z = 6, e(Z, Y).\n\
     loop(X) <- e(X, X).\n\
     from1(Y) <- reach(1, Y).\n"

let clique = [ "from1"; "loop"; "reach"; "six" ]

let base =
  [ (1, 2); (2, 3); (3, 4); (1, 3); (5, 6); (6, 7); (7, 8); (6, 8); (9, 9); (13, 14); (14, 15);
    (15, 16); (16, 17) ]

let edge (a, b) = [| Value.Int a; Value.Int b |]

let add_edges db = List.iter (fun e -> ignore (Database.add_fact db "e" (edge e)))

let from_scratch edges =
  let db = Database.create () in
  add_edges db edges;
  Seminaive.eval_clique db ~clique rules;
  db

let check_model what expected got =
  Alcotest.(check string) (what ^ ", rendering") (Database.render expected) (Database.render got);
  Alcotest.(check string) (what ^ ", digest") (Database.digest expected) (Database.digest got)

let test_preds_unchanged () =
  let db = Database.create () in
  add_edges db base;
  let before = Database.preds db in
  let inc = Seminaive.make db ~clique rules in
  let with_heads = Database.preds db in
  Alcotest.(check (list string)) "make adds the head relations, after the others"
    (before @ [ "reach"; "six"; "loop"; "from1" ])
    with_heads;
  Seminaive.step inc;
  Alcotest.(check (list string)) "seed step" with_heads (Database.preds db);
  add_edges db [ (4, 5); (6, 6) ];
  Seminaive.step inc;
  Alcotest.(check (list string)) "incremental step" with_heads (Database.preds db);
  (* A step cut short leaves the bindings as they were, too. *)
  let limits = Limits.create ~max_facts:1_000_000 () in
  Limits.fault_at limits ~k:3 (Limits.Raise Exit);
  let db = Database.create () in
  add_edges db base;
  let inc = Seminaive.make ~limits db ~clique rules in
  let with_heads = Database.preds db in
  (match Seminaive.step inc with
  | () -> Alcotest.fail "the fault did not fire"
  | exception Exit -> ());
  Alcotest.(check (list string)) "aborted step" with_heads (Database.preds db)

(* Rows appended after a step and removed before the next one are dead
   ids inside the next delta range: a plain, a masked and a
   repeated-variable occurrence must all step over them. *)
let test_range_over_dead_ids pool () =
  let db = Database.create () in
  add_edges db base;
  let inc = Seminaive.make ~pool db ~clique rules in
  Seminaive.step inc;
  add_edges db [ (4, 5); (8, 9); (6, 10); (10, 10); (11, 11); (6, 12); (12, 1) ];
  let e = Option.get (Database.find db "e") in
  let e' = Relation.remove e (List.map edge [ (8, 9); (11, 11) ]) in
  Alcotest.(check bool) "removed in place, ids kept" true
    (Relation.id_bound e' = Relation.id_bound e && Relation.cardinal e' < Relation.id_bound e');
  Database.set_relation db "e" e';
  Seminaive.step inc;
  check_model "dead ids in the delta range"
    (from_scratch
       (base @ [ (4, 5); (6, 10); (10, 10); (6, 12); (12, 1) ]))
    db

(* The sharded fire cuts each delta range across the pool and merges
   the shards so that every relation's rows come in the sequential
   order, not just the same set. *)
let test_sharded_order () =
  let chain n = List.init n (fun i -> (i, i + 1)) @ [ (6, 6) ] in
  let run pool =
    let db = Database.create () in
    add_edges db (chain 40);
    let inc = Seminaive.make ~pool db ~clique rules in
    Seminaive.step inc;
    add_edges db [ (40, 0); (6, 41) ];
    Seminaive.step inc;
    db
  in
  let sequential = run Par.sequential and sharded = run (Par.get 2) in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p ^ ": jobs 2 inserts in the order jobs 1 does")
        true
        (List.equal
           (fun a b -> Relation.Row_key.equal a b)
           (Database.facts_of sequential p) (Database.facts_of sharded p)))
    ("e" :: clique)

let () =
  Alcotest.run "seminaive"
    [ ( "delta ranges",
        [ Alcotest.test_case "make binds the heads, a step nothing" `Quick test_preds_unchanged;
          Alcotest.test_case "range over dead ids = from scratch" `Quick
            (test_range_over_dead_ids Par.sequential);
          Alcotest.test_case "range over dead ids, jobs 2 = from scratch" `Quick
            (test_range_over_dead_ids (Par.get 2));
          Alcotest.test_case "sharded fire keeps insertion order" `Quick test_sharded_order ] ) ]
