(* The rule-body executor: closure chains, planned join orders, and
   the sharded collection paths.

   Every engine runs rule bodies as [Compile] chains over cost-planned
   bodies.  These tests pin that the models do not depend on the
   number of evaluation domains (every shipped exemplar, plus a
   chosen$ relation probed while candidates are sharded), that chained
   evaluation of random Horn programs equals the reference executor
   behind [Naive], and the planner itself: join orders on a fixture
   with skewed selectivities, and the reorder gate that keeps choice
   programs in source order.  The canonical bytes themselves are
   pinned in test_golden.ml. *)

open Gbc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load name = Parser.parse_program (read_file ("../programs/" ^ name))

let exemplars =
  [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl";
    "matching.dl"; "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl";
    "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]

let db_bytes db = Format.asprintf "%a" Database.pp db

(* Parallel job counts compared against jobs 1; GBC_TEST_JOBS picks
   the count CI runs with. *)
let jobs_under_test =
  match Option.bind (Sys.getenv_opt "GBC_TEST_JOBS") int_of_string_opt with
  | Some j when j > 1 -> [ j ]
  | _ -> [ 2 ]

let jobs_byte_identical engine run () =
  List.iter
    (fun file ->
      let prog = load file in
      let sequential = db_bytes (run ~jobs:1 prog) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s jobs=%d = jobs=1" file engine jobs)
            sequential
            (db_bytes (run ~jobs prog)))
        jobs_under_test)
    exemplars

let test_reference_jobs =
  jobs_byte_identical "reference" (fun ~jobs prog -> fst (Choice_fixpoint.run ~jobs prog))

let test_staged_jobs =
  jobs_byte_identical "staged" (fun ~jobs prog -> fst (Stage_engine.run ~jobs prog))

(* The gamma step's candidate collection is sharded at jobs > 1 and
   asks, per solution, whether the chosen$ row already exists.  That
   membership test encodes its probe into a cell buffer, which must
   not be shared with the shards.  Every row is compatible and its own
   candidate, so by step k the first k rows are chosen and a wrong "not
   chosen" answer on any of them fires a duplicate gamma step: the step
   and candidate counts, and the model, must equal the sequential run's
   on every seed. *)
let test_flat_chosen_jobs () =
  for seed = 1 to 30 do
    let rng = Random.State.make [| seed |] in
    let src = Buffer.create 4096 in
    for x = 1 to 300 do
      Buffer.add_string src (Printf.sprintf "e(%d, %d).\n" x (Random.State.int rng 1000))
    done;
    Buffer.add_string src "pick(X, Y) :- e(X, Y), choice((X), (Y)).\n";
    let prog = Parser.parse_program (Buffer.contents src) in
    let sequential, s1 = Choice_fixpoint.run ~jobs:1 prog in
    Alcotest.(check bool) "chosen$0 exists" true (Database.find sequential "chosen$0" <> None);
    let parallel, s2 = Choice_fixpoint.run ~jobs:2 prog in
    Alcotest.(check (pair int int))
      (Printf.sprintf "seed %d: jobs 2 gamma steps and candidates = jobs 1" seed)
      (s1.Choice_fixpoint.gamma_steps, s1.Choice_fixpoint.candidates_examined)
      (s2.Choice_fixpoint.gamma_steps, s2.Choice_fixpoint.candidates_examined);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: jobs 2 = jobs 1" seed)
      (db_bytes sequential) (db_bytes parallel)
  done

(* Random Horn programs: both engines, sequential and sharded, against
   the reference executor ([Naive] runs [Eval.run]).  Enough duplicate
   derivations to stress dedup, plus a join rule so the planner has an
   order to choose.  [s] comes first: Naive fires rules in program
   order, so [s] is saturated before [u] negates it. *)
let gen_edges =
  QCheck.Gen.(list_size (int_range 5 25) (pair (int_bound 7) (int_bound 7)))

let arb_edges =
  QCheck.make
    ~print:(fun edges ->
      String.concat " " (List.map (fun (a, b) -> Printf.sprintf "e(%d,%d)." a b) edges))
    gen_edges

let horn_src edges =
  let src = Buffer.create 256 in
  List.iter
    (fun (a, b) -> Buffer.add_string src (Printf.sprintf "e(%d, %d).\n" a b))
    edges;
  Buffer.add_string src
    "s(X) :- e(X, X).\n\
     t(X, Y) :- e(X, Y).\n\
     t(X, Z) :- t(X, Y), e(Y, Z).\n\
     j(X, Z) :- t(X, Y), t(Y, Z).\n\
     u(X, Z) :- j(X, Z), not s(X).\n";
  Buffer.contents src

let prop_horn_reference =
  QCheck.Test.make ~name:"random Horn: each engine at jobs 1 and 3 = Naive" ~count:40
    arb_edges (fun edges ->
      let prog = Parser.parse_program (horn_src edges) in
      let naive =
        let db = Database.create () in
        Naive.saturate db prog;
        db_bytes db
      in
      List.for_all
        (fun jobs ->
          String.equal naive (db_bytes (fst (Choice_fixpoint.run ~jobs prog)))
          && String.equal naive (db_bytes (fst (Stage_engine.run ~jobs prog))))
        [ 1; 3 ])

(* ------------------------------------------------------------------ *)
(* The planner                                                         *)
(* ------------------------------------------------------------------ *)

(* Skewed selectivities: [big] has 64 rows, [small] 2, [tiny] 1.  The
   source order starts with the most expensive scan; the plan must put
   [tiny] first (cheapest seed), then [small], then [big] — by then the
   joins are index probes on bound columns. *)
let planner_fixture =
  let src = Buffer.create 1024 in
  for i = 0 to 63 do
    Buffer.add_string src (Printf.sprintf "big(%d, %d).\n" i (i mod 8))
  done;
  Buffer.add_string src "small(0, 1). small(1, 2).\ntiny(0).\n";
  Buffer.add_string src "out(X, Y, Z) :- big(Y, Z), small(X, Y), tiny(X).\n";
  Buffer.contents src

let body_preds (r : Ast.rule) =
  List.filter_map (function Ast.Pos a -> Some a.Ast.pred | _ -> None) r.Ast.body

let test_planner_join_order () =
  let prog = Parser.parse_program planner_fixture in
  let db = Choice_fixpoint.model (List.filter Ast.is_fact prog) in
  let plan = Plan.analyze ~db prog in
  Alcotest.(check bool) "pure-Horn program is reorderable" true plan.Plan.reorderable;
  let planned = Plan.program plan in
  let rule = List.find (fun r -> not (Ast.is_fact r)) planned in
  Alcotest.(check (list string)) "cheapest-first join order"
    [ "tiny"; "small"; "big" ] (body_preds rule);
  (* The program's own fact counts seed the estimates even without a
     materialized database. *)
  let from_facts = Plan.program (Plan.analyze prog) in
  let rule = List.find (fun r -> not (Ast.is_fact r)) from_facts in
  Alcotest.(check (list string)) "fact counts alone give the same order"
    [ "tiny"; "small"; "big" ] (body_preds rule);
  (* Without any statistics every atom costs the same default, so the
     tie-break keeps source order. *)
  let rules_only = List.filter (fun r -> not (Ast.is_fact r)) prog in
  let blind = Plan.program (Plan.analyze rules_only) in
  let rule = List.find (fun r -> not (Ast.is_fact r)) blind in
  Alcotest.(check (list string)) "no stats: source order preserved"
    [ "big"; "small"; "tiny" ] (body_preds rule)

let test_planner_gate () =
  (* A choice program: enumeration order leaks into tie-breaking, so
     the plan must be annotation-only. *)
  let prog = load "sorting.dl" in
  let plan = Plan.analyze prog in
  Alcotest.(check bool) "choice program is not reorderable" false plan.Plan.reorderable;
  Alcotest.(check bool) "gated plan leaves every body in source order" true
    (List.for_all2
       (fun a b -> Pretty.rule_to_string a = Pretty.rule_to_string b)
       (List.filter (fun r -> not (Ast.is_fact r)) prog)
       (List.filter (fun r -> not (Ast.is_fact r)) (Plan.program plan)))

let () =
  Alcotest.run "compiled"
    [ ( "byte-identity",
        [ Alcotest.test_case "reference sequential = parallel on every exemplar" `Slow
            test_reference_jobs;
          Alcotest.test_case "staged sequential = parallel on every exemplar" `Slow test_staged_jobs;
          QCheck_alcotest.to_alcotest prop_horn_reference;
          Alcotest.test_case "flat chosen$ relation: jobs 2 = jobs 1" `Slow
            test_flat_chosen_jobs ] );
      ( "planner",
        [ Alcotest.test_case "skewed fixture: cheapest-first order" `Quick
            test_planner_join_order;
          Alcotest.test_case "choice programs stay in source order" `Quick
            test_planner_gate ] ) ]
