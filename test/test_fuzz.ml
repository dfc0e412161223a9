(* Differential fuzzing: randomly generated programs evaluated by
   independent paths must agree. *)

open Gbc

(* ------------------------------------------------------------------ *)
(* Random positive programs: semi-naive clique evaluation vs the naive
   whole-program fixpoint.                                             *)
(* ------------------------------------------------------------------ *)

let gen_positive_program =
  let open QCheck.Gen in
  let domain = 5 in
  let var = oneofl [ "X"; "Y"; "Z"; "W" ] in
  let edb_fact =
    map2
      (fun a b -> Ast.fact "e" [ Value.Int a; Value.Int b ])
      (int_bound (domain - 1)) (int_bound (domain - 1))
  in
  let idb = oneofl [ "p"; "q"; "r" ] in
  let body_atom =
    let pred = oneof [ return "e"; idb ] in
    map2 (fun p (v1, v2) -> Ast.Pos (Ast.atom p [ Ast.Var v1; Ast.Var v2 ])) pred (pair var var)
  in
  let rule =
    let* head_pred = idb in
    let* body = list_size (int_range 1 3) body_atom in
    (* Safe head: draw its variables from the body. *)
    let body_vars =
      List.concat_map (function Ast.Pos a -> Ast.atom_vars a | _ -> []) body
    in
    let* i = int_bound (max 0 (List.length body_vars - 1)) in
    let* j = int_bound (max 0 (List.length body_vars - 1)) in
    let nth k = List.nth body_vars (k mod List.length body_vars) in
    return (Ast.rule (Ast.atom head_pred [ Ast.Var (nth i); Ast.Var (nth j) ]) body)
  in
  let* facts = list_size (int_range 1 8) edb_fact in
  let* rules = list_size (int_range 1 5) rule in
  QCheck.Gen.return (facts @ rules)

let arb_positive_program =
  QCheck.make ~print:Pretty.program_to_string gen_positive_program

let prop_engine_equals_naive =
  QCheck.Test.make ~name:"random positive programs: engine = naive fixpoint" ~count:150
    arb_positive_program (fun prog ->
      let a = Choice_fixpoint.model prog in
      let b = Database.create () in
      Naive.saturate b prog;
      Database.equal_on a b [ "e"; "p"; "q"; "r" ])

let prop_staged_equals_naive =
  QCheck.Test.make ~name:"random positive programs: staged engine = naive" ~count:150
    arb_positive_program (fun prog ->
      let a = Stage_engine.model prog in
      let b = Database.create () in
      Naive.saturate b prog;
      Database.equal_on a b [ "e"; "p"; "q"; "r" ])

(* ------------------------------------------------------------------ *)
(* Random choice programs: fixpoint enumeration vs brute-force stable
   models of the rewriting (Lemma 2).                                  *)
(* ------------------------------------------------------------------ *)

let gen_choice_program =
  let open QCheck.Gen in
  let* nfacts = int_range 1 4 in
  let* pairs =
    list_repeat nfacts (pair (int_bound 2) (int_bound 2))
  in
  let facts =
    List.sort_uniq compare pairs
    |> List.map (fun (a, b) -> Ast.fact "e" [ Value.Int a; Value.Int b ])
  in
  let* fd = oneofl [ `Left; `Right; `Both; `Global ] in
  let choice_goals =
    match fd with
    | `Left -> [ Ast.Choice ([ Ast.Var "X" ], [ Ast.Var "Y" ]) ]
    | `Right -> [ Ast.Choice ([ Ast.Var "Y" ], [ Ast.Var "X" ]) ]
    | `Both ->
      [ Ast.Choice ([ Ast.Var "X" ], [ Ast.Var "Y" ]);
        Ast.Choice ([ Ast.Var "Y" ], [ Ast.Var "X" ]) ]
    | `Global -> [ Ast.Choice ([], [ Ast.Var "X"; Ast.Var "Y" ]) ]
  in
  let rule =
    Ast.rule
      (Ast.atom "sel" [ Ast.Var "X"; Ast.Var "Y" ])
      (Ast.Pos (Ast.atom "e" [ Ast.Var "X"; Ast.Var "Y" ]) :: choice_goals)
  in
  return (facts @ [ rule ])

let arb_choice_program =
  QCheck.make ~print:Pretty.program_to_string gen_choice_program

let models_signature dbs =
  List.sort compare
    (List.map
       (fun db ->
         Database.facts_of db "sel"
         |> List.map (fun row -> List.map Value.to_string (Array.to_list row))
         |> List.sort compare)
       dbs)

let prop_enumeration_equals_brute_force =
  QCheck.Test.make ~name:"random choice programs: enumerate = brute stable models"
    ~count:60 arb_choice_program (fun prog ->
      let enum = Choice_fixpoint.enumerate prog in
      let brute = Stable.stable_models_brute ~max_atoms:18 prog in
      models_signature enum = models_signature brute)

let prop_every_enumerated_model_stable =
  QCheck.Test.make ~name:"random choice programs: every model is stable" ~count:60
    arb_choice_program (fun prog ->
      List.for_all (fun db -> Stable.is_stable prog db) (Choice_fixpoint.enumerate prog))

(* ------------------------------------------------------------------ *)
(* Random greedy stage programs: every combination of choice FDs and
   extremum forms, on random data — both engines must produce stable
   models, and identical ones when costs are tie-free.  This is the
   adversarial test of the staged engine's shadow-safety analysis.     *)
(* ------------------------------------------------------------------ *)

let gen_stage_program =
  let open QCheck.Gen in
  let* nfacts = int_range 2 7 in
  let* tie_free = bool in
  let* raw =
    list_repeat nfacts (pair (int_bound 3) (pair (int_bound 3) (int_range 1 6)))
  in
  (* One cost per (a, b) pair, unique overall when tie_free. *)
  let seen = Hashtbl.create 8 in
  let facts =
    List.concat
      (List.mapi
         (fun i (a, (b, c)) ->
           if Hashtbl.mem seen (a, b) then []
           else begin
             Hashtbl.add seen (a, b) ();
             let cost = if tie_free then (i * 10) + c else c in
             [ Ast.fact "e" [ Value.Int a; Value.Int b; Value.Int cost ] ]
           end)
         raw)
  in
  let* fd =
    oneofl
      [ []; [ Ast.Choice ([ Ast.Var "A" ], [ Ast.Var "B" ]) ];
        [ Ast.Choice ([ Ast.Var "B" ], [ Ast.Var "A" ]) ];
        [ Ast.Choice ([ Ast.Var "A" ], [ Ast.Cmp ("", [ Ast.Var "B"; Ast.Var "C" ]) ]) ];
        [ Ast.Choice ([ Ast.Var "A" ], [ Ast.Var "B" ]);
          Ast.Choice ([ Ast.Var "B" ], [ Ast.Var "A" ]) ];
        [ Ast.Choice ([], [ Ast.Var "A"; Ast.Var "B" ]) ] ]
  in
  let* extremum =
    oneofl
      [ []; [ Ast.Least (Ast.Var "C", [ Ast.Var "I" ]) ];
        [ Ast.Most (Ast.Var "C", [ Ast.Var "I" ]) ] ]
  in
  let rule =
    Ast.rule
      (Ast.atom "p" [ Ast.Var "A"; Ast.Var "B"; Ast.Var "C"; Ast.Var "I" ])
      ((Ast.Next "I" :: Ast.Pos (Ast.atom "e" [ Ast.Var "A"; Ast.Var "B"; Ast.Var "C" ]) :: extremum)
      @ fd)
  in
  let seed = Ast.fact "p" [ Value.nil; Value.nil; Value.Int 0; Value.Int 0 ] in
  QCheck.Gen.return (tie_free, facts @ [ seed; rule ])

let prop_random_stage_programs =
  QCheck.Test.make ~name:"random stage programs: both engines stable; agree tie-free"
    ~count:120
    (QCheck.make
       ~print:(fun (tf, p) -> Printf.sprintf "tie_free=%b
%s" tf (Pretty.program_to_string p))
       gen_stage_program)
    (fun (tie_free, prog) ->
      let reference = Choice_fixpoint.model prog in
      let staged = Stage_engine.model prog in
      Stable.is_stable prog reference
      && Stable.is_stable prog staged
      && ((not tie_free) || Database.equal_on reference staged [ "p" ]))

(* ------------------------------------------------------------------ *)
(* Random sorting workloads through the full rewriting pipeline.       *)
(* ------------------------------------------------------------------ *)

let prop_random_sorting_stable =
  QCheck.Test.make ~name:"random sorting instances: staged model stable" ~count:25
    QCheck.(list_of_size (QCheck.Gen.int_range 0 6) (int_bound 9))
    (fun costs ->
      let items = List.mapi (fun i c -> (Printf.sprintf "x%d" i, c)) costs in
      let prog = Sorting.program items in
      Stable.is_stable prog (Stage_engine.model prog))

(* ------------------------------------------------------------------ *)
(* One prepared program, two fact bases: executing the rules prepared
   once must give each fact base the model a fresh one-shot run of
   facts and rules gives it.                                           *)
(* ------------------------------------------------------------------ *)

let prepared_agrees rules facts_a facts_b =
  let prepared = Stage_engine.prepare rules in
  List.for_all
    (fun facts ->
      let db = Database.create () in
      Database.load_facts db facts;
      match Stage_engine.execute ~db prepared with
      | Limits.Complete (db, _) ->
        String.equal (Database.render db) (Database.render (Stage_engine.model (facts @ rules)))
      | Limits.Partial _ -> false)
    [ facts_a; facts_b ]

let split prog = List.partition Ast.is_fact prog

let prop_prepared_positive =
  QCheck.Test.make ~name:"random positive programs: one prepared program, two fact bases"
    ~count:150 (QCheck.pair arb_positive_program arb_positive_program) (fun (p, q) ->
      let facts_a, rules = split p and facts_b, _ = split q in
      prepared_agrees rules facts_a facts_b)

let prop_prepared_stage =
  QCheck.Test.make ~name:"random stage programs: one prepared program, two fact bases" ~count:120
    (QCheck.make
       ~print:(fun ((_, p), (_, q)) ->
         Pretty.program_to_string p ^ "\n--- second fact base from ---\n" ^ Pretty.program_to_string q)
       (QCheck.Gen.pair gen_stage_program gen_stage_program))
    (fun ((_, p), (_, q)) ->
      let facts_a, rules = split p and facts_b, _ = split q in
      prepared_agrees rules facts_a facts_b)

let () =
  Alcotest.run "fuzz"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_engine_equals_naive;
          QCheck_alcotest.to_alcotest prop_staged_equals_naive;
          QCheck_alcotest.to_alcotest prop_enumeration_equals_brute_force;
          QCheck_alcotest.to_alcotest prop_every_enumerated_model_stable;
          QCheck_alcotest.to_alcotest prop_random_sorting_stable;
          QCheck_alcotest.to_alcotest prop_random_stage_programs ] );
      ( "prepared",
        [ QCheck_alcotest.to_alcotest prop_prepared_positive;
          QCheck_alcotest.to_alcotest prop_prepared_stage ] ) ]
