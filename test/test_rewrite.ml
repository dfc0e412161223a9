(* The first-order rewritings of Sections 2-3: shapes and semantics. *)

open Gbc

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_expand_next_shape () =
  let prog = Parser.parse_program "sp(nil, 0, 0). sp(X, C, I) <- next(I), p(X, C), least(C, I)." in
  match Rewrite.expand_next prog with
  | [ _fact; rule ] ->
    Alcotest.(check bool) "no next goal left" false (Ast.has_next rule);
    (* Self atom + increment + the two stage FDs. *)
    let fds = Ast.choice_fds rule in
    Alcotest.(check int) "two choice goals" 2 (List.length fds);
    let self =
      List.exists
        (function Ast.Pos a -> a.Ast.pred = "sp" | _ -> false)
        rule.Ast.body
    in
    Alcotest.(check bool) "self atom present" true self;
    let incr =
      List.exists
        (function
          | Ast.Rel (Ast.Eq, Ast.Var "I", Ast.Binop (Ast.Add, _, Ast.Cst (Value.Int 1))) -> true
          | _ -> false)
        rule.Ast.body
    in
    Alcotest.(check bool) "I = I1 + 1" true incr
  | _ -> Alcotest.fail "unexpected expansion"

let test_expand_next_requires_head_stage () =
  let prog = Parser.parse_program "p(X) <- next(I), e(X)." in
  Alcotest.(check bool) "stage var must be in head" true
    (try
       ignore (Rewrite.expand_next prog);
       false
     with Invalid_argument _ -> true)

let test_expand_choice_shape () =
  let prog = Parser.parse_program Assignment.example1_source in
  let rewritten = Rewrite.expand_choice prog in
  (match rewritten with
  | [ positive; chosen ] ->
    Alcotest.(check string) "positive keeps head" "a_st" (Ast.head_pred positive);
    Alcotest.(check string) "chosen rule" (Rewrite.chosen_pred 0) (Ast.head_pred chosen);
    (* chosen rule: body + one negated chosen occurrence per FD. *)
    let negs = Ast.negative_body_atoms chosen in
    Alcotest.(check int) "two FD negations" 2 (List.length negs);
    List.iter
      (fun a -> Alcotest.(check string) "negations are on chosen" (Rewrite.chosen_pred 0) a.Ast.pred)
      negs
  | _ -> Alcotest.fail "expected two rules");
  (* Numbering is per choice rule. *)
  let two =
    Parser.parse_program
      "p(X) <- e(X), choice((), X). q(X) <- f(X), choice((), X)."
  in
  let rw = Rewrite.expand_choice two in
  let heads = List.map Ast.head_pred rw in
  Alcotest.(check bool) "chosen$0 and chosen$1" true
    (List.mem (Rewrite.chosen_pred 0) heads && List.mem (Rewrite.chosen_pred 1) heads)

let test_expand_extrema_shape () =
  let prog = Parser.parse_program "m(X, C) <- p(X, C), least(C, X)." in
  match Rewrite.expand_extrema prog with
  | [ main; witness ] ->
    Alcotest.(check bool) "no extremum left" false (Ast.has_extrema main);
    Alcotest.(check bool) "witness head" true
      (Rewrite.is_internal_pred (Ast.head_pred witness));
    (* The main rule negates the witness with a strict guard. *)
    let printed = Pretty.rule_to_string main in
    Alcotest.(check bool) "guarded negation" true (contains printed "not witness$");
    Alcotest.(check bool) "strict comparison" true (contains printed "<")
  | _ -> Alcotest.fail "expected two rules"

let test_most_uses_greater_guard () =
  let prog = Parser.parse_program "m(X, C) <- p(X, C), most(C, X)." in
  match Rewrite.expand_extrema prog with
  | [ main; _ ] ->
    Alcotest.(check bool) "uses >" true (contains (Pretty.rule_to_string main) ">")
  | _ -> Alcotest.fail "expected two rules"

let test_expand_all_flat () =
  List.iter
    (fun src ->
      let rewritten = Rewrite.expand_all (Parser.parse_program src) in
      List.iter
        (fun r ->
          Alcotest.(check bool) "flat" false
            (Ast.has_next r || Ast.has_choice r || Ast.has_extrema r))
        rewritten)
    [ Sorting.source; Prim.source ~root:0; Matching.source; Huffman.source; Kruskal.source;
      Tsp.source; Assignment.bi_st_c_source ]

let test_internal_pred_detection () =
  Alcotest.(check bool) "chosen$3" true (Rewrite.is_internal_pred "chosen$3");
  Alcotest.(check bool) "witness$0" true (Rewrite.is_internal_pred "witness$0");
  Alcotest.(check bool) "user pred" false (Rewrite.is_internal_pred "chosen");
  Alcotest.(check bool) "user pred 2" false (Rewrite.is_internal_pred "prm")

(* Semantics: the rewritten Example 1 has exactly the three stable
   models of the choice program (checked via the brute-force search
   over the rewriting), i.e. the rewriting defines choice. *)
let test_choice_rewriting_defines_choice () =
  let prog = Assignment.program Assignment.example1_source in
  let brute = Stable.stable_models_brute prog in
  Alcotest.(check int) "three stable models" 3 (List.length brute);
  let fixpoint = Choice_fixpoint.enumerate prog in
  Alcotest.(check int) "fixpoint finds the same number" 3 (List.length fixpoint);
  (* Same a_st extensions on both sides. *)
  let extension db =
    Database.facts_of db "a_st"
    |> List.map (fun row -> Value.to_string row.(0) ^ "/" ^ Value.to_string row.(1))
    |> List.sort compare
  in
  Alcotest.(check (list (list string))) "same assignments"
    (List.sort compare (List.map extension brute))
    (List.sort compare (List.map extension fixpoint))

(* bi_st_c (Section 2's combined example): exactly the paper's two
   stable models, and the least-within-choice interplay. *)
let test_bi_st_c_models () =
  let prog = Assignment.program Assignment.bi_st_c_source in
  let models = Choice_fixpoint.enumerate prog in
  let extensions =
    List.map
      (fun db ->
        Database.facts_of db "bi_st_c"
        |> List.map (fun row ->
               Printf.sprintf "%s/%s/%s" (Value.to_string row.(0)) (Value.to_string row.(1))
                 (Value.to_string row.(2)))
        |> List.sort compare)
      models
    |> List.sort compare
  in
  Alcotest.(check (list (list string))) "the paper's M1 and M2"
    [ [ "mark/engl/2" ]; [ "mark/math/2" ] ]
    extensions

let () =
  Alcotest.run "rewrite"
    [ ( "shapes",
        [ Alcotest.test_case "next expansion" `Quick test_expand_next_shape;
          Alcotest.test_case "next needs head stage" `Quick test_expand_next_requires_head_stage;
          Alcotest.test_case "choice expansion" `Quick test_expand_choice_shape;
          Alcotest.test_case "extrema expansion" `Quick test_expand_extrema_shape;
          Alcotest.test_case "most flips the guard" `Quick test_most_uses_greater_guard;
          Alcotest.test_case "expand_all is flat" `Quick test_expand_all_flat;
          Alcotest.test_case "internal predicates" `Quick test_internal_pred_detection ] );
      ( "semantics",
        [ Alcotest.test_case "choice = stable models of rewriting" `Quick
            test_choice_rewriting_defines_choice;
          Alcotest.test_case "bi_st_c two models" `Quick test_bi_st_c_models ] ) ]
