(* The body evaluator: joins, binding order, negation with scoped
   guards, arithmetic (including inversion), safety errors — each case
   run through both the reference executor and the closure chain. *)

open Gbc

let db_of facts =
  let db = Database.create () in
  Database.load_facts db (Parser.parse_program facts);
  db

let body_of src =
  let r = Parser.parse_rule ("dummy <- " ^ src) in
  r.Ast.body

(* Every solution of [body] as the values of [outs], in enumeration
   order, from both executors: the reference [Eval.run] and the
   [Compile] chain, which must agree.  [bindings] set the
   [extra_bound] variables before the run. *)
let run_both ?(bindings = []) b db outs =
  let outs = List.map (fun v -> Ast.Var v) outs in
  let reference =
    let env = Eval.fresh_env b in
    List.iter (fun (v, x) -> env.(Eval.slot b v) <- Some x) bindings;
    let acc = ref [] in
    Eval.run b db env (fun env -> acc := Eval.eval_terms b env outs :: !acc);
    List.rev !acc
  in
  let chained =
    let chain = Compile.of_body ~bound:(List.map (fun (v, _) -> Eval.slot b v) bindings) b in
    List.iter (fun (v, x) -> Compile.set_slot chain (Eval.slot b v) x) bindings;
    let progs = Compile.compile_row chain (Eval.compile_terms b outs) in
    let acc = ref [] in
    Compile.run chain db (fun () ->
        acc := Array.to_list (Compile.eval_row (Compile.env chain) progs) :: !acc);
    List.rev !acc
  in
  if not (List.equal (List.equal Value.equal) reference chained) then
    Alcotest.fail "Eval.run and the Compile chain enumerate different solutions";
  chained

let solutions ?extra_bound ?bindings facts body outs =
  let b = Eval.compile_body ?extra_bound (body_of body) in
  run_both ?bindings b (db_of facts) outs

let ints rows = List.map (List.map Value.as_int) rows

let test_simple_join () =
  let rows =
    solutions "e(1,2). e(2,3). e(3,4)." "e(X, Y), e(Y, Z)" [ "X"; "Z" ]
  in
  Alcotest.(check (list (list int))) "two-hop" [ [ 1; 3 ]; [ 2; 4 ] ] (ints rows)

let test_self_join_dedup_bindings () =
  let rows = solutions "p(1). p(2)." "p(X), p(Y), X != Y" [ "X"; "Y" ] in
  Alcotest.(check (list (list int))) "pairs" [ [ 1; 2 ]; [ 2; 1 ] ] (ints rows)

let test_constant_in_pattern () =
  let rows = solutions "e(1,2). e(2,3)." "e(2, Y)" [ "Y" ] in
  Alcotest.(check (list (list int))) "constant arg" [ [ 3 ] ] (ints rows)

let test_compound_pattern_match () =
  let rows =
    solutions "h(t(a,b), 3). h(c, 4)." "h(t(X, Y), C)" [ "C" ]
  in
  Alcotest.(check (list (list int))) "matches only compound rows" [ [ 3 ] ] (ints rows)

let test_arithmetic_assign () =
  let rows = solutions "p(3)." "p(X), Y = X * 2 + 1" [ "Y" ] in
  Alcotest.(check (list (list int))) "assign" [ [ 7 ] ] (ints rows)

let test_arithmetic_inversion () =
  (* I bound, equation binds J = I - 1. *)
  let rows =
    solutions ~extra_bound:[ "I" ] ~bindings:[ ("I", Value.Int 5) ] "p(4). p(3)."
      "I = J + 1, p(J)" [ "J" ]
  in
  Alcotest.(check (list (list int))) "inverted" [ [ 4 ] ] (ints rows)

let test_max_min () =
  let rows = solutions "p(3, 8)." "p(A, B), M = max(A, B), N = min(A, B)" [ "M"; "N" ] in
  Alcotest.(check (list (list int))) "max/min" [ [ 8; 3 ] ] (ints rows)

let test_comparisons () =
  let rows = solutions "p(1). p(2). p(3)." "p(X), X >= 2, X != 3" [ "X" ] in
  Alcotest.(check (list (list int))) "filters" [ [ 2 ] ] (ints rows)

let test_negation_simple () =
  let rows = solutions "p(1). p(2). q(2)." "p(X), not q(X)" [ "X" ] in
  Alcotest.(check (list (list int))) "not q" [ [ 1 ] ] (ints rows)

let test_negation_missing_pred () =
  let rows = solutions "p(1)." "p(X), not nothing(X)" [ "X" ] in
  Alcotest.(check (list (list int))) "absent predicate is empty" [ [ 1 ] ] (ints rows)

let test_negation_with_guard () =
  (* The paper's idiom: not subtree(X, L), L < I — L existential under
     the negation, the comparison scoped inside it. *)
  let facts = "cand(a). cand(b). cand(c). used(a, 1). used(b, 5)." in
  let body = "cand(X), not used(X, L), L < I" in
  let rows =
    solutions ~extra_bound:[ "I" ] ~bindings:[ ("I", Value.Int 3) ] facts body [ "X" ]
  in
  (* a used at 1 < 3: blocked; b used at 5 (not < 3): allowed; c never used. *)
  Alcotest.(check (list string)) "guarded negation"
    [ "b"; "c" ]
    (List.map (fun r -> Value.to_string (List.hd r)) rows)

let test_two_guarded_negations () =
  let facts = "pair(a, b). used(a, 1)." in
  let body = "pair(X, Y), not used(X, L1), L1 < I, not used(Y, L2), L2 < I" in
  let run i =
    solutions ~extra_bound:[ "I" ] ~bindings:[ ("I", Value.Int i) ] facts body [ "X" ]
  in
  Alcotest.(check int) "blocked at stage 2" 0 (List.length (run 2));
  Alcotest.(check int) "allowed at stage 1" 1 (List.length (run 1))

let test_unsafe_head_var () =
  Alcotest.(check bool) "unbound comparison var rejected" true
    (try
       ignore (Eval.compile_body (body_of "p(X), Y < X"));
       false
     with Eval.Unsafe _ -> true)

let test_unsafe_negation_only_var () =
  (* A variable appearing only in a negation and in no guard cannot be
     a comparison input elsewhere. *)
  Alcotest.(check bool) "local var leaking" true
    (try
       let b = Eval.compile_body (body_of "p(X), not q(X, L), r(L)") in
       ignore b;
       (* If compilation succeeded, L was treated as bound by r(L):
          that is also acceptable — run it to check semantics. *)
       true
     with Eval.Unsafe _ -> true)

let test_non_flat_literal_rejected () =
  Alcotest.(check bool) "choice in flat body" true
    (try
       ignore (Eval.compile_body (body_of "p(X), choice(X, Y)"));
       false
     with Invalid_argument _ -> true)

let test_tuple_equality_unification () =
  let rows = solutions "p(1, 2)." "p(A, B), (X, Y) = (B, A)" [ "X"; "Y" ] in
  Alcotest.(check (list (list int))) "tuple unification" [ [ 2; 1 ] ] (ints rows)

let test_overflow_detected () =
  let raises_overflow op a b =
    match Eval.apply_binop op (Value.Int a) (Value.Int b) with
    | _ -> false
    | exception Eval.Unsafe msg ->
      (* The message names the offending operation. *)
      let has_sub needle hay =
        let n = String.length needle in
        let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      has_sub "overflow" msg
      && has_sub (match op with Ast.Add -> "+" | Ast.Sub -> "-" | _ -> "*") msg
  in
  Alcotest.(check bool) "max_int + 1" true (raises_overflow Ast.Add max_int 1);
  Alcotest.(check bool) "min_int + (-1)" true (raises_overflow Ast.Add min_int (-1));
  Alcotest.(check bool) "min_int - 1" true (raises_overflow Ast.Sub min_int 1);
  Alcotest.(check bool) "max_int - (-1)" true (raises_overflow Ast.Sub max_int (-1));
  Alcotest.(check bool) "max_int * 2" true (raises_overflow Ast.Mul max_int 2);
  Alcotest.(check bool) "min_int * -1" true (raises_overflow Ast.Mul min_int (-1));
  Alcotest.(check bool) "-1 * min_int" true (raises_overflow Ast.Mul (-1) min_int)

let test_overflow_boundaries_ok () =
  let eval op a b = Value.as_int (Eval.apply_binop op (Value.Int a) (Value.Int b)) in
  Alcotest.(check int) "max_int + 0" max_int (eval Ast.Add max_int 0);
  Alcotest.(check int) "min_int + 1" (min_int + 1) (eval Ast.Add min_int 1);
  Alcotest.(check int) "max_int - 1" (max_int - 1) (eval Ast.Sub max_int 1);
  Alcotest.(check int) "min_int - 0" min_int (eval Ast.Sub min_int 0);
  Alcotest.(check int) "min_int * 1" min_int (eval Ast.Mul min_int 1);
  Alcotest.(check int) "0 * min_int" 0 (eval Ast.Mul 0 min_int);
  Alcotest.(check int) "negatives" 12 (eval Ast.Mul (-3) (-4))

let test_overflow_in_body () =
  (* Reaching the overflow through a rule body: the evaluator's guard
     raises rather than silently wrapping. *)
  let facts = Printf.sprintf "f(%d)." max_int in
  Alcotest.(check bool) "body arithmetic overflows loudly" true
    (try
       ignore (solutions facts "f(A), X = A + A" [ "X" ]);
       false
     with Eval.Unsafe _ -> true)

let prop_mul_overflow_guard =
  (* The multiplication guard agrees with a widening oracle computed
     via division: for random 62-bit operands it either raises exactly
     when the true product leaves the int range, or returns it. *)
  QCheck.Test.make ~name:"checked mul = oracle" ~count:500
    QCheck.(pair int int)
    (fun (x, y) ->
      (* Exact representability test by integer division; truncation
         toward zero gives ceil for negative and floor for positive
         quotients, which is what each sign case needs. *)
      let fits =
        if x = 0 || y = 0 then true
        else if x > 0 && y > 0 then x <= max_int / y
        else if x < 0 && y < 0 then x >= max_int / y
        else if x < 0 then x >= min_int / y
        else x <= min_int / y
      in
      match Eval.apply_binop Ast.Mul (Value.Int x) (Value.Int y) with
      | v -> fits && Value.as_int v = x * y
      | exception Eval.Unsafe _ -> not fits)

let test_filters_run_before_scans () =
  (* Just a behavioural check: both orders give the same solutions. *)
  let facts = "p(1). p(2). q(1). q(2)." in
  let a = solutions facts "p(X), q(Y), X < Y" [ "X"; "Y" ] in
  let b = solutions facts "X < Y, p(X), q(Y)" [ "X"; "Y" ] in
  Alcotest.(check (list (list int))) "planner order-insensitive"
    (List.sort compare (ints a))
    (List.sort compare (ints b))

let prop_join_against_bruteforce =
  (* Random binary relations; compare the evaluator's e(X,Y),e(Y,Z)
     against a brute-force product. *)
  QCheck.Test.make ~name:"join = brute force" ~count:200
    QCheck.(small_list (pair (int_bound 6) (int_bound 6)))
    (fun pairs ->
      let db = Database.create () in
      List.iter
        (fun (a, b) ->
          ignore (Database.add_fact db "e" [| Value.Int a; Value.Int b |]))
        pairs;
      let body = Eval.compile_body (body_of "e(X, Y), e(Y, Z)") in
      let got =
        run_both body db [ "X"; "Y"; "Z" ]
        |> List.map (List.map Value.as_int)
        |> List.sort compare
      in
      let distinct = List.sort_uniq compare pairs in
      let expected =
        List.concat_map
          (fun (x, y) ->
            List.filter_map (fun (y', z) -> if y = y' then Some [ x; y; z ] else None) distinct)
          distinct
        |> List.sort compare
      in
      got = expected)

let () =
  Alcotest.run "eval"
    [ ( "joins",
        [ Alcotest.test_case "simple join" `Quick test_simple_join;
          Alcotest.test_case "self join" `Quick test_self_join_dedup_bindings;
          Alcotest.test_case "constant patterns" `Quick test_constant_in_pattern;
          Alcotest.test_case "compound patterns" `Quick test_compound_pattern_match;
          Alcotest.test_case "planner order-insensitive" `Quick test_filters_run_before_scans ] );
      ( "arithmetic",
        [ Alcotest.test_case "assignment" `Quick test_arithmetic_assign;
          Alcotest.test_case "inversion of I = J + 1" `Quick test_arithmetic_inversion;
          Alcotest.test_case "max/min" `Quick test_max_min;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "tuple unification" `Quick test_tuple_equality_unification;
          Alcotest.test_case "overflow detected" `Quick test_overflow_detected;
          Alcotest.test_case "overflow boundaries ok" `Quick test_overflow_boundaries_ok;
          Alcotest.test_case "overflow in rule body" `Quick test_overflow_in_body;
          QCheck_alcotest.to_alcotest prop_mul_overflow_guard ] );
      ( "negation",
        [ Alcotest.test_case "plain" `Quick test_negation_simple;
          Alcotest.test_case "missing predicate" `Quick test_negation_missing_pred;
          Alcotest.test_case "scoped guard (paper idiom)" `Quick test_negation_with_guard;
          Alcotest.test_case "two scoped guards" `Quick test_two_guarded_negations ] );
      ( "safety",
        [ Alcotest.test_case "unbound comparison" `Quick test_unsafe_head_var;
          Alcotest.test_case "negation-local leak" `Quick test_unsafe_negation_only_var;
          Alcotest.test_case "non-flat literal" `Quick test_non_flat_literal_rejected ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_join_against_bruteforce ]) ]
