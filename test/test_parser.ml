(* Lexer and parser: positives, errors, and the pretty-print round-trip. *)

open Gbc

let parse_ok src = try Ok (Parser.parse_program src) with Parser.Error (m, _) -> Error m

let check_rule_count name src n =
  match parse_ok src with
  | Ok prog -> Alcotest.(check int) name n (List.length prog)
  | Error m -> Alcotest.fail m

let test_facts () =
  check_rule_count "facts" "p(1). q(a, \"x\"). r." 3;
  let prog = Parser.parse_program "p(1, nil, (a, 2), t(b, c))." in
  match prog with
  | [ r ] ->
    Alcotest.(check bool) "is fact" true (Ast.is_fact r);
    Alcotest.(check int) "arity" 4 (List.length r.Ast.head.Ast.args)
  | _ -> Alcotest.fail "expected one clause"

let test_comments_and_arrows () =
  check_rule_count "comments"
    "% a comment\np(X) <- q(X). # another\nr(X) :- p(X).\n" 2

let test_comments_at_eof () =
  (* No trailing newline after the comment. *)
  check_rule_count "percent comment at eof" "p(1). % trailing" 1;
  check_rule_count "hash comment at eof" "p(1). # trailing" 1;
  check_rule_count "comment-only program" "% nothing here" 0;
  check_rule_count "empty program" "" 0

let test_malformed_arrow () =
  List.iter
    (fun src ->
      match parse_ok src with
      | Ok _ -> Alcotest.fail ("accepted: " ^ src)
      | Error _ -> ())
    [ "p(X) : q(X)."; "p(X) :q(X)."; "p(X) :- ."; "p(X) <-." ];
  (* ':-' and '<-' parse to the same rule. *)
  Alcotest.(check string) "arrow spellings agree"
    (Pretty.rule_to_string (Parser.parse_rule "p(X) :- q(X)"))
    (Pretty.rule_to_string (Parser.parse_rule "p(X) <- q(X)"))

let test_literals () =
  let r =
    Parser.parse_rule
      "h(X, C, I) <- next(I), p(X, C, J), J < I, not q(X, L), L < I, least(C, I), \
       choice(X, (C, I)), most(J, ()), C = J + 1, X != nil"
  in
  let kinds =
    List.map
      (function
        | Ast.Pos _ -> "pos"
        | Ast.Neg _ -> "neg"
        | Ast.Rel _ -> "rel"
        | Ast.Choice _ -> "choice"
        | Ast.Least _ -> "least"
        | Ast.Most _ -> "most"
        | Ast.Agg (Ast.Count, _, _, _) -> "count"
        | Ast.Agg (Ast.Sum, _, _, _) -> "sum"
        | Ast.Next _ -> "next")
      r.Ast.body
  in
  Alcotest.(check (list string)) "literal kinds"
    [ "next"; "pos"; "rel"; "neg"; "rel"; "least"; "choice"; "most"; "rel"; "rel" ]
    kinds

let test_choice_groups () =
  let r = Parser.parse_rule "p(X, Y) <- q(X, Y), choice((), (X, Y))" in
  (match Ast.choice_fds r with
  | [ ([], [ Ast.Var "X"; Ast.Var "Y" ]) ] -> ()
  | _ -> Alcotest.fail "choice((), (X,Y)) groups");
  let r = Parser.parse_rule "p(X, Y) <- q(X, Y), choice(Y, X)" in
  match Ast.choice_fds r with
  | [ ([ Ast.Var "Y" ], [ Ast.Var "X" ]) ] -> ()
  | _ -> Alcotest.fail "bare choice groups"

let test_least_forms () =
  let forms =
    [ ("least(C)", []); ("least(C, ())", []); ("least(C, I)", [ "I" ]);
      ("least(C, (I, J))", [ "I"; "J" ]) ]
  in
  List.iter
    (fun (txt, expected) ->
      let r = Parser.parse_rule (Printf.sprintf "p(C) <- q(C), %s" txt) in
      match List.find_map (function Ast.Least (_, ks) -> Some ks | _ -> None) r.Ast.body with
      | Some ks ->
        Alcotest.(check (list string)) txt expected (List.concat_map Ast.term_vars ks)
      | None -> Alcotest.fail "no least goal")
    forms

let test_negative_literals () =
  let prog = Parser.parse_program "p(-5). q(X) <- p(X), X < -2, Y = -X, q2(Y)." in
  (match prog with
  | [ fact; _rule ] -> (
    match fact.Ast.head.Ast.args with
    | [ Ast.Cst (Value.Int -5) ] -> ()
    | _ -> Alcotest.fail "expected p(-5)")
  | _ -> Alcotest.fail "expected two clauses");
  (* Negative facts survive the print/parse cycle. *)
  let printed = Pretty.program_to_string [ Ast.fact "p" [ Value.Int (-5) ] ] in
  Alcotest.(check string) "stable" printed
    (Pretty.program_to_string (Parser.parse_program printed))

let test_arithmetic () =
  let t = Parser.parse_term "1 + 2 * X - max(Y, 3)" in
  (* Shape: (1 + (2*X)) - max(Y,3). *)
  (match t with
  | Ast.Binop (Ast.Sub, Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, _)), Ast.Binop (Ast.Max, _, _))
    -> ()
  | _ -> Alcotest.fail "precedence shape");
  Alcotest.(check (list string)) "vars in order" [ "X"; "Y" ] (Ast.term_vars t)

let test_anonymous_vars_fresh () =
  let r = Parser.parse_rule "p(X) <- q(X, _), r(_, X)" in
  let vars = Ast.rule_vars r in
  (* X plus two distinct fresh variables. *)
  Alcotest.(check int) "three distinct variables" 3 (List.length vars)

let test_errors () =
  List.iter
    (fun src ->
      match parse_ok src with
      | Ok _ -> Alcotest.fail ("accepted: " ^ src)
      | Error _ -> ())
    [ "p(X <- q(X)."; "p(X)"; "p(X) <- ."; "p(X) <- q(X) r(X).";
      "p(X) <- least(X), choice(."; "<- q(X)."; "p(!)."; "p(\"abc)." ]

let test_roundtrip_paper_programs () =
  List.iter
    (fun src ->
      let p1 = Parser.parse_program src in
      let printed = Pretty.program_to_string p1 in
      let p2 = Parser.parse_program printed in
      Alcotest.(check string) "pretty . parse . pretty stable" printed
        (Pretty.program_to_string p2))
    [ Assignment.example1_source; Assignment.bi_st_c_source; Sorting.source;
      Prim.source ~root:0; Kruskal.source; Matching.source; Tsp.source; Huffman.source;
      Dijkstra.source ~root:0; Scheduling.source ]

let test_parse_rule_trailing_dot_optional () =
  let a = Parser.parse_rule "p(X) <- q(X)" and b = Parser.parse_rule "p(X) <- q(X)." in
  Alcotest.(check string) "same" (Pretty.rule_to_string a) (Pretty.rule_to_string b)

(* Random rule ASTs survive pretty-printing and re-parsing. *)
let gen_rule =
  let open QCheck.Gen in
  let var = oneofl [ "X"; "Y"; "Z"; "Cost" ] in
  let term =
    sized @@ fix (fun self n ->
        if n = 0 then
          oneof
            [ map (fun v -> Ast.Var v) var;
              map (fun i -> Ast.int i) small_nat;
              map (fun i -> Ast.sym ("c" ^ string_of_int i)) small_nat ]
        else
          frequency
            [ (3, map (fun v -> Ast.Var v) var);
              (1, map2 (fun a b -> Ast.Cmp ("t", [ a; b ])) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Cmp ("", [ a; b ])) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2))) ])
  in
  let atom =
    map2 (fun p args -> Ast.atom ("p" ^ string_of_int p) args) (int_bound 3)
      (list_size (int_range 1 3) term)
  in
  let literal =
    frequency
      [ (4, map (fun a -> Ast.Pos a) atom);
        (1, map (fun a -> Ast.Neg a) atom);
        (1, map2 (fun a b -> Ast.Rel (Ast.Lt, a, b)) term term);
        (1, map2 (fun l r -> Ast.Choice ([ l ], [ r ])) term term);
        (1, map2 (fun c k -> Ast.Least (c, [ k ])) term term);
        (1, map (fun v -> Ast.Next v) var) ]
  in
  let* head = atom in
  let* body = list_size (int_range 1 4) literal in
  QCheck.Gen.return (Ast.rule head body)

let prop_ast_roundtrip =
  QCheck.Test.make ~name:"pretty . parse = id on random rule ASTs" ~count:300
    (QCheck.make ~print:Pretty.rule_to_string gen_rule)
    (fun rule ->
      let printed = Pretty.rule_to_string rule in
      match Parser.parse_rule printed with
      | reparsed -> Pretty.rule_to_string reparsed = printed
      | exception Parser.Error _ -> false)

(* Forms only the canonical printer writes: nullary atoms [p()], every
   [%S] escape and [min_int]; an integer literal wider than an int is a
   lexical error at its first digit.  [f()] as a term stays an error. *)
let test_printed_forms () =
  (match Parser.parse_program "p(). q <- p(), not r()." with
  | [ f; r ] ->
    Alcotest.(check bool) "p() is a nullary fact" true (f.Ast.head = Ast.atom "p" []);
    Alcotest.(check int) "nullary body atoms" 2 (List.length r.Ast.body)
  | _ -> Alcotest.fail "expected two clauses");
  let value src =
    match Parser.parse_program src with
    | [ { Ast.head = { Ast.args = [ t ]; _ }; _ } ] -> Ast.term_to_value t
    | _ -> Alcotest.fail ("expected one unary fact: " ^ src)
  in
  Alcotest.(check bool) "escapes" true
    (Value.equal (Value.str "caf\195\169\r\b\t\n\\\"\000")
       (value {|s("caf\195\169\r\b\t\n\\\"\000").|}));
  Alcotest.(check bool) "min_int" true
    (Value.equal (Value.Int min_int) (value "n(-4611686018427387904)."));
  List.iter
    (fun (src, col) ->
      match Gbc_error.protect (fun () -> Parser.parse_program src) with
      | Error (Gbc_error.Lex (_, pos)) ->
        Alcotest.(check (pair int int)) src (1, col) (pos.Lexer.line, pos.Lexer.col)
      | _ -> Alcotest.fail (src ^ ": expected a lexical error"))
    [ ("n(4611686018427387904).", 3); ("n(-4611686018427387905).", 4); ("s(\"\\256\").", 5) ];
  match parse_ok "p(f())." with
  | Ok _ -> Alcotest.fail "f() accepted as a term"
  | Error _ -> ()

(* The canonical rendering reads back as the database it was printed
   from, over every value shape the parser can produce: ints up to
   [min_int]/[max_int] and across the 2^61 inline-cell boundary,
   lowercase symbols, strings over arbitrary bytes, tuples of arity 0
   or >= 2, compound terms with arguments, and nullary facts. *)
let gen_facts =
  let open QCheck.Gen in
  let lower = map Char.chr (int_range (Char.code 'a') (Char.code 'z')) in
  let ident_char = oneof [ lower; numeral; oneofl [ '_'; '\''; 'Q' ] ] in
  let ident avoid =
    map2
      (fun c rest ->
        let s = String.make 1 c ^ rest in
        if List.mem s avoid then s ^ "_" else s)
      lower (string_size ~gen:ident_char (int_bound 4))
  in
  let boundary = 1 lsl 61 in
  let int =
    oneof
      [ small_signed_int; QCheck.Gen.int;
        oneofl [ min_int; max_int; boundary; -boundary; boundary - 1; -boundary - 1; 0 ] ]
  in
  let str = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 6) in
  let leaf =
    oneof
      [ map (fun i -> Value.Int i) int; map Value.sym (ident [ "not" ]); map Value.str str ]
  in
  let value =
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [ (4, leaf);
              (1, map (fun xs -> Value.Tup xs)
                    (oneof [ return []; list_size (int_range 2 3) (self (depth - 1)) ]));
              (1, map2 (fun f xs -> Value.App (f, xs))
                    (ident [ "not"; "choice"; "least"; "most"; "next"; "max"; "min"; "count"; "sum" ])
                    (list_size (int_range 1 3) (self (depth - 1)))) ])
      2
  in
  list_size (int_bound 12)
    (let* pred, arity = oneofl [ ("e", 0); ("p", 1); ("q", 2); ("r", 3) ] in
     map (fun row -> (pred, Array.of_list row)) (list_repeat arity value))

let render_facts facts =
  let db = Database.create () in
  List.iter (fun (pred, row) -> ignore (Database.add_fact db pred row)) facts;
  Database.render db

let prop_render_roundtrip =
  QCheck.Test.make ~name:"render . parse . render = render on random databases" ~count:500
    (QCheck.make ~print:render_facts gen_facts)
    (fun facts ->
      let text = render_facts facts in
      let db = Database.create () in
      Database.load_facts db (Parser.parse_program text);
      Database.render db = text)

let () =
  Alcotest.run "parser"
    [ ( "clauses",
        [ Alcotest.test_case "facts" `Quick test_facts;
          Alcotest.test_case "comments and arrows" `Quick test_comments_and_arrows;
          Alcotest.test_case "comments at eof" `Quick test_comments_at_eof;
          Alcotest.test_case "malformed arrows rejected" `Quick test_malformed_arrow;
          Alcotest.test_case "literal kinds" `Quick test_literals;
          Alcotest.test_case "choice groups" `Quick test_choice_groups;
          Alcotest.test_case "least key forms" `Quick test_least_forms;
          Alcotest.test_case "arithmetic precedence" `Quick test_arithmetic;
          Alcotest.test_case "negative literals" `Quick test_negative_literals;
          Alcotest.test_case "anonymous variables fresh" `Quick test_anonymous_vars_fresh;
          Alcotest.test_case "trailing dot optional" `Quick test_parse_rule_trailing_dot_optional ] );
      ( "robustness",
        [ Alcotest.test_case "rejects malformed input" `Quick test_errors;
          Alcotest.test_case "round-trips all paper programs" `Quick
            test_roundtrip_paper_programs;
          QCheck_alcotest.to_alcotest prop_ast_roundtrip;
          Alcotest.test_case "printed forms read back" `Quick test_printed_forms;
          QCheck_alcotest.to_alcotest prop_render_roundtrip ] ) ]
