open Ast

exception Error of string * Lexer.pos

(* For failures with no meaningful source location (e.g. clause-count
   mismatches); renderers omit positions with line 0. *)
let nowhere = { Lexer.line = 0; col = 0 }

type state = { mutable toks : (Lexer.token * Lexer.pos) list }

let fail_at (pos : Lexer.pos) msg = raise (Error (msg, pos))

let peek st = match st.toks with [] -> (Lexer.EOF, { Lexer.line = 0; col = 0 }) | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  let t, pos = peek st in
  if t = tok then advance st
  else
    fail_at pos
      (Printf.sprintf "expected '%s' but found '%s'" (Lexer.token_to_string tok)
         (Lexer.token_to_string t))

let reserved = [ "choice"; "least"; "most"; "next"; "max"; "min"; "count"; "sum" ]

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st =
  let lhs = parse_addend st in
  parse_expr_rest st lhs

and parse_expr_rest st lhs =
  match fst (peek st) with
  | Lexer.PLUS ->
    advance st;
    let rhs = parse_addend st in
    parse_expr_rest st (Binop (Add, lhs, rhs))
  | Lexer.MINUS ->
    advance st;
    let rhs = parse_addend st in
    parse_expr_rest st (Binop (Sub, lhs, rhs))
  | _ -> lhs

and parse_addend st =
  let lhs = parse_factor st in
  parse_addend_rest st lhs

and parse_addend_rest st lhs =
  match fst (peek st) with
  | Lexer.STAR ->
    advance st;
    let rhs = parse_factor st in
    parse_addend_rest st (Binop (Mul, lhs, rhs))
  | _ -> lhs

and parse_factor st =
  let t, pos = peek st in
  match t with
  | Lexer.INT n ->
    advance st;
    Cst (Value.Int n)
  | Lexer.MINUS ->
    (* Unary minus: a negative literal or a negated term. *)
    advance st;
    (match parse_factor st with
    | Cst (Value.Int n) -> Cst (Value.Int (-n))
    | t -> Binop (Sub, Cst (Value.Int 0), t))
  | Lexer.STRING s ->
    advance st;
    Cst (Value.str s)
  | Lexer.UIDENT v ->
    advance st;
    Var v
  | Lexer.UNDERSCORE ->
    advance st;
    Var (Ast.fresh_var ())
  | Lexer.LIDENT f when (f = "max" || f = "min") && fst (peek { toks = List.tl st.toks }) = Lexer.LPAREN ->
    advance st;
    expect st Lexer.LPAREN;
    let a = parse_expr st in
    expect st Lexer.COMMA;
    let b = parse_expr st in
    expect st Lexer.RPAREN;
    Binop ((if f = "max" then Max else Min), a, b)
  | Lexer.LIDENT f ->
    advance st;
    if fst (peek st) = Lexer.LPAREN then begin
      if List.mem f reserved then fail_at pos (Printf.sprintf "'%s' cannot be used as a term" f);
      advance st;
      let args = parse_expr_list st in
      expect st Lexer.RPAREN;
      Cmp (f, args)
    end
    else Cst (Value.sym f)
  | Lexer.LPAREN ->
    advance st;
    if fst (peek st) = Lexer.RPAREN then begin
      advance st;
      Cst Value.unit
    end
    else begin
      let first = parse_expr st in
      match fst (peek st) with
      | Lexer.COMMA ->
        advance st;
        let rest = parse_expr_list st in
        expect st Lexer.RPAREN;
        Cmp ("", first :: rest)
      | _ ->
        expect st Lexer.RPAREN;
        first
    end
  | tok -> fail_at pos (Printf.sprintf "unexpected token '%s'" (Lexer.token_to_string tok))

and parse_expr_list st =
  let first = parse_expr st in
  if fst (peek st) = Lexer.COMMA then begin
    advance st;
    first :: parse_expr_list st
  end
  else [ first ]

(* A group is the argument form used by [choice]/[least]/[most]:
   either a parenthesized (possibly empty) list or a single term. *)
let parse_group st =
  match fst (peek st) with
  | Lexer.LPAREN ->
    advance st;
    if fst (peek st) = Lexer.RPAREN then begin
      advance st;
      []
    end
    else begin
      let args = parse_expr_list st in
      expect st Lexer.RPAREN;
      args
    end
  | _ -> [ parse_expr st ]

(* ------------------------------------------------------------------ *)
(* Literals and clauses                                                *)
(* ------------------------------------------------------------------ *)

let cmp_of_token = function
  | Lexer.LT -> Some Lt
  | Lexer.LE -> Some Le
  | Lexer.GT -> Some Gt
  | Lexer.GE -> Some Ge
  | Lexer.EQ -> Some Eq
  | Lexer.NE -> Some Ne
  | _ -> None

let term_to_atom pos t =
  match t with
  | Cst (Value.Sym p) -> { pred = Value.resolve p; args = [] }
  | Cmp (p, args) when p <> "" -> { pred = p; args }
  | _ -> fail_at pos "expected a predicate atom"

(* [p()] is the nullary atom [p], as the printer writes it.  Only
   atoms take the empty argument list; a term [f()] stays an error. *)
let nullary_atom st =
  match st.toks with
  | (Lexer.LIDENT pred, _) :: (Lexer.LPAREN, _) :: (Lexer.RPAREN, _) :: rest ->
    st.toks <- rest;
    Some { pred; args = [] }
  | _ -> None

let parse_atom st parse =
  match nullary_atom st with
  | Some a -> a
  | None ->
    let pos = snd (peek st) in
    term_to_atom pos (parse st)

let parse_literal st =
  let t, pos = peek st in
  match t with
  | Lexer.NOT ->
    advance st;
    Neg (parse_atom st parse_factor)
  | Lexer.LIDENT "choice" ->
    advance st;
    expect st Lexer.LPAREN;
    let left = parse_group st in
    expect st Lexer.COMMA;
    let right = parse_group st in
    expect st Lexer.RPAREN;
    Choice (left, right)
  | Lexer.LIDENT (("least" | "most") as which) ->
    advance st;
    expect st Lexer.LPAREN;
    let cost = parse_expr st in
    let keys =
      if fst (peek st) = Lexer.COMMA then begin
        advance st;
        parse_group st
      end
      else []
    in
    expect st Lexer.RPAREN;
    if which = "least" then Least (cost, keys) else Most (cost, keys)
  | Lexer.LIDENT (("count" | "sum") as which) ->
    advance st;
    expect st Lexer.LPAREN;
    let out, pos' = peek st in
    let out =
      match out with
      | Lexer.UIDENT name ->
        advance st;
        name
      | _ -> fail_at pos' (which ^ "(..) expects an output variable first")
    in
    expect st Lexer.COMMA;
    let counted = parse_expr st in
    let keys =
      if fst (peek st) = Lexer.COMMA then begin
        advance st;
        parse_group st
      end
      else []
    in
    expect st Lexer.RPAREN;
    Agg ((if which = "count" then Count else Sum), out, counted, keys)
  | Lexer.LIDENT "next" ->
    advance st;
    expect st Lexer.LPAREN;
    let v, pos' = peek st in
    (match v with
    | Lexer.UIDENT name ->
      advance st;
      expect st Lexer.RPAREN;
      Next name
    | _ -> fail_at pos' "next(..) expects a variable")
  | _ -> (
    match nullary_atom st with
    | Some a -> Pos a
    | None -> (
      let lhs = parse_expr st in
      match cmp_of_token (fst (peek st)) with
      | Some op ->
        advance st;
        let rhs = parse_expr st in
        Rel (op, lhs, rhs)
      | None -> Pos (term_to_atom pos lhs)))

let rec parse_literals st =
  let first = parse_literal st in
  if fst (peek st) = Lexer.COMMA then begin
    advance st;
    first :: parse_literals st
  end
  else [ first ]

let parse_clause st =
  let head = parse_atom st parse_expr in
  let body =
    if fst (peek st) = Lexer.ARROW then begin
      advance st;
      parse_literals st
    end
    else []
  in
  expect st Lexer.DOT;
  { head; body }

let wrap_lex f src =
  match f src with
  | exception Lexer.Error (msg, pos) -> raise (Error ("lexical error: " ^ msg, pos))
  | x -> x

let parse_program src =
  let st = { toks = wrap_lex Lexer.tokenize src } in
  let rec go acc =
    if fst (peek st) = Lexer.EOF then List.rev acc else go (parse_clause st :: acc)
  in
  go []

let parse_rule src =
  let src = String.trim src in
  let src = if String.length src > 0 && src.[String.length src - 1] = '.' then src else src ^ "." in
  match parse_program src with
  | [ r ] -> r
  | rs ->
    raise (Error (Printf.sprintf "expected a single clause, found %d" (List.length rs), nowhere))

let parse_term src =
  let st = { toks = wrap_lex Lexer.tokenize src } in
  let t = parse_expr st in
  expect st Lexer.EOF;
  t
