type token =
  | LIDENT of string
  | UIDENT of string
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | ARROW
  | NOT
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | PLUS
  | MINUS
  | STAR
  | UNDERSCORE
  | EOF

type pos = { line : int; col : int }

exception Error of string * pos

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = c >= 'A' && c <= 'Z'
let is_ident_char c = is_digit c || is_lower c || is_upper c || c = '_' || c = '\''

type state = { src : string; mutable i : int; mutable line : int; mutable col : int }

let peek st = if st.i < String.length st.src then Some st.src.[st.i] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.i <- st.i + 1

let here st = { line = st.line; col = st.col }

let error st msg = raise (Error (msg, here st))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some ('%' | '#') ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_ws st
  | _ -> ()

let lex_ident st =
  let start = st.i in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  (* Canonicalize through the interner: every occurrence of an
     identifier in a token stream shares one string. *)
  Interner.canonical (String.sub st.src start (st.i - start))

(* After a minus sign the digits may spell [-min_int], one past
   [max_int]: they read as [min_int], which the parser's negation leaves
   in place, so the printed [min_int] reads back. *)
let lex_int st ~after_minus =
  let pos = here st and start = st.i in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let digits = String.sub st.src start (st.i - start) in
  match int_of_string_opt digits with
  | Some n -> n
  | None when after_minus && int_of_string_opt ("-" ^ digits) = Some min_int -> min_int
  | None -> raise (Error ("integer literal out of range: " ^ digits, pos))

(* [\ddd], the decimal byte escape the printer writes for bytes
   outside printable ASCII; leaves [st] on the last digit. *)
let lex_decimal_escape st =
  let pos = here st in
  let digit k =
    let i = st.i + k in
    if i < String.length st.src && is_digit st.src.[i] then Char.code st.src.[i] - Char.code '0'
    else raise (Error ("bad escape: expected \\ddd", pos))
  in
  let code = (100 * digit 0) + (10 * digit 1) + digit 2 in
  if code > 255 then raise (Error ("bad escape: byte out of range", pos));
  advance st;
  advance st;
  Char.chr code

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some c when is_digit c -> Buffer.add_char buf (lex_decimal_escape st)
      | Some c -> Buffer.add_char buf c
      | None -> error st "unterminated escape");
      advance st;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let next_token st ~after_minus =
  skip_ws st;
  let pos = here st in
  let tok =
    match peek st with
    | None -> EOF
    | Some c when is_digit c -> INT (lex_int st ~after_minus)
    | Some c when is_lower c ->
      let id = lex_ident st in
      if id = "not" then NOT else LIDENT id
    | Some c when is_upper c -> UIDENT (lex_ident st)
    | Some '_' ->
      let id = lex_ident st in
      if id = "_" then UNDERSCORE else UIDENT id
    | Some '"' -> STRING (lex_string st)
    | Some '(' ->
      advance st;
      LPAREN
    | Some ')' ->
      advance st;
      RPAREN
    | Some ',' ->
      advance st;
      COMMA
    | Some '.' ->
      advance st;
      DOT
    | Some '+' ->
      advance st;
      PLUS
    | Some '-' ->
      advance st;
      MINUS
    | Some '*' ->
      advance st;
      STAR
    | Some '~' ->
      advance st;
      NOT
    | Some '=' ->
      advance st;
      EQ
    | Some '!' ->
      advance st;
      (match peek st with
      | Some '=' ->
        advance st;
        NE
      | _ -> error st "expected '=' after '!'")
    | Some '<' ->
      advance st;
      (match peek st with
      | Some '-' ->
        advance st;
        ARROW
      | Some '=' ->
        advance st;
        LE
      | Some '>' ->
        advance st;
        NE
      | _ -> LT)
    | Some '>' ->
      advance st;
      (match peek st with
      | Some '=' ->
        advance st;
        GE
      | _ -> GT)
    | Some ':' ->
      advance st;
      (match peek st with
      | Some '-' ->
        advance st;
        ARROW
      | _ -> error st "expected '-' after ':'")
    | Some c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  (tok, pos)

let tokenize src =
  let st = { src; i = 0; line = 1; col = 1 } in
  let rec go acc =
    let after_minus = match acc with (MINUS, _) :: _ -> true | _ -> false in
    let ((tok, _) as t) = next_token st ~after_minus in
    if tok = EOF then List.rev (t :: acc) else go (t :: acc)
  in
  go []

let token_to_string = function
  | LIDENT s -> s
  | UIDENT s -> s
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | ARROW -> "<-"
  | NOT -> "not"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EQ -> "="
  | NE -> "!="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | UNDERSCORE -> "_"
  | EOF -> "<eof>"
