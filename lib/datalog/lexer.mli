(** Hand-written lexer for the surface syntax.

    Comments run from [%] or [#] to end of line.  [<-] and [:-] both
    introduce rule bodies. *)

type token =
  | LIDENT of string  (** lowercase identifier: predicate / constant *)
  | UIDENT of string  (** capitalized or [_]-prefixed identifier: variable *)
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | ARROW
  | NOT  (** [not] / [~] *)
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | PLUS
  | MINUS
  | STAR
  | UNDERSCORE  (** the anonymous variable *)
  | EOF

type pos = { line : int; col : int }

exception Error of string * pos

val tokenize : string -> (token * pos) list
(** String literals take the escapes OCaml's [%S] writes: [\n], [\t],
    [\r], [\b] and [\ddd]; any other escaped character stands for itself.
    @raise Error on any unrecognizable input, including an integer
    literal wider than an [int] ([-4611686018427387904] still reads). *)

val token_to_string : token -> string
