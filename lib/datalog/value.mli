(** Ground values of the (reduced) Herbrand universe.

    Function symbols are restricted, as in the paper's next-Datalog
    programs, to those the programs themselves build — e.g. Huffman's
    tree constructor [t(X, Y)] — plus tuples used by [choice] goals.

    [Sym]/[Str] payloads are {!Interner} ids, not strings: build them
    with {!sym}/{!str} and read them back with {!resolve}.  Equality
    and hashing on symbols are therefore integer operations, while
    {!compare} still agrees with [String.compare] on the underlying
    text. *)

type t =
  | Int of int  (** integers: costs, grades, stage values *)
  | Sym of int  (** lowercase constants: [a], [nil], [engl] — interned *)
  | Str of int  (** quoted strings — interned *)
  | Tup of t list  (** tuples [(a, b)]; [Tup []] is the unit [()] *)
  | App of string * t list  (** compound terms such as [t(l1, l2)] *)

val sym : string -> t
(** The interned symbol for [s]: [sym s = sym s] physically on ids. *)

val str : string -> t
(** The interned quoted string for [s]. *)

val resolve : int -> string
(** The text behind a [Sym]/[Str] id; see {!Interner.resolve}. *)

val unit : t
val nil : t

val compare : t -> t -> int
(** Total order: [Int < Sym < Str < Tup < App], contents lexicographic
    ([Sym]/[Str] by their resolved strings, not by id).  [least]/[most]
    and deterministic tie-breaking rely on it. *)

val equal : t -> t -> bool
(** Structural equality; on symbols a single integer comparison. *)

val hash : t -> int
(** Deep structural hash (unlike [Hashtbl.hash], never truncates deep
    Huffman trees to a handful of meaningful nodes). *)

val add : Buffer.t -> t -> unit
(** Append a value's canonical text: strings with OCaml's [%S] escapes,
    tuples as [(a, b)], compound terms as [f(a, b)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val as_int : t -> int
(** @raise Invalid_argument when the value is not an [Int]. *)

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
