(** A database: a mutable map from predicate names to relations.

    Arities are fixed on first use; a later use at a different arity is
    an error (the surface language, like classic Datalog, has no
    overloading). *)

type t

val create : unit -> t

val relation : t -> string -> int -> Relation.t
(** [relation db pred arity] returns the relation for [pred], creating
    it empty when absent.
    @raise Invalid_argument on an arity clash. *)

val find : t -> string -> Relation.t option
(** The relation for a predicate, or [None] if never touched. *)

val add_fact : t -> string -> Value.t array -> bool
val mem_fact : t -> string -> Value.t array -> bool

val load_facts : t -> Ast.program -> unit
(** Insert every ground fact of the program.
    @raise Invalid_argument if a clause with a non-empty body or a
    non-ground head is present. *)

val preds : t -> string list
(** Predicate names in creation order. *)

val cardinal : t -> int
(** Total fact count across relations. *)

val copy : t -> t

val set_relation : t -> string -> Relation.t -> unit
(** Install (or replace) the relation bound to a name.  Engine-internal:
    used for semi-naive delta relations ([p$delta]) and for aliasing a
    fixed model database during reduct evaluation. *)

val remove_relation : t -> string -> unit
(** Drop a relation (engine-internal cleanup of delta relations). *)

val facts_of : t -> string -> Value.t array list
(** All rows of a predicate in insertion order ([[]] if absent). *)

val pp : Format.formatter -> t -> unit
(** Sorted, one fact per line — stable output for tests and the CLI. *)

val digest : t -> string
(** A canonical digest of the fact set, in one pass over relation
    storage: no sorting and no rendering.  Each fact hashes its
    predicate, arity and fields into two 63-bit lanes ([Sym]/[Str] by
    their text, so interner and term-table ids do not matter); the
    lanes are summed over all facts, so insertion order does not matter
    either.  Databases with equal canonical renderings ({!pp})
    have equal digests.  Not collision-resistant against an adversary:
    it guards replay against divergence.  The result is ["mset1:"]
    followed by 32 hex digits. *)

val equal_on : t -> t -> string list -> bool
(** [equal_on a b preds]: do [a] and [b] hold exactly the same facts for
    each predicate in [preds]? *)
