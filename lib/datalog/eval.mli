(** Compilation and evaluation of flat rule bodies.

    A {e flat body} is a list of [Pos]/[Neg]/[Rel] literals — the
    engines strip [choice]/[least]/[most]/[next] goals and handle them
    separately.  Compilation assigns every variable an integer slot,
    greedily orders the literals so that each is evaluated only when its
    inputs are bound, and turns comparisons that constrain otherwise-
    unbound variables of a negated atom into {e guards} scoped inside
    that negation.  The guard treatment implements the paper's notation
    [¬subtree(X, L1), L1 < I], where [L1] is existentially quantified
    under the negation (cf. Example 6 and footnote 2).

    The engines execute a compiled body as a {!Compile} closure chain.
    {!run} is the independent reference executor behind {!Naive} (and
    so behind [Stable.is_stable]): it enumerates all satisfying
    assignments by backtracking joins over {!Relation.iter_matching},
    in relation insertion order — the same order the chains keep. *)

type env = Value.t option array

(** {2 Internal representation}

    Exposed concretely so {!Compile} can turn an already-planned body
    into a chain of specialized closures without re-deriving the join
    order — the engines' deterministic enumeration order rests on
    executing exactly these steps in exactly this order.  Everything
    here is produced by {!compile_body}; treat it as read-only. *)

(** Slot-resolved terms.  [PAny] only arises from {!compile_term} on a
    wildcard — the body compiler gives every [_] its own fresh slot. *)
type pterm =
  | PVar of int
  | PCst of Value.t
  | PCmp of string * pterm array
  | PBinop of Ast.binop * pterm * pterm
  | PAny

type cterm = pterm

type guard = Ast.cmp_op * pterm * pterm

(** A compiled scan of one atom; see [eval.ml] for the invariants of
    the scratch pattern, kernel writes and static probe mask. *)
type scan = {
  sc_pred : string;
  sc_arity : int;
  sc_args : pterm array;
  sc_pattern : Value.t option array;
  sc_fill : (int * pterm) array;
  sc_writes : (int * int) array;
  sc_reads : int array;
  sc_fast : bool;
  sc_mask : int;
}

type step =
  | SScan of scan
  | SNeg of scan * guard list
  | STest of Ast.cmp_op * pterm * pterm
  | SUnify of pterm * pterm

type body = {
  steps : step array;
  slots : (string, int) Hashtbl.t;
  nvars : int;
}

exception Unsafe of string
(** Raised at compile time when the body cannot be ordered safely
    (e.g. a comparison or negation over variables never bound by a
    positive literal). *)

val apply_binop : Ast.binop -> Value.t -> Value.t -> Value.t
(** Integer arithmetic plus [max]/[min].  @raise Unsafe on arithmetic
    over non-integers and on native-int overflow ([Add]/[Sub]/[Mul]
    never wrap silently — the message names the offending operation). *)

val compile_body : ?extra_bound:string list -> Ast.literal list -> body
(** [extra_bound] names variables the engine binds before {!run}
    (typically the stage variable of a [next] rule). *)

val nvars : body -> int
val slot : body -> string -> int
(** Slot of a variable. @raise Not_found if the body never saw it. *)

val fresh_env : body -> env

val run : body -> Database.t -> env -> (env -> unit) -> unit
(** [run body db env k] calls [k] once per satisfying assignment.  The
    environment is mutated in place and restored between solutions;
    [k] must not retain it (copy what it needs). *)

val eval_term : body -> env -> Ast.term -> Value.t
(** Evaluate a term (head argument, cost, key, ...) under [env].
    @raise Unsafe when a variable is unbound. *)

val eval_terms : body -> env -> Ast.term list -> Value.t list

(** {2 Resolved terms}

    [eval_term] re-resolves its AST argument against the slot table on
    every call.  The engines instead resolve heads, costs, keys and FD
    projections once with {!compile_term} and hand the resolved form to
    {!Compile.compile_value}. *)

val compile_term : body -> Ast.term -> cterm
(** Resolve a term's variables to slots once.  Wildcards ([_]) compile
    to a match-anything pattern (they evaluate as unbound).
    @raise Unsafe when a named variable does not occur in the body. *)

val compile_terms : body -> Ast.term list -> cterm array
