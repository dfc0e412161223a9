(** Cost-based join planning: every engine run executes planned bodies.

    [analyze] estimates per-rule join costs from relation cardinalities
    (and per-column distinct counts) of the base database, telemetry
    delta totals from a previous run, or flat defaults, and greedily
    orders each rule's positive atoms cheapest-first.

    Reordering changes solution enumeration order, which is observable
    through choice tie-breaking, so it is gated: only programs whose
    every rule body is flat ([Pos]/[Neg]/[Rel]) are reordered.  For
    order-sensitive programs the plan is annotation-only and
    {!program} returns the input unchanged — the engines then execute
    the source join order. *)

type lit_cost = {
  lp_lit : Ast.literal;
  lp_index : int;  (** position in the original body *)
  lp_card : float;  (** estimated cardinality of the scanned relation *)
  lp_cost : float;  (** estimated rows enumerated per outer binding *)
}

type rule_plan = {
  rp_rule : Ast.rule;
  rp_label : string;
  rp_body : Ast.literal list;  (** the planned body order *)
  rp_lits : lit_cost list;  (** positive atoms, in planned order *)
  rp_reordered : bool;  (** the planned order differs from the source *)
}

type t = { rules : rule_plan list; reorderable : bool }

val reorderable : Ast.program -> bool
(** Every rule body is flat — no choice / extrema / aggregate / next
    goals anywhere, so enumeration order cannot leak into the model. *)

val analyze : ?telemetry:Telemetry.t -> ?db:Database.t -> Ast.program -> t

val program : t -> Ast.program
(** The program with rule bodies in planned order. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
