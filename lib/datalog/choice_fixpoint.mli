(** The reference engine: the paper's Choice Fixpoint procedure
    (Section 2, Lemma 1) specialized per Section 4 to programs whose
    cliques are evaluated stratum by stratum.

    For every clique, in topological order:
    - Horn / stratified cliques are saturated semi-naively;
    - cliques containing [choice] or [next] rules run the alternating
      fixpoint [S' := Q^inf(gamma(S))]: the one-consequence operator
      [gamma] evaluates the chosen-rule bodies against the current
      database (FD-filtering against the memoized [chosen_i] relations,
      then applying the rule's extrema), fires {e one} new chosen fact,
      and [Q^inf] re-saturates the clique's flat rules (including the
      rewritten positive rules [head <- body, chosen_i(V)]).

    [next] rules are evaluated with the stage variable bound directly
    to [max stage + 1] of the head predicate; this is observationally
    identical to the paper's macro-expansion (candidates at earlier
    stages are always rejected by the stage FDs) and avoids enumerating
    dead stages.

    The [chosen_i] relations are stored in the result database under
    the same names and layouts that {!Rewrite.expand_choice} assigns,
    so a produced model can be handed directly to {!Stable.is_stable}.

    Candidates are re-derived from scratch at every gamma step — this
    engine is the semantics reference and the ablation baseline (A1);
    {!Stage_engine} is the optimized implementation. *)

type policy =
  | First  (** deterministic: first rule in program order, first candidate in derivation order *)
  | Random of int  (** uniform over candidates, seeded *)

type stats = {
  gamma_steps : int;  (** chosen facts fired *)
  candidates_examined : int;  (** across all gamma steps *)
}

exception Unsupported of string
(** Raised when a clique cannot be evaluated: negation or extrema over
    a recursive clique with no choice rules, unsafe rules, etc. *)

val run :
  ?policy:policy ->
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?jobs:int ->
  ?plan:Plan.t ->
  ?db:Database.t ->
  Ast.program ->
  Database.t * stats
(** Evaluate the program (facts included) on top of [db] (fresh when
    omitted; mutated in place).  Returns one choice model.  When
    [telemetry] is an enabled collector, per-rule counters, delta sizes
    and per-stratum spans are recorded into it.  [jobs] > 1 shards flat
    saturation and gamma candidate enumeration across a domain pool
    ({!Par.get}) with merge orders chosen so the model — and the
    telemetry counters — are byte-identical to [jobs = 1]; each gamma
    step still fires exactly one chosen fact, sequentially.

    Every rule body runs as a {!Compile} closure chain over the
    cost-planned join order ([plan] when given, else {!Plan.analyze} on
    the program; see docs/INTERNALS.md, "Execution").
    @raise Limits.Exhausted when [limits] trips a budget; use
    {!run_governed} to receive the partial database instead. *)

val run_governed :
  ?policy:policy ->
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?jobs:int ->
  ?plan:Plan.t ->
  ?db:Database.t ->
  Ast.program ->
  (Database.t * stats) Limits.outcome
(** Like {!run}, but budget exhaustion and cancellation are returned as
    {!Limits.Partial} carrying the consistent partial database derived
    so far plus a diagnostics snapshot, instead of an exception.  A
    budget tripped inside a parallel region aborts every shard before
    anything is merged, so the partial database is consistent. *)

val model : ?policy:policy -> ?db:Database.t -> Ast.program -> Database.t
(** {!run} without the statistics. *)

val enumerate :
  ?max_models:int -> ?limits:Limits.t -> ?db:Database.t -> Ast.program -> Database.t list
(** All choice models, by depth-first search over the gamma choices
    with intermediate-state deduplication (different firing orders
    reaching the same database are explored once).  Still exponential
    in the worst case — intended for the small instances used in tests
    (Lemma 2's non-deterministic completeness).  Stops early after
    [max_models] distinct models (default 10_000). *)

val find :
  ?limits:Limits.t ->
  ?db:Database.t ->
  accept:(Database.t -> bool) ->
  Ast.program ->
  Database.t option
(** Don't-know non-determinism: search the choice models depth-first
    and return the first one satisfying [accept] — e.g. "an assignment
    covering every student", which greedy-first gamma may miss. *)
