(** Semi-naive saturation, one-shot and incremental.

    The incremental form is what makes the engines meet the paper's
    complexity bounds: a choice clique's flat rules are saturated after
    {e every} gamma step, so re-seeding from scratch each time would
    charge the whole database per stage.  {!make} captures persistent
    per-predicate watermarks; each {!step} publishes only the rows that
    appeared since the previous step (whether derived by the flat rules
    themselves or added externally by the gamma operator — chosen
    tuples, staged head facts) and fires only the delta variants.

    A delta is a range of row ids of the live relation, not a copy: a
    variant's delta occurrence scans the ids between the watermark of
    the previous round and the id bound at this one.  A step creates,
    installs and removes no relation, and binds the relations it reads
    or writes by name at most once.

    Negation and extrema may only refer to predicates outside the
    clique, except under [allow_clique_negation] — used by the choice
    engines for stage-stratified cliques, where every in-clique
    negation is strictly stage-bounded and thus tests only facts that
    are final by the time the negating rule can fire (see DESIGN.md). *)

type incremental

val make :
  ?allow_clique_negation:bool ->
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?pool:Par.t ->
  ?marks:(string -> int) ->
  Database.t ->
  clique:string list ->
  Ast.program ->
  incremental
(** Compile the non-fact rules whose heads lie in [clique].  Every
    positive body predicate is delta-tracked, so the first {!step}
    performs the seed evaluation and later steps are proportional to
    the new facts.

    [marks] sets the initial watermark of each tracked predicate
    (default [fun _ -> 0], the full seed).  Incremental view
    maintenance ({!Ivm}) passes the row counts its materialized model
    already accounts for, so the first {!step} treats only the rows
    appended since — externally asserted facts, lower-stratum
    insertions — as the delta and never replays the existing model.
    Marks are clamped to [0 .. Relation.id_bound].

    When [pool] has more than one domain, each delta variant whose
    delta is large enough is evaluated data-parallel: the delta's id
    range is cut across the pool's domains, each shard joins read-only
    into a private buffer, and the buffers are merged in an order that
    makes the database insertion order byte-identical to sequential
    evaluation (see docs/INTERNALS.md, "Parallel evaluation").

    Every delta variant, extrema rule and aggregate rule is compiled
    here, once, into a {!Compile} closure chain (see docs/INTERNALS.md,
    "Execution").
    @raise Invalid_argument on rules outside the supported class (see
    above). *)

val step : incremental -> unit
(** Saturate to fixpoint given everything that is new since the last
    call.  Extrema and aggregate rules (non-recursive w.r.t. the
    clique) are re-evaluated whenever the iteration makes progress.
    @raise Limits.Exhausted when the governor passed to {!make} trips;
    the database keeps the consistent prefix derived so far. *)

val eval_clique :
  ?allow_clique_negation:bool ->
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?pool:Par.t ->
  Database.t ->
  clique:string list ->
  Ast.program ->
  unit
(** One-shot: [make] followed by a single [step]. *)
