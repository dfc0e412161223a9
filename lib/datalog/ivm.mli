(** Incremental view maintenance over a materialized model.

    After an engine run completes, the database holds the fixpoint of
    the program over its fact base.  {!create} captures that pairing;
    {!apply} then repairs the model in place for a batch of EDB
    assertions and retractions instead of re-running the fixpoint:

    - insertions ride the semi-naive delta machinery
      ({!Seminaive.make}[ ~marks]), so the work is proportional to the
      new facts and their consequences;
    - deletions in non-recursive monotone strata use counting (a
      support count per derived fact, decremented by the lost
      derivations); recursive strata use DRed — over-delete everything
      reachable from the retracted rows, then restore what is still
      EDB-backed or re-derivable, on row ids and bitsets of the pre
      state.  A delete costs the rows it touches plus one
      {!Relation.remove_ids} pass over each relation that loses rows:
      the over-delete fixpoint leaves the live relations alone, and the
      relation a removal replaces, indexes included, serves as the pre
      state (nothing is snapshotted by copying);
    - strata with negation, extrema or aggregates are recomputed from
      their updated inputs with the same {!Seminaive.eval_clique} the
      engines use, and the diff keeps propagating;
    - a change that can reach a [choice]/[next] stratum is refused
      ({!outcome}[ = Fallback]) {e before} the model is touched:
      nondeterministic strata are never "repaired" into a model no
      engine run could have produced.  The caller discards the
      materialization and re-runs the engine; the fallback is counted
      in {!stats}.

    After [Maintained], the model is fact-for-fact identical to a
    from-scratch engine run over the updated fact base — the canonical
    sorted rendering ({!Database.pp}) is byte-identical.  Per-relation
    insertion order may differ (e.g. a DRed-restored row re-enters at
    the end of its relation). *)

type t

type outcome =
  | Maintained  (** the model now reflects the updated fact base *)
  | Fallback of string
      (** refused; the model was not touched (pre-checked) — discard
          this value and re-run the engine.  The exception paths
          ([Limits.Exhausted], [Invalid_argument], [Eval.Unsafe]) can
          leave the model partially repaired: discard on those too. *)

type stats = {
  mutable applies : int;  (** maintained applies *)
  mutable fallbacks : int;  (** applies refused (choice reachable) *)
  mutable rows_inserted : int;  (** net rows added to the model *)
  mutable rows_deleted : int;  (** net rows removed from the model *)
  mutable strata_stepped : int;  (** delta-maintained stratum visits *)
  mutable strata_recomputed : int;  (** non-monotone recomputations *)
  mutable dred_overdeleted : int;  (** rows DRed over-deleted *)
  mutable dred_rederived : int;  (** of those, rows it restored *)
  mutable dred_rounds : int;  (** over-delete rounds *)
  mutable dred_checked : int;
      (** re-derive checks: each over-deleted row once, plus once per
          re-queue after a restore its derivation can use *)
}

type prepared
(** A program's strata — predicate dependency cliques, in topological
    order, each classified and its rules prepared once for the insert
    phase and the recomputation ({!Seminaive.prepared}).  Depends on
    the rules only and is immutable: one value serves the
    materializations of any number of sessions, on any domain. *)

val prepare : Ast.program -> prepared
(** Never raises: a stratum whose rules cannot be prepared keeps the
    error, raised by the {!apply} that evaluates it. *)

val materialize : prepared -> edb:Database.t -> model:Database.t -> t
(** [materialize p ~edb ~model]: [model] must be the complete fixpoint
    of the prepared program's rules over the fact base [edb].  [edb] is
    copied; [model] is owned by the returned value and mutated by
    {!apply} — callers keep reading it through {!model}. *)

val create : Ast.program -> edb:Database.t -> model:Database.t -> t
(** [materialize (prepare program)]: facts in [program] are ignored —
    they are already part of [edb]. *)

val model : t -> Database.t
val stats : t -> stats

val apply :
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?pool:Par.t ->
  t ->
  inserts:(string * Value.t array) list ->
  deletes:(string * Value.t array) list ->
  outcome
(** Repair the model for a batch of net EDB changes.  [inserts] rows
    must be absent from the fact base and [deletes] rows present in it
    (the session layer nets out its multiset before calling);
    duplicates within a batch are tolerated, a row appearing in both
    lists is not.
    @raise Limits.Exhausted when the governor trips mid-repair — the
    model is partially repaired; discard the materialization. *)
