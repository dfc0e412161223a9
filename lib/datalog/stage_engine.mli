(** The optimized engine: the Alternating Stage-Choice Fixpoint
    implemented with the Section-6 [(R, Q, L)] structures.

    Every [next] rule of a choice clique is compiled into a plan built
    around one {e source atom} — the positive body atom that binds the
    extremum's cost variable.  Source facts stream into an {!Rql}
    structure as the clique's flat rules saturate (semi-naive, delta
    watermarks); the paper's [retrieve least] pops the cheapest
    candidate and lazily re-validates it against the {e residual} body
    (the remaining joins, comparisons and negations) and the choice
    FDs.  Lazy revalidation is sound because in stage-stratified
    programs those conditions are monotone — once a candidate is
    invalid it stays invalid — so a discarded fact can go to [R]
    forever.

    The r-congruence key is derived per rule by the shadow-safety
    analysis described in DESIGN.md: an argument may be dropped from
    the key only when the choice FDs guarantee that, within a
    congruence class, at most one fact can ever fire and the cheapest
    is always an acceptable representative.  When the analysis cannot
    establish that (e.g. the matching program), shadowing is disabled
    and [Q] simply holds every candidate, exactly as the paper's own
    complexity analysis of Example 7 assumes.

    Exit rules ([choice] without [next], e.g. greedy TSP's cheapest
    first arc) are evaluated with the reference gamma operator.

    The produced database is a stable model of the same rewritten
    program as {!Choice_fixpoint}'s, with identical [chosen$i]
    layouts, and coincides with the reference engine's model whenever
    the program's extrema are tie-free. *)

exception Not_compilable of string
(** The program is outside the compiled class: a [next] rule with more
    than one extremum, no source atom binding the cost variable, or a
    head not determined by its choice variables. *)

type stats = {
  gamma_steps : int;
  inserted : int;  (** source facts offered to the queues *)
  shadowed : int;  (** facts sent to R at insertion (congruence) *)
  stale : int;  (** superseded queue entries skipped at pop *)
  invalid_pops : int;  (** candidates discarded by revalidation *)
  max_queue : int;  (** largest live queue across rules *)
}

type shadow_mode =
  [ `Auto  (** per-rule safety analysis (default) *)
  | `Off  (** ablation A2: never shadow *)
  ]

(** {2 Prepare and execute}

    Everything the engine derives from the rules alone — the clique
    list and each clique's rule partition, the compiled choice and
    [next] rules, each choice clique's sub-clique {!Depgraph}, every
    semi-naive delta variant ({!Seminaive.prepared}) and every
    telemetry label — is computed once by {!prepare}.  {!execute} then
    only runs it over a database, under its own limits and telemetry.
    The one-shot entry points are [execute (prepare ...)]; gbcd keeps
    the prepared program in its program cache, so a served run only
    executes. *)

type prepared
(** A prepared program.  Immutable: one value may be executed any
    number of times, concurrently on any number of domains.  Each
    execution takes private instances of its closure chains
    ({!Compile.clone}), with their own environments, resolved relations,
    row buffers and {!Rql} queues. *)

val prepare : Ast.program -> prepared
(** Prepare a (cost-planned) program, facts included.  Never raises: a
    stratum outside the compiled class keeps its error, and
    {!execute} raises it ({!Not_compilable}, or
    {!Engine_core.Unsupported} for a choice rule that does not compile)
    when it reaches that stratum, exactly where a one-shot run would. *)

val execute :
  ?shadow:shadow_mode ->
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?jobs:int ->
  ?db:Database.t ->
  prepared ->
  (Database.t * stats) Limits.outcome
(** Load the prepared program's facts into [db] (default: a fresh
    database) and evaluate it, as {!run_governed} does; [limits]
    governs the whole execution. *)

(** {2 One-shot} *)

val run :
  ?shadow:shadow_mode ->
  ?telemetry:Telemetry.t ->
  ?limits:Limits.t ->
  ?jobs:int ->
  ?plan:Plan.t ->
  ?db:Database.t ->
  Ast.program ->
  Database.t * stats
(** When [telemetry] is an enabled collector, per-rule counters
    (candidates, firings, queue statistics), delta sizes and
    per-stratum spans are recorded into it.  [jobs] > 1 evaluates flat
    saturation and exit-rule candidate collection data-parallel on a
    shared domain pool ({!Par.get}); the model is byte-identical to
    [jobs = 1] — [next]-rule pops and all firings stay sequential (the
    paper's alternation), only the side-effect-free enumeration fans
    out.

    Flat saturation, residual revalidation and exit-rule enumeration
    run as {!Compile} closure chains over the cost-planned join order
    ([plan] when given, else {!Plan.analyze}; see docs/INTERNALS.md,
    "Execution").  [run] is {!execute} of {!prepare}; with [telemetry]
    the preparation is recorded as the span [prepare].
    @raise Limits.Exhausted when [limits] trips a budget; use
    {!run_governed} to receive the partial database instead. *)

val run_governed :
  ?shadow:shadow_mode ->
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

val model : ?db:Database.t -> Ast.program -> Database.t

val compiled_keys : Ast.program -> (string * bool * int list) list
(** For each [next] rule (by head predicate): whether congruence
    shadowing is enabled and the source-argument positions forming the
    congruence key.  Exposed for tests of the shadow-safety analysis. *)
