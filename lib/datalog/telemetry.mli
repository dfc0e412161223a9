(** Engine telemetry: the measurement substrate behind `gbc profile`,
    `gbc run --stats` and the benchmark JSON trajectory.

    One [t] collects, across both engines:

    - {b per-rule counters} — facts derived by flat saturation,
      candidates examined by the gamma operator, choice-FD rejections,
      firings and the final stage value, and the Section-6 (R,Q,L)
      queue statistics (pushes, pops, r-congruence shadows, stale pops,
      lazy re-validations, queue high-water mark);
    - {b per-predicate delta sizes} — tuples published by the
      semi-naive watermarks;
    - {b wall-clock spans} — one per stratum/clique, plus whatever the
      CLI wraps;
    - {b fixpoint traces} — iteration and stratum events are also
      emitted on the [gbc.engine] {!Logs} source at debug level,
      independent of whether counting is enabled.

    The default sink {!none} is disabled: every recording function
    first tests [enabled] and returns, so instrumented hot paths cost
    one branch and no allocation when telemetry is off. *)

type rule_counters = {
  mutable derived : int;  (** facts added by this rule's flat saturation *)
  mutable candidates : int;  (** candidate solutions examined by gamma *)
  mutable fd_rejections : int;  (** solutions rejected by the choice FDs *)
  mutable fired : int;  (** gamma firings credited to this rule *)
  mutable last_stage : int;  (** final stage value reached (next rules) *)
  mutable pushes : int;  (** Rql insertions *)
  mutable pops : int;  (** Rql pops: stale + revalidation-failed + used *)
  mutable shadowed : int;  (** insertions shadowed by r-congruence *)
  mutable stale : int;  (** superseded entries skipped at pop *)
  mutable revalidations : int;  (** popped candidates failing lazy re-validation *)
  mutable max_queue : int;  (** live-queue high-water mark *)
}

type t

val none : t
(** The shared disabled sink — the default of every engine entry point. *)

val create : unit -> t
(** A fresh enabled collector. *)

val enabled : t -> bool

val log_src : Logs.src
(** The [gbc.engine] source carrying iteration/stratum debug traces. *)

val rule_label : Ast.rule -> string
(** Stable display label of a rule (truncated pretty-printed clause). *)

val rule : t -> string -> rule_counters option
(** Get-or-create the counters of a rule label; [None] when disabled.
    Engines look the row up once per phase and mutate it directly. *)

val add_derived : t -> string -> int -> unit
val fired : t -> ?stage:int -> string -> unit
val set_last_stage : t -> string -> int -> unit

val queue : t -> string -> Gbc_ordered.Rql.stats -> unit
(** Merge an (R,Q,L) statistics snapshot into a rule's counters. *)

val add_delta : t -> string -> int -> unit

(** [delta_tuples t pred]: total delta tuples published so far for a
    predicate — the join planner's selectivity seed ([None] when never
    recorded). *)
val delta_tuples : t -> string -> int option
val iteration : t -> string -> unit
val stratum : t -> string -> unit

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t label f] runs [f], accumulating its wall-clock time under
    [label] (no-op wrapper when disabled). *)

val add_par : t -> shards:int -> rows:int -> unit
(** Record one data-parallel region: how many shards it ran on and how
    many input rows it covered.  Called by the sequential coordinator
    after the merge — never from inside a shard. *)

val iterations : t -> int
val gamma_steps : t -> int

val rules : t -> (string * rule_counters) list
(** Snapshot of every rule's counters, in first-seen order. *)

val totals : t -> (string * int) list
(** Flat counter snapshot (summed over rules), for benchmark records. *)

val pp : Format.formatter -> t -> unit
(** Render the per-rule table, delta sizes, spans and totals. *)

val to_json : t -> string
(** The counter snapshot as a self-contained JSON object; the schema is
    documented in docs/INTERNALS.md. *)

val json_escape : string -> string
(** The body of a JSON string literal: quote, backslash, newline, tab
    and CR escaped by name, other control bytes as [\u00XX]. *)
