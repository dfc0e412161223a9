(** One connected client's private view of the engine.

    A session pairs an immutable {!Program_cache.entry} (the compiled
    program, shared by every session that loaded the same text) with a
    private database snapshot taken via the copy-on-write
    [Database.copy], so concurrently connected sessions asserting
    different facts see disjoint models at O(#relations) isolation
    cost.

    Asserted facts form a {e multiset}: asserting a row twice means one
    retract still leaves it visible, and a retract batch that exceeds
    what was asserted — or names a fact owned by the loaded program —
    is refused atomically ([Not_retractable]), mutating nothing.

    A complete run {e materializes} its model: the session keeps the
    evaluated database alive, and subsequent runs with the same
    (engine, seed) are served by incremental view maintenance
    ({!Gbc_datalog.Ivm}) over the net asserted/retracted delta instead
    of a from-scratch fixpoint.  Changes that can reach a choice
    stratum, budget trips and substrate errors drop the materialization
    and fall back to a full evaluation (counted in
    [counters.ivm_fallbacks]).

    A session is driven by at most one server worker at a time; the
    only cross-domain field is {!val-cancel}, set by the event loop on
    client disconnect and polled by the governor. *)

module Database = Gbc_datalog.Database
module Relation = Gbc_datalog.Relation
module Ivm = Gbc_datalog.Ivm
module Limits = Gbc_datalog.Limits
module Telemetry = Gbc_datalog.Telemetry

type counters = {
  mutable requests : int;
  mutable evaluations : int;
  mutable partials : int;
  mutable errors : int;
  mutable facts_asserted : int;  (** occurrences recorded (batch sizes) *)
  mutable facts_retracted : int;  (** occurrences removed (batch sizes) *)
  mutable runs_incremental : int;
      (** runs served from the materialized model (repaired or as-is) *)
  mutable runs_full : int;  (** from-scratch engine evaluations *)
  mutable ivm_fallbacks : int;
      (** materializations dropped: choice-stratum reach, budget, errors *)
  mutable eval_wall_s : float;
  engine_totals : (string, int) Hashtbl.t;  (** summed [Telemetry.totals] *)
}

type materialization = {
  mat_engine : Protocol.engine;
  mat_seed : int option;
  ivm : Ivm.t;
}

type durability = {
  dur : Durable.t;
  wal : Wal.t;  (** fd opened lazily on the first append *)
  mutable next_lsn : int;
  mutable since_snapshot : int;  (** WAL records since the last snapshot *)
}
(** Durability state of one session; present when the server runs with
    a data dir.  Mutations are logged {e before} they are applied (a
    failed append is an [io-error] and nothing changes), complete runs
    are logged with their model's {!Gbc_datalog.Database.digest}, and every
    [snapshot_every] records the WAL is collapsed into an atomic
    binary snapshot.  The digest is maintained across runs, so logging
    an incrementally served run costs the rows it changed; the first
    run after a load, a fallback or a restore digests its whole model. *)

type t = {
  id : int;
  cache : Program_cache.t;
  cancel : bool ref;  (** wire into [Limits.create ~cancel]; set on disconnect *)
  mutable entry : Program_cache.entry option;
  mutable db : Database.t option;
  mutable asserted : (string, int Relation.Row_tbl.t) Hashtbl.t;
      (** occurrence count per asserted row, by predicate *)
  mutable pending_inserts : (string * Gbc_datalog.Value.t array) list;
  mutable pending_deletes : (string * Gbc_datalog.Value.t array) list;
  mutable mat : materialization option;
  durability : durability option;
  mutable replaying : bool;  (** recovery replay in progress: WAL appends suppressed *)
  mutable last_mut : (int * int) option;
      (** exactly-once dedup: (request id, result) of the last applied
          mutation carrying an id; survives crashes via the WAL *)
  mutable recent_muts : (int * int) list;
      (** bounded window of recently applied (id, result) pairs backing
          [last_mut], so a pipelined client replaying {e all} its
          in-flight mutations after a reconnect stays exactly-once;
          rebuilt from the WAL tail on recovery *)
  mutable attachable : bool;  (** survives its connection, reclaimable via [Attach] *)
  counters : counters;
}

type error = Protocol.error_code * string

val create : ?durable:Durable.t -> cache:Program_cache.t -> id:int -> unit -> t
(** A fresh session; with [durable] its mutations are WAL-logged under
    the data dir (the session directory is created lazily on the first
    logged record, so sessions that never load leave nothing). *)

val restore : cache:Program_cache.t -> Durable.t -> int -> t
(** Rebuild a session from its on-disk state: the latest readable
    snapshot, then the WAL tail beyond it replayed through the normal
    [load]/[assert_facts]/[retract_facts]/[run] paths.  Logged runs are
    re-executed and their models verified against the logged digest
    (a 32-hex-digit digest from an older data dir is the MD5 of the
    canonical rendering, and is checked as such) before the
    materialization is kept.  Tolerant by
    construction: corrupt snapshots, torn/corrupt WAL tails, missing
    program sources and replay failures warn on stderr and degrade
    (cold materialization, lost tail) — they never raise.  The result
    is [attachable]. *)

val discard : t -> unit
(** Release the session's WAL file descriptor (memory state is left to
    the GC).  On-disk state is kept — the session can be restored. *)

val load : t -> string -> (Program_cache.entry * bool, error) result
(** Compile (through the cache) and make this the session's program;
    resets the snapshot, the assert multiset, the pending delta and the
    materialization.  The flag is [true] on a cache hit. *)

val assert_facts : ?id:int -> t -> string -> (int, error) result
(** Parse ground facts and record one occurrence of each in the assert
    multiset; net-new rows enter the private snapshot and the pending
    delta.  Returns how many rows were {e new to the snapshot} (a
    re-assert only raises the occurrence count).  [id] is the client's
    request id: when it equals the last applied mutation's id the
    recorded result is returned without applying again (retry after a
    lost response is exactly-once). *)

val retract_facts : ?id:int -> t -> string -> (int, error) result
(** Remove exactly one asserted occurrence per batch entry.  The batch
    is validated as a whole first: retracting a fact that was never
    asserted (or asserted fewer times than the batch demands), or one
    owned by the loaded program, fails with [Not_retractable] and
    mutates nothing — snapshot, multiset and counters are untouched.
    On success returns the batch size; rows whose occurrence count hits
    zero (and that the program does not own) leave the snapshot and
    join the pending delta. *)

val run :
  t ->
  engine:Protocol.engine ->
  seed:int option ->
  jobs:int ->
  limits:Limits.t ->
  telemetry:Telemetry.t ->
  (Database.t Limits.outcome, error) result
(** Evaluate the session's program.  From-scratch evaluations reuse the
    cache entry's cost plan.  When a live materialization
    exists for the same (engine, seed), the pending delta is applied
    incrementally ({!Gbc_datalog.Ivm.apply}) — or the materialized
    model is served as-is when nothing changed; the result is
    byte-identical (canonical rendering) to a from-scratch run.
    Otherwise a fresh copy of the snapshot is evaluated and, when the
    outcome is [Complete], materialized for next time.  [jobs] is the
    granted number of evaluation domains (the server clamps the
    client's request against its own [max-jobs]); the model is
    independent of it.  Budget exhaustion and cancellation come back
    as [Limits.Partial] — a consistent partial model, never a crash. *)

val enumerate : t -> max_models:int -> limits:Limits.t -> (Database.t list, error) result
(** All choice models (small programs); a tripped budget is a
    [Budget_exhausted] error.  Always evaluates from scratch. *)

val query :
  t ->
  engine:Protocol.engine ->
  text:string ->
  jobs:int ->
  limits:Limits.t ->
  telemetry:Telemetry.t ->
  (bool * string list * string list, error) result
(** Evaluate ({!run}, so incremental when possible), then answer one
    positive query atom against the model: (model was complete,
    variable names, rendered rows). *)

val render_model : ?preds:string list -> Database.t -> string
(** {!Database.render}: the text [gbc run] prints, canonical with or
    without [preds], so a model maintained incrementally renders as the
    same facts evaluated from scratch do. *)
