(** The compiled-program cache behind gbcd's [Load] request.

    Keyed by the MD5 digest of the source text: repeated loads of the
    same [.dl] program skip parsing, rewriting/stage analysis, EDB
    loading, cost planning and engine preparation entirely, and hand
    every session the same immutable {!entry}.  Sessions isolate themselves by snapshotting
    [entry.base] with [Database.copy] (copy-on-write), never by
    mutating it.

    Domain-safe: lookups, inserts and LRU eviction are serialized
    behind a mutex; compilation itself runs outside the lock and a
    lost compile race adopts the winner's entry. *)

module Ast = Gbc_datalog.Ast
module Database = Gbc_datalog.Database
module Stage = Gbc_datalog.Stage
module Plan = Gbc_datalog.Plan
module Stage_engine = Gbc_datalog.Stage_engine
module Ivm = Gbc_datalog.Ivm
module Gbc_error = Gbc_datalog.Gbc_error

type entry = private {
  digest : string;  (** hex MD5 of the source text *)
  source_bytes : int;
  clauses : int;  (** clauses in the parse, facts included *)
  stage_stratified : bool;  (** the verdict of {!Stage.analyze} *)
  rules : Ast.program;  (** non-fact clauses only *)
  base : Database.t;  (** the program's ground facts — treat as frozen *)
  plan : Plan.t;
      (** cost plan computed once against [base]; sessions hand it to
          the reference engine so re-runs skip re-analysis *)
  prepared : Stage_engine.prepared;
      (** [plan]'s program prepared for the staged engine
          ({!Stage_engine.prepare}): a session's staged run only
          executes it.  A program outside the compiled class is
          prepared too; executing it raises the stratum's error. *)
  ivm : Ivm.prepared;
      (** [rules]' strata for incremental maintenance
          ({!Ivm.prepare}): every materialization reads them *)
  compile_ms : float;
      (** wall time this entry took to compile: parse, analysis, EDB
          load, planning and both preparations *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  programs_compiled : int;  (** entries compiled by this process *)
  compile_ms_total : float;  (** total wall time spent compiling *)
}

type t

val create : ?capacity:int -> unit -> t
(** LRU cache holding at most [capacity] (default 64) entries. *)

val digest_hex : string -> string

val find_or_compile : t -> string -> (entry * bool, Gbc_error.t) result
(** The entry for a source text, compiling on first sight; the flag is
    [true] on a cache hit.  Parse/analysis failures are classified
    into {!Gbc_error.t} and are not cached. *)

val stats : t -> stats
