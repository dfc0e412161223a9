(** The daemon's data directory: program store, per-session WALs and
    snapshots.

    Layout under the root:
    {v
    programs/<md5>.dl          program sources, write-once by digest
    sessions/<id>/wal.log      the session's write-ahead log
    sessions/<id>/snapshot.bin periodic binary snapshot
    v}

    A snapshot collapses the WAL prefix up to [last_lsn] into one
    CRC-protected file: the session's fact base, its assert multiset,
    its exactly-once dedup state and — when no mutations were pending —
    the materialized model with its {!Gbc_datalog.Database.digest}, so
    a restart re-serves the model without re-evaluating and can prove
    it unchanged.  Snapshots are written to a temporary file,
    fsynced and renamed, so a crash mid-snapshot leaves the previous
    one intact; recovery then replays only WAL records beyond
    [last_lsn].

    A corrupt snapshot (bad magic, version, CRC or encoding) reads as
    [None] with a warning — recovery falls back to the full WAL, never
    crashes. *)

module Database = Gbc_datalog.Database
module Value = Gbc_datalog.Value

type t

val create :
  fsync:Wal.fsync_policy -> snapshot_every:int -> string -> (t, string) result
(** Open (creating directories as needed) a data dir rooted at the
    given path.  [snapshot_every] is the number of WAL records between
    snapshots (0 disables snapshotting). *)

val root : t -> string
val fsync : t -> Wal.fsync_policy
val snapshot_every : t -> int

val warn : t -> string -> unit
(** Report a recovery/durability anomaly on stderr (prefixed, never
    raises). *)

(** {2 Program store} *)

val store_program : t -> digest:string -> source:string -> unit
(** Persist a program source under its digest (atomic, write-once; a
    failure is reported via {!warn} — losing warm restarts, not
    data). *)

val load_program : t -> string -> string option
(** The source stored under a digest, if present and readable. *)

val list_programs : t -> string list
(** Every stored program source (for warming the compile cache). *)

(** {2 Sessions} *)

val session_ids : t -> int list
(** Ids with a directory under [sessions/], sorted ascending. *)

val session_exists : t -> int -> bool
val wal_path : t -> int -> string

type mat_snapshot = {
  m_engine : int;  (** wire encoding: 0 staged, 1 reference *)
  m_seed : int option;
  model : Database.t;
  model_digest : string;
      (** {!Gbc_datalog.Database.digest} of [model]; snapshots written by
          older builds carry the MD5 (hex) of its canonical rendering *)
}

type snapshot = {
  last_lsn : int;  (** WAL records at or below this are collapsed in *)
  digest : string option;  (** loaded program, if any *)
  db : Database.t;  (** fact base: program facts + net asserts *)
  multiset : (string * Value.t array * int) list;  (** assert occurrence counts *)
  last_mut : (int * int) option;  (** exactly-once dedup: (request id, result) *)
  mat : mat_snapshot option;  (** present only when nothing was pending *)
}

val write_snapshot : t -> id:int -> snapshot -> (unit, string) result
(** Atomically replace the session's snapshot (tmp + fsync + rename). *)

val read_snapshot : t -> id:int -> snapshot option
(** [None] when absent — or corrupt, which warns and leaves recovery
    to the WAL. *)

val snapshots_written : unit -> int
(** Process-wide count, for stats. *)
