(** Per-session write-ahead log.

    Every accepted mutation is appended as a length-prefixed,
    CRC-checked record {e before} it is applied in memory, so a crash
    at any instant loses at most the unacknowledged request in flight.
    Records carry a monotone LSN; a snapshot stores the LSN it covers,
    and recovery replays only the records beyond it.

    {!replay} tolerates a torn or corrupt tail — a partially written
    final record, a short header, a CRC mismatch — by truncating the
    file back to its last whole record and reporting what it dropped.
    It never raises on file content, and never yields a partial
    record.

    Fsync batching amortizes durability cost: [Batch n] syncs every
    [n]th record (so an OS/power failure can lose up to [n]
    acknowledged records; a plain process crash loses none, because
    written pages survive in the page cache).  [Always] syncs each
    record, [Never] leaves syncing to the OS.

    The deterministic fault-injection hooks mirror
    [Limits.fault_at]: arm a fault (programmatically or through the
    [GBCD_WAL_FAULT] environment variable, e.g. ["crash:3"]) and the
    k-th appended record in the process triggers it — a full write
    then SIGKILL, a torn write, a short header, or a failing fsync —
    which is what drives the chaos test in test/test_recovery.ml. *)

type fsync_policy =
  | Always  (** fsync after every record *)
  | Batch of int  (** fsync every n records *)
  | Never  (** rely on the OS writeback *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["never"], ["batch:N"] (or a bare integer [N]). *)

val fsync_policy_to_string : fsync_policy -> string

type record =
  | Load of { digest : string }
      (** program loaded; the source lives in the data dir's program
          store under this digest *)
  | Assert of { text : string; id : int option }
  | Retract of { text : string; id : int option }
  | Run of { engine : int; seed : int option; model_digest : string }
      (** a complete run was materialized; [model_digest] is the
          model's {!Gbc_datalog.Database.digest} (in logs written by
          older builds: the MD5 of its canonical rendering), checked on
          replay *)

(** {2 Fault injection} *)

type fault =
  | Crash_at of int  (** write record k fully, then SIGKILL the process *)
  | Torn_at of int  (** write only part of record k's payload, then SIGKILL *)
  | Short_at of int  (** write only part of record k's header, then SIGKILL *)
  | Fsync_fail_at of int
      (** record k's append raises [EIO] before writing (one-shot) *)

val set_fault : fault option -> unit
(** Arm (or clear) the process-wide fault.  Also armed at module
    initialization from [GBCD_WAL_FAULT]. *)

val fault_of_string : string -> fault option
(** ["crash:K"], ["torn:K"], ["short:K"], ["fsyncfail:K"]. *)

val appended : unit -> int
(** Records appended process-wide (the fault counter), for stats. *)

(** {2 Appending} *)

type t

val create : fsync:fsync_policy -> string -> t
(** A log at the given path.  The file and its directory are created
    lazily on first {!append}, so sessions that never persist anything
    leave nothing behind. *)

val append : t -> lsn:int -> record -> unit
(** Append (and per policy sync) one record.  Raises [Unix.Unix_error]
    when the write or sync fails — the caller must surface an
    [io-error] frame and must {e not} apply the mutation. *)

val sync : t -> unit
(** Flush any batched records to stable storage now. *)

val flush_max_age : float
(** How long (seconds) an acknowledged record may wait unsynced under
    [Batch n] before {!sync_stale} flushes it (0.1). *)

val next_flush_deadline : unit -> float option
(** The earliest absolute time ([Unix.gettimeofday] clock) at which
    some log's batched records turn stale — process-wide, across every
    live log.  [None] when nothing is waiting.  The server's event
    loop folds this into its select timeout. *)

val sync_stale : unit -> unit
(** Fsync every log whose oldest batched record has waited at least
    {!flush_max_age}.  Sync failures are swallowed here (the log drops
    off the deadline registry; the next append surfaces the error to
    its caller). *)

val reset : t -> unit
(** Truncate the log to empty (after a successful snapshot). *)

val close : t -> unit
(** Close the file descriptor (syncing batched records first).
    Idempotent; a later {!append} reopens. *)

(** {2 Replay} *)

type replayed = {
  records : (int * record) list;  (** (lsn, record), oldest first *)
  corrupt : string option;
      (** why the tail was dropped, when it was; the file has been
          truncated back to the last whole record *)
}

val replay : string -> replayed
(** Scan a log file.  A missing file is an empty log.  A torn,
    short or CRC-corrupt tail is truncated away (see [corrupt]);
    content before it is returned in full.  Never raises on file
    content. *)
