(** gbcd: a concurrent query-serving daemon.

    One event-loop domain owns the sockets (accept, frame splitting,
    response flushing); [workers] worker domains pull decoded requests
    from a shared queue and evaluate them against per-connection
    {!Session.t}s.  Clients may pipeline: envelopes carry a
    per-request id and replies echo the request's wire form, so many
    requests can be in flight on one connection.  Every client in this
    tree sends envelopes; bare frames are still served, in strict
    order, for blocking clients without ids.  Session-bound requests
    execute one at a time per connection, in arrival order —
    assert-then-run stays meaningful at any pipeline depth — and only
    an enveloped [Ping] overtakes a running evaluation.  Queue-wait and pipeline-depth
    histograms land in the stats ([queue_wait], [inflight_max],
    [pipelined_depth_p99]), keeping queueing distinguishable from
    service time.

    Every request runs under a per-request [Limits] governor — the
    pointwise minimum of the server's configured caps and the client's
    requested budget — with the session's cancellation token wired in,
    so a client disconnect stops its in-flight evaluation at the next
    governor poll.  All failures come back as structured [Error]
    frames; the server never drops a connection in response to a
    well-framed request.

    Shutdown (the [Shutdown] request, or {!shutdown} from another
    domain) drains gracefully: stop accepting, finish in-flight work,
    answer queued requests with [Draining], flush, join workers.

    Workers are {e supervised}: an exception that escapes a request
    handler answers the client with a structured [server-error] frame
    and kills only its own domain — the event loop joins the corpse
    and spawns a replacement, so the pool never shrinks and no
    connection hangs.

    With [data_dir] set the daemon is {e crash-safe}: every session
    mutation is write-ahead logged before it is applied and the log is
    periodically collapsed into an atomic binary snapshot (see
    {!Wal}, {!Durable}, {!Session}).  Startup recovery warms the
    compile cache from the program store and rebuilds every on-disk
    session — tolerating torn or corrupt WAL tails and unreadable
    snapshots by truncating/warning, never by refusing to start — and
    clients reclaim their sessions with [Attach]. *)

type config = {
  host : string;
  port : int option;  (** TCP listener; [None] disables.  0 picks a free port. *)
  unix_path : string option;  (** Unix-domain listener; [None] disables. *)
  workers : int;
  default_timeout_s : float option;  (** server-side per-request caps … *)
  max_facts : int option;
  max_steps : int option;
  max_candidates : int option;
  max_jobs : int;
      (** cap on evaluation domains granted per request; the grant is
          [min max_jobs (client's requested jobs)], at least 1 *)
  max_frame : int;  (** frames above this are a protocol violation *)
  cache_capacity : int;  (** compiled-program cache entries *)
  data_dir : string option;
      (** root of the durability layout (WALs, snapshots, program
          store); [None] keeps sessions ephemeral *)
  fsync : Wal.fsync_policy;  (** WAL sync batching (default [Batch 16]) *)
  snapshot_every : int;
      (** WAL records between snapshots per session; 0 never snapshots *)
  idle_timeout_s : float option;
      (** reap idle connections and unreclaimed detached sessions
          (closing their WAL fds); [None] keeps them forever *)
  worker_fault : int option;
      (** tests only: the k-th request process-wide raises inside its
          worker {e outside} every classification layer, exercising
          supervision *)
}

val default_config : config
(** 127.0.0.1:7411, 4 workers, sequential evaluation ([max_jobs = 1]),
    30s default timeout, 16 MiB max frame, 64 cache entries, no
    durability, no idle timeout. *)

type t

val create : config -> (t, string) result
(** Bind the configured listeners ({!Conn.listen}, which also ignores
    SIGPIPE) and build the server. *)

val port : t -> int option
(** The actually-bound TCP port (useful with [port = Some 0]). *)

val run : t -> unit
(** Spawn the worker domains and serve until drained.  Blocks; returns
    only after a graceful shutdown has closed every socket and joined
    every worker. *)

val shutdown : t -> unit
(** Begin a graceful drain from another domain.  Idempotent. *)
