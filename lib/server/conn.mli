(** The nonblocking socket layer under gbcd ({!Server}) and gbc-router
    ({!Router}): listeners, a self-pipe that wakes a select loop, and
    buffered endpoints that split inbound bytes into frames and queue
    outbound ones.  What a frame means, reply order, draining and what
    a dead peer costs stay with each daemon.  Once an endpoint is open,
    socket errors come back as values, never as exceptions. *)

type listener

val listen : host:string -> port:int option -> unix_path:string option -> listener
(** Bind TCP and/or Unix-domain listeners (SO_REUSEADDR, a stale socket
    path unlinked, backlog 64) and ignore SIGPIPE process-wide, so a
    write to a vanished peer is EPIPE.  Raises [Failure] when neither
    is configured or the host is no address, [Unix.Unix_error] when
    binding fails. *)

val listener_port : listener -> int option
(** The bound TCP port (useful with port 0). *)

val close_listener : listener -> unit
(** Close the sockets and unlink the socket path. *)

type wakeup
(** A nonblocking self-pipe. *)

val wakeup : unit -> wakeup

val wake : wakeup -> unit
(** End the loop's current {!select}; from any domain or signal
    handler, and a no-op once the pipe is closed. *)

val close_wakeup : wakeup -> unit

val select :
  wakeup -> listener -> accepting:bool -> on_accept:(Unix.file_descr -> unit) ->
  Unix.file_descr list -> Unix.file_descr list -> float ->
  Unix.file_descr list * Unix.file_descr list
(** [select w l ~accepting ~on_accept rds wrs timeout] waits once on
    [rds] and [wrs], the wake-up pipe and, while [accepting], the
    listeners.  It drains the pipe, hands each accepted connection
    (nonblocking, close-on-exec) to [on_accept], and returns the ready
    sockets of [rds] and [wrs]: none when a signal cut the wait. *)

type t
(** A connected nonblocking socket, its unconsumed inbound bytes and
    its unwritten outbound ones. *)

val create : Unix.file_descr -> t
val fd : t -> Unix.file_descr
val close : t -> unit

type input = Data | Again  (** EAGAIN or EINTR *) | Eof | Failed of Unix.error

val read : t -> Bytes.t -> input
(** One read through the caller's scratch buffer, appended to the
    inbound bytes.  Loops on different domains need their own scratch
    buffers. *)

val frames : t -> max_frame:int -> on_bad_length:(int -> unit) -> (string -> bool) -> unit
(** Hand each whole inbound frame's payload, in order, to the callback
    while it returns [true]; a length prefix outside [1, max_frame]
    calls [on_bad_length] once and stops.  Frames handed out are
    dropped from the buffer, a partial one waits for more bytes. *)

val send : t -> string -> unit

val encode_reply : int option -> Protocol.response -> string
(** A reply in its request's wire form: enveloped under the request's
    id, or bare. *)

val reply : t -> int option -> Protocol.response -> unit
(** [send] of {!encode_reply}. *)

val out_pending : t -> int

val flush : t -> (unit, Unix.error) result
(** Write what the socket takes now.  A peer that can no longer
    receive (EPIPE, ECONNRESET, …) drops the queue and is [Error]. *)
