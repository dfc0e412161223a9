(** Clients for the gbcd wire protocol.

    Every request goes out in an envelope carrying a request id, and
    every reply must carry the id of the request it answers.

    {!t} is one blocking socket: send/recv/rpc, an optional connect
    timeout and an optional receive deadline.  {!resilient} wraps an
    endpoint with a retry policy: it attaches to a server session on
    every (re)connect and transparently replays a request whose
    connection died — exponential backoff with jitter between
    attempts.  Mutations are stamped with client-unique request ids,
    so a replay the server already applied is answered from its
    recorded result rather than applied twice, even across a server
    crash and recovery (the dedup state rides the WAL). *)

type t

exception Protocol_error of string
(** Framing or decoding failure, or the server closed mid-exchange.
    Socket-level failures raise [Unix.Unix_error] as usual. *)

exception Timeout
(** The connect timeout or receive deadline expired. *)

type endpoint = Tcp of { host : string; port : int } | Uds of string

val connect : ?max_frame:int -> ?timeout:float -> endpoint -> t
(** Connect to an endpoint.  With [timeout] the connect is
    non-blocking + select, raising {!Timeout} when the server does not
    accept in time. *)

val connect_socket : ?timeout:float -> endpoint -> Unix.file_descr
(** The connected blocking socket under {!connect}, raising like it. *)

val connect_unix : ?max_frame:int -> ?timeout:float -> string -> t

val connect_fd : ?max_frame:int -> Unix.file_descr -> t
(** Wrap an already-connected socket. *)

val set_recv_deadline : t -> float option -> unit
(** Bound every subsequent {!recv} (SO_RCVTIMEO); an expired deadline
    raises {!Timeout}.  [None] removes the bound. *)

val close : t -> unit

val send : t -> Protocol.request -> unit
(** Send one request in an envelope, under the connection's next id. *)

val recv : t -> Protocol.response
(** The reply to the request just sent.  A reply carrying another id
    raises {!Protocol_error}.  A bare reply is only ever the peer's
    connection-level [Protocol_violation] error, which is returned: it
    answers the one request in flight. *)

val rpc : t -> Protocol.request -> Protocol.response
(** [send] then [recv]: one request in flight. *)

(** {2 Retry / backoff} *)

exception Session_lost of string
(** The server answered [no-session] to an attach: the session's state
    is truly gone (never retried). *)

type resilient

val resilient :
  ?max_frame:int ->
  ?connect_timeout:float ->
  ?deadline:float ->
  ?retries:int ->
  endpoint ->
  resilient
(** A reconnecting client.  [connect_timeout] bounds each connect
    attempt, [deadline] bounds each response wait, [retries] (default
    5) caps reconnect attempts per operation.  Nothing connects until
    the first {!resilient_rpc}. *)

val resilient_rpc : resilient -> Protocol.request -> Protocol.response
(** Send one request, transparently reconnecting (backoff + jitter),
    re-attaching to the session and replaying on a broken connection.
    Assert/retract requests without an id are stamped with a fresh
    client-unique id first, making the replay exactly-once.  Raises
    {!Timeout} when the response deadline expires (not retried — the
    deadline is the caller's contract), {!Session_lost} when the
    session cannot be reclaimed, or the last failure when [retries] is
    exhausted. *)

val session_id : resilient -> int option
(** The server-side session id, once the first attach learned it. *)

val resilient_close : resilient -> unit

(** {2 Pipelining} *)

module Pipeline : sig
  (** Many requests in flight on one connection.  Each request is
      wrapped in an envelope carrying a client-unique id; replies come
      back in server completion order and are matched by that id.

      Built on {!type-resilient}: when the connection dies, the next
      {!submit}/{!await} reconnects, re-attaches, and replays the whole
      in-flight window in submission order with the {e same} ids — the
      server's dedup window answers already-applied mutations from
      their recorded results, keeping replays exactly-once. *)

  type t

  val create : resilient -> t
  (** Nothing connects until the first {!submit}. *)

  val submit : t -> Protocol.request -> int
  (** Enqueue one request without waiting for its reply; returns the
      request id to match against {!await}.  Assert/retract requests
      without an id are stamped with the envelope id itself.  Raises
      like {!resilient_rpc} when the connection cannot be
      (re)established. *)

  val await : t -> int * Protocol.response
  (** The next reply off the wire, in server completion order.  Raises
      [Invalid_argument] when nothing is in flight, {!Timeout} when the
      receive deadline expires (not retried), and {!Protocol_error}
      with the peer's message when the peer refuses the connection
      with a bare error (not retried either). *)

  val drain : t -> (int * Protocol.response) list
  (** {!await} until the in-flight window is empty, in arrival order. *)

  val inflight : t -> int
  (** Requests submitted but not yet answered. *)

  val session_id : t -> int option
  val close : t -> unit
end
