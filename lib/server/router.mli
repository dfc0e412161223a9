(** gbc-router: a consistent-hash fan-out proxy for a fleet of gbcd
    backends.

    One single-threaded select loop accepts client connections and
    forwards their frames to backend daemons, one backend link per
    client connection.  The router never evaluates anything — it
    decodes frames only far enough to route and account them, then
    re-encodes them canonically, so what a backend serves through the
    router is byte-identical to what it serves directly.

    {b Placement.}  A fresh connection is placed by consistent hashing
    (a ring with virtual nodes) and the choice sticks for the
    connection's lifetime.  Session ids crossing the router are
    composite — [backend_index * 1_000_000_000 + backend_session_id] —
    so a reconnecting client's [Attach (Some id)] routes
    deterministically back to the backend that owns the session,
    without consulting the ring.

    {b Framing.}  Enveloped frames, which every in-tree client sends,
    are matched by id; bare frames from blocking clients without ids
    are forwarded bare and their replies matched in order.

    {b Answered locally} (never forwarded): [Stats] (the router's own
    JSON: per-backend in-flight / forwarded / reconnects and totals)
    and [Shutdown] ([Bye], then a graceful drain).  The
    backends' lifetime belongs to whoever spawned them (see
    [gbc serve --fleet]).

    {b Backend death.}  Requests in flight on a dying link are each
    answered with a [server-error] frame; the backend is marked dead
    and the next connection that needs it reconnects (counted in the
    stats).  A durable session survives on the backend's data dir and
    can be reclaimed through the router after the backend returns. *)

(** The hash ring: each member appears as [vnodes] points (MD5 of
    ["member#i"]) on a 62-bit circle; a key belongs to the member
    owning the first point at or after the key's hash, wrapping.
    Removing a member only moves the keys it owned (consistency). *)
module Ring : sig
  type t

  val create : ?vnodes:int -> string list -> t
  (** A ring over the given member names, [vnodes] (default 100)
      virtual nodes each.  Raises [Invalid_argument] on an empty
      member list. *)

  val lookup : t -> string -> string
  (** The member owning this key. *)
end

val composite_base : int
(** Composite session ids are [idx * composite_base + session_id]
    (1_000_000_000). *)

val split_composite : int -> int * int
(** [(backend index, backend session id)] of a composite id. *)

type config = {
  host : string;
  port : int option;  (** [None]: no TCP listener *)
  unix_path : string option;  (** [None]: no Unix-domain listener *)
  backends : Client.endpoint list;
  vnodes : int;  (** virtual nodes per backend on the ring *)
  max_frame : int;
  connect_timeout : float option;  (** per backend connect attempt *)
}

val default_config : config
(** TCP on 127.0.0.1:7412, no backends (you must supply some), 100
    virtual nodes, 5 s backend connect timeout. *)

type t

val create : config -> (t, string) result
(** Bind the listeners and build the ring.  Backend links are opened
    lazily, per client connection, on first need. *)

val run : t -> unit
(** The event loop; returns after {!shutdown} completes the drain. *)

val shutdown : t -> unit
(** Start a graceful drain from any thread or signal handler: stop
    accepting, answer new requests with [draining], let in-flight
    backend replies come home, flush, close. *)

val port : t -> int option
(** The actually bound TCP port (for [port = Some 0]). *)

val stats_json : t -> string
(** The JSON the router answers [stats] with. *)
