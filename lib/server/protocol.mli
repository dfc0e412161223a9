(** The gbcd wire protocol: length-prefixed binary frames.

    A frame is a 4-byte big-endian payload length followed by the
    payload; the payload's first byte is the message tag (requests
    below [0x80], responses at or above it).  See docs/SERVER.md for
    the full field layout of every frame.

    Decoding is total: malformed input of any shape — truncated
    payloads, unknown tags, inconsistent lengths, trailing bytes —
    comes back as [Error msg], never an exception, so a server can
    always answer garbage with a structured error frame.

    {b Envelopes — pipelining.}  A request payload may be wrapped in
    an {e envelope}: tag [0x7f], an i64 request id, then the bare
    payload verbatim; the response comes back wrapped the same way
    (tag [0xff], the request's id), so a client can keep many requests
    in flight on one connection and match replies by id even when they
    arrive out of order.  Every client in this tree sends envelopes.
    Bare payloads are still decoded and answered bare, in strict
    order, for blocking clients that carry no id; a bare reply to an
    enveloped request is only ever a connection-level
    [Protocol_violation]. *)

val max_frame_default : int
(** Default payload-size cap (16 MiB). *)

type engine = Staged | Reference

type budget = {
  timeout_ms : int option;
  max_facts : int option;
  max_steps : int option;
  max_candidates : int option;
  jobs : int option;  (** requested evaluation domains (parallelism) *)
}
(** Client-requested resource caps for one evaluation.  The server
    clamps each against its own configured cap (the effective budget
    is the pointwise minimum), so a client can tighten but never
    loosen the server's governor.  [jobs] asks for data-parallel
    evaluation across that many domains; the grant is
    [min (server max-jobs) jobs], defaulting to sequential. *)

val no_budget : budget

type request =
  | Ping
  | Load of string  (** program source text; compiled through the cache *)
  | Assert_facts of { text : string; id : int option }
      (** ground facts in surface syntax.  [id] is an optional client
          request id: resending the id of the session's last applied
          mutation is answered from its recorded result instead of
          applying again, making retries after a lost response exactly-
          once (the dedup state survives crashes via the WAL). *)
  | Retract_facts of { text : string; id : int option }  (** ground facts; [id] as above *)
  | Run of { engine : engine; seed : int option; preds : string list option; budget : budget }
  | Enumerate of { max_models : int; preds : string list option }
  | Query of { engine : engine; text : string; budget : budget }
  | Stats
  | Shutdown  (** graceful drain: in-flight queries finish first *)
  | Attach of int option
      (** [Attach None] marks the connection's session attachable and
          reports its id; [Attach (Some id)] swaps the connection onto
          session [id] — detached in memory, or restored from the data
          dir when the server is durable.  Unknown or busy ids get a
          [No_session] error. *)

type error_code =
  | Lex_error
  | Parse_error
  | Unsafe
  | Unsupported
  | Not_compilable
  | Io_error
  | Protocol_violation
  | No_program  (** session has no loaded program *)
  | Budget_exhausted  (** enumeration budget tripped (runs return a partial {!Model} instead) *)
  | Draining  (** request arrived after shutdown began *)
  | Server_error  (** unclassified server-side exception *)
  | Not_retractable  (** retract of a fact the session never asserted (or owned by the program) *)
  | No_session  (** [Attach] named a session that does not exist or is attached elsewhere *)

type response =
  | Pong
  | Loaded of { clauses : int; cache_hit : bool; digest : string; stage_stratified : bool }
  | Asserted of { added : int }
  | Retracted of { removed : int }
  | Model of { complete : bool; text : string; diagnostic : string option }
      (** [complete = false] carries the consistent partial model plus
          the governor's diagnostics — budget exhaustion is an answer,
          not a dropped connection. *)
  | Model_set of { total : int; models : string list }
  | Answers of { complete : bool; vars : string list; rows : string list }
  | Stats_json of string
  | Error of { code : error_code; message : string }
  | Bye
  | Attached of { id : int }  (** the session now driven by this connection *)

val error_code_to_int : error_code -> int
val error_code_of_int : int -> error_code option
val error_code_to_string : error_code -> string

val encode_request : request -> string
(** The bare frame, length prefix included. *)

val encode_response : response -> string

val encode_request_v2 : rid:int -> request -> string
(** The enveloped form: tag [0x7f], the i64 [rid], then the bare
    payload.  Full frame, length prefix included. *)

val encode_response_v2 : rid:int -> response -> string

type extracted =
  | Need_more  (** not yet a whole frame *)
  | Bad_length of int  (** length prefix negative, zero or over the cap *)
  | Frame of string * int  (** payload and the offset just past the frame *)

val extract_frame : ?max_frame:int -> string -> int -> extracted
(** [extract_frame buf start] splits the first frame out of a byte
    accumulation starting at [start]. *)

val decode_request : string -> (int option * request, string) result
(** Decode a frame payload in either wire form: an enveloped payload
    yields [Some rid], a bare one [None].  Response tags, unknown tags
    and every malformation are [Error]. *)

val decode_response : string -> (response, string) result
(** Decode a bare response payload. *)

val decode_response_v2 : string -> (int option * response, string) result
(** Like {!decode_response} but accepts both wire forms, as
    {!decode_request} does. *)
