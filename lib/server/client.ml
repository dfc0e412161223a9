(* A small blocking client for the gbcd wire protocol: connect, frame
   requests out, read response frames back.  Used by `gbc client`, the
   server tests and bench E15/E18.  Every request goes out in an
   envelope carrying a request id, and every reply must carry the id
   of the request it answers.

   Two layers:

   - [t]: one socket, send/recv/rpc, optional connect timeout and
     receive deadline (SO_RCVTIMEO -> Timeout).  Ids count up per
     connection; one request is in flight at a time.

   - [resilient]: an endpoint plus retry policy.  It attaches to a
     server session on every (re)connect — first Attach None to learn
     the session id, later Attach (Some id) to reclaim it — and
     replays a request whose connection died, after exponential
     backoff with jitter.  Mutations are stamped with client-unique
     request ids, so a replay the server already applied is answered
     from its recorded result (exactly-once), even across a server
     crash and recovery.

   [Pipeline] keeps many enveloped requests in flight on a resilient
   connection. *)

type t = {
  fd : Unix.file_descr;
  mutable inbuf : string;  (* unconsumed response bytes *)
  max_frame : int;
  mutable rid : int;  (* envelope id of the last request sent *)
}

exception Protocol_error of string
exception Timeout

type endpoint = Tcp of { host : string; port : int } | Uds of string

let connect_fd ?(max_frame = Protocol.max_frame_default) fd = { fd; inbuf = ""; max_frame; rid = 0 }

(* With a timeout the connect is non-blocking: select for writability,
   then read the socket error back, never blocking past [timeout]. *)
let connect_socket ?timeout endpoint =
  let domain, addr =
    match endpoint with
    | Tcp { host; port } ->
      let inet = try Unix.inet_addr_of_string host with Failure _ -> failwith ("bad host " ^ host) in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    | Uds path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     match timeout with
     | None -> Unix.connect fd addr
     | Some tmo ->
       Unix.set_nonblock fd;
       (match Unix.connect fd addr with
       | () -> ()
       | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
         match Unix.select [] [ fd ] [] tmo with
         | _, [], _ -> raise Timeout
         | _ -> (
           match Unix.getsockopt_error fd with
           | None -> ()
           | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
       Unix.clear_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let connect ?max_frame ?timeout endpoint = connect_fd ?max_frame (connect_socket ?timeout endpoint)

let connect_unix ?max_frame ?timeout path = connect ?max_frame ?timeout (Uds path)

let set_recv_deadline t = function
  | None -> ( try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO 0.0 with Unix.Unix_error _ -> ())
  | Some s -> Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO (Float.max 0.001 s)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_raw t bytes =
  let n = String.length bytes in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write_substring t.fd bytes !off (n - !off) in
    if w = 0 then raise (Protocol_error "connection closed while sending");
    off := !off + w
  done

let send t req =
  t.rid <- t.rid + 1;
  send_raw t (Protocol.encode_request_v2 ~rid:t.rid req)

let chunk = 65536

(* One whole frame payload off the wire (blocking, deadline-aware). *)
let recv_body t =
  let buf = Bytes.create chunk in
  let rec go () =
    match Protocol.extract_frame ~max_frame:t.max_frame t.inbuf 0 with
    | Protocol.Frame (body, next) ->
      t.inbuf <- String.sub t.inbuf next (String.length t.inbuf - next);
      body
    | Protocol.Bad_length n ->
      raise (Protocol_error (Printf.sprintf "unacceptable frame length %d" n))
    | Protocol.Need_more -> (
      match Unix.read t.fd buf 0 chunk with
      | 0 -> raise (Protocol_error "connection closed by server")
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* SO_RCVTIMEO expired: the response deadline passed *)
        raise Timeout
      | n ->
        t.inbuf <- t.inbuf ^ Bytes.sub_string buf 0 n;
        go ())
  in
  go ()

(* The reply to the request in flight.  A bare reply is a peer's
   connection-level protocol violation: it answers whatever was in
   flight, and the peer hangs up after it. *)
let recv t =
  match Protocol.decode_response_v2 (recv_body t) with
  | Ok (Some rid, resp) when rid = t.rid -> resp
  | Ok (Some rid, _) ->
    raise (Protocol_error (Printf.sprintf "reply carries id %d, request in flight is %d" rid t.rid))
  | Ok (None, (Protocol.Error { code = Protocol.Protocol_violation; _ } as resp)) -> resp
  | Ok (None, _) -> raise (Protocol_error "bare reply to an enveloped request")
  | Error msg -> raise (Protocol_error msg)

let rpc t req =
  send t req;
  recv t

(* ---------------- the resilient layer ---------------- *)

exception Session_lost of string

type resilient = {
  endpoint : endpoint;
  r_max_frame : int;
  connect_timeout : float option;
  deadline : float option;
  retries : int;
  mutable conn : t option;
  mutable session : int option;  (* learned from the first Attach *)
  mutable next_id : int;  (* mutation request ids, client-unique *)
}

let rng = lazy (Random.State.make_self_init ())

let resilient ?(max_frame = Protocol.max_frame_default) ?connect_timeout ?deadline ?(retries = 5)
    endpoint =
  { endpoint;
    r_max_frame = max_frame;
    connect_timeout;
    deadline;
    retries;
    conn = None;
    session = None;
    (* seed mutation ids from the clock so a fresh client reclaiming a
       durable session cannot collide with its predecessor's ids (the
       server's dedup state survives restarts) *)
    next_id = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e6)) land 0x3FFFFFFFFFFFF }

let session_id r = r.session

let backoff_sleep attempt =
  let capped = Float.min (0.05 *. (2.0 ** float_of_int attempt)) 2.0 in
  Unix.sleepf (capped +. Random.State.float (Lazy.force rng) (capped *. 0.5))

let drop_conn r =
  match r.conn with
  | None -> ()
  | Some c ->
    close c;
    r.conn <- None

(* Connect and attach.  [Attach None] registers a fresh session as
   attachable and reports its id; [Attach (Some id)] reclaims ours —
   from the server's memory, or restored from its data dir after a
   crash.  A [no-session] answer is permanent (the state is truly
   gone) and is never retried. *)
let rec ensure_conn r attempt =
  match r.conn with
  | Some c -> c
  | None -> (
    match
      let c = connect ~max_frame:r.r_max_frame ?timeout:r.connect_timeout r.endpoint in
      match
        set_recv_deadline c r.deadline;
        rpc c (Protocol.Attach r.session)
      with
      | Protocol.Attached { id } ->
        r.session <- Some id;
        c
      | Protocol.Error { code = Protocol.No_session; message } ->
        close c;
        raise (Session_lost message)
      | _ ->
        close c;
        raise (Protocol_error "unexpected response to attach")
      | exception e ->
        close c;
        raise e
    with
    | c ->
      r.conn <- Some c;
      c
    | exception ((Unix.Unix_error _ | Protocol_error _ | Timeout) as e) ->
      if attempt < r.retries then begin
        backoff_sleep attempt;
        ensure_conn r (attempt + 1)
      end
      else raise e)

(* Stamp mutations that do not carry an id yet: the id is what makes a
   replayed retry exactly-once on the server. *)
let assign_id r = function
  | Protocol.Assert_facts { text; id = None } ->
    r.next_id <- r.next_id + 1;
    Protocol.Assert_facts { text; id = Some r.next_id }
  | Protocol.Retract_facts { text; id = None } ->
    r.next_id <- r.next_id + 1;
    Protocol.Retract_facts { text; id = Some r.next_id }
  | req -> req

let resilient_rpc r req =
  let req = assign_id r req in
  let rec go attempt =
    let c = ensure_conn r 0 in
    match rpc c req with
    | resp -> resp
    | exception Timeout ->
      (* the deadline is the caller's contract; do not retry into it *)
      drop_conn r;
      raise Timeout
    | exception ((Unix.Unix_error _ | Protocol_error _) as e) ->
      (* broken connection: reconnect (with backoff), re-attach, and
         replay this very request *)
      drop_conn r;
      if attempt < r.retries then begin
        backoff_sleep attempt;
        go (attempt + 1)
      end
      else raise e
  in
  go 0

let resilient_close r = drop_conn r

(* ---------------- pipelining ---------------- *)

module Pipeline = struct
  (* Many requests in flight on one connection, replies matched by
     envelope id.  Built on [resilient]: when the connection dies, the
     next submit/await reconnects, re-attaches, and replays the whole
     in-flight window in submission order with the {e same} request
     ids — the server's dedup window answers already-applied mutations
     from their recorded results. *)

  type nonrec t = {
    r : resilient;
    mutable bound : t option;
        (* the connection the in-flight window lives on; compared
           physically against [r.conn] to detect a reconnect *)
    window : (int, Protocol.request) Hashtbl.t;
        (* in flight, by id; ids count up, so ascending id order is
           submission order *)
  }

  let create r = { r; bound = None; window = Hashtbl.create 64 }
  let inflight t = Hashtbl.length t.window
  let session_id t = session_id t.r

  let fresh_rid t =
    t.r.next_id <- t.r.next_id + 1;
    t.r.next_id

  let send_req c (rid, req) = send_raw c (Protocol.encode_request_v2 ~rid req)

  (* Bind the in-flight window to the current (possibly fresh)
     connection, replaying every outstanding request in order. *)
  let ensure t =
    let c = ensure_conn t.r 0 in
    match t.bound with
    | Some b when b == c -> c
    | _ ->
      t.bound <- Some c;
      Hashtbl.fold (fun rid req acc -> (rid, req) :: acc) t.window []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.iter (send_req c);
      c

  let on_conn_error t =
    drop_conn t.r;
    t.bound <- None

  (* Enqueue one request; returns its id without waiting.  The request
     joins the in-flight window {e before} the send, so a reconnect
     replay inside [ensure] covers it exactly once. *)
  let submit t req =
    let rid = fresh_rid t in
    let req =
      match req with
      | Protocol.Assert_facts { text; id = None } ->
        Protocol.Assert_facts { text; id = Some rid }
      | Protocol.Retract_facts { text; id = None } ->
        Protocol.Retract_facts { text; id = Some rid }
      | req -> req
    in
    Hashtbl.replace t.window rid req;
    let rec go attempt =
      match
        let already_bound =
          match (t.bound, t.r.conn) with Some b, Some c -> b == c | _ -> false
        in
        let c = ensure t in
        (* a rebind just replayed the whole window, this request included *)
        if already_bound then send_req c (rid, req)
      with
      | () -> rid
      | exception Timeout ->
        on_conn_error t;
        raise Timeout
      | exception ((Unix.Unix_error _ | Protocol_error _) as e) ->
        on_conn_error t;
        if attempt < t.r.retries then begin
          backoff_sleep attempt;
          go (attempt + 1)
        end
        else raise e
    in
    go 0

  (* Next reply off the wire, in server completion order (not
     necessarily submission order).  A bare reply is the peer refusing
     the connection's bytes: replaying them would be refused again, so
     its message is raised at once. *)
  let await t =
    if Hashtbl.length t.window = 0 then invalid_arg "Client.Pipeline.await: nothing in flight";
    let rec go attempt =
      match
        let c = ensure t in
        match Protocol.decode_response_v2 (recv_body c) with
        | Ok (Some rid, resp) when Hashtbl.mem t.window rid ->
          Hashtbl.remove t.window rid;
          Ok (rid, resp)
        | Ok (Some rid, _) ->
          raise (Protocol_error (Printf.sprintf "reply for id %d, which is not in flight" rid))
        | Ok (None, Protocol.Error { message; _ }) -> Error message
        | Ok (None, _) -> raise (Protocol_error "bare reply to an enveloped request")
        | Error msg -> raise (Protocol_error msg)
      with
      | Ok reply -> reply
      | Error message ->
        on_conn_error t;
        raise (Protocol_error message)
      | exception Timeout ->
        on_conn_error t;
        raise Timeout
      | exception ((Unix.Unix_error _ | Protocol_error _) as e) ->
        on_conn_error t;
        if attempt < t.r.retries then begin
          backoff_sleep attempt;
          go (attempt + 1)
        end
        else raise e
    in
    go 0

  (* Collect every outstanding reply, in arrival order. *)
  let drain t =
    let rec go acc = if Hashtbl.length t.window = 0 then List.rev acc else go (await t :: acc) in
    go []

  let close t =
    t.bound <- None;
    resilient_close t.r
end
