(* gbc-router: a consistent-hash fan-out proxy for a fleet of gbcd
   backends.

   One single-threaded select loop owns everything: the client
   listeners, every accepted client connection, and one backend link
   per client connection.  The router never evaluates — it decodes
   frames only far enough to route and account them, then re-encodes
   (the codec is canonical, so a forwarded frame is byte-identical to
   the one received).

   Placement.  A fresh connection is placed on the ring
   (consistent hash with virtual nodes, keyed by a router-assigned
   connection id) the first time it sends a request that must reach a
   backend; the choice then sticks for the connection's lifetime.
   Session ids crossing the router are {e composite}:
   [idx * 1_000_000_000 + backend_session_id], so an
   [Attach (Some id)] from a reconnecting client routes
   deterministically back to the backend that owns the session — the
   ring is only consulted for sessions the router has never seen.

   The router answers some requests itself, never forwarding them:
   [Hello] (the router speaks protocol v2; its backends must too),
   [Stats] (its own JSON: per-backend in-flight/forwarded/reconnects
   plus totals) and [Shutdown] ([Bye], then a graceful drain — stop
   accepting, let in-flight replies come home, flush, close).  The
   backends are {e not} shut down by the router; whoever spawned the
   fleet owns their lifetime (see [gbc serve --fleet]).

   Backend death.  When a link's read or write fails, every request
   still in flight on it is answered with a structured [server-error]
   frame (a pipelined client sees one error per orphaned id and can
   replay — its session survives on the backend's data dir).  The
   backend is marked dead; the next request that needs it connects
   again, and a success after a observed death counts as a reconnect
   in the stats. *)

module P = Protocol

(* ---------------- the hash ring ---------------- *)

module Ring = struct
  type t = { points : (int * string) array }

  (* a 62-bit point from the MD5 of the key: stable across runs,
     processes and architectures (unlike Hashtbl.hash) *)
  let hash key =
    let d = Digest.string key in
    let b i = Char.code d.[i] in
    (b 0 lsl 54) lor (b 1 lsl 46) lor (b 2 lsl 38) lor (b 3 lsl 30)
    lor (b 4 lsl 22) lor (b 5 lsl 14) lor (b 6 lsl 6) lor (b 7 lsr 2)

  let create ?(vnodes = 100) members =
    if members = [] then invalid_arg "Router.Ring.create: no members";
    let points =
      List.concat_map
        (fun m -> List.init vnodes (fun v -> (hash (Printf.sprintf "%s#%d" m v), m)))
        members
      |> Array.of_list
    in
    Array.sort compare points;
    { points }

  (* the member owning the first point at or after [hash key],
     wrapping around the ring *)
  let lookup t key =
    let n = Array.length t.points in
    let h = hash key in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd t.points.(if !lo = n then 0 else !lo)
end

(* Composite session ids: backend index in the high digits, the
   backend's own session id below. *)
let composite_base = 1_000_000_000

let composite ~idx sid = (idx * composite_base) + sid
let split_composite cid = (cid / composite_base, cid mod composite_base)

(* ---------------- configuration ---------------- *)

type config = {
  host : string;
  port : int option;  (* None: no TCP listener *)
  unix_path : string option;  (* None: no Unix-domain listener *)
  backlog : int;
  backends : Client.endpoint list;
  vnodes : int;  (* virtual nodes per backend on the ring *)
  max_frame : int;
  connect_timeout : float option;  (* per backend connect attempt *)
}

let default_config =
  { host = "127.0.0.1";
    port = Some 7412;
    unix_path = None;
    backlog = 64;
    backends = [];
    vnodes = 100;
    max_frame = P.max_frame_default;
    connect_timeout = Some 5.0 }

(* ---------------- state ---------------- *)

type backend = {
  b_endpoint : Client.endpoint;
  b_name : string;
  mutable b_alive : bool;  (* last connect / IO verdict *)
  mutable b_connected_once : bool;
  mutable b_inflight : int;  (* forwarded, not yet answered *)
  mutable b_forwarded : int;
  mutable b_reconnects : int;  (* successful connects after a death *)
}

type link = {
  l_fd : Unix.file_descr;
  l_idx : int;  (* backend index *)
  l_in : Buffer.t;  (* unconsumed reply bytes from the backend *)
  l_out : Buffer.t;  (* frames awaiting forwarding; [l_out_off] written *)
  mutable l_out_off : int;
  mutable l_alive : bool;
}

type rconn = {
  c_fd : Unix.file_descr;
  c_key : string;  (* ring key for first placement *)
  c_in : Buffer.t;
  c_out : Buffer.t;
  mutable c_out_off : int;
  mutable c_backend : int option;  (* sticky once placed *)
  mutable c_link : link option;
  mutable c_outstanding : int option list;
      (* envelope ids of forwarded-unanswered requests, oldest first;
         [None] entries are bare v1 frames, matched FIFO *)
  mutable c_alive : bool;
  mutable c_peer_gone : bool;
  mutable c_close_after_flush : bool;
}

type t = {
  cfg : config;
  listeners : Unix.file_descr list;
  tcp_port : int option;
  backends : backend array;
  idx_of_name : (string, int) Hashtbl.t;
  ring : Ring.t;
  started_at : float;
  draining : bool Atomic.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable conn_seq : int;
  mutable forwarded_total : int;
  mutable reconnects_total : int;
  mutable inflight_now : int;
  mutable inflight_max : int;
  mutable conns : rconn list;
  read_buf : Bytes.t;
      (* per router, since routers in one process run their loops on
         different domains at once *)
}

let endpoint_name = function
  | Client.Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port
  | Client.Uds path -> "unix:" ^ path

let bind_tcp host port backlog =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = try Unix.inet_addr_of_string host with Failure _ -> failwith ("bad host " ^ host) in
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd backlog;
  let actual = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port in
  (fd, actual)

let bind_unix path backlog =
  if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd backlog;
  fd

let create (cfg : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    if cfg.backends = [] then failwith "no backends configured";
    let backends =
      Array.of_list
        (List.map
           (fun e ->
             { b_endpoint = e;
               b_name = endpoint_name e;
               (* assumed reachable until an IO failure says otherwise *)
               b_alive = true;
               b_connected_once = false;
               b_inflight = 0;
               b_forwarded = 0;
               b_reconnects = 0 })
           cfg.backends)
    in
    let idx_of_name = Hashtbl.create 8 in
    Array.iteri (fun i b -> Hashtbl.replace idx_of_name b.b_name i) backends;
    if Hashtbl.length idx_of_name <> Array.length backends then
      failwith "duplicate backend endpoints";
    let ring =
      Ring.create ~vnodes:(max 1 cfg.vnodes)
        (Array.to_list (Array.map (fun b -> b.b_name) backends))
    in
    let tcp = Option.map (fun p -> bind_tcp cfg.host p cfg.backlog) cfg.port in
    let uds = Option.map (fun p -> bind_unix p cfg.backlog) cfg.unix_path in
    let listeners = List.filter_map Fun.id [ Option.map fst tcp; uds ] in
    if listeners = [] then failwith "no listener configured (need a port or a unix path)";
    List.iter Unix.set_nonblock listeners;
    let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock pipe_r;
    Unix.set_nonblock pipe_w;
    { cfg;
      listeners;
      tcp_port = Option.map snd tcp;
      backends;
      idx_of_name;
      ring;
      started_at = Unix.gettimeofday ();
      draining = Atomic.make false;
      pipe_r;
      pipe_w;
      conn_seq = 0;
      forwarded_total = 0;
      reconnects_total = 0;
      inflight_now = 0;
      inflight_max = 0;
      conns = [];
      read_buf = Bytes.create 65536 }
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure msg -> Error msg

let port t = t.tcp_port

let wake t =
  try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
    (* a second shutdown after run already tore the pipe down is a no-op *)
    ()

let shutdown t =
  Atomic.set t.draining true;
  wake t

(* ---------------- stats ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let stats_json t =
  let backend b =
    Printf.sprintf
      "{\"endpoint\": \"%s\", \"alive\": %b, \"inflight\": %d, \"forwarded\": %d, \
       \"reconnects\": %d}"
      (json_escape b.b_name) b.b_alive b.b_inflight b.b_forwarded b.b_reconnects
  in
  Printf.sprintf
    "{\"router\": {\"uptime_s\": %.3f, \"draining\": %b, \"open_conns\": %d, \
     \"forwarded\": %d, \"backend_reconnects\": %d, \"inflight\": %d, \"inflight_max\": %d, \
     \"backends\": [%s]}}"
    (Unix.gettimeofday () -. t.started_at)
    (Atomic.get t.draining)
    (List.length (List.filter (fun c -> c.c_alive) t.conns))
    t.forwarded_total t.reconnects_total t.inflight_now t.inflight_max
    (String.concat ", " (Array.to_list (Array.map backend t.backends)))

(* ---------------- wire helpers ---------------- *)

(* Replies echo the request's wire form (enveloped or bare), exactly
   like gbcd itself. *)
let encode_reply rid resp =
  match rid with
  | Some rid -> P.encode_response_v2 ~rid resp
  | None -> P.encode_response resp

let encode_forward rid req =
  match rid with
  | Some rid -> P.encode_request_v2 ~rid req
  | None -> P.encode_request req

let reply_now c rid resp = Buffer.add_string c.c_out (encode_reply rid resp)

(* ---------------- backend links ---------------- *)

let connect_backend t idx =
  let b = t.backends.(idx) in
  let domain, addr =
    match b.b_endpoint with
    | Client.Tcp { host; port } -> (
      match Unix.inet_addr_of_string host with
      | inet -> (Unix.PF_INET, Unix.ADDR_INET (inet, port))
      | exception Failure _ -> failwith ("bad host " ^ host))
    | Client.Uds path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    (* bounded non-blocking connect, as in Client.connect *)
    match t.cfg.connect_timeout with
    | None -> Unix.connect fd addr
    | Some tmo -> (
      Unix.set_nonblock fd;
      (match Unix.connect fd addr with
      | () -> ()
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> (
        match Unix.select [] [ fd ] [] tmo with
        | _, [], _ -> failwith "backend connect timed out"
        | _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some err -> raise (Unix.Unix_error (err, "connect", b.b_name)))));
      Unix.clear_nonblock fd)
  with
  | () ->
    Unix.set_nonblock fd;
    if b.b_connected_once && not b.b_alive then begin
      b.b_reconnects <- b.b_reconnects + 1;
      t.reconnects_total <- t.reconnects_total + 1
    end;
    b.b_alive <- true;
    b.b_connected_once <- true;
    Ok { l_fd = fd; l_idx = idx; l_in = Buffer.create 1024; l_out = Buffer.create 1024;
         l_out_off = 0; l_alive = true }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    b.b_alive <- false;
    Error
      (Printf.sprintf "backend %s unreachable: %s" b.b_name
         (match e with
         | Unix.Unix_error (err, _, _) -> Unix.error_message err
         | Failure msg -> msg
         | e -> Printexc.to_string e))

(* Tear a link down and answer every request still in flight on it
   with a structured error — a pipelined client gets one per orphaned
   envelope id and can replay against the recovered backend. *)
let kill_link t c reason =
  match c.c_link with
  | None -> ()
  | Some l ->
    l.l_alive <- false;
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    c.c_link <- None;
    let b = t.backends.(l.l_idx) in
    b.b_alive <- false;
    let orphans = c.c_outstanding in
    c.c_outstanding <- [];
    let n = List.length orphans in
    b.b_inflight <- b.b_inflight - n;
    t.inflight_now <- t.inflight_now - n;
    List.iter
      (fun rid ->
        reply_now c rid
          (P.Error
             { code = P.Server_error;
               message = "backend died with this request in flight: " ^ reason }))
      orphans

(* The sticky backend for this connection, choosing from the ring on
   first need. *)
let placed_backend t c =
  match c.c_backend with
  | Some idx -> idx
  | None ->
    let idx = Hashtbl.find t.idx_of_name (Ring.lookup t.ring c.c_key) in
    c.c_backend <- Some idx;
    idx

let ensure_link t c idx =
  match c.c_link with
  | Some l when l.l_alive && l.l_idx = idx -> Ok l
  | Some l when l.l_alive ->
    Error (Printf.sprintf "connection is bound to backend %s" t.backends.(l.l_idx).b_name)
  | _ -> (
    match connect_backend t idx with
    | Ok l ->
      c.c_link <- Some l;
      c.c_backend <- Some idx;
      Ok l
    | Error _ as e -> e)

let forward t c rid req =
  match c.c_link with
  | None -> assert false
  | Some l ->
    Buffer.add_string l.l_out (encode_forward rid req);
    c.c_outstanding <- c.c_outstanding @ [ rid ];
    let b = t.backends.(l.l_idx) in
    b.b_forwarded <- b.b_forwarded + 1;
    b.b_inflight <- b.b_inflight + 1;
    t.forwarded_total <- t.forwarded_total + 1;
    t.inflight_now <- t.inflight_now + 1;
    if t.inflight_now > t.inflight_max then t.inflight_max <- t.inflight_now

(* ---------------- request handling ---------------- *)

let handle_client_frame t c (rid, req) =
  if Atomic.get t.draining then
    reply_now c rid (P.Error { code = P.Draining; message = "router is draining" })
  else
    match req with
    | P.Hello { version } ->
      (* answered locally: the router requires v2-capable backends, so
         it can promise envelope framing on the client side *)
      reply_now c rid (P.Welcome { version = min version P.protocol_version })
    | P.Stats -> reply_now c rid (P.Stats_json (stats_json t))
    | P.Shutdown ->
      reply_now c rid P.Bye;
      Atomic.set t.draining true;
      c.c_close_after_flush <- true
    | P.Attach (Some cid) -> (
      let idx, sid = split_composite cid in
      if idx < 0 || idx >= Array.length t.backends then
        reply_now c rid
          (P.Error { code = P.No_session; message = Printf.sprintf "no session %d" cid })
      else
        match ensure_link t c idx with
        | Ok _ -> forward t c rid (P.Attach (Some sid))
        | Error msg -> reply_now c rid (P.Error { code = P.No_session; message = msg }))
    | req -> (
      let idx = placed_backend t c in
      match ensure_link t c idx with
      | Ok _ -> forward t c rid req
      | Error msg -> reply_now c rid (P.Error { code = P.Server_error; message = msg }))

(* A reply coming home from the backend: rewrite session ids to their
   composite form, account it, pass it through in the request's wire
   form. *)
let handle_backend_frame t c l (rid, resp) =
  let resp =
    match resp with
    | P.Attached { id } -> P.Attached { id = composite ~idx:l.l_idx id }
    | resp -> resp
  in
  let rec remove_first seen = function
    | [] -> List.rev seen  (* unmatched: tolerate, the client will complain *)
    | r :: rest when r = rid -> List.rev_append seen rest
    | r :: rest -> remove_first (r :: seen) rest
  in
  c.c_outstanding <- remove_first [] c.c_outstanding;
  let b = t.backends.(l.l_idx) in
  b.b_inflight <- b.b_inflight - 1;
  t.inflight_now <- t.inflight_now - 1;
  reply_now c rid resp

(* ---------------- the event loop ---------------- *)

let out_pending c = Buffer.length c.c_out - c.c_out_off
let link_out_pending l = Buffer.length l.l_out - l.l_out_off

let close_conn t c =
  if c.c_alive then begin
    c.c_alive <- false;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    (match c.c_link with
    | None -> ()
    | Some l ->
      (* closing the link detaches the session on the backend (it
         survives there if the client made it attachable) *)
      l.l_alive <- false;
      (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
      c.c_link <- None;
      let n = List.length c.c_outstanding in
      c.c_outstanding <- [];
      let b = t.backends.(l.l_idx) in
      b.b_inflight <- b.b_inflight - n;
      t.inflight_now <- t.inflight_now - n)
  end

let on_peer_gone t c =
  c.c_peer_gone <- true;
  close_conn t c

let parse_client_frames t c =
  let data = Buffer.contents c.c_in in
  let off = ref 0 in
  let stop = ref false in
  while not !stop do
    match P.extract_frame ~max_frame:t.cfg.max_frame data !off with
    | P.Need_more -> stop := true
    | P.Bad_length n ->
      reply_now c None
        (P.Error
           { code = P.Protocol_violation;
             message = Printf.sprintf "unacceptable frame length %d" n });
      c.c_peer_gone <- true;
      c.c_close_after_flush <- true;
      stop := true
    | P.Frame (body, next) -> (
      off := next;
      match P.decode_request_v2 body with
      | Ok (rid, req) -> handle_client_frame t c (rid, req)
      | Error msg ->
        reply_now c None (P.Error { code = P.Protocol_violation; message = msg });
        c.c_peer_gone <- true;
        c.c_close_after_flush <- true;
        stop := true)
  done;
  if !off > 0 then begin
    let rest = String.sub data !off (String.length data - !off) in
    Buffer.clear c.c_in;
    Buffer.add_string c.c_in rest
  end

let parse_backend_frames t c l =
  let data = Buffer.contents l.l_in in
  let off = ref 0 in
  let stop = ref false in
  while not !stop do
    match P.extract_frame ~max_frame:t.cfg.max_frame data !off with
    | P.Need_more -> stop := true
    | P.Bad_length n ->
      kill_link t c (Printf.sprintf "sent an unacceptable frame length %d" n);
      stop := true
    | P.Frame (body, next) -> (
      off := next;
      match P.decode_response_v2 body with
      | Ok (rid, resp) -> handle_backend_frame t c l (rid, resp)
      | Error msg ->
        kill_link t c ("sent an undecodable reply: " ^ msg);
        stop := true)
  done;
  if l.l_alive && !off > 0 then begin
    let rest = String.sub data !off (String.length data - !off) in
    Buffer.clear l.l_in;
    Buffer.add_string l.l_in rest
  end

let accept_conn t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> ()
  | fd, _addr ->
    Unix.set_nonblock fd;
    t.conn_seq <- t.conn_seq + 1;
    let c =
      { c_fd = fd;
        c_key = string_of_int t.conn_seq;
        c_in = Buffer.create 1024;
        c_out = Buffer.create 1024;
        c_out_off = 0;
        c_backend = None;
        c_link = None;
        c_outstanding = [];
        c_alive = true;
        c_peer_gone = false;
        c_close_after_flush = false }
    in
    t.conns <- c :: t.conns

let on_client_readable t c =
  match Unix.read c.c_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> on_peer_gone t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> on_peer_gone t c
  | n ->
    Buffer.add_subbytes c.c_in t.read_buf 0 n;
    parse_client_frames t c

let on_link_readable t c l =
  match Unix.read l.l_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> kill_link t c "connection closed"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> kill_link t c (Unix.error_message e)
  | n ->
    Buffer.add_subbytes l.l_in t.read_buf 0 n;
    parse_backend_frames t c l

let on_client_writable t c =
  let len = out_pending c in
  if len > 0 then begin
    match Unix.write_substring c.c_fd (Buffer.contents c.c_out) c.c_out_off len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
      Buffer.clear c.c_out;
      c.c_out_off <- 0;
      on_peer_gone t c
    | n ->
      c.c_out_off <- c.c_out_off + n;
      if out_pending c = 0 then begin
        Buffer.clear c.c_out;
        c.c_out_off <- 0
      end
  end;
  if c.c_alive && out_pending c = 0 && c.c_close_after_flush && c.c_outstanding = [] then
    close_conn t c

let on_link_writable t c l =
  let len = link_out_pending l in
  if len > 0 then begin
    match Unix.write_substring l.l_fd (Buffer.contents l.l_out) l.l_out_off len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> kill_link t c (Unix.error_message e)
    | n ->
      l.l_out_off <- l.l_out_off + n;
      if link_out_pending l = 0 then begin
        Buffer.clear l.l_out;
        l.l_out_off <- 0
      end
  end

let drain_pipe t =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read t.pipe_r b 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let run t =
  let live_link c =
    match c.c_link with Some l when l.l_alive -> Some l | _ -> None
  in
  let rec loop () =
    t.conns <- List.filter (fun c -> c.c_alive) t.conns;
    if finished () then ()
    else begin
      let accepting = not (Atomic.get t.draining) in
      let rds =
        (t.pipe_r :: (if accepting then t.listeners else []))
        @ List.filter_map
            (fun c -> if not c.c_peer_gone then Some c.c_fd else None)
            t.conns
        @ List.filter_map (fun c -> Option.map (fun l -> l.l_fd) (live_link c)) t.conns
      in
      let wrs =
        List.filter_map (fun c -> if out_pending c > 0 then Some c.c_fd else None) t.conns
        @ List.filter_map
            (fun c ->
              match live_link c with
              | Some l when link_out_pending l > 0 -> Some l.l_fd
              | _ -> None)
            t.conns
      in
      (match Unix.select rds wrs [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        if List.mem t.pipe_r readable then drain_pipe t;
        List.iter (fun lfd -> if List.mem lfd readable then accept_conn t lfd) t.listeners;
        List.iter
          (fun c ->
            match live_link c with
            | Some l when c.c_alive && List.mem l.l_fd readable -> on_link_readable t c l
            | _ -> ())
          t.conns;
        List.iter
          (fun c -> if c.c_alive && List.mem c.c_fd readable then on_client_readable t c)
          t.conns;
        List.iter
          (fun c ->
            match live_link c with
            | Some l when c.c_alive && List.mem l.l_fd writable -> on_link_writable t c l
            | _ -> ())
          t.conns;
        List.iter
          (fun c -> if c.c_alive && List.mem c.c_fd writable then on_client_writable t c)
          t.conns);
      if Atomic.get t.draining then
        List.iter
          (fun c ->
            if c.c_alive && c.c_outstanding = [] then begin
              c.c_close_after_flush <- true;
              if out_pending c = 0 then close_conn t c
            end)
          t.conns;
      loop ()
    end
  and finished () = Atomic.get t.draining && List.for_all (fun c -> not c.c_alive) t.conns in
  loop ();
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  Option.iter
    (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    t.cfg.unix_path
