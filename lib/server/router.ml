(* gbc-router: a consistent-hash fan-out proxy for a fleet of gbcd
   backends.

   One single-threaded select loop owns everything: the client
   listeners, every accepted client connection, and one backend link
   per client connection, all of them Conn sockets as in gbcd.  The
   router never evaluates — it decodes frames only far enough to route
   and account them, then re-encodes (the codec is canonical, so a
   forwarded frame is byte-identical to the one received).

   Placement.  A fresh connection is placed on the ring
   (consistent hash with virtual nodes, keyed by a router-assigned
   connection id) the first time it sends a request that must reach a
   backend; the choice then sticks for the connection's lifetime.
   Session ids crossing the router are {e composite}:
   [idx * 1_000_000_000 + backend_session_id], so an
   [Attach (Some id)] from a reconnecting client routes
   deterministically back to the backend that owns the session — the
   ring is only consulted for sessions the router has never seen.

   Framing.  In-tree clients send envelopes (per-request ids, matched
   by id on the way back); bare frames from blocking clients without
   ids are forwarded bare and their bare replies matched FIFO (a
   count), so both keep the daemon's ordering through the proxy.

   The router answers some requests itself, never forwarding them:
   [Stats] (its own JSON: per-backend in-flight/forwarded/reconnects
   plus totals) and [Shutdown] ([Bye], then a graceful drain — stop
   accepting, let in-flight replies come home, flush, close).  The
   backends are {e not} shut down by the router; whoever spawned the
   fleet owns their lifetime (see [gbc serve --fleet]).

   Backend death.  When a link's read or write fails, or the backend
   sends bytes that do not decode, every request still in flight on it
   is answered with a structured [server-error] frame, ids ascending,
   then bare frames (a pipelined client sees one error per orphaned id
   and can replay — its session survives on the backend's data dir).
   The backend is marked dead; the next request that needs it connects
   again, and a success after an observed death counts as a reconnect
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
  backends : Client.endpoint list;
  vnodes : int;  (* virtual nodes per backend on the ring *)
  max_frame : int;
  connect_timeout : float option;  (* per backend connect attempt *)
}

let default_config =
  { host = "127.0.0.1";
    port = Some 7412;
    unix_path = None;
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

(* A connection's link is dropped from it the moment it dies. *)
type link = { l_ep : Conn.t; l_idx : int (* backend index *) }

type rconn = {
  c_ep : Conn.t;
  c_key : string;  (* ring key for first placement *)
  mutable c_backend : int option;  (* sticky once placed *)
  mutable c_link : link option;
  c_ids : (int, unit) Hashtbl.t;
      (* envelope ids forwarded and not yet answered, one binding per
         request (a reused id is bound twice) *)
  mutable c_bare : int;  (* bare frames forwarded and not yet answered; matched FIFO *)
  mutable c_alive : bool;
  mutable c_peer_gone : bool;
  mutable c_close_after_flush : bool;
}

type t = {
  cfg : config;
  listener : Conn.listener;
  backends : backend array;
  idx_of_name : (string, int) Hashtbl.t;
  ring : Ring.t;
  started_at : float;
  draining : bool Atomic.t;
  wakeup : Conn.wakeup;
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

let create (cfg : config) =
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
    let listener = Conn.listen ~host:cfg.host ~port:cfg.port ~unix_path:cfg.unix_path in
    { cfg;
      listener;
      backends;
      idx_of_name;
      ring;
      started_at = Unix.gettimeofday ();
      draining = Atomic.make false;
      wakeup = Conn.wakeup ();
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

let port t = Conn.listener_port t.listener

let shutdown t =
  Atomic.set t.draining true;
  Conn.wake t.wakeup

(* ---------------- stats ---------------- *)

let stats_json t =
  let backend b =
    Printf.sprintf
      "{\"endpoint\": \"%s\", \"alive\": %b, \"inflight\": %d, \"forwarded\": %d, \
       \"reconnects\": %d}"
      (Gbc_datalog.Telemetry.json_escape b.b_name) b.b_alive b.b_inflight b.b_forwarded
      b.b_reconnects
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

(* ---------------- backend links ---------------- *)

let connect_backend t idx =
  let b = t.backends.(idx) in
  match Client.connect_socket ?timeout:t.cfg.connect_timeout b.b_endpoint with
  | fd ->
    Unix.set_nonblock fd;
    if b.b_connected_once && not b.b_alive then begin
      b.b_reconnects <- b.b_reconnects + 1;
      t.reconnects_total <- t.reconnects_total + 1
    end;
    b.b_alive <- true;
    b.b_connected_once <- true;
    Ok { l_ep = Conn.create fd; l_idx = idx }
  | exception e ->
    b.b_alive <- false;
    Error
      (Printf.sprintf "backend %s unreachable: %s" b.b_name
         (match e with
         | Client.Timeout -> "connect timed out"
         | Unix.Unix_error (err, _, _) -> Unix.error_message err
         | Failure msg -> msg
         | e -> Printexc.to_string e))

let in_flight c = Hashtbl.length c.c_ids + c.c_bare

let settle t l n =
  let b = t.backends.(l.l_idx) in
  b.b_inflight <- b.b_inflight - n;
  t.inflight_now <- t.inflight_now - n

(* Close a link and take back everything in flight on it: the envelope
   ids ascending, then one [None] per bare frame. *)
let drop_link t c l =
  Conn.close l.l_ep;
  c.c_link <- None;
  let ids = List.sort Int.compare (Hashtbl.fold (fun rid () acc -> rid :: acc) c.c_ids []) in
  let orphans = List.map Option.some ids @ List.init c.c_bare (fun _ -> None) in
  Hashtbl.reset c.c_ids;
  c.c_bare <- 0;
  settle t l (List.length orphans);
  orphans

(* Tear a link down and answer every request still in flight on it
   with a structured error — a pipelined client gets one per orphaned
   envelope id and can replay against the recovered backend. *)
let kill_link t c reason =
  Option.iter
    (fun l ->
      t.backends.(l.l_idx).b_alive <- false;
      List.iter
        (fun rid ->
          Conn.reply c.c_ep rid
            (P.Error
               { code = P.Server_error;
                 message = "backend died with this request in flight: " ^ reason }))
        (drop_link t c l))
    c.c_link

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
  | Some l when l.l_idx = idx -> Ok l
  | Some l ->
    Error (Printf.sprintf "connection is bound to backend %s" t.backends.(l.l_idx).b_name)
  | None -> (
    match connect_backend t idx with
    | Ok l ->
      c.c_link <- Some l;
      c.c_backend <- Some idx;
      Ok l
    | Error _ as e -> e)

let forward t c l rid req =
  (match rid with
  | Some id ->
    Conn.send l.l_ep (P.encode_request_v2 ~rid:id req);
    Hashtbl.add c.c_ids id ()
  | None ->
    Conn.send l.l_ep (P.encode_request req);
    c.c_bare <- c.c_bare + 1);
  let b = t.backends.(l.l_idx) in
  b.b_forwarded <- b.b_forwarded + 1;
  b.b_inflight <- b.b_inflight + 1;
  t.forwarded_total <- t.forwarded_total + 1;
  t.inflight_now <- t.inflight_now + 1;
  if t.inflight_now > t.inflight_max then t.inflight_max <- t.inflight_now

(* ---------------- request handling ---------------- *)

let handle_client_frame t c (rid, req) =
  let reply = Conn.reply c.c_ep rid in
  if Atomic.get t.draining then reply (P.Error { code = P.Draining; message = "router is draining" })
  else
    match req with
    | P.Stats -> reply (P.Stats_json (stats_json t))
    | P.Shutdown ->
      reply P.Bye;
      Atomic.set t.draining true;
      c.c_close_after_flush <- true
    | P.Attach (Some cid) -> (
      let idx, sid = split_composite cid in
      if idx < 0 || idx >= Array.length t.backends then
        reply (P.Error { code = P.No_session; message = Printf.sprintf "no session %d" cid })
      else
        match ensure_link t c idx with
        | Ok l -> forward t c l rid (P.Attach (Some sid))
        | Error msg -> reply (P.Error { code = P.No_session; message = msg }))
    | req -> (
      let idx = placed_backend t c in
      match ensure_link t c idx with
      | Ok l -> forward t c l rid req
      | Error msg -> reply (P.Error { code = P.Server_error; message = msg }))

(* A reply coming home from the backend: rewrite session ids to their
   composite form, account it, pass it through in the request's wire
   form.  A reply matching nothing in flight is passed on unaccounted;
   the client will complain. *)
let handle_backend_frame t c l (rid, resp) =
  let resp =
    match resp with
    | P.Attached { id } -> P.Attached { id = composite ~idx:l.l_idx id }
    | resp -> resp
  in
  (match rid with
  | Some id when Hashtbl.mem c.c_ids id ->
    Hashtbl.remove c.c_ids id;
    settle t l 1
  | None when c.c_bare > 0 ->
    c.c_bare <- c.c_bare - 1;
    settle t l 1
  | _ -> ());
  Conn.reply c.c_ep rid resp

(* ---------------- the event loop ---------------- *)

let out_pending c = Conn.out_pending c.c_ep

let close_conn t c =
  if c.c_alive then begin
    c.c_alive <- false;
    Conn.close c.c_ep;
    (* closing the link detaches the session on the backend (it
       survives there if the client made it attachable) *)
    Option.iter (fun l -> ignore (drop_link t c l)) c.c_link
  end

let on_peer_gone t c =
  c.c_peer_gone <- true;
  close_conn t c

(* Framing or decoding failed: the stream is desynchronized beyond
   repair, so answer bare and stop reading. *)
let refuse c message =
  Conn.reply c.c_ep None (P.Error { code = P.Protocol_violation; message });
  c.c_peer_gone <- true;
  c.c_close_after_flush <- true

let accept_conn t fd =
  t.conn_seq <- t.conn_seq + 1;
  let c =
    { c_ep = Conn.create fd;
      c_key = string_of_int t.conn_seq;
      c_backend = None;
      c_link = None;
      c_ids = Hashtbl.create 16;
      c_bare = 0;
      c_alive = true;
      c_peer_gone = false;
      c_close_after_flush = false }
  in
  t.conns <- c :: t.conns

let on_client_readable t c =
  match Conn.read c.c_ep t.read_buf with
  | Conn.Again -> ()
  | Conn.Eof | Conn.Failed _ -> on_peer_gone t c
  | Conn.Data ->
    Conn.frames c.c_ep ~max_frame:t.cfg.max_frame
      ~on_bad_length:(fun n -> refuse c (Printf.sprintf "unacceptable frame length %d" n))
      (fun body ->
        match P.decode_request body with
        | Ok frame ->
          handle_client_frame t c frame;
          true
        | Error msg ->
          refuse c msg;
          false)

let on_link_readable t c l =
  match Conn.read l.l_ep t.read_buf with
  | Conn.Again -> ()
  | Conn.Eof -> kill_link t c "connection closed"
  | Conn.Failed e -> kill_link t c (Unix.error_message e)
  | Conn.Data ->
    Conn.frames l.l_ep ~max_frame:t.cfg.max_frame
      ~on_bad_length:(fun n -> kill_link t c (Printf.sprintf "sent an unacceptable frame length %d" n))
      (fun body ->
        match P.decode_response_v2 body with
        | Ok frame ->
          handle_backend_frame t c l frame;
          true
        | Error msg ->
          kill_link t c ("sent an undecodable reply: " ^ msg);
          false)

let on_client_writable t c =
  (match Conn.flush c.c_ep with Ok () -> () | Error _ -> on_peer_gone t c);
  if c.c_alive && out_pending c = 0 && c.c_close_after_flush && in_flight c = 0 then
    close_conn t c

let on_link_writable t c l =
  match Conn.flush l.l_ep with Ok () -> () | Error e -> kill_link t c (Unix.error_message e)

let run t =
  let rec loop () =
    t.conns <- List.filter (fun c -> c.c_alive) t.conns;
    if finished () then ()
    else begin
      let rds =
        List.filter_map (fun c -> if not c.c_peer_gone then Some (Conn.fd c.c_ep) else None) t.conns
        @ List.filter_map (fun c -> Option.map (fun l -> Conn.fd l.l_ep) c.c_link) t.conns
      in
      let wrs =
        List.filter_map (fun c -> if out_pending c > 0 then Some (Conn.fd c.c_ep) else None) t.conns
        @ List.filter_map
            (fun c ->
              match c.c_link with
              | Some l when Conn.out_pending l.l_ep > 0 -> Some (Conn.fd l.l_ep)
              | _ -> None)
            t.conns
      in
      let readable, writable =
        Conn.select t.wakeup t.listener ~accepting:(not (Atomic.get t.draining))
          ~on_accept:(accept_conn t) rds wrs (-1.0)
      in
      List.iter
        (fun c ->
          match c.c_link with
          | Some l when c.c_alive && List.mem (Conn.fd l.l_ep) readable -> on_link_readable t c l
          | _ -> ())
        t.conns;
      List.iter
        (fun c -> if c.c_alive && List.mem (Conn.fd c.c_ep) readable then on_client_readable t c)
        t.conns;
      List.iter
        (fun c ->
          match c.c_link with
          | Some l when c.c_alive && List.mem (Conn.fd l.l_ep) writable -> on_link_writable t c l
          | _ -> ())
        t.conns;
      List.iter
        (fun c -> if c.c_alive && List.mem (Conn.fd c.c_ep) writable then on_client_writable t c)
        t.conns;
      if Atomic.get t.draining then
        List.iter
          (fun c ->
            if c.c_alive && in_flight c = 0 then begin
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
  Conn.close_listener t.listener;
  Conn.close_wakeup t.wakeup
