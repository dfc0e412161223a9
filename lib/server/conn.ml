(* The sockets under gbcd and gbc-router: listeners, the self-pipe and
   buffered frame endpoints.  Policy stays with the daemons. *)

let again = function Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true | _ -> false

type listener = { fds : Unix.file_descr list; port : int option; path : string option }

let backlog = 64

let bind_tcp host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = try Unix.inet_addr_of_string host with Failure _ -> failwith ("bad host " ^ host) in
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd backlog;
  let actual = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port in
  (fd, actual)

let bind_unix path =
  if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd backlog;
  fd

let listen ~host ~port ~unix_path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let tcp = Option.map (bind_tcp host) port in
  let uds = Option.map bind_unix unix_path in
  let fds = List.filter_map Fun.id [ Option.map fst tcp; uds ] in
  if fds = [] then failwith "no listener configured (need a port or a unix path)";
  List.iter Unix.set_nonblock fds;
  { fds; port = Option.map snd tcp; path = unix_path }

let listener_port l = l.port

let accept lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error _ -> None
  | fd, _ ->
    Unix.set_nonblock fd;
    Some fd

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_listener l =
  List.iter close_fd l.fds;
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ()) l.path

type wakeup = { wake_r : Unix.file_descr; wake_w : Unix.file_descr }

let wakeup () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { wake_r; wake_w }

let wake w =
  try ignore (Unix.write w.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
    (* a full pipe already holds a wake-up; a shutdown after the loop
       tore the pipe down is a no-op *)
    ()

let drain w =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read w.wake_r b 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error (e, _, _) when again e -> ()
  in
  go ()

let close_wakeup w =
  close_fd w.wake_r;
  close_fd w.wake_w

let select w l ~accepting ~on_accept rds wrs timeout =
  let lfds = if accepting then l.fds else [] in
  match Unix.select ((w.wake_r :: lfds) @ rds) wrs [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  | readable, writable, _ ->
    if List.mem w.wake_r readable then drain w;
    List.iter (fun lfd -> if List.mem lfd readable then Option.iter on_accept (accept lfd)) lfds;
    (readable, writable)

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;  (* [out_off] bytes of it already written *)
  mutable out_off : int;
}

let create fd = { fd; inbuf = Buffer.create 1024; out = Buffer.create 1024; out_off = 0 }
let fd t = t.fd
let close t = close_fd t.fd

type input = Data | Again | Eof | Failed of Unix.error

let read t buf =
  match Unix.read t.fd buf 0 (Bytes.length buf) with
  | 0 -> Eof
  | n ->
    Buffer.add_subbytes t.inbuf buf 0 n;
    Data
  | exception Unix.Unix_error (e, _, _) -> if again e then Again else Failed e

(* Whether the inbound buffer starts with a whole frame or a bad
   length prefix: read from the buffer in place, so a large frame
   arriving over many reads is copied out once, not once per read. *)
let frame_ready t ~max_frame =
  let len = Buffer.length t.inbuf in
  len >= 4
  &&
  let byte i = Char.code (Buffer.nth t.inbuf i) in
  let n = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  n < 1 || n > max_frame || len - 4 >= n

let frames t ~max_frame ~on_bad_length on_body =
  if frame_ready t ~max_frame then begin
    let data = Buffer.contents t.inbuf in
    let rec go off =
      match Protocol.extract_frame ~max_frame data off with
      | Protocol.Need_more -> off
      | Protocol.Bad_length n ->
        on_bad_length n;
        off
      | Protocol.Frame (body, next) -> if on_body body then go next else next
    in
    let off = go 0 in
    if off > 0 then begin
      let rest = String.sub data off (String.length data - off) in
      Buffer.clear t.inbuf;
      Buffer.add_string t.inbuf rest
    end
  end

let send t bytes = Buffer.add_string t.out bytes

let encode_reply rid resp =
  match rid with
  | Some rid -> Protocol.encode_response_v2 ~rid resp
  | None -> Protocol.encode_response resp

let reply t rid resp = send t (encode_reply rid resp)
let out_pending t = Buffer.length t.out - t.out_off

let reset_out t =
  Buffer.clear t.out;
  t.out_off <- 0

let flush t =
  let len = out_pending t in
  if len = 0 then Ok ()
  else
    match Unix.write_substring t.fd (Buffer.contents t.out) t.out_off len with
    | n ->
      t.out_off <- t.out_off + n;
      if out_pending t = 0 then reset_out t;
      Ok ()
    | exception Unix.Unix_error (e, _, _) when again e -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      reset_out t;
      Error e
