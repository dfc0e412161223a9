(* The router command, shared between `gbc router` and the standalone
   `gbc-router` binary: parse listeners and backend endpoints, build
   the consistent-hash ring, and proxy until drained.

   SIGINT/SIGTERM begin a graceful drain (stop accepting, let
   in-flight backend replies come home, flush, close); the backends
   are left running — their lifetime belongs to whoever spawned them
   (`gbc serve --fleet` owns its own). *)

open Cmdliner

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind the TCP listener on.")

let port_arg =
  Arg.(value & opt int 7412 & info [ "port"; "p" ] ~docv:"PORT"
         ~doc:"TCP port (0 picks a free one; the bound port is printed).")

let no_tcp_arg =
  Arg.(value & flag & info [ "no-tcp" ] ~doc:"Do not open a TCP listener (use with $(b,--unix)).")

let unix_arg =
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH"
         ~doc:"Also listen on a Unix-domain socket at PATH.")

let backend_conv =
  let parse s =
    let uds p = Ok (Gbc.Client.Uds p) in
    if String.length s >= 5 && String.sub s 0 5 = "unix:" then
      uds (String.sub s 5 (String.length s - 5))
    else if String.length s > 0 && s.[0] = '/' then uds s
    else
      match String.rindex_opt s ':' with
      | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some port when host <> "" -> Ok (Gbc.Client.Tcp { host; port })
        | _ -> Error (`Msg (Printf.sprintf "bad backend %S (want HOST:PORT)" s)))
      | None ->
        Error (`Msg (Printf.sprintf "bad backend %S (want HOST:PORT or a socket path)" s))
  in
  let print ppf = function
    | Gbc.Client.Tcp { host; port } -> Format.fprintf ppf "%s:%d" host port
    | Gbc.Client.Uds path -> Format.fprintf ppf "unix:%s" path
  in
  Arg.conv (parse, print)

let backends_arg =
  Arg.(value & opt_all backend_conv [] & info [ "backend"; "b" ] ~docv:"ADDR"
         ~doc:"A gbcd backend: $(b,HOST:PORT), an absolute socket path, or \
               $(b,unix:PATH).  Repeatable; at least one is required.")

let vnodes_arg =
  Arg.(value & opt int 100 & info [ "vnodes" ] ~docv:"N"
         ~doc:"Virtual nodes per backend on the hash ring.")

let max_frame_arg =
  Arg.(value & opt int Gbc.Protocol.max_frame_default & info [ "max-frame" ] ~docv:"BYTES"
         ~doc:"Largest accepted frame payload.")

let connect_timeout_arg =
  Arg.(value & opt float 5.0 & info [ "connect-timeout" ] ~docv:"SEC"
         ~doc:"Give up on a backend connect attempt after SEC seconds; 0 disables.")

let route host port no_tcp unix_path backends vnodes max_frame connect_timeout =
  if backends = [] then begin
    Format.eprintf "gbc-router: no backends (give at least one --backend)@.";
    exit 2
  end;
  let cfg =
    { Gbc.Router.host;
      port = (if no_tcp then None else Some port);
      unix_path;
      backends;
      vnodes = max 1 vnodes;
      max_frame;
      connect_timeout = (if connect_timeout > 0.0 then Some connect_timeout else None) }
  in
  match Gbc.Router.create cfg with
  | Error msg ->
    Format.eprintf "gbc-router: %s@." msg;
    exit 2
  | Ok rt ->
    let drain _ = Gbc.Router.shutdown rt in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain) with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle drain) with Invalid_argument _ -> ());
    Option.iter
      (fun p -> Format.printf "gbc-router: listening on %s:%d@." cfg.Gbc.Router.host p)
      (Gbc.Router.port rt);
    Option.iter (fun p -> Format.printf "gbc-router: listening on %s@." p) unix_path;
    Format.printf "gbc-router: %d backend(s), %d virtual node(s) each@?"
      (List.length backends) cfg.Gbc.Router.vnodes;
    Gbc.Router.run rt;
    Format.printf "gbc-router: drained, goodbye@."

let router_term =
  Term.(const route $ host_arg $ port_arg $ no_tcp_arg $ unix_arg $ backends_arg
        $ vnodes_arg $ max_frame_arg $ connect_timeout_arg)

let router_doc =
  "Route clients across a fleet of gbcd backends: new sessions are placed by \
   consistent hashing (a ring with virtual nodes), composite session ids route \
   reconnecting clients back to the backend that owns their session, and frames — \
   enveloped, as every gbc client sends them, or bare, in strict order, for \
   blocking clients without request ids — are forwarded byte-identically.  The \
   router answers $(b,stats) and $(b,shutdown) itself; requests in flight on a \
   dying backend come back as structured server-error frames."
