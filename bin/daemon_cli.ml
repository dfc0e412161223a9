(* The serve command, shared between `gbc serve` and the standalone
   `gbcd` binary: parse listener/worker/governor options, bind, print
   where we are listening, and run until drained.

   SIGINT/SIGTERM begin a graceful drain (finish in-flight requests,
   flush, close) rather than killing the process. *)

open Cmdliner

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind the TCP listener on.")

let port_arg =
  Arg.(value & opt int 7411 & info [ "port"; "p" ] ~docv:"PORT"
         ~doc:"TCP port (0 picks a free one; the bound port is printed).")

let no_tcp_arg =
  Arg.(value & flag & info [ "no-tcp" ] ~doc:"Do not open a TCP listener (use with $(b,--unix)).")

let unix_arg =
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH"
         ~doc:"Also listen on a Unix-domain socket at PATH.")

let workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains evaluating requests (at least 1).")

let default_timeout_arg =
  Arg.(value & opt float 30.0 & info [ "default-timeout" ] ~docv:"SEC"
         ~doc:"Per-request wall-clock cap; 0 disables.  Clients can only tighten it.")

let smax name doc =
  Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)

let max_facts_arg = smax "max-facts" "Server-side per-request cap on derived facts."
let max_steps_arg = smax "max-steps" "Server-side per-request cap on fixpoint steps / gamma firings."
let max_candidates_arg = smax "max-candidates" "Server-side per-request cap on choice-candidate examinations."

let max_jobs_arg =
  Arg.(value & opt int 1 & info [ "max-jobs" ] ~docv:"N"
         ~doc:"Cap on evaluation domains granted per request; a client's requested \
               $(b,jobs) is clamped to this (default 1: sequential).")

let max_frame_arg =
  Arg.(value & opt int Gbc.Protocol.max_frame_default & info [ "max-frame" ] ~docv:"BYTES"
         ~doc:"Largest accepted frame payload.")

let cache_arg =
  Arg.(value & opt int 64 & info [ "cache-capacity" ] ~docv:"N"
         ~doc:"Compiled-program cache entries (LRU beyond that).")

let data_dir_arg =
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
         ~doc:"Make sessions durable under DIR: mutations are write-ahead logged and \
               periodically snapshotted; a restart recovers every session (crash-safe) \
               and clients reclaim theirs by id.  Omitted: sessions are ephemeral.")

let fsync_arg =
  Arg.(value & opt string "batch:16" & info [ "fsync" ] ~docv:"POLICY"
         ~doc:"WAL fsync policy: $(b,always), $(b,never) or $(b,batch:N) (sync every Nth \
               record; a process crash loses nothing either way, an OS crash at most N \
               acknowledged records).")

let snapshot_every_arg =
  Arg.(value & opt int 64 & info [ "snapshot-every" ] ~docv:"N"
         ~doc:"Collapse a session's WAL into a binary snapshot every N records \
               (0 disables snapshotting).")

let idle_timeout_arg =
  Arg.(value & opt float 0.0 & info [ "idle-timeout" ] ~docv:"SEC"
         ~doc:"Reap connections and detached sessions idle longer than SEC (closing \
               their WAL descriptors; durable state stays reclaimable).  0 disables.")

let fleet_arg =
  Arg.(value & opt int 0 & info [ "fleet" ] ~docv:"N"
         ~doc:"Scale out: spawn N backend daemons (each with its own worker pool, on \
               private Unix sockets) and serve the given listeners through a \
               consistent-hash router in this process.  Sessions are spread across \
               the backends; with $(b,--data-dir) each backend persists under its own \
               subdirectory.  0 (the default) serves directly, single-process.")

(* Scale-out mode: this process becomes the router; the evaluation
   happens in [fleet] child daemons re-exec'd from our own binary,
   each listening on a private Unix socket.  The router owns the
   children's lifetime — when it finishes draining they are SIGTERMed
   (their own graceful drain) and reaped. *)
let serve_fleet host port no_tcp unix_path workers default_timeout max_facts max_steps
    max_candidates max_jobs max_frame cache_capacity data_dir fsync snapshot_every
    idle_timeout fleet =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gbc-fleet-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock i = Filename.concat dir (Printf.sprintf "backend-%d.sock" i) in
  let child_args i =
    let opt name v = match v with Some x -> [ name; string_of_int x ] | None -> [] in
    [ "--no-tcp"; "--unix"; sock i;
      "--workers"; string_of_int (max 1 workers);
      "--default-timeout"; Printf.sprintf "%g" default_timeout;
      "--max-jobs"; string_of_int (max 1 max_jobs);
      "--max-frame"; string_of_int max_frame;
      "--cache-capacity"; string_of_int cache_capacity;
      "--fsync"; fsync;
      "--snapshot-every"; string_of_int (max 0 snapshot_every);
      "--idle-timeout"; Printf.sprintf "%g" idle_timeout ]
    @ opt "--max-facts" max_facts
    @ opt "--max-steps" max_steps
    @ opt "--max-candidates" max_candidates
    @ (match data_dir with
      | Some d -> [ "--data-dir"; Filename.concat d (Printf.sprintf "backend-%d" i) ]
      | None -> [])
  in
  let exe = Sys.executable_name in
  (* re-exec ourselves: under `gbc serve` the child needs the
     subcommand back; under standalone `gbcd` it must not appear *)
  let prefix = if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then [ "serve" ] else [] in
  let spawn i =
    Unix.create_process exe
      (Array.of_list ((exe :: prefix) @ child_args i))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let pids = List.init fleet spawn in
  let reap () =
    List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
    List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) pids;
    List.iter (fun i -> try Sys.remove (sock i) with Sys_error _ -> ()) (List.init fleet Fun.id);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  (* wait until every backend accepts on its socket *)
  let wait_backend i =
    let deadline = Unix.gettimeofday () +. 15.0 in
    let up () =
      Sys.file_exists (sock i)
      &&
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | fd ->
        let ok = try Unix.connect fd (Unix.ADDR_UNIX (sock i)); true with Unix.Unix_error _ -> false in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ok
      | exception Unix.Unix_error _ -> false
    in
    let rec go () =
      if up () then ()
      else if Unix.gettimeofday () > deadline then begin
        Format.eprintf "gbcd: backend %d did not come up on %s@." i (sock i);
        reap ();
        exit 2
      end
      else begin
        Unix.sleepf 0.05;
        go ()
      end
    in
    go ()
  in
  List.iter wait_backend (List.init fleet Fun.id);
  let rcfg =
    { Gbc.Router.host;
      port = (if no_tcp then None else Some port);
      unix_path;
      backlog = 64;
      backends = List.init fleet (fun i -> Gbc.Client.Uds (sock i));
      vnodes = 100;
      max_frame;
      connect_timeout = Some 5.0 }
  in
  match Gbc.Router.create rcfg with
  | Error msg ->
    Format.eprintf "gbcd: %s@." msg;
    reap ();
    exit 2
  | Ok rt ->
    let drain _ = Gbc.Router.shutdown rt in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain) with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle drain) with Invalid_argument _ -> ());
    Format.printf "gbcd: fleet of %d backend(s) under %s@." fleet dir;
    Option.iter
      (fun p -> Format.printf "gbcd: routing on %s:%d@." host p)
      (Gbc.Router.port rt);
    Option.iter (fun p -> Format.printf "gbcd: routing on %s@?" p) unix_path;
    Gbc.Router.run rt;
    reap ();
    Format.printf "gbcd: fleet drained, goodbye@."

let serve host port no_tcp unix_path workers default_timeout max_facts max_steps
    max_candidates max_jobs max_frame cache_capacity data_dir fsync snapshot_every
    idle_timeout fleet =
  if fleet > 0 then
    serve_fleet host port no_tcp unix_path workers default_timeout max_facts max_steps
      max_candidates max_jobs max_frame cache_capacity data_dir fsync snapshot_every
      idle_timeout fleet
  else
  let fsync =
    match Gbc.Wal.fsync_policy_of_string fsync with
    | Ok p -> p
    | Error msg ->
      Format.eprintf "gbcd: %s@." msg;
      exit 2
  in
  let cfg =
    { Gbc.Server.host;
      port = (if no_tcp then None else Some port);
      unix_path;
      backlog = 64;
      workers = max 1 workers;
      default_timeout_s = (if default_timeout > 0.0 then Some default_timeout else None);
      max_facts;
      max_steps;
      max_candidates;
      max_jobs = max 1 max_jobs;
      max_frame;
      cache_capacity;
      data_dir;
      fsync;
      snapshot_every = max 0 snapshot_every;
      idle_timeout_s = (if idle_timeout > 0.0 then Some idle_timeout else None);
      worker_fault =
        (* undocumented, tests only: kill the worker handling the k-th request *)
        Option.bind (Sys.getenv_opt "GBCD_WORKER_FAULT") int_of_string_opt }
  in
  match Gbc.Server.create cfg with
  | Error msg ->
    Format.eprintf "gbcd: %s@." msg;
    exit 2
  | Ok srv ->
    let drain _ = Gbc.Server.shutdown srv in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain) with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle drain) with Invalid_argument _ -> ());
    Option.iter
      (fun p -> Format.printf "gbcd: listening on %s:%d@." cfg.Gbc.Server.host p)
      (Gbc.Server.port srv);
    Option.iter (fun p -> Format.printf "gbcd: listening on %s@." p) unix_path;
    Option.iter
      (fun d ->
        Format.printf "gbcd: durable under %s (fsync %s, snapshot every %d)@." d
          (Gbc.Wal.fsync_policy_to_string cfg.Gbc.Server.fsync)
          cfg.Gbc.Server.snapshot_every)
      data_dir;
    Format.printf "gbcd: %d worker(s), default timeout %s@?"
      cfg.Gbc.Server.workers
      (match cfg.Gbc.Server.default_timeout_s with
       | Some s -> Printf.sprintf "%gs" s
       | None -> "none");
    Gbc.Server.run srv;
    Format.printf "gbcd: drained, goodbye@."

let serve_term =
  Term.(const serve $ host_arg $ port_arg $ no_tcp_arg $ unix_arg $ workers_arg
        $ default_timeout_arg $ max_facts_arg $ max_steps_arg $ max_candidates_arg
        $ max_jobs_arg $ max_frame_arg $ cache_arg $ data_dir_arg $ fsync_arg
        $ snapshot_every_arg $ idle_timeout_arg $ fleet_arg)

let serve_doc =
  "Serve programs over the gbcd wire protocol: a worker pool of OCaml domains, \
   per-connection sessions with copy-on-write isolation, a compiled-program cache, \
   and a per-request resource governor.  With $(b,--data-dir) sessions are durable: \
   write-ahead logged, snapshotted, and recovered on restart.  SIGINT/SIGTERM (or a \
   client's shutdown frame) drain gracefully."
