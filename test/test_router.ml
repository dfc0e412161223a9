(* gbc-router end to end: the consistent-hash ring in isolation, then
   an in-process router over in-process backends, then a real gbcd
   child killed mid-request, then a spawned `--fleet` daemon.

   Covers the acceptance criteria for the router:
   - the ring is deterministic, roughly balanced, and removing a
     member only moves the keys that member owned;
   - models served through the router are byte-identical to
     single-shot evaluation for all 13 exemplar programs;
   - composite session ids: [Attach None] reports an id that a fresh
     connection can reclaim through the router, and the id names the
     owning backend;
   - the router answers [stats] itself with its forwarding counters;
   - shutdown drains gracefully (Bye, then the router's run returns);
   - a backend dying with a pipelined window in flight gets each
     request answered with a server-error frame, once, not silence;
   - so does a backend whose reply cannot be decoded. *)

open Gbc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let exemplars =
  [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl";
    "matching.dl"; "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl";
    "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]

let source name = read_file ("../programs/" ^ name)

let local_model name =
  Format.asprintf "%a" Database.pp (Stage_engine.model (Parser.parse_program (source name)))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* crude but sufficient for the router's flat stats JSON *)
let int_field json key =
  let marker = "\"" ^ key ^ "\":" in
  let rec find i =
    if i + String.length marker > String.length json then
      Alcotest.fail (key ^ " not in " ^ json)
    else if String.sub json i (String.length marker) = marker then i + String.length marker
    else find (i + 1)
  in
  let start = ref (find 0) in
  while !start < String.length json && json.[!start] = ' ' do
    incr start
  done;
  let start = !start in
  let stop = ref start in
  while
    !stop < String.length json
    && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub json start (!stop - start))

(* ---------------- fixtures ---------------- *)

let sock_counter = ref 0

let fresh_sock tag =
  incr sock_counter;
  Printf.sprintf "gbcr_%s_%d_%d.sock" tag (Unix.getpid ()) !sock_counter

(* [n] in-process gbcd backends, each on its own Unix socket *)
let with_backends ?(n = 2) ?(workers = 2) f =
  let rec go acc k =
    if k = 0 then f (List.rev acc)
    else begin
      let path = fresh_sock "b" in
      let cfg = { Server.default_config with port = None; unix_path = Some path; workers } in
      match Server.create cfg with
      | Error msg -> Alcotest.fail ("backend create: " ^ msg)
      | Ok srv ->
        let runner = Domain.spawn (fun () -> Server.run srv) in
        Fun.protect
          ~finally:(fun () ->
            Server.shutdown srv;
            Domain.join runner;
            (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()))
          (fun () -> go (path :: acc) (k - 1))
    end
  in
  go [] n

let router_config path backends =
  { Router.default_config with
    port = None;
    unix_path = Some path;
    backends = List.map (fun p -> Client.Uds p) backends;
    connect_timeout = Some 2.0 }

let with_router backends f =
  let path = fresh_sock "r" in
  match Router.create (router_config path backends) with
  | Error msg -> Alcotest.fail ("router create: " ^ msg)
  | Ok rt ->
    let runner = Domain.spawn (fun () -> Router.run rt) in
    Fun.protect
      ~finally:(fun () ->
        Router.shutdown rt;
        Domain.join runner;
        (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()))
      (fun () -> f path)

let rec connect ?(tries = 50) path =
  match Client.connect_unix path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
    Unix.sleepf 0.02;
    connect ~tries:(tries - 1) path

let with_conn path f =
  let c = connect path in
  Client.set_recv_deadline c (Some 30.0);
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let expect_loaded = function
  | Protocol.Loaded _ -> ()
  | Protocol.Error { message; _ } -> Alcotest.fail ("load failed: " ^ message)
  | _ -> Alcotest.fail "expected a Loaded frame"

let expect_model = function
  | Protocol.Model { complete; text; _ } ->
    Alcotest.(check bool) "model complete" true complete;
    text
  | Protocol.Error { message; _ } -> Alcotest.fail ("run failed: " ^ message)
  | _ -> Alcotest.fail "expected a Model frame"

let run_req =
  Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }

(* ---------------- the ring ---------------- *)

let keys = List.init 10_000 (fun i -> Printf.sprintf "key-%d" i)

let test_ring_balance () =
  let members = [ "alpha"; "beta"; "gamma" ] in
  let ring = Router.Ring.create members in
  let counts = Hashtbl.create 3 in
  List.iter
    (fun k ->
      let m = Router.Ring.lookup ring k in
      Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
    keys;
  List.iter
    (fun m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts m) in
      if n < 1_500 then
        Alcotest.failf "member %s owns only %d of 10000 keys — ring is badly skewed" m n)
    members;
  (* placement is a pure function of the member set *)
  let ring' = Router.Ring.create members in
  List.iter
    (fun k ->
      Alcotest.(check string) ("deterministic " ^ k) (Router.Ring.lookup ring k)
        (Router.Ring.lookup ring' k))
    keys

let test_ring_stability () =
  let ring3 = Router.Ring.create [ "alpha"; "beta"; "gamma" ] in
  let ring2 = Router.Ring.create [ "alpha"; "beta" ] in
  (* dropping gamma must not move any key alpha or beta already owned *)
  List.iter
    (fun k ->
      let owner = Router.Ring.lookup ring3 k in
      if owner <> "gamma" then
        Alcotest.(check string) ("stable " ^ k) owner (Router.Ring.lookup ring2 k))
    keys

(* ---------------- forwarding ---------------- *)

let test_byte_identity () =
  with_backends ~n:2 (fun backs ->
      with_router backs (fun path ->
          (* each exemplar on its own connection, so the ring spreads
             them across both backends *)
          List.iter
            (fun name ->
              with_conn path (fun c ->
                  expect_loaded (Client.rpc c (Protocol.Load (source name)));
                  let text = expect_model (Client.rpc c run_req) in
                  Alcotest.(check string) (name ^ " through router") (local_model name) text))
            exemplars;
          (* the router must have forwarded all of it *)
          with_conn path (fun c ->
              match Client.rpc c Protocol.Stats with
              | Protocol.Stats_json json ->
                Alcotest.(check bool) "router stats" true (contains json "\"router\"");
                let fwd = int_field json "forwarded" in
                if fwd < 2 * List.length exemplars then
                  Alcotest.failf "only %d frames forwarded" fwd
              | _ -> Alcotest.fail "expected Stats_json")))

let test_composite_session () =
  with_backends ~n:2 (fun backs ->
      with_router backs (fun path ->
          let src = "q(X) <- p(X).\np(1).\n" in
          let id =
            with_conn path (fun c ->
                expect_loaded (Client.rpc c (Protocol.Load src));
                (match Client.rpc c (Protocol.Assert_facts { text = "p(2)."; id = None }) with
                 | Protocol.Asserted { added = 1 } -> ()
                 | _ -> Alcotest.fail "assert");
                match Client.rpc c (Protocol.Attach None) with
                | Protocol.Attached { id } -> id
                | _ -> Alcotest.fail "expected Attached")
          in
          (* the composite id names the owning backend *)
          let idx, sid = Router.split_composite id in
          if idx < 0 || idx >= 2 then Alcotest.failf "backend index %d out of range" idx;
          Alcotest.(check int) "composite round-trips" id ((idx * Router.composite_base) + sid);
          (* a brand-new connection reclaims the session through the router *)
          with_conn path (fun c ->
              (match Client.rpc c (Protocol.Attach (Some id)) with
               | Protocol.Attached { id = id' } -> Alcotest.(check int) "same id" id id'
               | Protocol.Error { message; _ } -> Alcotest.fail ("re-attach: " ^ message)
               | _ -> Alcotest.fail "expected Attached");
              let text = expect_model (Client.rpc c run_req) in
              Alcotest.(check bool) "asserted fact survived" true (contains text "q(2)"))))

let test_drain () =
  with_backends ~n:1 (fun backs ->
      let path = fresh_sock "r" in
      match Router.create (router_config path backs) with
      | Error msg -> Alcotest.fail ("router create: " ^ msg)
      | Ok rt ->
        let runner = Domain.spawn (fun () -> Router.run rt) in
        Fun.protect
          ~finally:(fun () ->
            Router.shutdown rt;
            Domain.join runner;
            (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()))
          (fun () ->
            with_conn path (fun c ->
                (* warm a backend link first, so the drain has one to close *)
                (match Client.rpc c Protocol.Ping with
                 | Protocol.Pong -> ()
                 | _ -> Alcotest.fail "expected Pong");
                match Client.rpc c Protocol.Shutdown with
                | Protocol.Bye -> ()
                | _ -> Alcotest.fail "expected Bye");
            (* run must come home on its own — the Fun.protect join
               would hang here if the drain never finished *)
            Domain.join runner))

(* ---------------- backend death ---------------- *)

let daemon_exe = "../bin/gbcd.exe"

let spawn_daemon args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      Unix.create_process daemon_exe
        (Array.of_list (daemon_exe :: args))
        Unix.stdin devnull Unix.stderr)

(* Raw enveloped traffic, so a test can keep many ids in flight and
   see every reply exactly as the router sent it. *)
let raw_send fd frames =
  let bytes = String.concat "" frames in
  let rec go off =
    if off < String.length bytes then
      go (off + Unix.write_substring fd bytes off (String.length bytes - off))
  in
  go 0

let rec raw_reply fd pending =
  match Protocol.extract_frame (Buffer.contents pending) 0 with
  | Protocol.Frame (body, next) -> (
    let rest = Buffer.contents pending in
    Buffer.clear pending;
    Buffer.add_string pending (String.sub rest next (String.length rest - next));
    match Protocol.decode_response_v2 body with
    | Ok reply -> reply
    | Error msg -> Alcotest.fail ("undecodable reply: " ^ msg))
  | Protocol.Bad_length n -> Alcotest.failf "reply with frame length %d" n
  | Protocol.Need_more ->
    let chunk = Bytes.create 4096 in
    let n = Unix.read fd chunk 0 4096 in
    if n = 0 then Alcotest.fail "connection closed before the reply";
    Buffer.add_subbytes pending chunk 0 n;
    raw_reply fd pending

let with_raw path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      f fd (Buffer.create 256))

let pings rids = List.map (fun rid -> Protocol.encode_request_v2 ~rid Protocol.Ping) rids

let test_backend_death () =
  let sock = fresh_sock "bd" in
  let pid = spawn_daemon [ "--no-tcp"; "--unix"; sock; "--workers"; "1" ] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ()))
    (fun () ->
      (* wait for the daemon to come up *)
      let probe = connect ~tries:150 sock in
      Client.close probe;
      with_router [ sock ] (fun path ->
          with_raw path (fun fd pending ->
              raw_send fd (pings [ 100 ]);
              (match raw_reply fd pending with
               | Some 100, Protocol.Pong -> ()
               | _ -> Alcotest.fail "expected Pong");
              (* freeze the backend, pipeline a window it can never
                 answer (eight ids, sent out of order, and a bare frame),
                 then kill it: the router must answer every orphan with
                 a server-error frame, once, ids ascending, bare last *)
              let window = [ 3; 1; 4; 8; 5; 2; 7; 6 ] in
              Unix.kill pid Sys.sigstop;
              raw_send fd (pings window @ [ Protocol.encode_request Protocol.Ping ]);
              Unix.sleepf 0.2;
              Unix.kill pid Sys.sigkill;
              let expected = List.init 8 (fun i -> Some (i + 1)) @ [ None ] in
              let answered =
                List.map
                  (fun _ ->
                    match raw_reply fd pending with
                    | rid, Protocol.Error { code = Protocol.Server_error; message } ->
                      Alcotest.(check bool) "message names the death" true
                        (contains message "backend died");
                      rid
                    | _, Protocol.Error { message; _ } ->
                      Alcotest.fail ("wrong error code: " ^ message)
                    | _ -> Alcotest.fail "expected a server-error frame")
                  expected
              in
              Alcotest.(check (list (option int))) "every orphan answered once, in order" expected
                answered;
              (* no orphan is answered twice: the next reply is the next
                 request's (the backend is gone, so it cannot be reached) *)
              raw_send fd (pings [ 9 ]);
              match raw_reply fd pending with
              | Some 9, Protocol.Error { code = Protocol.Server_error; _ } -> ()
              | Some rid, _ -> Alcotest.failf "reply for id %d, expected 9" rid
              | None, _ -> Alcotest.fail "bare reply")))

(* A backend whose reply cannot be decoded (an envelope tag with no id
   after it) is treated like a dead one: the request in flight is
   answered with server-error and the stats mark the backend dead. *)
let with_garbage_backend f =
  let path = fresh_sock "gb" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let serve () =
    match Unix.select [ lfd ] [] [] 30.0 with
    | [], _, _ -> ()
    | _ ->
      let fd, _ = Unix.accept lfd in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      let buf = Bytes.create 4096 in
      let rec answer () =
        match Unix.read fd buf 0 4096 with
        | 0 -> ()
        | _ ->
          ignore (Unix.write_substring fd "\x00\x00\x00\x01\x7f" 0 5);
          answer ()
      in
      (try answer () with Unix.Unix_error _ -> ());
      Unix.close fd
  in
  let server = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close lfd;
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f path)

let test_undecodable_reply () =
  with_garbage_backend (fun back ->
      with_router [ back ] (fun path ->
          with_conn path (fun c ->
              (match Client.rpc c Protocol.Ping with
               | Protocol.Error { code = Protocol.Server_error; message } ->
                 Alcotest.(check bool) "message names the bad reply" true
                   (contains message "undecodable reply")
               | _ -> Alcotest.fail "expected a server-error frame");
              match Client.rpc c Protocol.Stats with
              | Protocol.Stats_json json ->
                Alcotest.(check bool) "backend marked dead" true (contains json "\"alive\": false");
                Alcotest.(check int) "nothing left in flight" 0 (int_field json "inflight")
              | _ -> Alcotest.fail "expected Stats_json")))

(* ---------------- gbcd --fleet ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let test_fleet () =
  let sock = fresh_sock "fl" in
  let dir = Printf.sprintf "gbcr_fleet_%d.data" (Unix.getpid ()) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let pid =
    spawn_daemon
      [ "--fleet"; "2"; "--no-tcp"; "--unix"; sock; "--workers"; "1"; "--data-dir"; dir ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
      rm_rf dir)
    (fun () ->
      (* fleet startup spawns two children before listening *)
      let c = connect ~tries:400 sock in
      Client.set_recv_deadline c (Some 30.0);
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.rpc c Protocol.Ping with
           | Protocol.Pong -> ()
           | _ -> Alcotest.fail "expected Pong");
          expect_loaded (Client.rpc c (Protocol.Load (source "prim.dl")));
          let text = expect_model (Client.rpc c run_req) in
          Alcotest.(check string) "prim.dl through the fleet" (local_model "prim.dl") text;
          (match Client.rpc c Protocol.Stats with
           | Protocol.Stats_json json ->
             Alcotest.(check bool) "fleet stats are the router's" true
               (contains json "\"router\"");
             Alcotest.(check bool) "two backend rows" true (contains json "\"backends\"")
           | _ -> Alcotest.fail "expected Stats_json");
          match Client.rpc c Protocol.Shutdown with
          | Protocol.Bye -> ()
          | _ -> Alcotest.fail "expected Bye");
      (* the whole fleet — router and both children — must wind down *)
      let rec wait tries =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when tries > 0 ->
          Unix.sleepf 0.05;
          wait (tries - 1)
        | 0, _ -> Alcotest.fail "fleet did not exit after shutdown"
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> Alcotest.fail "fleet exited abnormally"
      in
      wait 200)

let () =
  Alcotest.run "router"
    [ ("ring",
       [ Alcotest.test_case "10k keys spread over 3 members" `Quick test_ring_balance;
         Alcotest.test_case "removing a member strands no keys" `Quick test_ring_stability ]);
      ("forwarding",
       [ Alcotest.test_case "13 exemplars byte-identical through the router" `Slow
           test_byte_identity;
         Alcotest.test_case "composite session ids reclaim across connections" `Quick
           test_composite_session;
         Alcotest.test_case "shutdown drains and run returns" `Quick test_drain ]);
      ("failure",
       [ Alcotest.test_case "backend death orphans answered with server-error" `Quick
           test_backend_death;
         Alcotest.test_case "undecodable backend reply answered with server-error" `Quick
           test_undecodable_reply ]);
      ("fleet",
       [ Alcotest.test_case "gbcd --fleet 2 serves and drains" `Slow test_fleet ]) ]
