(* gbcd end to end: an in-process server on a Unix-domain socket,
   exercised by real client connections.

   Covers the acceptance criteria for the daemon:
   - models served over the wire are byte-identical to single-shot
     evaluation, including under 8 concurrent sessions replaying all
     13 exemplar programs against a 4-worker pool;
   - two sessions loading the same cached program and asserting
     different facts get disjoint models (copy-on-write isolation);
   - budget exhaustion returns a structured partial frame and the
     connection stays usable;
   - malformed bytes get a structured error frame, not a dropped
     connection or a crash;
   - shutdown drains gracefully (Bye, then the server's run returns). *)

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

(* ---------------- in-process server fixture ---------------- *)

let sock_counter = ref 0

let with_server ?(workers = 4) ?default_timeout_s ?max_facts ?(max_jobs = 1) ?worker_fault
    ?idle_timeout_s f =
  incr sock_counter;
  let path = Printf.sprintf "gbcd_test_%d_%d.sock" (Unix.getpid ()) !sock_counter in
  let cfg =
    { Server.default_config with
      port = None;
      unix_path = Some path;
      workers;
      default_timeout_s;
      max_facts;
      max_jobs;
      worker_fault;
      idle_timeout_s }
  in
  match Server.create cfg with
  | Error msg -> Alcotest.fail ("server create: " ^ msg)
  | Ok srv ->
    let runner = Domain.spawn (fun () -> Server.run srv) in
    Fun.protect
      ~finally:(fun () ->
        Server.shutdown srv;
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
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* inline records cannot escape their constructor, so project to tuples *)
let expect_loaded = function
  | Protocol.Loaded { clauses; cache_hit; digest; stage_stratified } ->
    (clauses, cache_hit, digest, stage_stratified)
  | Protocol.Error { message; _ } -> Alcotest.fail ("load failed: " ^ message)
  | _ -> Alcotest.fail "expected a Loaded frame"

let expect_model = function
  | Protocol.Model { complete; text; diagnostic } -> (complete, text, diagnostic)
  | Protocol.Error { message; _ } -> Alcotest.fail ("run failed: " ^ message)
  | _ -> Alcotest.fail "expected a Model frame"

let run_req =
  Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }

let assert_req text = Protocol.Assert_facts { text; id = None }
let retract_req text = Protocol.Retract_facts { text; id = None }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* single-shot reference output, same rendering as the server's *)
let local_model name =
  Format.asprintf "%a" Database.pp (Stage_engine.model (Parser.parse_program (source name)))

(* ---------------- basics ---------------- *)

let test_ping () =
  with_server (fun path ->
      with_conn path (fun c ->
          match Client.rpc c Protocol.Ping with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong"))

let test_run_matches_single_shot () =
  with_server (fun path ->
      with_conn path (fun c ->
          List.iter
            (fun name ->
              let _ = expect_loaded (Client.rpc c (Protocol.Load (source name))) in
              let complete, text, _ = expect_model (Client.rpc c run_req) in
              Alcotest.(check bool) (name ^ " complete") true complete;
              Alcotest.(check string) (name ^ " model") (local_model name) text)
            [ "example1.dl"; "prim.dl"; "transitive_closure.dl" ]))

let test_cache_hit () =
  with_server (fun path ->
      let src = source "prim.dl" in
      with_conn path (fun c1 ->
          let _, hit1, digest1, _ = expect_loaded (Client.rpc c1 (Protocol.Load src)) in
          Alcotest.(check bool) "first load is a miss" false hit1;
          with_conn path (fun c2 ->
              let _, hit2, digest2, _ = expect_loaded (Client.rpc c2 (Protocol.Load src)) in
              Alcotest.(check bool) "second load hits" true hit2;
              Alcotest.(check string) "same digest" digest1 digest2)))

let test_run_without_load () =
  with_server (fun path ->
      with_conn path (fun c ->
          match Client.rpc c run_req with
          | Protocol.Error { code = Protocol.No_program; _ } -> ()
          | _ -> Alcotest.fail "expected a No_program error"))

(* ---------------- session isolation ---------------- *)

(* two sessions share one cached program, assert different facts, and
   must see disjoint models — the copy-on-write snapshot is the
   isolation boundary *)
let test_session_isolation () =
  with_server (fun path ->
      let src = "path(X, Y) <- edge(X, Y).\npath(X, Z) <- path(X, Y), edge(Y, Z).\nedge(1, 2).\n" in
      with_conn path (fun c1 ->
          with_conn path (fun c2 ->
              let _, _, digest1, _ = expect_loaded (Client.rpc c1 (Protocol.Load src)) in
              let _, hit2, digest2, _ = expect_loaded (Client.rpc c2 (Protocol.Load src)) in
              Alcotest.(check string) "shared entry" digest1 digest2;
              Alcotest.(check bool) "second session hit the cache" true hit2;
              (match Client.rpc c1 (assert_req "edge(2, 31).") with
               | Protocol.Asserted { added = 1 } -> ()
               | _ -> Alcotest.fail "assert in session 1");
              (match Client.rpc c2 (assert_req "edge(2, 32).") with
               | Protocol.Asserted { added = 1 } -> ()
               | _ -> Alcotest.fail "assert in session 2");
              let _, m1, _ = expect_model (Client.rpc c1 run_req) in
              let _, m2, _ = expect_model (Client.rpc c2 run_req) in
              Alcotest.(check bool) "s1 sees its own fact" true (contains m1 "path(1, 31)");
              Alcotest.(check bool) "s1 does not see s2's fact" false (contains m1 "path(1, 32)");
              Alcotest.(check bool) "s2 sees its own fact" true (contains m2 "path(1, 32)");
              Alcotest.(check bool) "s2 does not see s1's fact" false (contains m2 "path(1, 31)"))))

let test_retract () =
  with_server (fun path ->
      with_conn path (fun c ->
          let src = "q(X) <- p(X).\np(1).\n" in
          let _ = expect_loaded (Client.rpc c (Protocol.Load src)) in
          (match Client.rpc c (assert_req "p(2). p(3).") with
           | Protocol.Asserted { added = 2 } -> ()
           | _ -> Alcotest.fail "assert two");
          (match Client.rpc c (retract_req "p(3).") with
           | Protocol.Retracted { removed = 1 } -> ()
           | _ -> Alcotest.fail "retract one");
          (* the program's own facts are not retractable: the batch is
             refused as a whole, and nothing changes *)
          (match Client.rpc c (retract_req "p(1).") with
           | Protocol.Error { code = Protocol.Not_retractable; _ } -> ()
           | _ -> Alcotest.fail "program facts must survive retraction");
          (* neither is a fact the session never asserted *)
          (match Client.rpc c (retract_req "p(99).") with
           | Protocol.Error { code = Protocol.Not_retractable; _ } -> ()
           | _ -> Alcotest.fail "never-asserted facts are not retractable");
          (* ... nor one already retracted *)
          (match Client.rpc c (retract_req "p(3).") with
           | Protocol.Error { code = Protocol.Not_retractable; _ } -> ()
           | _ -> Alcotest.fail "double retract must fail");
          (* multiset semantics: a double assert takes two retracts *)
          (match Client.rpc c (assert_req "p(2).") with
           | Protocol.Asserted { added = 0 } -> ()
           | _ -> Alcotest.fail "re-assert records an occurrence, adds no row");
          (match Client.rpc c (retract_req "p(2).") with
           | Protocol.Retracted { removed = 1 } -> ()
           | _ -> Alcotest.fail "first retract of a doubly-asserted fact");
          let _, text, _ = expect_model (Client.rpc c run_req) in
          Alcotest.(check string) "model after retract" "p(1).\np(2).\nq(1).\nq(2).\n" text;
          (match Client.rpc c (retract_req "p(2).") with
           | Protocol.Retracted { removed = 1 } -> ()
           | _ -> Alcotest.fail "second retract removes the row");
          let _, text, _ = expect_model (Client.rpc c run_req) in
          Alcotest.(check string) "model after final retract" "p(1).\nq(1).\n" text))

(* ---------------- governance ---------------- *)

let test_budget_partial_keeps_connection () =
  with_server (fun path ->
      with_conn path (fun c ->
          let _ = expect_loaded (Client.rpc c (Protocol.Load (source "adversarial_nat.dl"))) in
          let budget =
            { Protocol.no_budget with Protocol.max_facts = Some 50 }
          in
          let complete, _, diagnostic =
            expect_model
              (Client.rpc c
                 (Protocol.Run
                    { engine = Protocol.Staged; seed = None; preds = None; budget }))
          in
          Alcotest.(check bool) "partial" false complete;
          (match diagnostic with
           | Some d -> Alcotest.(check bool) "diagnostic names the budget" true
                         (String.length d > 0)
           | None -> Alcotest.fail "partial model must carry diagnostics");
          (* the connection survives the exhausted budget *)
          match Client.rpc c Protocol.Ping with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "connection must stay usable after a partial"))

let test_server_side_cap () =
  (* the server's own cap applies even when the client asks for nothing *)
  with_server ~max_facts:50 (fun path ->
      with_conn path (fun c ->
          let _ = expect_loaded (Client.rpc c (Protocol.Load (source "adversarial_nat.dl"))) in
          let complete, _, _ = expect_model (Client.rpc c run_req) in
          Alcotest.(check bool) "server cap produced a partial" false complete))

(* ---------------- protocol robustness over the wire ---------------- *)

let test_malformed_frame_gets_error () =
  with_server (fun path ->
      with_conn path (fun c ->
          (* valid length prefix, garbage payload: unknown tag 0x7f *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let raw = Client.connect_fd fd in
          let frame = "\x00\x00\x00\x01\x7f" in
          let _ = Unix.write_substring fd frame 0 (String.length frame) in
          (match Client.recv raw with
           | Protocol.Error { code = Protocol.Protocol_violation; _ } -> ()
           | _ -> Alcotest.fail "garbage must come back as Protocol_violation");
          Client.close raw;
          (* ... and the rest of the server is unaffected *)
          match Client.rpc c Protocol.Ping with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "server must survive a malformed client"))

let test_query_and_enumerate () =
  with_server (fun path ->
      with_conn path (fun c ->
          let _ = expect_loaded (Client.rpc c (Protocol.Load (source "example1.dl"))) in
          (match
             Client.rpc c
               (Protocol.Query
                  { engine = Protocol.Staged; text = "a_st(X, Y)"; budget = Protocol.no_budget })
           with
           | Protocol.Answers { complete = true; vars = [ "X"; "Y" ]; rows } ->
             Alcotest.(check bool) "some answers" true (rows <> [])
           | _ -> Alcotest.fail "expected Answers");
          match Client.rpc c (Protocol.Enumerate { max_models = 50; preds = None }) with
          | Protocol.Model_set { total; models } ->
            Alcotest.(check int) "one model per listed text" total (List.length models);
            Alcotest.(check bool) "at least one model" true (total >= 1)
          | Protocol.Error { message; _ } -> Alcotest.fail ("enumerate: " ^ message)
          | _ -> Alcotest.fail "expected Model_set"))

(* An integer literal wider than an OCaml int is a lexical error with a
   position, not an internal failure; the printed [min_int] loads. *)
let test_out_of_range_literal () =
  with_server (fun path ->
      with_conn path (fun c ->
          (match Client.rpc c (Protocol.Load "n(4611686018427387904).") with
          | Protocol.Error { code = Protocol.Lex_error; message } ->
            Alcotest.(check string) "message"
              "lexical error at line 1, column 3: integer literal out of range: 4611686018427387904"
              message
          | _ -> Alcotest.fail "expected a lex-error frame");
          let _ = expect_loaded (Client.rpc c (Protocol.Load "n(-4611686018427387904).")) in
          let _, text, _ = expect_model (Client.rpc c run_req) in
          Alcotest.(check string) "min_int reads back" "n(-4611686018427387904).\n" text))

let test_stats () =
  with_server (fun path ->
      with_conn path (fun c ->
          let _ = Client.rpc c Protocol.Ping in
          match Client.rpc c Protocol.Stats with
          | Protocol.Stats_json json ->
            Alcotest.(check bool) "has requests" true (contains json "\"requests\"");
            Alcotest.(check bool) "has cache" true (contains json "\"cache\"");
            Alcotest.(check bool) "has session" true (contains json "\"session\"")
          | _ -> Alcotest.fail "expected Stats_json"))

(* pull the integer following "key": out of a stats json blob *)
let int_field json key =
  let marker = "\"" ^ key ^ "\": " in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length json then Alcotest.fail ("stats json lacks " ^ key)
    else if String.sub json i mlen = marker then i + mlen
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < String.length json
    && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub json start (!stop - start))

(* The program cache's hit/miss/eviction counters must surface in the
   stats frame: a second load of the same source from another session
   is a hit, a different source is another miss. *)
let test_cache_counters_in_stats () =
  with_server (fun path ->
      let src = source "prim.dl" in
      with_conn path (fun c1 ->
          let _ = expect_loaded (Client.rpc c1 (Protocol.Load src)) in
          with_conn path (fun c2 ->
              let _ = expect_loaded (Client.rpc c2 (Protocol.Load src)) in
              let _ = expect_loaded (Client.rpc c2 (Protocol.Load (source "sorting.dl"))) in
              match Client.rpc c2 Protocol.Stats with
              | Protocol.Stats_json json ->
                Alcotest.(check bool) "hits >= 1" true (int_field json "hits" >= 1);
                Alcotest.(check bool) "misses >= 2" true (int_field json "misses" >= 2);
                Alcotest.(check bool) "evictions >= 0" true (int_field json "evictions" >= 0);
                Alcotest.(check bool) "entries >= 2" true (int_field json "entries" >= 2)
              | _ -> Alcotest.fail "expected Stats_json")))

(* ---------------- sessions: attach / reclaim ---------------- *)

let expect_attached = function
  | Protocol.Attached { id } -> id
  | Protocol.Error { message; _ } -> Alcotest.fail ("attach failed: " ^ message)
  | _ -> Alcotest.fail "expected an Attached frame"

(* A session marked attachable survives its connection: a later client
   reclaims it by id and sees the same program and facts. *)
let test_attach_reclaim () =
  with_server (fun path ->
      let src = "q(X) <- p(X).\np(1).\n" in
      let id =
        with_conn path (fun c ->
            let _ = expect_loaded (Client.rpc c (Protocol.Load src)) in
            (match Client.rpc c (assert_req "p(7).") with
             | Protocol.Asserted { added = 1 } -> ()
             | _ -> Alcotest.fail "assert");
            expect_attached (Client.rpc c (Protocol.Attach None)))
      in
      with_conn path (fun c ->
          let id' = expect_attached (Client.rpc c (Protocol.Attach (Some id))) in
          Alcotest.(check int) "same session id" id id';
          let _, text, _ = expect_model (Client.rpc c run_req) in
          Alcotest.(check string) "state survived the reconnect"
            "p(1).\np(7).\nq(1).\nq(7).\n" text);
      (* an id nobody ever held is a permanent, structured answer *)
      with_conn path (fun c ->
          match Client.rpc c (Protocol.Attach (Some 424242)) with
          | Protocol.Error { code = Protocol.No_session; _ } -> ()
          | _ -> Alcotest.fail "expected No_session"))

(* A replayed mutation (same request id) is answered from the recorded
   result, not applied twice — the exactly-once contract the resilient
   client relies on after a broken connection. *)
let test_exactly_once_replay () =
  with_server (fun path ->
      with_conn path (fun c ->
          let _ = expect_loaded (Client.rpc c (Protocol.Load "q(X) <- p(X).\np(1).\n")) in
          let req = Protocol.Assert_facts { text = "p(5)."; id = Some 42 } in
          (match Client.rpc c req with
           | Protocol.Asserted { added = 1 } -> ()
           | _ -> Alcotest.fail "first assert");
          (match Client.rpc c req with
           | Protocol.Asserted { added = 1 } -> ()  (* the recorded result, replayed *)
           | _ -> Alcotest.fail "replay must echo the recorded result");
          (* one retract empties it: the occurrence was recorded once *)
          (match Client.rpc c (retract_req "p(5).") with
           | Protocol.Retracted { removed = 1 } -> ()
           | _ -> Alcotest.fail "retract");
          match Client.rpc c (retract_req "p(5).") with
          | Protocol.Error { code = Protocol.Not_retractable; _ } -> ()
          | _ -> Alcotest.fail "the deduped replay must not have added a second occurrence"))

(* ---------------- supervision ---------------- *)

(* An exception escaping a worker domain surfaces as a structured
   error frame on the connection whose request killed it, and the pool
   respawns the worker — the next request is served normally. *)
let test_worker_supervision () =
  with_server ~workers:2 ~worker_fault:1 (fun path ->
      with_conn path (fun c ->
          (match Client.rpc c Protocol.Ping with
           | Protocol.Error { code = Protocol.Server_error; _ } -> ()
           | _ -> Alcotest.fail "the injected fault must surface as a structured error");
          (match Client.rpc c Protocol.Ping with
           | Protocol.Pong -> ()
           | _ -> Alcotest.fail "expected Pong from the respawned pool");
          match Client.rpc c Protocol.Stats with
          | Protocol.Stats_json json ->
            Alcotest.(check bool) "respawn counted" true
              (int_field json "workers_respawned" >= 1)
          | _ -> Alcotest.fail "expected Stats_json"))

(* Clients hanging up mid-frame (torn length prefix, torn payload)
   must not leak connection slots or descriptors. *)
let test_midframe_disconnect () =
  with_server (fun path ->
      for i = 0 to 19 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        let torn =
          match i mod 3 with
          | 0 -> "\x00\x00"                  (* half a length prefix *)
          | 1 -> "\x00\x00\x01\x00\x02\x05"  (* prefix promises 256 bytes, sends 2 *)
          | _ -> "\x00\x00\x00\x05\x10"      (* a fifth of a payload *)
        in
        let _ = Unix.write_substring fd torn 0 (String.length torn) in
        Unix.close fd
      done;
      with_conn path (fun c ->
          let rec settle tries =
            match Client.rpc c Protocol.Stats with
            | Protocol.Stats_json json ->
              let open_conns = int_field json "open_conns" in
              if open_conns = 1 then ()  (* just this stats connection *)
              else if tries = 0 then
                Alcotest.failf "leaked connections: open_conns=%d (want 1)" open_conns
              else begin
                Unix.sleepf 0.05;
                settle (tries - 1)
              end
            | _ -> Alcotest.fail "expected Stats_json"
          in
          settle 40;
          match Client.rpc c Protocol.Ping with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "server must survive mid-frame hangups"))

(* --idle-timeout reaps detached sessions nobody reclaimed; without a
   data dir their state is then truly gone (no-session). *)
let test_idle_reap () =
  with_server ~idle_timeout_s:0.3 (fun path ->
      let id =
        with_conn path (fun c ->
            let _ = expect_loaded (Client.rpc c (Protocol.Load "p(1).\n")) in
            expect_attached (Client.rpc c (Protocol.Attach None)))
      in
      let rec wait tries =
        let reaped =
          with_conn path (fun c ->
              match Client.rpc c Protocol.Stats with
              | Protocol.Stats_json json -> int_field json "sessions_reaped" >= 1
              | _ -> Alcotest.fail "expected Stats_json")
        in
        if reaped then ()
        else if tries = 0 then Alcotest.fail "idle session never reaped"
        else begin
          Unix.sleepf 0.2;
          wait (tries - 1)
        end
      in
      wait 30;
      with_conn path (fun c ->
          match Client.rpc c (Protocol.Attach (Some id)) with
          | Protocol.Error { code = Protocol.No_session; _ } -> ()
          | _ -> Alcotest.fail "a reaped ephemeral session must answer no-session"))

(* A client asking for --jobs gets the same bytes as the sequential
   single-shot run, whether the server grants the parallelism
   (max_jobs 4) or clamps it back to 1 (default config). *)
let test_jobs_request_same_model () =
  let budget = { Protocol.no_budget with Protocol.jobs = Some 4 } in
  let req =
    Protocol.Run { engine = Protocol.Reference; seed = None; preds = None; budget }
  in
  let expected =
    Format.asprintf "%a" Database.pp
      (Choice_fixpoint.model (Parser.parse_program (source "prim.dl")))
  in
  List.iter
    (fun max_jobs ->
      with_server ~max_jobs (fun path ->
          with_conn path (fun c ->
              let _ = expect_loaded (Client.rpc c (Protocol.Load (source "prim.dl"))) in
              let complete, text, _ = expect_model (Client.rpc c req) in
              Alcotest.(check bool) "complete" true complete;
              Alcotest.(check string)
                (Printf.sprintf "model at max_jobs=%d" max_jobs)
                expected text)))
    [ 1; 4 ]

(* ---------------- pipelining ---------------- *)

let with_pipeline path f =
  let r = Client.resilient (Client.Uds path) in
  let p = Client.Pipeline.create r in
  Fun.protect ~finally:(fun () -> Client.Pipeline.close p) (fun () -> f p)

(* Many requests on the wire at once, replies matched by envelope id:
   the served models must still be byte-identical to single-shot
   evaluation. *)
let test_pipeline_byte_identity () =
  with_server ~workers:2 (fun path ->
      with_pipeline path (fun p ->
          List.iter
            (fun name ->
              let rid_load = Client.Pipeline.submit p (Protocol.Load (source name)) in
              let rid_run = Client.Pipeline.submit p run_req in
              let replies = Client.Pipeline.drain p in
              (match List.assoc rid_load replies with
              | Protocol.Loaded _ -> ()
              | _ -> Alcotest.fail (name ^ ": expected Loaded"));
              match List.assoc rid_run replies with
              | Protocol.Model { complete = true; text; _ } ->
                Alcotest.(check string) (name ^ " model") (local_model name) text
              | _ -> Alcotest.fail (name ^ ": expected a complete Model"))
            [ "example1.dl"; "prim.dl"; "huffman.dl" ]))

(* An enveloped Ping genuinely overtakes a long evaluation in flight on
   the same connection: out-of-order completion is real, not cosmetic. *)
let test_pipeline_out_of_order () =
  with_server ~workers:2 (fun path ->
      with_pipeline path (fun p ->
          let _ = Client.Pipeline.submit p (Protocol.Load (source "adversarial_nat.dl")) in
          ignore (Client.Pipeline.drain p);
          let budget = { Protocol.no_budget with Protocol.timeout_ms = Some 1000 } in
          let slow =
            Client.Pipeline.submit p
              (Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget })
          in
          let ping = Client.Pipeline.submit p Protocol.Ping in
          let first_rid, first = Client.Pipeline.await p in
          Alcotest.(check int) "the ping's reply arrives first" ping first_rid;
          (match first with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          match Client.Pipeline.drain p with
          | [ (rid, Protocol.Model _) ] ->
            Alcotest.(check int) "the slow run still completes" slow rid
          | _ -> Alcotest.fail "expected the run's Model frame"))

(* The pipelining telemetry surfaces in stats: in-flight depth, its
   p99, and the queue-wait histogram. *)
let test_pipeline_stats () =
  with_server ~workers:2 (fun path ->
      with_pipeline path (fun p ->
          let _ = Client.Pipeline.submit p (Protocol.Load (source "adversarial_nat.dl")) in
          ignore (Client.Pipeline.drain p);
          let budget = { Protocol.no_budget with Protocol.timeout_ms = Some 300 } in
          let _ =
            Client.Pipeline.submit p
              (Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget })
          in
          let _ = Client.Pipeline.submit p Protocol.Ping in
          ignore (Client.Pipeline.drain p);
          let sid = Client.Pipeline.submit p Protocol.Stats in
          match List.assoc sid (Client.Pipeline.drain p) with
          | Protocol.Stats_json json ->
            Alcotest.(check bool) "inflight_max saw the pipeline" true
              (int_field json "inflight_max" >= 2);
            Alcotest.(check bool) "depth p99 present" true
              (int_field json "pipelined_depth_p99" >= 1);
            Alcotest.(check bool) "queue-wait samples recorded" true
              (int_field json "count" >= 1);
            Alcotest.(check bool) "queue-wait p99 sane" true (int_field json "p99_us" >= 0)
          | _ -> Alcotest.fail "expected Stats_json"))

(* ---------------- bare frames ---------------- *)

(* Every client in this tree sends envelopes, but a blocking client
   without ids (the perfbench driver is one) writes bare frames.  These
   cases speak raw bytes — [Protocol.encode_request] out,
   [Protocol.extract_frame] in — to gbcd directly and through an
   in-process router in front of it. *)

let routed f =
  with_server (fun backend ->
      incr sock_counter;
      let path = Printf.sprintf "gbcr_test_%d_%d.sock" (Unix.getpid ()) !sock_counter in
      let cfg =
        { Router.default_config with
          port = None;
          unix_path = Some path;
          backends = [ Client.Uds backend ] }
      in
      match Router.create cfg with
      | Error msg -> Alcotest.fail ("router create: " ^ msg)
      | Ok rt ->
        let runner = Domain.spawn (fun () -> Router.run rt) in
        Fun.protect
          ~finally:(fun () ->
            Router.shutdown rt;
            Domain.join runner;
            (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()))
          (fun () -> f path))

type raw = { fd : Unix.file_descr; pending : Buffer.t }

let with_raw path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      f { fd; pending = Buffer.create 256 })

let raw_write raw frames =
  let bytes = String.concat "" frames in
  let rec go off =
    if off < String.length bytes then
      go (off + Unix.write_substring raw.fd bytes off (String.length bytes - off))
  in
  go 0

(* The next reply frame's payload, as it came off the wire. *)
let rec raw_frame raw =
  match Protocol.extract_frame (Buffer.contents raw.pending) 0 with
  | Protocol.Frame (body, next) ->
    let rest = Buffer.contents raw.pending in
    Buffer.clear raw.pending;
    Buffer.add_string raw.pending (String.sub rest next (String.length rest - next));
    body
  | Protocol.Bad_length n -> Alcotest.failf "reply with frame length %d" n
  | Protocol.Need_more ->
    let chunk = Bytes.create 4096 in
    let n = Unix.read raw.fd chunk 0 4096 in
    if n = 0 then Alcotest.fail "connection closed before the reply";
    Buffer.add_subbytes raw.pending chunk 0 n;
    raw_frame raw

(* The next reply: [None] when it came back bare, else its envelope id. *)
let raw_read raw =
  match Protocol.decode_response_v2 (raw_frame raw) with
  | Ok reply -> reply
  | Error msg -> Alcotest.fail ("undecodable reply: " ^ msg)

let expect_pong path =
  with_conn path (fun c ->
      match Client.rpc c Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "expected Pong")

let bare req = Protocol.encode_request req

let test_bare_reply target () =
  target (fun path ->
      with_raw path (fun raw ->
          raw_write raw [ bare Protocol.Ping ];
          match raw_read raw with
          | None, Protocol.Pong -> ()
          | Some _, _ -> Alcotest.fail "a bare request got an enveloped reply"
          | None, _ -> Alcotest.fail "expected Pong"))

let test_bare_in_order target () =
  target (fun path ->
      with_raw path (fun raw ->
          raw_write raw
            [ bare Protocol.Ping; bare (Protocol.Load (source "example1.dl")); bare run_req;
              bare Protocol.Ping ];
          let got = List.init 4 (fun _ -> raw_read raw) in
          match got with
          | [ (None, Protocol.Pong); (None, Protocol.Loaded _); (None, Protocol.Model { text; _ });
              (None, Protocol.Pong) ] ->
            Alcotest.(check string) "bare run serves the model" (local_model "example1.dl") text
          | _ -> Alcotest.fail "bare replies out of order or enveloped"))

(* Behind a slow bare run, a bare ping waits its turn while an
   enveloped one overtakes. *)
let test_bare_ping_waits target () =
  target (fun path ->
      with_raw path (fun raw ->
          raw_write raw [ bare (Protocol.Load (source "adversarial_nat.dl")) ];
          (match raw_read raw with
          | None, Protocol.Loaded _ -> ()
          | _ -> Alcotest.fail "expected a bare Loaded");
          let budget = { Protocol.no_budget with Protocol.timeout_ms = Some 1000 } in
          raw_write raw
            [ bare (Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget });
              bare Protocol.Ping;
              Protocol.encode_request_v2 ~rid:7 Protocol.Ping ];
          let got = List.init 3 (fun _ -> raw_read raw) in
          match got with
          | [ (Some 7, Protocol.Pong); (None, Protocol.Model { complete = false; _ });
              (None, Protocol.Pong) ] -> ()
          | _ -> Alcotest.fail "expected enveloped Pong, then the run's Model, then bare Pong"))

(* Tag 0x0b once opened a version handshake; bare or enveloped, it is
   now an unknown tag and gets a structured refusal. *)
let test_retired_hello target () =
  let hello = "\x0b" ^ String.make 7 '\x00' ^ "\x02" in
  let frame body =
    let b = Buffer.create 32 in
    Buffer.add_int32_be b (Int32.of_int (String.length body));
    Buffer.add_string b body;
    Buffer.contents b
  in
  target (fun path ->
      List.iter
        (fun (what, body) ->
          with_raw path (fun raw ->
              raw_write raw [ frame body ];
              match raw_read raw with
              | None, Protocol.Error { code = Protocol.Protocol_violation; message } ->
                Alcotest.(check bool) (what ^ ": message names the tag") true
                  (contains message "0x0b")
              | _ -> Alcotest.fail (what ^ ": expected a bare protocol-violation")))
        [ ("bare", hello); ("enveloped", "\x7f" ^ String.make 8 '\x00' ^ hello) ];
      (* the daemon behind is unaffected *)
      expect_pong path)

(* A length prefix over [max_frame] leaves no frame boundary to resync
   on: one bare protocol-violation naming the length, then EOF. *)
let test_oversized_prefix target () =
  let n = Protocol.max_frame_default + 1 in
  let prefix = Bytes.create 4 in
  Bytes.set_int32_be prefix 0 (Int32.of_int n);
  target (fun path ->
      with_raw path (fun raw ->
          raw_write raw [ Bytes.to_string prefix ];
          (match raw_read raw with
          | None, Protocol.Error { code = Protocol.Protocol_violation; message } ->
            Alcotest.(check bool) "message names the length" true
              (contains message (string_of_int n))
          | _ -> Alcotest.fail "expected a bare protocol-violation");
          Alcotest.(check int) "nothing after the refusal" 0 (Buffer.length raw.pending);
          Alcotest.(check int) "then EOF" 0 (Unix.read raw.fd (Bytes.create 16) 0 16));
      expect_pong path)

(* Frames split across reads reassemble: an enveloped Run written one
   byte at a time is answered byte for byte as the same request written
   in one piece. *)
let test_byte_at_a_time target () =
  target (fun path ->
      with_raw path (fun raw ->
          raw_write raw [ Protocol.encode_request_v2 ~rid:1 (Protocol.Load (source "example1.dl")) ];
          ignore (raw_frame raw);
          let run = Protocol.encode_request_v2 ~rid:2 run_req in
          raw_write raw [ run ];
          let whole = raw_frame raw in
          (match Protocol.decode_response_v2 whole with
          | Ok (Some 2, Protocol.Model { complete = true; _ }) -> ()
          | _ -> Alcotest.fail "expected the run's model under id 2");
          String.iter
            (fun byte ->
              raw_write raw [ String.make 1 byte ];
              Unix.sleepf 0.001)
            run;
          Alcotest.(check string) "same reply bytes" whole (raw_frame raw)))

(* ---------------- shutdown ---------------- *)

let test_shutdown_drains () =
  incr sock_counter;
  let path = Printf.sprintf "gbcd_test_%d_%d.sock" (Unix.getpid ()) !sock_counter in
  let cfg = { Server.default_config with port = None; unix_path = Some path; workers = 2 } in
  (match Server.create cfg with
   | Error msg -> Alcotest.fail msg
   | Ok srv ->
     let runner = Domain.spawn (fun () -> Server.run srv) in
     let c = connect path in
     (match Client.rpc c Protocol.Shutdown with
      | Protocol.Bye -> ()
      | _ -> Alcotest.fail "expected Bye");
     Client.close c;
     (* run returns once drained; joining must not hang *)
     Domain.join runner);
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()

(* ---------------- the acceptance load test ---------------- *)

(* 8 concurrent sessions each replay all 13 exemplars against a
   4-worker pool; every served model must be byte-identical to the
   single-shot staged run. *)
let test_concurrent_sessions () =
  let expected = List.map (fun name -> (name, local_model name)) exemplars in
  with_server ~workers:4 (fun path ->
      let failures = Atomic.make 0 in
      let session i =
        with_conn path (fun c ->
            (* stagger the replay so sessions interleave differently *)
            let progs =
              let rec rot n = function
                | [] -> []
                | x :: tl when n > 0 -> rot (n - 1) tl @ [ x ]
                | l -> l
              in
              rot (i mod List.length expected) expected
            in
            List.iter
              (fun (name, want) ->
                let _ = expect_loaded (Client.rpc c (Protocol.Load (source name))) in
                match Client.rpc c run_req with
                | Protocol.Model { complete = true; text; _ } when text = want -> ()
                | Protocol.Model { complete; text; _ } ->
                  Printf.eprintf "session %d %s: complete=%b, %d vs %d bytes\n%!" i name
                    complete (String.length text) (String.length want);
                  Atomic.incr failures
                | _ -> Atomic.incr failures)
              progs)
      in
      let threads = List.init 8 (fun i -> Thread.create session i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "every session saw every exact model" 0 (Atomic.get failures))

(* Two servers in one process run their event loops on two domains at
   once.  Each must read into its own buffer: with a shared one, bytes
   one loop had just read could be overwritten by the other's before
   they were copied out, corrupting frames or stalling a connection on
   a frame that never completes (seen as a hang in the in-process
   fleet of bench experiment E19).  Large frames take several reads
   each, so the loops read concurrently often; a receive deadline turns
   a stall into a failure. *)
let test_two_servers_read_apart () =
  let facts = List.init 3000 (fun i -> Printf.sprintf "fact(%d, \"padding %d\")." i i) in
  let src = String.concat "\n" facts ^ "\n" in
  let failures = Atomic.make 0 in
  let hammer path =
    with_conn path (fun c ->
        Client.set_recv_deadline c (Some 10.0);
        for _ = 1 to 120 do
          match Client.rpc c (Protocol.Load src) with
          | Protocol.Loaded { clauses = 3000; _ } -> ()
          | _ -> Atomic.incr failures
          | exception (Client.Timeout | Client.Protocol_error _) -> Atomic.incr failures
        done)
  in
  with_server ~workers:2 (fun a ->
      with_server ~workers:2 (fun b ->
          let threads = List.map (Thread.create hammer) [ a; b; a; b ] in
          List.iter Thread.join threads));
  Alcotest.(check int) "every load answered intact" 0 (Atomic.get failures)

let () =
  Alcotest.run "server"
    [ ( "basics",
        [ Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "run matches single-shot" `Quick test_run_matches_single_shot;
          Alcotest.test_case "program cache hit" `Quick test_cache_hit;
          Alcotest.test_case "run without load" `Quick test_run_without_load ] );
      ( "sessions",
        [ Alcotest.test_case "copy-on-write isolation" `Quick test_session_isolation;
          Alcotest.test_case "retract" `Quick test_retract;
          Alcotest.test_case "attach and reclaim" `Quick test_attach_reclaim;
          Alcotest.test_case "exactly-once replay" `Quick test_exactly_once_replay ] );
      ( "supervision",
        [ Alcotest.test_case "worker dies, pool respawns" `Quick test_worker_supervision;
          Alcotest.test_case "mid-frame disconnects leak nothing" `Quick
            test_midframe_disconnect;
          Alcotest.test_case "idle sessions reaped" `Quick test_idle_reap ] );
      ( "governance",
        [ Alcotest.test_case "client budget partial keeps connection" `Quick
            test_budget_partial_keeps_connection;
          Alcotest.test_case "server-side cap" `Quick test_server_side_cap ] );
      ( "robustness",
        [ Alcotest.test_case "malformed frame gets a structured error" `Quick
            test_malformed_frame_gets_error;
          Alcotest.test_case "query and enumerate" `Quick test_query_and_enumerate;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "cache counters in stats" `Quick test_cache_counters_in_stats;
          Alcotest.test_case "jobs request serves identical model" `Quick
            test_jobs_request_same_model;
          Alcotest.test_case "out-of-range literal is a lex-error" `Quick
            test_out_of_range_literal ] );
      ( "pipelining",
        [ Alcotest.test_case "pipelined models byte-identical" `Quick
            test_pipeline_byte_identity;
          Alcotest.test_case "enveloped ping overtakes a running eval" `Quick
            test_pipeline_out_of_order;
          Alcotest.test_case "depth and queue-wait in stats" `Quick test_pipeline_stats ] );
      ( "bare-frames",
        List.concat_map
          (fun (where, target) ->
            [ Alcotest.test_case (where ^ ": bare request, bare reply") `Quick
                (test_bare_reply target);
              Alcotest.test_case (where ^ ": back-to-back bare requests in order") `Quick
                (test_bare_in_order target);
              Alcotest.test_case (where ^ ": bare ping waits behind bare run") `Quick
                (test_bare_ping_waits target);
              Alcotest.test_case (where ^ ": retired hello tag refused") `Quick
                (test_retired_hello target);
              Alcotest.test_case (where ^ ": oversized length prefix refused, then EOF") `Quick
                (test_oversized_prefix target);
              Alcotest.test_case (where ^ ": request written a byte at a time") `Quick
                (test_byte_at_a_time target) ])
          [ ("direct", fun f -> with_server f); ("routed", routed) ] );
      ( "lifecycle",
        [ Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
          Alcotest.test_case "8 sessions x 13 exemplars x 4 workers" `Slow
            test_concurrent_sessions;
          Alcotest.test_case "two servers in one process read apart" `Quick
            test_two_servers_read_apart ] ) ]
