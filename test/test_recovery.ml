(* Crash-safe durability, end to end.

   Units first: WAL round trips and torn/corrupt tails, the database
   snapshot codec, the snapshot envelope (a flipped byte reads as
   None, never a crash), fsync-failure injection.

   Then restarts: an in-process server with a data dir is shut down
   and rebuilt, and must serve byte-identical models to reclaiming
   clients — through the WAL alone and through snapshot + WAL tail.

   Finally the chaos test: a real gbcd subprocess with an armed WAL
   fault (GBCD_WAL_FAULT) SIGKILLs itself at the k-th appended record
   mid-workload; a supervisor thread respawns it on the same data dir
   and the resilient client reconnects, re-attaches and replays.  For
   every injection point the final models must be byte-identical to an
   uninterrupted run of the same workload.  Reduced scale by default
   (3 programs, every crash point); GBC_CHAOS_FULL=1 replays all 13
   exemplars.  The same fault, fired under a pipelined window of
   asserts, checks that the pipeline's replay is exactly-once. *)

open Gbc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let source name = read_file ("../programs/" ^ name)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let tmp_counter = ref 0

let with_tmpdir f =
  incr tmp_counter;
  let dir = Printf.sprintf "gbcd_rec_%d_%d.data" (Unix.getpid ()) !tmp_counter in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------------- WAL units ---------------- *)

let sample_records =
  [ (0, Wal.Load { digest = "d41d8cd98f00b204e9800998ecf8427e" });
    (1, Wal.Assert { text = "p(1). p(2)."; id = Some 7 });
    (2, Wal.Retract { text = "p(2)."; id = None });
    (3, Wal.Run { engine = 0; seed = Some 42; model_digest = "00112233445566778899aabbccddeeff" });
    (4, Wal.Assert { text = String.make 300 'x'; id = None }) ]

let write_sample path =
  let w = Wal.create ~fsync:(Wal.Batch 2) path in
  List.iter (fun (lsn, r) -> Wal.append w ~lsn r) sample_records;
  Wal.close w

let check_records msg want got =
  Alcotest.(check int) (msg ^ ": count") (List.length want) (List.length got);
  List.iter2
    (fun (lsn, r) (lsn', r') ->
      Alcotest.(check int) (msg ^ ": lsn") lsn lsn';
      Alcotest.(check bool) (msg ^ ": record") true (r = r'))
    want got

let test_wal_roundtrip () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      write_sample path;
      let { Wal.records; corrupt } = Wal.replay path in
      Alcotest.(check bool) "no corruption" true (corrupt = None);
      check_records "roundtrip" sample_records records)

let test_wal_missing_file () =
  let { Wal.records; corrupt } = Wal.replay "does_not_exist.log" in
  Alcotest.(check bool) "empty" true (records = [] && corrupt = None)

let test_wal_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      write_sample path;
      (* cut into the final record: a torn write *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let { Wal.records; corrupt } = Wal.replay path in
      Alcotest.(check bool) "tail reported" true (corrupt <> None);
      check_records "torn" (List.filteri (fun i _ -> i < 4) sample_records) records;
      (* the file was truncated back to its last whole record: a second
         replay is clean *)
      let { Wal.records; corrupt } = Wal.replay path in
      Alcotest.(check bool) "clean after truncation" true (corrupt = None);
      check_records "truncated" (List.filteri (fun i _ -> i < 4) sample_records) records;
      (* ... and appending continues where the log now ends *)
      let w = Wal.create ~fsync:Wal.Always path in
      Wal.append w ~lsn:4 (Wal.Assert { text = "q(9)."; id = None });
      Wal.close w;
      let { Wal.records; corrupt } = Wal.replay path in
      Alcotest.(check bool) "appendable after truncation" true
        (corrupt = None && List.length records = 5))

let test_wal_corrupt_crc () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      write_sample path;
      (* flip a payload byte inside the last record *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let _ = Unix.lseek fd (size - 10) Unix.SEEK_SET in
      let b = Bytes.create 1 in
      let _ = Unix.read fd b 0 1 in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      let _ = Unix.lseek fd (size - 10) Unix.SEEK_SET in
      let _ = Unix.write fd b 0 1 in
      Unix.close fd;
      let { Wal.records; corrupt } = Wal.replay path in
      Alcotest.(check bool) "crc mismatch reported" true (corrupt <> None);
      check_records "crc" (List.filteri (fun i _ -> i < 4) sample_records) records)

let test_wal_garbage_file () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let oc = open_out_bin path in
      output_string oc "this is not a WAL at all, not even close";
      close_out oc;
      let { Wal.records; corrupt } = Wal.replay path in
      Alcotest.(check bool) "garbage is an empty log + warning" true
        (records = [] && corrupt <> None))

(* ---------------- snapshot units ---------------- *)

let small_model () =
  Stage_engine.model
    (Parser.parse_program "q(X) <- p(X).\np(1).\np(2).\np(\"a b\\nc\").\n")

let test_db_snapshot_roundtrip () =
  let db = small_model () in
  let buf = Buffer.create 256 in
  Db_snapshot.write buf db;
  let encoded = Buffer.contents buf in
  let db', consumed = Db_snapshot.read encoded 0 in
  Alcotest.(check int) "consumed everything" (String.length encoded) consumed;
  Alcotest.(check string) "canonical rendering survives"
    (Format.asprintf "%a" Database.pp db)
    (Format.asprintf "%a" Database.pp db')

let test_db_snapshot_corrupt () =
  (match Db_snapshot.read "garbage" 0 with
   | exception Db_snapshot.Corrupt _ -> ()
   | _ -> Alcotest.fail "garbage must raise Corrupt");
  let db = small_model () in
  let buf = Buffer.create 256 in
  Db_snapshot.write buf db;
  let encoded = Buffer.contents buf in
  (* every strict prefix is Corrupt, never a crash or a partial db *)
  for len = 0 to String.length encoded - 1 do
    match Db_snapshot.read (String.sub encoded 0 len) 0 with
    | exception Db_snapshot.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "prefix %d raised %s, not Corrupt" len (Printexc.to_string e)
    | _ -> Alcotest.failf "prefix %d decoded" len
  done

let test_snapshot_envelope () =
  with_tmpdir (fun dir ->
      match Durable.create ~fsync:Wal.Always ~snapshot_every:4 dir with
      | Error msg -> Alcotest.fail msg
      | Ok dur ->
        let db = small_model () in
        let snap =
          { Durable.last_lsn = 17;
            digest = Some "d41d8cd98f00b204e9800998ecf8427e";
            db;
            multiset = [];
            last_mut = Some (42, 3);
            mat = None }
        in
        (match Durable.write_snapshot dur ~id:5 snap with
         | Ok () -> ()
         | Error msg -> Alcotest.fail ("write_snapshot: " ^ msg));
        (match Durable.read_snapshot dur ~id:5 with
         | Some s ->
           Alcotest.(check int) "last_lsn" 17 s.Durable.last_lsn;
           Alcotest.(check bool) "dedup state" true (s.Durable.last_mut = Some (42, 3));
           Alcotest.(check string) "db survives"
             (Format.asprintf "%a" Database.pp db)
             (Format.asprintf "%a" Database.pp s.Durable.db)
         | None -> Alcotest.fail "snapshot must read back");
        (* flip one byte: the snapshot reads as None (with a warning),
           recovery falls back to the WAL *)
        let path = Filename.concat dir "sessions/5/snapshot.bin" in
        let size = (Unix.stat path).Unix.st_size in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
        let _ = Unix.lseek fd (size / 2) Unix.SEEK_SET in
        let b = Bytes.create 1 in
        let _ = Unix.read fd b 0 1 in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x55));
        let _ = Unix.lseek fd (size / 2) Unix.SEEK_SET in
        let _ = Unix.write fd b 0 1 in
        Unix.close fd;
        (match Durable.read_snapshot dur ~id:5 with
         | None -> ()
         | Some _ -> Alcotest.fail "a corrupt snapshot must read as None"))

(* ---------------- in-process server fixtures ---------------- *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Printf.sprintf "gbcd_rec_%d_%d.sock" (Unix.getpid ()) !sock_counter

let with_durable_server ~dir ?(snapshot_every = 4) f =
  let path = fresh_sock () in
  let cfg =
    { Server.default_config with
      port = None;
      unix_path = Some path;
      workers = 2;
      data_dir = Some dir;
      fsync = Wal.Batch 4;
      snapshot_every }
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

let rec connect ?(tries = 100) path =
  match Client.connect_unix path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
    Unix.sleepf 0.02;
    connect ~tries:(tries - 1) path

let with_conn path f =
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let expect_loaded = function
  | Protocol.Loaded _ -> ()
  | Protocol.Error { message; _ } -> Alcotest.fail ("load failed: " ^ message)
  | _ -> Alcotest.fail "expected a Loaded frame"

let expect_model = function
  | Protocol.Model { complete = true; text; _ } -> text
  | Protocol.Model _ -> Alcotest.fail "expected a complete model"
  | Protocol.Error { message; _ } -> Alcotest.fail ("run failed: " ^ message)
  | _ -> Alcotest.fail "expected a Model frame"

let expect_attached = function
  | Protocol.Attached { id } -> id
  | Protocol.Error { message; _ } -> Alcotest.fail ("attach failed: " ^ message)
  | _ -> Alcotest.fail "expected an Attached frame"

let run_req =
  Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }

let assert_req text = Protocol.Assert_facts { text; id = None }
let retract_req text = Protocol.Retract_facts { text; id = None }

(* ---------------- fsync failure injection ---------------- *)

(* A failing fsync surfaces as a structured io-error frame; the
   mutation is not applied, the connection stays usable, and the
   session's durable state stays consistent. *)
let test_fsync_failure_is_structured () =
  with_tmpdir (fun dir ->
      with_durable_server ~dir (fun path ->
          with_conn path (fun c ->
              expect_loaded (Client.rpc c (Protocol.Load "q(X) <- p(X).\np(1).\n"));
              (* the Load appended one record; make the next append fail *)
              Wal.set_fault (Some (Wal.Fsync_fail_at (Wal.appended () + 1)));
              (match Client.rpc c (assert_req "p(2).") with
               | Protocol.Error { code = Protocol.Io_error; _ } -> ()
               | _ -> Alcotest.fail "a failed WAL append must be an io-error frame");
              Wal.set_fault None;
              (* the refused mutation left nothing behind: retry applies *)
              (match Client.rpc c (assert_req "p(2).") with
               | Protocol.Asserted { added = 1 } -> ()
               | _ -> Alcotest.fail "retry after the one-shot fault must succeed");
              Alcotest.(check string) "model is consistent"
                "p(1).\np(2).\nq(1).\nq(2).\n"
                (expect_model (Client.rpc c run_req)))))

(* ---------------- in-process restart recovery ---------------- *)

let tc_src =
  "path(X, Y) <- edge(X, Y).\npath(X, Z) <- path(X, Y), edge(Y, Z).\nedge(1, 2).\n"

(* Shut a durable server down, rebuild it on the same data dir, and
   reclaim the session: program, facts, dedup state and model must all
   survive.  snapshot_every:0 forces pure-WAL recovery;
   snapshot_every:2 forces snapshot + tail recovery. *)
let restart_roundtrip ~snapshot_every () =
  with_tmpdir (fun dir ->
      let expected = ref "" in
      let sid = ref 0 in
      with_durable_server ~dir ~snapshot_every (fun path ->
          with_conn path (fun c ->
              expect_loaded (Client.rpc c (Protocol.Load tc_src));
              (match Client.rpc c (assert_req "edge(2, 3). edge(3, 4).") with
               | Protocol.Asserted { added = 2 } -> ()
               | _ -> Alcotest.fail "assert");
              (match Client.rpc c (retract_req "edge(3, 4).") with
               | Protocol.Retracted { removed = 1 } -> ()
               | _ -> Alcotest.fail "retract");
              (match Client.rpc c (assert_req "edge(3, 5).") with
               | Protocol.Asserted { added = 1 } -> ()
               | _ -> Alcotest.fail "assert 2");
              expected := expect_model (Client.rpc c run_req);
              sid := expect_attached (Client.rpc c (Protocol.Attach None))));
      (* the process state is gone; rebuild from disk *)
      with_durable_server ~dir ~snapshot_every (fun path ->
          with_conn path (fun c ->
              let id = expect_attached (Client.rpc c (Protocol.Attach (Some !sid))) in
              Alcotest.(check int) "same id across restart" !sid id;
              Alcotest.(check string) "byte-identical model after recovery" !expected
                (expect_model (Client.rpc c run_req));
              (* and the recovered session keeps evolving *)
              (match Client.rpc c (retract_req "edge(3, 5).") with
               | Protocol.Retracted { removed = 1 } -> ()
               | _ -> Alcotest.fail "retract after recovery");
              (match Client.rpc c Protocol.Stats with
               | Protocol.Stats_json json ->
                 Alcotest.(check bool) "recovery counted" true
                   (contains json "\"sessions_recovered\": 1")
               | _ -> Alcotest.fail "expected Stats_json"))))

let test_restart_wal_only () = restart_roundtrip ~snapshot_every:0 ()
let test_restart_snapshot_tail () = restart_roundtrip ~snapshot_every:2 ()

(* ---------------- digest checks on recovery ---------------- *)

(* Run [f] with the process's stderr sent to a file; returns its result
   and everything written there (durability warnings go to stderr). *)
let capture_stderr f =
  let path = Printf.sprintf "gbcd_rec_%d.stderr" (Unix.getpid ()) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = read_file path in
  Sys.remove path;
  (result, text)

let digest_edge = "edge(2, 3)."

(* The fact base and model a session reaches after loading [tc_src]
   and asserting [digest_edge], computed by an ephemeral session. *)
let digest_fixture () =
  let s = Session.create ~cache:(Program_cache.create ()) ~id:0 () in
  (match Session.load s tc_src with Ok _ -> () | Error (_, m) -> Alcotest.fail m);
  (match Session.assert_facts s digest_edge with Ok _ -> () | Error (_, m) -> Alcotest.fail m);
  match
    Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits:Limits.unlimited
      ~telemetry:Telemetry.none
  with
  | Ok (Limits.Complete model) -> (Option.get s.Session.db, model)
  | _ -> Alcotest.fail "fixture run did not complete"

let legacy_digest model = Digest.to_hex (Digest.string (Session.render_model model))
let wrong_legacy = String.make 32 '0'
let wrong_mset = "mset1:" ^ String.make 32 '0'

(* Restore session 1 from a hand-built data dir — the program stored,
   then either a WAL (load, assert, run with [digest]) or a snapshot
   whose materialization carries [digest] — and report whether the
   materialization survived, what recovery warned, and whether a run
   on the restored session still serves the model. *)
let restore_with ~via digest =
  with_tmpdir (fun dir ->
      match Durable.create ~fsync:Wal.Never ~snapshot_every:0 dir with
      | Error msg -> Alcotest.fail msg
      | Ok dur ->
        let db, model = digest_fixture () in
        let program = Program_cache.digest_hex tc_src in
        Durable.store_program dur ~digest:program ~source:tc_src;
        (match via with
         | `Wal ->
           let w = Wal.create ~fsync:Wal.Never (Durable.wal_path dur 1) in
           List.iteri
             (fun lsn r -> Wal.append w ~lsn r)
             [ Wal.Load { digest = program };
               Wal.Assert { text = digest_edge; id = None };
               Wal.Run { engine = 0; seed = None; model_digest = digest model } ];
           Wal.close w
         | `Snapshot -> (
           let row = [| Value.Int 2; Value.Int 3 |] in
           let snap =
             { Durable.last_lsn = 2;
               digest = Some program;
               db;
               multiset = [ ("edge", row, 1) ];
               last_mut = None;
               mat =
                 Some
                   { Durable.m_engine = 0; m_seed = None; model; model_digest = digest model } }
           in
           match Durable.write_snapshot dur ~id:1 snap with
           | Ok () -> ()
           | Error msg -> Alcotest.fail msg));
        let s, warnings =
          capture_stderr (fun () -> Session.restore ~cache:(Program_cache.create ()) dur 1)
        in
        let warm = s.Session.mat <> None in
        let served =
          match
            Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits:Limits.unlimited
              ~telemetry:Telemetry.none
          with
          | Ok (Limits.Complete m) -> Session.render_model m
          | _ -> Alcotest.fail "run after restore did not complete"
        in
        Session.discard s;
        Alcotest.(check string) "restored session serves the model" (Session.render_model model)
          served;
        (warm, warnings))

let expect_warm what (warm, warnings) =
  Alcotest.(check bool) (what ^ ": materialization kept") true warm;
  Alcotest.(check string) (what ^ ": no warning") "" warnings

let expect_dropped what ~needle (warm, warnings) =
  Alcotest.(check bool) (what ^ ": materialization dropped") false warm;
  if not (contains warnings needle) then
    Alcotest.failf "%s: expected a warning containing %S, got %S" what needle warnings

let test_run_digest_accepted () =
  expect_warm "multiset digest" (restore_with ~via:`Wal Database.digest);
  expect_warm "legacy MD5 digest" (restore_with ~via:`Wal legacy_digest)

let test_run_digest_rejected () =
  let needle = "disagrees with the logged model digest" in
  expect_dropped "wrong multiset digest" ~needle (restore_with ~via:`Wal (fun _ -> wrong_mset));
  expect_dropped "wrong legacy digest" ~needle (restore_with ~via:`Wal (fun _ -> wrong_legacy))

let test_snapshot_digest_accepted () =
  expect_warm "multiset digest" (restore_with ~via:`Snapshot Database.digest);
  expect_warm "legacy MD5 digest" (restore_with ~via:`Snapshot legacy_digest)

let test_snapshot_digest_rejected () =
  let needle = "snapshot materialization fails its digest" in
  expect_dropped "wrong multiset digest" ~needle
    (restore_with ~via:`Snapshot (fun _ -> wrong_mset));
  expect_dropped "wrong legacy digest" ~needle
    (restore_with ~via:`Snapshot (fun _ -> wrong_legacy))

(* ---------------- the chaos test ---------------- *)

(* Workload for one daemon: for each program — load, assert two extra
   facts, retract one, run — through the resilient client, collecting
   the model texts.  4 WAL records per program. *)
let chaos_progs =
  if Sys.getenv_opt "GBC_CHAOS_FULL" = Some "1" then
    [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl";
      "matching.dl"; "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl";
      "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]
  else [ "example1.dl"; "prim.dl"; "transitive_closure.dl" ]

let chaos_workload r =
  List.map
    (fun name ->
      (match Client.resilient_rpc r (Protocol.Load (source name)) with
       | Protocol.Loaded _ -> ()
       | Protocol.Error { message; _ } -> Alcotest.fail (name ^ ": load: " ^ message)
       | _ -> Alcotest.fail (name ^ ": expected Loaded"));
      (match Client.resilient_rpc r (assert_req "zz_chaos(1). zz_chaos(2).") with
       | Protocol.Asserted { added = 2 } -> ()
       | Protocol.Error { message; _ } -> Alcotest.fail (name ^ ": assert: " ^ message)
       | _ -> Alcotest.fail (name ^ ": expected Asserted"));
      (match Client.resilient_rpc r (retract_req "zz_chaos(2).") with
       | Protocol.Retracted { removed = 1 } -> ()
       | Protocol.Error { message; _ } -> Alcotest.fail (name ^ ": retract: " ^ message)
       | _ -> Alcotest.fail (name ^ ": expected Retracted"));
      (match Client.resilient_rpc r run_req with
       | Protocol.Model { complete = true; text; _ } -> (name, text)
       | Protocol.Model { diagnostic; _ } ->
         Alcotest.fail
           (name ^ ": partial model: " ^ Option.value ~default:"?" diagnostic)
       | Protocol.Error { message; _ } -> Alcotest.fail (name ^ ": run: " ^ message)
       | _ -> Alcotest.fail (name ^ ": expected Model")))
    chaos_progs

let records_per_prog = 4

let daemon_exe = "../bin/gbcd.exe"

let spawn_daemon ?fault ~dir ~sock () =
  let args =
    [| daemon_exe; "--no-tcp"; "--unix"; sock; "--data-dir"; dir;
       "--workers"; "2"; "--fsync"; "batch:4"; "--snapshot-every"; "3" |]
  in
  let base =
    Array.to_list (Unix.environment ())
    |> List.filter (fun s -> not (String.length s >= 15 && String.sub s 0 15 = "GBCD_WAL_FAULT="))
  in
  let env =
    match fault with
    | None -> Array.of_list base
    | Some f -> Array.of_list (("GBCD_WAL_FAULT=" ^ f) :: base)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process_env daemon_exe args env Unix.stdin devnull Unix.stderr)

(* Run the workload against a daemon armed with [fault]; a supervisor
   thread respawns it (without the fault) whenever it dies, so the
   resilient client can reconnect, re-attach and replay. *)
let chaos_run ?fault dir =
  let sock = fresh_sock () in
  let first_pid = spawn_daemon ?fault ~dir ~sock () in
  let pid = ref first_pid in
  let stop = Atomic.make false in
  let supervisor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match Unix.waitpid [ Unix.WNOHANG ] !pid with
           | 0, _ -> Unix.sleepf 0.02
           | _, _ -> pid := spawn_daemon ~dir ~sock ()
           | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.sleepf 0.02);
        done)
      ()
  in
  let r = Client.resilient ~connect_timeout:2.0 ~retries:10 (Client.Uds sock) in
  Fun.protect
    ~finally:(fun () ->
      Client.resilient_close r;
      Atomic.set stop true;
      Thread.join supervisor;
      (try Unix.kill !pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ());
      (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ()))
    (fun () ->
      let results = chaos_workload r in
      (results, !pid <> first_pid))

let test_chaos () =
  (* the uninterrupted reference run *)
  let expected, ref_respawned = with_tmpdir (fun dir -> chaos_run dir) in
  Alcotest.(check bool) "reference run never died" false ref_respawned;
  let check_against what ~must_die (got, respawned) =
    (* the fault must actually have fired — a chaos run that never
       killed its daemon proves nothing *)
    if must_die && not respawned then
      Alcotest.failf "%s: the daemon never died (fault did not fire)" what;
    List.iter2
      (fun (name, want) (name', got) ->
        Alcotest.(check string) (what ^ ": program order") name name';
        if want <> got then
          Alcotest.failf "%s: %s diverged after recovery (%d vs %d bytes)" what name
            (String.length want) (String.length got))
      expected got
  in
  (* SIGKILL at every record the workload appends: k-th append writes,
     then the daemon dies; recovery + client replay must converge *)
  let total = records_per_prog * List.length chaos_progs in
  for k = 1 to total + 1 do
    let fault = Printf.sprintf "crash:%d" k in
    check_against fault ~must_die:(k <= total)
      (with_tmpdir (fun dir -> chaos_run ~fault dir))
  done;
  (* torn and short writes at a couple of points: the tail is dropped,
     the unacknowledged mutation is replayed by the client *)
  List.iter
    (fun fault ->
      check_against fault ~must_die:true (with_tmpdir (fun dir -> chaos_run ~fault dir)))
    [ "torn:2"; "torn:7"; "short:2"; "short:7" ]

(* A pipelined window across a crash.  Ten asserts are in flight when
   the daemon dies right after logging the fifth (record 1 is the
   load); it is restarted on the same data dir and socket.  The
   pipeline reconnects, re-attaches and replays what is unanswered
   under the same ids, and the session answers the logged-but-
   unanswered ones from its dedup window.  Every id must be answered
   exactly once, and every fact must be in the model once. *)
let test_pipeline_replay () =
  with_tmpdir (fun dir ->
      let sock = fresh_sock () in
      let pid = ref (spawn_daemon ~fault:"crash:6" ~dir ~sock ()) in
      let r = Client.resilient ~connect_timeout:2.0 ~deadline:30.0 ~retries:10 (Client.Uds sock) in
      let p = Client.Pipeline.create r in
      Fun.protect
        ~finally:(fun () ->
          Client.Pipeline.close p;
          (try Unix.kill !pid Sys.sigterm with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ());
          try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ())
        (fun () ->
          let load = Client.Pipeline.submit p (Protocol.Load "q(X) <- p(X).\n") in
          (match Client.Pipeline.drain p with
          | [ (rid, Protocol.Loaded _) ] when rid = load -> ()
          | _ -> Alcotest.fail "expected the load's Loaded");
          let n = 10 in
          let ids =
            List.init n (fun i -> Client.Pipeline.submit p (assert_req (Printf.sprintf "p(%d)." i)))
          in
          let rec wait_death tries =
            match Unix.waitpid [ Unix.WNOHANG ] !pid with
            | 0, _ when tries > 0 ->
              Unix.sleepf 0.02;
              wait_death (tries - 1)
            | 0, _ -> Alcotest.fail "the daemon never died (fault did not fire)"
            | _ -> ()
          in
          wait_death 1000;
          pid := spawn_daemon ~dir ~sock ();
          let replies = Client.Pipeline.drain p in
          Alcotest.(check (list int)) "every id answered exactly once" ids
            (List.sort Int.compare (List.map fst replies));
          List.iter
            (function
              | _, Protocol.Asserted { added = 1 } -> ()
              | rid, _ -> Alcotest.failf "id %d: expected one fact added" rid)
            replies;
          let run = Client.Pipeline.submit p run_req in
          match Client.Pipeline.drain p with
          | [ (rid, Protocol.Model { complete = true; text; _ }) ] when rid = run ->
            let lines = String.split_on_char '\n' text in
            for i = 0 to n - 1 do
              List.iter
                (fun fact ->
                  Alcotest.(check int) (fact ^ " present once") 1
                    (List.length (List.filter (String.equal fact) lines)))
                [ Printf.sprintf "p(%d)." i; Printf.sprintf "q(%d)." i ]
            done;
            Alcotest.(check int) "no other facts" (2 * n)
              (List.length (List.filter (fun l -> l <> "") lines))
          | _ -> Alcotest.fail "expected a complete Model"))

let () =
  Alcotest.run "recovery"
    [ ( "wal",
        [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing file is empty" `Quick test_wal_missing_file;
          Alcotest.test_case "torn tail truncated" `Quick test_wal_torn_tail;
          Alcotest.test_case "crc mismatch truncated" `Quick test_wal_corrupt_crc;
          Alcotest.test_case "garbage file never raises" `Quick test_wal_garbage_file ] );
      ( "snapshot",
        [ Alcotest.test_case "database codec roundtrip" `Quick test_db_snapshot_roundtrip;
          Alcotest.test_case "database codec rejects corruption" `Quick
            test_db_snapshot_corrupt;
          Alcotest.test_case "envelope roundtrip and corruption" `Quick
            test_snapshot_envelope ] );
      ( "faults",
        [ Alcotest.test_case "fsync failure is a structured error" `Quick
            test_fsync_failure_is_structured ] );
      ( "restart",
        [ Alcotest.test_case "wal-only recovery" `Quick test_restart_wal_only;
          Alcotest.test_case "snapshot + tail recovery" `Quick test_restart_snapshot_tail ] );
      ( "digest",
        [ Alcotest.test_case "logged run digests verify (new and legacy)" `Quick
            test_run_digest_accepted;
          Alcotest.test_case "a wrong run digest drops the materialization" `Quick
            test_run_digest_rejected;
          Alcotest.test_case "snapshot digests verify (new and legacy)" `Quick
            test_snapshot_digest_accepted;
          Alcotest.test_case "a wrong snapshot digest drops the materialization" `Quick
            test_snapshot_digest_rejected ] );
      ( "chaos",
        [ Alcotest.test_case "kill -9 at every WAL record" `Quick test_chaos;
          Alcotest.test_case "pipelined window replays across a crash" `Quick
            test_pipeline_replay ] ) ]
