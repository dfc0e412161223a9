(* serve_update: the write path against a durable
   `gbcd --data-dir DIR --workers 2` with default fsync and snapshot
   flags.  Each connection holds a session whose reachability model
   (about 10^4 facts over a seeded sparse graph) is materialized during
   set-up.  One op is a fixed cycle: assert one seeded edge, ask a
   one-atom query that holds only through it, retract the edge, ask
   again.  That puts the session multiset, incremental maintenance
   (insert delta, then DRed delete), the per-run model digest, WAL
   append and fsync and periodic snapshots on the path.  Closed loop:
   one connection per CPU, at most two. *)

open Gbc
open Common

let program = "reach(X, Y) <- e(X, Y).\nreach(X, Y) <- e(X, Z), reach(Z, Y).\n"

(* The graph: [chains] disjoint paths of [len] nodes with seeded node
   ids, plus forward chords inside each path.  Every path contributes
   len(len-1)/2 reach facts whatever the seed, and an edge from one
   path's tail to another's head adds exactly len^2 of them, so every
   op does the same amount of work. *)
type graph = { chains : int array array; edges : (int * int) list }

let graph ~seed ~smoke =
  let n_chains, len = if smoke then (8, 8) else (52, 20) in
  let rng = Rng.create seed in
  let ids = Array.init (n_chains * len) Fun.id in
  Rng.shuffle rng ids;
  let chains = Array.init n_chains (fun c -> Array.sub ids (c * len) len) in
  let edges =
    Array.to_list chains
    |> List.concat_map (fun ch ->
           let path = List.init (len - 1) (fun i -> (ch.(i), ch.(i + 1))) in
           let chords =
             List.init (len / 2) (fun _ ->
                 let a = Rng.int rng (len - 2) in
                 let b = a + 2 + Rng.int rng (len - a - 2) in
                 (ch.(a), ch.(b)))
           in
           path @ List.sort_uniq compare chords)
  in
  { chains; edges }

let facts edges = String.concat " " (List.map (fun (u, v) -> Printf.sprintf "e(%d, %d)." u v) edges)

(* Connection [k]'s op [i]: the edge tail(A) -> head(B) for two seeded
   distinct paths, and the query reach(head(A), tail(B)), which holds
   exactly while that edge is asserted. *)
let stream ~seed g k =
  let rng = Rng.create ((seed * 7919) + k) in
  let n = Array.length g.chains in
  fun _ ->
    let a = Rng.int rng n in
    let b = (a + 1 + Rng.int rng (n - 1)) mod n in
    let ca = g.chains.(a) and cb = g.chains.(b) in
    let last c = c.(Array.length c - 1) in
    (Printf.sprintf "e(%d, %d)." (last ca) cb.(0), Printf.sprintf "reach(%d, %d)" ca.(0) (last cb))

let query goal = Protocol.Query { engine = Protocol.Staged; text = goal; budget = Protocol.no_budget }

(* A ground query answers one row "true" when the atom holds, none
   otherwise. *)
let answer_is present = function
  | Protocol.Answers { complete = true; vars = []; rows } -> rows = (if present then [ "true" ] else [])
  | _ -> false

(* ---------------- one op ---------------- *)

let op ~next ~corrupt tr conn i =
  let edge, goal = next i in
  let expect_present = not (corrupt && i = 0) in
  Trace.span tr ~op:i "op" (fun root ->
      let call ~kind req check = fst (call tr ~op:i ~parent:root conn ~kind req check) in
      call ~kind:"assert" (Protocol.Assert_facts { text = edge; id = None }) (function
        | Protocol.Asserted { added = 1 } -> true
        | _ -> false)
      && call ~kind:"query_present" (query goal) (answer_is expect_present)
      && call ~kind:"retract" (Protocol.Retract_facts { text = edge; id = None }) (function
           | Protocol.Retracted { removed = 1 } -> true
           | _ -> false)
      && call ~kind:"query_absent" (query goal) (answer_is false))

(* ---------------- set-up ---------------- *)

type server = { pid : int; sock : string; g : graph; conns : conn array }

let data_dir dir = Filename.concat dir "data"
let gbcd_flags dir = [ "--workers"; "2"; "--data-dir"; data_dir dir ]

let teardown s =
  Array.iter close s.conns;
  stop s.pid

let expect what ok = if not ok then failwith ("serve_update set-up: " ^ what)

(* Load the program, assert the graph and materialize its model. *)
let prepare_session conn g =
  expect "load" (match rpc conn (Protocol.Load program) with Protocol.Loaded _ -> true | _ -> false);
  expect "assert"
    (match rpc conn (Protocol.Assert_facts { text = facts g.edges; id = None }) with
    | Protocol.Asserted _ -> true
    | _ -> false);
  expect "run"
    (match
       rpc conn
         (Protocol.Run { engine = Protocol.Staged; seed = None; preds = Some []; budget = Protocol.no_budget })
     with
    | Protocol.Model { complete = true; _ } -> true
    | _ -> false)

let setup args () =
  let dir = Filename.concat args.run_dir "serve_update" in
  rm_rf dir;
  mkdir_p dir;
  let pid, sock = start_daemon args.gbcd ~dir ~name:"gbcd" (gbcd_flags dir) in
  let g = graph ~seed:args.seed ~smoke:args.smoke in
  let conns = Array.init connections (fun _ -> connect sock) in
  Array.iteri
    (fun k c ->
      prepare_session c g;
      let next = stream ~seed:(args.seed + 1_000_000) g k in
      for i = 1 to 4 do
        expect "warm-up op" (op ~next ~corrupt:false Trace.off c i)
      done)
    conns;
  { pid; sock; g; conns }

(* ---------------- in-process replay ---------------- *)

(* The same seeded stream through Session over an in-process data dir
   (the daemon's default fsync and snapshot policy), then the WAL
   records it produced appended to a standalone log and the snapshot
   codec run over the materialized model: the server side of an op,
   layer by layer. *)
let replay args g ~ops =
  let tr = Trace.create ~on:true 100 in
  let dir = Filename.concat args.run_dir "serve_update/replay" in
  rm_rf dir;
  let fsync = Wal.Batch 16 and snapshot_every = 64 in
  let dur =
    match Durable.create ~fsync ~snapshot_every dir with Ok d -> d | Error m -> failwith m
  in
  let cache = Program_cache.create () in
  let session = Session.create ~durable:dur ~cache ~id:1 () in
  let limits = Limits.unlimited and telemetry = Telemetry.none in
  let ok = function Ok _ -> () | Error (_, m) -> failwith ("replay: " ^ m) in
  ok (Trace.span tr ~op:(-1) "session.load" (fun _ -> Session.load session program));
  ok (Session.assert_facts session (facts g.edges));
  let model =
    match
      Trace.span tr ~op:(-1) "session.run" (fun _ ->
          Session.run session ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits ~telemetry)
    with
    | Ok (Limits.Complete m) -> m
    | _ -> failwith "replay: materialization did not complete"
  in
  let q i name goal =
    ok (Trace.span tr ~op:i name (fun _ ->
            Session.query session ~engine:Protocol.Staged ~text:goal ~jobs:1 ~limits ~telemetry))
  in
  let next = stream ~seed:args.seed g 0 in
  let appended0 = Wal.appended () and snaps0 = Durable.snapshots_written () in
  let records = ref [] in
  for i = 0 to ops - 1 do
    let edge, goal = next i in
    ok (Trace.span tr ~op:i "session.assert" (fun _ -> Session.assert_facts session edge));
    q i "ivm.assert" goal;
    let model_digest =
      Trace.span tr ~op:i "session.model_digest" (fun _ ->
          Digest.to_hex (Digest.string (Session.render_model model)))
    in
    ok (Trace.span tr ~op:i "session.retract" (fun _ -> Session.retract_facts session edge));
    q i "ivm.retract" goal;
    let run = Wal.Run { engine = 0; seed = None; model_digest } in
    records :=
      run :: Wal.Retract { text = edge; id = None } :: run :: Wal.Assert { text = edge; id = None }
      :: !records
  done;
  let c = session.Session.counters in
  let wal_records = float_of_int (Wal.appended () - appended0) /. float_of_int ops in
  let snapshots = Durable.snapshots_written () - snaps0 in
  Session.discard session;
  (* the standalone log: the op's records, one append each *)
  let path = Filename.concat dir "probe.log" in
  let wal = Wal.create ~fsync path in
  List.iteri
    (fun lsn r -> Trace.span tr ~op:(lsn / 4) "wal.append" (fun _ -> Wal.append wal ~lsn r))
    (List.rev !records);
  Wal.close wal;
  let wal_bytes = float_of_int (Unix.stat path).Unix.st_size /. float_of_int ops in
  let buf = Buffer.create (1 lsl 20) in
  Trace.span tr ~op:(-1) "db_snapshot.write" (fun _ -> Db_snapshot.write buf model);
  let snap_bytes_per_fact = float_of_int (Buffer.length buf) /. float_of_int (Database.cardinal model) in
  let maintained =
    float_of_int c.Session.runs_incremental
    /. float_of_int (c.Session.runs_incremental + c.Session.runs_full)
  in
  (tr, wal_records, wal_bytes, snapshots, snap_bytes_per_fact, maintained, fsync)

(* ---------------- the run ---------------- *)

let run args =
  let s, setup_metric = repeated_setup ~teardown (setup args) in
  let next k = stream ~seed:args.seed s.g k in
  let measure tr_of seconds =
    parallel_loops ~seconds s.conns (fun k c -> op ~next:(next k) ~corrupt:args.corrupt (tr_of k) c)
  in
  let info =
    [ ("gbcd_flags",
       json_string (String.concat " " (gbcd_flags "DIR") ^ " (default --fsync batch:16 --snapshot-every 64)"));
      ("graph_edges", string_of_int (List.length s.g.edges));
      ("chains", string_of_int (Array.length s.g.chains)) ]
  in
  let out =
    if not args.trace then begin
      let l = measure (fun _ -> Trace.off) args.seconds in
      let lm, wall = latency_metrics ~tail:90.0 l in
      { attempted = l.lat.Samples.n;
        failed = l.failed;
        info = wall @ info;
        metrics = setup_metric :: metric "peak_rss_mb" "MiB" (peak_rss_mb (string_of_int s.pid)) :: lm }
    end
    else begin
      let l0 = measure (fun _ -> Trace.off) (args.seconds *. 0.5) in
      let stats_conn = connect s.sock in
      let s0 = stats_of stats_conn in
      let trs = Array.init connections (fun k -> Trace.create ~on:true k) in
      let l1 = measure (fun k -> trs.(k)) (args.seconds *. 0.5) in
      let s1 = stats_of stats_conn in
      close stats_conn;
      let ops1 = float_of_int l1.lat.Samples.n in
      let replay_tr, wal_records, wal_bytes, snapshots, bytes_per_fact, maintained, fsync =
        replay args s.g ~ops:(max 20 (min 300 (l1.lat.Samples.n / connections)))
      in
      let fsync_every = match fsync with Wal.Batch n -> float_of_int n | Wal.Always -> 1.0 | Wal.Never -> infinity in
      let trs = Array.to_list trs and rtr = [ replay_tr ] in
      let thr0 = float_of_int l0.lat.Samples.n /. l0.ref_elapsed and thr1 = ops1 /. l1.ref_elapsed in
      let delta key = json_number s1 key -. json_number s0 key in
      let layer =
        [ metric "protocol.encode_us" "us" (Trace.median_ms trs "protocol.encode" *. 1e3);
          metric "protocol.decode_us" "us" (Trace.median_ms trs "protocol.decode" *. 1e3);
          metric "server.queue_wait_p50_us" "us" (json_number s1 "p50_us");
          metric "server.queue_wait_p99_us" "us" (json_number s1 "p99_us");
          metric "server.inflight_max" "count" (json_number s1 "inflight_max");
          metric "durable.snapshots" "count" (delta "snapshots_written");
          metric "wal.fsyncs_per_op" "1/op" (wal_records /. fsync_every);
          metric "wal.append_us" "us" (Trace.median_ms rtr "wal.append" *. 1e3);
          metric "wal.bytes_per_op" "B/op" wal_bytes;
          metric "db_snapshot.write_ms" "ms" (Trace.median_ms rtr "db_snapshot.write");
          metric "db_snapshot.bytes_per_fact" "B/fact" bytes_per_fact;
          metric "session.load_ms" "ms" (Trace.median_ms rtr "session.load");
          metric "session.run_ms" "ms" (Trace.median_ms rtr "session.run");
          metric "session.query_ms" "ms"
            (median (Array.append (Trace.durations_ms rtr "ivm.assert") (Trace.durations_ms rtr "ivm.retract")));
          metric "session.model_digest_ms" "ms" (Trace.median_ms rtr "session.model_digest");
          metric "ivm.assert_ms" "ms" (Trace.median_ms rtr "ivm.assert");
          metric "ivm.retract_ms" "ms" (Trace.median_ms rtr "ivm.retract");
          metric "ivm.maintained_ratio" "ratio" maintained;
          metric "trace.overhead_pct" "%" ((thr0 /. thr1 -. 1.0) *. 100.0) ]
      in
      Printf.printf "replay: %.2f WAL records/op, %d snapshots, server wal_records +%.0f\n" wal_records
        snapshots (delta "wal_records");
      Trace.dump (trs @ rtr)
        (Filename.concat args.run_dir (Printf.sprintf "trace-serve_update-%d.json" args.seed));
      let samples = l1.lat.Samples.n in
      { attempted = l0.lat.Samples.n + samples;
        failed = l0.failed + l1.failed;
        info =
          ("untraced_throughput", json_float thr0) :: ("traced_throughput", json_float thr1) :: info;
        metrics = List.map (fun m -> { m with samples }) layer }
    end
  in
  teardown s;
  out
