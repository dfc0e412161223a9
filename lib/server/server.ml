(* gbcd: the concurrent query-serving daemon.

   Architecture — one event-loop domain plus a pool of worker domains:

   - The event loop owns every socket through Conn, the layer it
     shares with gbc-router (listeners, the wake-up pipe, frame
     splitting, buffered writes).  It keeps the policy: it decodes
     requests (enveloped, as every in-tree client sends them, or bare,
     as a blocking client without ids sends them) and queues
     session-bound work at most one per connection at a time
     (per-connection FIFO order is what makes assert-then-run
     meaningful).  An enveloped Ping carries no session state, so it
     is dispatched at once, even while a session-bound request is in
     flight, and its reply overtakes (matched by id on the client).
     Bare frames never overtake: their replies come back in request
     order.  Idle tracking and draining are the loop's too.

   - Worker domains block on the work queue, evaluate the request
     against the connection's session under a per-request Limits
     governor, and push the encoded response onto the completion
     queue, waking the loop through a self-pipe.  Workers never touch
     sockets or connection state — only the session they were handed.

   - Workers are supervised: an exception escaping a request handler
     (which already classifies everything it can) answers the client
     with a structured error frame, reports the death on the
     completion queue, and lets the domain exit; the event loop joins
     the corpse and spawns a replacement, so the pool never shrinks
     and no connection hangs on a dead worker.

   - Client disconnects flip the session's cancellation token, so a
     runaway evaluation for a dead client stops at the governor's next
     poll; the orphaned response is discarded.

   - With a data dir configured, sessions are durable: mutations are
     write-ahead logged and periodically snapshotted (see Session and
     Durable), startup restores every on-disk session into the
     detached registry, and a client reclaims its session with Attach.
     The actual connection/session swap happens on the event loop (it
     owns connections); the worker only claims the target under the
     registry lock and posts a [Swap].

   - Shutdown is a graceful drain: stop accepting, finish in-flight
     evaluations and flush their responses, answer queued-but-unstarted
     requests with a Draining error, then join the workers and close.

   Every server-side failure is classified (Session.protect /
   Gbc_error) and returned as a structured Error frame; a connection
   is only ever closed by the client, by a framing violation, by the
   idle reaper, or by drain. *)

module Limits = Gbc_datalog.Limits
module Telemetry = Gbc_datalog.Telemetry

(* A lock-free log2-bucketed histogram: bucket i counts values v with
   floor(log2 v) = i (v = 0 lands in bucket 0).  Cheap enough for the
   per-request hot path, precise enough for tail percentiles — a
   reported percentile is the bucket's upper bound, clamped by the
   true maximum.  Workers add concurrently; readers get a consistent-
   enough snapshot for stats. *)
module Hist = struct
  type t = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum : int Atomic.t;
    max : int Atomic.t;
  }

  let nbuckets = 40

  let create () =
    { buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
      max = Atomic.make 0 }

  let bucket_of v =
    let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
    min (nbuckets - 1) (go 0 (max v 0))

  let add t v =
    let v = max 0 v in
    Atomic.incr t.buckets.(bucket_of v);
    Atomic.incr t.count;
    ignore (Atomic.fetch_and_add t.sum v);
    let rec bump () =
      let m = Atomic.get t.max in
      if v > m && not (Atomic.compare_and_set t.max m v) then bump ()
    in
    bump ()

  let count t = Atomic.get t.count
  let max_value t = Atomic.get t.max

  let mean t =
    let n = Atomic.get t.count in
    if n = 0 then 0.0 else float_of_int (Atomic.get t.sum) /. float_of_int n

  (* the value at percentile p (0 < p <= 100): upper bound of the
     bucket where the cumulative count crosses it *)
  let percentile t p =
    let total = Atomic.get t.count in
    if total = 0 then 0
    else begin
      let target =
        Stdlib.max 1 (int_of_float (Float.round (p *. float_of_int total /. 100.0)))
      in
      let cum = ref 0 in
      let result = ref (Atomic.get t.max) in
      (try
         Array.iteri
           (fun i b ->
             cum := !cum + Atomic.get b;
             if !cum >= target then begin
               result := (2 lsl i) - 1;
               raise Exit
             end)
           t.buckets
       with Exit -> ());
      min !result (Atomic.get t.max)
    end
end

type config = {
  host : string;
  port : int option;  (* None: no TCP listener *)
  unix_path : string option;  (* None: no Unix-domain listener *)
  workers : int;
  default_timeout_s : float option;  (* per-request governor caps *)
  max_facts : int option;
  max_steps : int option;
  max_candidates : int option;
  max_jobs : int;  (* cap on granted evaluation domains per request *)
  max_frame : int;
  cache_capacity : int;
  data_dir : string option;  (* None: ephemeral sessions, no WAL *)
  fsync : Wal.fsync_policy;
  snapshot_every : int;  (* WAL records between snapshots; 0 disables *)
  idle_timeout_s : float option;  (* reap idle conns + detached sessions *)
  worker_fault : int option;  (* tests only: k-th request kills its worker *)
}

let default_config =
  { host = "127.0.0.1";
    port = Some 7411;
    unix_path = None;
    workers = 4;
    default_timeout_s = Some 30.0;
    max_facts = None;
    max_steps = None;
    max_candidates = None;
    max_jobs = 1;
    max_frame = Protocol.max_frame_default;
    cache_capacity = 64;
    data_dir = None;
    fsync = Wal.Batch 16;
    snapshot_every = 64;
    idle_timeout_s = None;
    worker_fault = None }

type conn = {
  ep : Conn.t;
  mutable session : Session.t;  (* event-loop owned; replaced by Attach *)
  pending : (int option * Protocol.request * float) Queue.t;
      (* (envelope id, request, parse time) — parse time feeds the
         queue-wait histogram when a worker finally dequeues it *)
  mutable busy : bool;  (* a session-bound request is with a worker *)
  mutable inflight : int;  (* all requests with workers, independents included *)
  mutable alive : bool;  (* fd open *)
  mutable peer_gone : bool;  (* EOF/error seen; stop reading *)
  mutable close_after_flush : bool;
  mutable last_activity : float;  (* inbound data or completed request *)
}

type post = Keep | Start_drain | Swap of Session.t

type work_item =
  | Job of conn * int option * Protocol.request * bool * float
      (* conn, envelope id, request, session-bound?, parse time *)
  | Quit

type completion =
  | Done of conn * string * post * bool  (* encoded reply, post-action, session-bound? *)
  | Worker_died of int * string  (* slot, cause — respawn it *)

type t = {
  cfg : config;
  listener : Conn.listener;
  cache : Program_cache.t;
  durable : Durable.t option;
  work_m : Mutex.t;
  work_c : Condition.t;
  work : work_item Queue.t;
  done_m : Mutex.t;
  done_q : completion Queue.t;
  wakeup : Conn.wakeup;
  draining : bool Atomic.t;
  started_at : float;
  requests : int Atomic.t;
  errors : int Atomic.t;
  partials : int Atomic.t;
  sessions_total : int Atomic.t;
  (* the session registry: which ids are on a connection, which are
     detached (attachable, conn-less) and when they detached.  Workers
     claim from it (Attach), the event loop releases into it, the idle
     sweep reaps from it — all under [sessions_m]. *)
  sessions_m : Mutex.t;
  live_ids : (int, unit) Hashtbl.t;
  detached : (int, Session.t * float) Hashtbl.t;
  open_conns : int Atomic.t;
  workers_respawned : int Atomic.t;
  sessions_reaped : int Atomic.t;
  sessions_recovered : int Atomic.t;
  conns_idle_closed : int Atomic.t;
  fault_tick : int Atomic.t;  (* counts requests toward [worker_fault] *)
  totals_m : Mutex.t;
  engine_totals : (string, int) Hashtbl.t;
  queue_wait : Hist.t;  (* µs from frame parse to worker dequeue *)
  depth : Hist.t;  (* per-connection in-flight depth at each dispatch *)
  inflight_max : int Atomic.t;  (* deepest pipeline any connection reached *)
  mutable conns : conn list;  (* event-loop owned *)
  read_buf : Bytes.t;
      (* event-loop owned; per server, since servers in one process run
         their loops on different domains at once *)
}

(* ---------------- creation ---------------- *)

let create cfg =
  match
    let cache = Program_cache.create ~capacity:cfg.cache_capacity () in
    let durable =
      match cfg.data_dir with
      | None -> None
      | Some dir -> (
        match Durable.create ~fsync:cfg.fsync ~snapshot_every:cfg.snapshot_every dir with
        | Ok d -> Some d
        | Error msg -> failwith msg)
    in
    (* Recover before binding: warm the compile cache from the program
       store, then rebuild every on-disk session (snapshot + WAL tail)
       into the detached registry — clients reclaim them with Attach.
       Nothing is accepted until the restored state is consistent. *)
    let detached = Hashtbl.create 16 in
    let sessions_total = Atomic.make 0 in
    let sessions_recovered = Atomic.make 0 in
    (match durable with
    | None -> ()
    | Some dur ->
      List.iter
        (fun src -> ignore (Program_cache.find_or_compile cache src))
        (Durable.list_programs dur);
      List.iter
        (fun id ->
          let s = Session.restore ~cache dur id in
          Hashtbl.replace detached id (s, Unix.gettimeofday ());
          Atomic.incr sessions_recovered;
          if id > Atomic.get sessions_total then Atomic.set sessions_total id)
        (Durable.session_ids dur));
    let listener = Conn.listen ~host:cfg.host ~port:cfg.port ~unix_path:cfg.unix_path in
    { cfg;
      listener;
      cache;
      durable;
      work_m = Mutex.create ();
      work_c = Condition.create ();
      work = Queue.create ();
      done_m = Mutex.create ();
      done_q = Queue.create ();
      wakeup = Conn.wakeup ();
      draining = Atomic.make false;
      started_at = Unix.gettimeofday ();
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      partials = Atomic.make 0;
      sessions_total;
      sessions_m = Mutex.create ();
      live_ids = Hashtbl.create 16;
      detached;
      open_conns = Atomic.make 0;
      workers_respawned = Atomic.make 0;
      sessions_reaped = Atomic.make 0;
      sessions_recovered;
      conns_idle_closed = Atomic.make 0;
      fault_tick = Atomic.make 0;
      totals_m = Mutex.create ();
      engine_totals = Hashtbl.create 32;
      queue_wait = Hist.create ();
      depth = Hist.create ();
      inflight_max = Atomic.make 0;
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

(* ---------------- the session registry ---------------- *)

(* Release a session whose connection is gone: attachable sessions
   wait in the detached registry for a reconnecting client (their WAL
   stays open for the next mutation); anything else is discarded.
   During drain nothing waits. *)
let release_session t (s : Session.t) =
  Mutex.protect t.sessions_m (fun () ->
      Hashtbl.remove t.live_ids s.Session.id;
      if s.Session.attachable && not (Atomic.get t.draining) then
        Hashtbl.replace t.detached s.Session.id (s, Unix.gettimeofday ())
      else Session.discard s)

(* Claim a session for attachment: detached in memory first, then —
   when durable — restored from disk (it may have been idle-reaped, or
   belong to a previous daemon run whose startup recovery was itself
   interrupted).  The restore runs under [sessions_m] so two clients
   racing for one id cannot both rebuild it; attaches are rare enough
   that the stall does not matter. *)
let claim_session t id =
  Mutex.protect t.sessions_m (fun () ->
      if Hashtbl.mem t.live_ids id then
        Error (Printf.sprintf "session %d is attached to another connection" id)
      else
        match Hashtbl.find_opt t.detached id with
        | Some (s, _) ->
          Hashtbl.remove t.detached id;
          Hashtbl.replace t.live_ids id ();
          s.Session.cancel := false;
          Ok s
        | None -> (
          match t.durable with
          | Some dur when Durable.session_exists dur id ->
            let s = Session.restore ~cache:t.cache dur id in
            Atomic.incr t.sessions_recovered;
            Hashtbl.replace t.live_ids id ();
            Ok s
          | _ -> Error (Printf.sprintf "no session %d" id)))

(* ---------------- per-request governance ---------------- *)

let opt_min a b = match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (min a b)

(* The effective budget is the pointwise minimum of the server's caps
   and whatever the client asked for — clients tighten, never loosen.
   The cancellation token is always wired in, so a disconnect stops
   even a budget-less run. *)
let effective_limits t (session : Session.t) (b : Protocol.budget) =
  let ms_to_s ms = float_of_int ms /. 1000.0 in
  Limits.create
    ?timeout_s:(opt_min t.cfg.default_timeout_s (Option.map ms_to_s b.Protocol.timeout_ms))
    ?max_facts:(opt_min t.cfg.max_facts b.Protocol.max_facts)
    ?max_steps:(opt_min t.cfg.max_steps b.Protocol.max_steps)
    ?max_candidates:(opt_min t.cfg.max_candidates b.Protocol.max_candidates)
    ~cancel:session.Session.cancel ()

(* Granted parallelism: the client's request clamped by the server's
   [max_jobs]; no request (or a nonsense one) means sequential. *)
let effective_jobs t (b : Protocol.budget) =
  max 1 (min t.cfg.max_jobs (Option.value b.Protocol.jobs ~default:1))

(* ---------------- stats ---------------- *)

let totals_json tbl =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" (Telemetry.json_escape k) v) entries)
  ^ "}"

let durable_json t =
  match t.durable with
  | None -> "null"
  | Some d ->
    Printf.sprintf
      "{\"data_dir\": \"%s\", \"fsync\": \"%s\", \"snapshot_every\": %d, \"wal_records\": %d, \
       \"snapshots_written\": %d}"
      (Telemetry.json_escape (Durable.root d))
      (Wal.fsync_policy_to_string (Durable.fsync d))
      (Durable.snapshot_every d) (Wal.appended ())
      (Durable.snapshots_written ())

let stats_json t (session : Session.t) =
  let cache = Program_cache.stats t.cache in
  let c = session.Session.counters in
  let global_totals = Mutex.protect t.totals_m (fun () -> totals_json t.engine_totals) in
  let sessions_detached = Mutex.protect t.sessions_m (fun () -> Hashtbl.length t.detached) in
  Printf.sprintf
    "{\"server\": {\"workers\": %d, \"max_jobs\": %d, \"uptime_s\": %.3f, \"draining\": %b, \"requests\": %d, \
     \"errors\": %d, \"partials\": %d, \"sessions_total\": %d, \"open_conns\": %d, \
     \"workers_respawned\": %d, \"sessions_detached\": %d, \"sessions_reaped\": %d, \
     \"sessions_recovered\": %d, \"conns_idle_closed\": %d, \"inflight_max\": %d, \
     \"pipelined_depth_p99\": %d, \"queue_wait\": {\"count\": %d, \"mean_us\": %.1f, \
     \"p50_us\": %d, \"p99_us\": %d, \"max_us\": %d}, \"durable\": %s, \"cache\": {\"hits\": %d, \
     \"misses\": %d, \"evictions\": %d, \"entries\": %d, \"programs_compiled\": %d, \
     \"compile_ms_total\": %.3f}, \"engine\": %s}, \"session\": \
     {\"id\": %d, \"requests\": %d, \"evaluations\": %d, \"partials\": %d, \"errors\": %d, \
     \"facts_asserted\": %d, \"facts_retracted\": %d, \"runs_incremental\": %d, \
     \"runs_full\": %d, \"ivm_fallbacks\": %d, \"eval_wall_s\": %.6f, \"engine\": %s}}"
    t.cfg.workers t.cfg.max_jobs
    (Unix.gettimeofday () -. t.started_at)
    (Atomic.get t.draining) (Atomic.get t.requests) (Atomic.get t.errors)
    (Atomic.get t.partials)
    (Atomic.get t.sessions_total)
    (Atomic.get t.open_conns)
    (Atomic.get t.workers_respawned)
    sessions_detached
    (Atomic.get t.sessions_reaped)
    (Atomic.get t.sessions_recovered)
    (Atomic.get t.conns_idle_closed)
    (Atomic.get t.inflight_max)
    (Hist.percentile t.depth 99.0)
    (Hist.count t.queue_wait) (Hist.mean t.queue_wait)
    (Hist.percentile t.queue_wait 50.0)
    (Hist.percentile t.queue_wait 99.0)
    (Hist.max_value t.queue_wait)
    (durable_json t) cache.Program_cache.hits cache.Program_cache.misses
    cache.Program_cache.evictions cache.Program_cache.entries
    cache.Program_cache.programs_compiled cache.Program_cache.compile_ms_total global_totals
    session.Session.id
    c.Session.requests c.Session.evaluations c.Session.partials c.Session.errors
    c.Session.facts_asserted c.Session.facts_retracted c.Session.runs_incremental
    c.Session.runs_full c.Session.ivm_fallbacks c.Session.eval_wall_s
    (totals_json c.Session.engine_totals)

(* ---------------- request handling (worker side) ---------------- *)

let merge_global_totals t telemetry =
  match Telemetry.totals telemetry with
  | [] -> ()
  | totals ->
    Mutex.protect t.totals_m (fun () ->
        List.iter
          (fun (k, v) ->
            let prev = try Hashtbl.find t.engine_totals k with Not_found -> 0 in
            Hashtbl.replace t.engine_totals k (prev + v))
          totals)

let handle_request t (session : Session.t) req : Protocol.response * post =
  Atomic.incr t.requests;
  session.Session.counters.Session.requests <-
    session.Session.counters.Session.requests + 1;
  let err (code, message) =
    Atomic.incr t.errors;
    session.Session.counters.Session.errors <- session.Session.counters.Session.errors + 1;
    (Protocol.Error { code; message }, Keep)
  in
  try
    match req with
    | Protocol.Ping -> (Protocol.Pong, Keep)
    | Protocol.Shutdown -> (Protocol.Bye, Start_drain)
    | Protocol.Stats -> (Protocol.Stats_json (stats_json t session), Keep)
    | Protocol.Attach None ->
      (* survive this connection: from now on the session outlives its
         socket and can be reclaimed by id *)
      session.Session.attachable <- true;
      (Protocol.Attached { id = session.Session.id }, Keep)
    | Protocol.Attach (Some id) ->
      if id = session.Session.id then (Protocol.Attached { id }, Keep)
      else (
        match claim_session t id with
        | Ok s -> (Protocol.Attached { id }, Swap s)
        | Error msg -> err (Protocol.No_session, msg))
    | Protocol.Load src -> (
      match Session.load session src with
      | Ok (entry, cache_hit) ->
        ( Protocol.Loaded
            { clauses = entry.Program_cache.clauses;
              cache_hit;
              digest = entry.Program_cache.digest;
              stage_stratified = entry.Program_cache.stage_stratified },
          Keep )
      | Error e -> err e)
    | Protocol.Assert_facts { text; id } -> (
      match Session.assert_facts ?id session text with
      | Ok added -> (Protocol.Asserted { added }, Keep)
      | Error e -> err e)
    | Protocol.Retract_facts { text; id } -> (
      match Session.retract_facts ?id session text with
      | Ok removed -> (Protocol.Retracted { removed }, Keep)
      | Error e -> err e)
    | Protocol.Run { engine; seed; preds; budget } -> (
      let limits = effective_limits t session budget in
      let jobs = effective_jobs t budget in
      let telemetry = Telemetry.create () in
      let result = Session.run session ~engine ~seed ~jobs ~limits ~telemetry in
      merge_global_totals t telemetry;
      match result with
      | Ok (Limits.Complete db) ->
        (Protocol.Model { complete = true; text = Session.render_model ?preds db; diagnostic = None }, Keep)
      | Ok (Limits.Partial (db, d)) ->
        Atomic.incr t.partials;
        ( Protocol.Model
            { complete = false;
              text = Session.render_model ?preds db;
              diagnostic = Some (Format.asprintf "%a" Limits.pp_diagnostics d) },
          Keep )
      | Error e -> err e)
    | Protocol.Enumerate { max_models; preds } -> (
      let limits = effective_limits t session Protocol.no_budget in
      match Session.enumerate session ~max_models:(max 1 max_models) ~limits with
      | Ok models ->
        ( Protocol.Model_set
            { total = List.length models;
              models = List.map (fun db -> Session.render_model ?preds db) models },
          Keep )
      | Error e -> err e)
    | Protocol.Query { engine; text; budget } -> (
      let limits = effective_limits t session budget in
      let jobs = effective_jobs t budget in
      let telemetry = Telemetry.create () in
      let result = Session.query session ~engine ~text ~jobs ~limits ~telemetry in
      merge_global_totals t telemetry;
      match result with
      | Ok (complete, vars, rows) ->
        if not complete then Atomic.incr t.partials;
        (Protocol.Answers { complete; vars; rows }, Keep)
      | Error e -> err e)
  with e ->
    (* last-resort classification: a worker must survive anything *)
    err (Protocol.Server_error, Printexc.to_string e)

let worker t slot =
  let pop () =
    Mutex.lock t.work_m;
    while Queue.is_empty t.work do
      Condition.wait t.work_c t.work_m
    done;
    let item = Queue.pop t.work in
    Mutex.unlock t.work_m;
    item
  in
  let rec go () =
    match pop () with
    | Quit -> ()
    | Job (conn, rid, req, session_bound, parsed_at) -> (
      Hist.add t.queue_wait
        (int_of_float ((Unix.gettimeofday () -. parsed_at) *. 1e6));
      match
        (match t.cfg.worker_fault with
        | Some k when k = 1 + Atomic.fetch_and_add t.fault_tick 1 ->
          (* tests only: simulate a handler bug that escapes every
             classification layer *)
          failwith "injected worker fault"
        | _ -> ());
        handle_request t conn.session req
      with
      | resp, post ->
        let bytes = Conn.encode_reply rid resp in
        Mutex.protect t.done_m (fun () ->
            Queue.push (Done (conn, bytes, post, session_bound)) t.done_q);
        Conn.wake t.wakeup;
        go ()
      | exception e ->
        (* This domain is compromised: answer the client with a
           structured error (never a hung connection), report the
           death for respawning, and exit the domain. *)
        Atomic.incr t.errors;
        let bytes =
          Conn.encode_reply rid
            (Protocol.Error
               { code = Protocol.Server_error;
                 message = "worker crashed handling this request: " ^ Printexc.to_string e })
        in
        Mutex.protect t.done_m (fun () ->
            Queue.push (Done (conn, bytes, Keep, session_bound)) t.done_q;
            Queue.push (Worker_died (slot, Printexc.to_string e)) t.done_q);
        Conn.wake t.wakeup)
  in
  go ()

(* ---------------- event loop ---------------- *)

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Atomic.decr t.open_conns;
    Conn.close c.ep;
    release_session t c.session
  end

let on_peer_gone t c =
  if not c.peer_gone then begin
    c.peer_gone <- true;
    (* stop any in-flight evaluation for this client at the governor's
       next poll *)
    c.session.Session.cancel := true;
    Queue.clear c.pending
  end;
  if c.inflight = 0 then close_conn t c

let enqueue_job t c (rid, req, parsed_at) ~session_bound =
  if session_bound then c.busy <- true;
  c.inflight <- c.inflight + 1;
  Hist.add t.depth c.inflight;
  if c.inflight > Atomic.get t.inflight_max then Atomic.set t.inflight_max c.inflight;
  Mutex.protect t.work_m (fun () ->
      Queue.push (Job (c, rid, req, session_bound, parsed_at)) t.work);
  Condition.signal t.work_c

let dispatch t c =
  if c.alive && not (Queue.is_empty c.pending) then begin
    if Atomic.get t.draining then begin
      (* drain answers queued-but-unstarted work without evaluating *)
      Queue.iter
        (fun (rid, _, _) ->
          Conn.reply c.ep rid
            (Protocol.Error { code = Protocol.Draining; message = "server is draining" }))
        c.pending;
      Queue.clear c.pending;
      c.close_after_flush <- true
    end
    else begin
      (* an enveloped Ping touches no session state, so it goes to a
         worker at once, out of order; everything else, and all bare
         traffic, stays one-at-a-time FIFO *)
      let keep = Queue.create () in
      Queue.iter
        (fun ((rid, req, _) as item) ->
          match (rid, req) with
          | Some _, Protocol.Ping -> enqueue_job t c item ~session_bound:false
          | _ -> Queue.push item keep)
        c.pending;
      Queue.clear c.pending;
      Queue.transfer keep c.pending;
      if (not c.busy) && not (Queue.is_empty c.pending) then
        enqueue_job t c (Queue.pop c.pending) ~session_bound:true
    end
  end

let accept_conn t fd =
  let id = 1 + Atomic.fetch_and_add t.sessions_total 1 in
  Mutex.protect t.sessions_m (fun () -> Hashtbl.replace t.live_ids id ());
  Atomic.incr t.open_conns;
  let c =
    { ep = Conn.create fd;
      session = Session.create ?durable:t.durable ~cache:t.cache ~id ();
      pending = Queue.create ();
      busy = false;
      inflight = 0;
      alive = true;
      peer_gone = false;
      close_after_flush = false;
      last_activity = Unix.gettimeofday () }
  in
  t.conns <- c :: t.conns

(* Framing or decoding failed: the stream is desynchronized beyond
   repair, so answer bare and stop reading. *)
let refuse c message =
  Conn.reply c.ep None (Protocol.Error { code = Protocol.Protocol_violation; message });
  c.peer_gone <- true;
  c.close_after_flush <- true

let on_readable t c =
  match Conn.read c.ep t.read_buf with
  | Conn.Again -> ()
  | Conn.Eof | Conn.Failed _ -> on_peer_gone t c
  | Conn.Data ->
    c.last_activity <- Unix.gettimeofday ();
    Conn.frames c.ep ~max_frame:t.cfg.max_frame
      ~on_bad_length:(fun n -> refuse c (Printf.sprintf "unacceptable frame length %d" n))
      (fun body ->
        match Protocol.decode_request body with
        | Ok (rid, req) ->
          Queue.push (rid, req, Unix.gettimeofday ()) c.pending;
          true
        | Error msg ->
          refuse c msg;
          false);
    dispatch t c

let out_pending c = Conn.out_pending c.ep

let on_writable t c =
  (* a peer that can no longer receive is torn down cleanly, never a
     crash (SIGPIPE is ignored process-wide) *)
  (match Conn.flush c.ep with Ok () -> () | Error _ -> on_peer_gone t c);
  if out_pending c = 0 && c.close_after_flush && c.inflight = 0 && Queue.is_empty c.pending
  then close_conn t c

let drain_completions t ~respawn =
  let items =
    Mutex.protect t.done_m (fun () ->
        let xs = List.of_seq (Queue.to_seq t.done_q) in
        Queue.clear t.done_q;
        xs)
  in
  List.iter
    (fun item ->
      match item with
      | Worker_died (slot, cause) ->
        Printf.eprintf "gbcd: worker %d died (%s); respawning\n%!" slot cause;
        respawn slot
      | Done (c, bytes, post, session_bound) ->
        if session_bound then c.busy <- false;
        c.inflight <- c.inflight - 1;
        c.last_activity <- Unix.gettimeofday ();
        (match post with
        | Start_drain -> Atomic.set t.draining true
        | Swap s ->
          if c.alive && not c.peer_gone then begin
            (* the connection abandons its old session for the claimed
               one; the old one waits detached (if attachable) or dies *)
            release_session t c.session;
            s.Session.cancel := false;
            c.session <- s
          end
          else
            (* the client vanished mid-attach: the claimed session goes
               straight back to the registry *)
            release_session t s
        | Keep -> ());
        if c.alive && not c.peer_gone then Conn.send c.ep bytes
        else if c.alive && c.inflight = 0 then close_conn t c;
        dispatch t c)
    items

(* Reap what the idle timeout says is abandoned: detached sessions
   nobody reclaimed (their WAL fds close with them; the on-disk state
   stays reclaimable via Attach) and connections with no traffic, no
   pending work and nothing in flight. *)
let sweep_idle t now timeout =
  let reaped =
    Mutex.protect t.sessions_m (fun () ->
        let dead =
          Hashtbl.fold
            (fun id (s, since) acc -> if now -. since >= timeout then (id, s) :: acc else acc)
            t.detached []
        in
        List.iter (fun (id, _) -> Hashtbl.remove t.detached id) dead;
        dead)
  in
  List.iter
    (fun (_, s) ->
      Session.discard s;
      Atomic.incr t.sessions_reaped)
    reaped;
  List.iter
    (fun c ->
      if
        c.alive && c.inflight = 0
        && Queue.is_empty c.pending
        && out_pending c = 0
        && now -. c.last_activity >= timeout
      then begin
        Atomic.incr t.conns_idle_closed;
        on_peer_gone t c
      end)
    t.conns

(* The select timeout is the distance to the nearest deadline — the
   next idle sweep (when an idle timeout is configured) or the next
   batched-WAL staleness flush — and infinite when there is none: the
   self-pipe wakes the loop for completions, so an idle server makes
   no wakeups at all instead of ticking on a fixed period. *)
let select_timeout t ~last_sweep =
  let deadlines =
    (match t.cfg.idle_timeout_s with
    | Some _ -> [ last_sweep +. 1.0 ]
    | None -> [])
    @ (match Wal.next_flush_deadline () with Some d -> [ d ] | None -> [])
  in
  match deadlines with
  | [] -> -1.0
  | ds ->
    Float.max 0.0 (List.fold_left Float.min Float.infinity ds -. Unix.gettimeofday ())

let run t =
  let domains = Array.init t.cfg.workers (fun slot -> Some (Domain.spawn (fun () -> worker t slot))) in
  (* how many live workers will consume a Quit at drain time *)
  let live = ref t.cfg.workers in
  let respawn slot =
    (match domains.(slot) with
    | Some d -> Domain.join d  (* the domain already exited; reclaim it *)
    | None -> ());
    domains.(slot) <- None;
    Atomic.incr t.workers_respawned;
    if Atomic.get t.draining then decr live
    else domains.(slot) <- Some (Domain.spawn (fun () -> worker t slot))
  in
  let last_sweep = ref (Unix.gettimeofday ()) in
  let rec loop () =
    t.conns <- List.filter (fun c -> c.alive || c.inflight > 0) t.conns;
    if finished t then ()
    else begin
      let fds_where p =
        List.filter_map (fun c -> if p c then Some (Conn.fd c.ep) else None) t.conns
      in
      let readable, writable =
        Conn.select t.wakeup t.listener
          ~accepting:(not (Atomic.get t.draining))
          ~on_accept:(accept_conn t)
          (fds_where (fun c -> c.alive && not c.peer_gone))
          (fds_where (fun c -> c.alive && out_pending c > 0))
          (select_timeout t ~last_sweep:!last_sweep)
      in
      List.iter
        (fun c -> if c.alive && List.mem (Conn.fd c.ep) readable then on_readable t c)
        t.conns;
      List.iter
        (fun c -> if c.alive && List.mem (Conn.fd c.ep) writable then on_writable t c)
        t.conns;
      drain_completions t ~respawn;
      Wal.sync_stale ();
      (match t.cfg.idle_timeout_s with
      | Some timeout ->
        let now = Unix.gettimeofday () in
        if now -. !last_sweep >= 1.0 then begin
          last_sweep := now;
          sweep_idle t now timeout
        end
      | None -> ());
      (* drain mode: flush Draining errors to idle connections *)
      if Atomic.get t.draining then List.iter (fun c -> dispatch t c) t.conns;
      loop ()
    end
  and finished t =
    Atomic.get t.draining
    && List.for_all (fun c -> c.inflight = 0 && ((not c.alive) || out_pending c = 0)) t.conns
  in
  loop ();
  (* drained: release everything *)
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  Mutex.protect t.sessions_m (fun () ->
      Hashtbl.iter (fun _ (s, _) -> Session.discard s) t.detached;
      Hashtbl.reset t.detached);
  Conn.close_listener t.listener;
  Mutex.protect t.work_m (fun () ->
      for _ = 1 to !live do
        Queue.push Quit t.work
      done);
  Condition.broadcast t.work_c;
  Array.iter (Option.iter Domain.join) domains;
  Conn.close_wakeup t.wakeup
