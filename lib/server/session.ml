(* A session: one connected client's private view of the engine.

   A session owns a reference to an immutable cache entry (the
   compiled program) and a private database snapshot taken from the
   entry's frozen fact base with [Database.copy] — copy-on-write at
   the relation level, so isolation between sessions sharing a cached
   program costs O(#relations) until a session actually asserts.

   Asserted facts form a multiset: asserting the same row twice means
   retracting it once still leaves it visible.  Retraction is exact —
   a batch that tries to remove more occurrences than the session
   asserted (or a fact owned by the loaded program) is refused as a
   whole, mutating nothing.

   Lifecycle:
     Load        -> snapshot := copy(entry.base); multiset := {};
                    materialization dropped
     Assert      -> occurrences recorded; net-new rows enter the
                    snapshot and the pending delta
     Retract     -> occurrences removed; rows whose count hits zero
                    (and that the program does not own) leave the
                    snapshot and enter the pending delta
     Run/Query   -> with a live materialization for the same
                    (engine, seed): repair it incrementally from the
                    pending delta (Ivm.apply) — or serve it as-is when
                    nothing changed.  Otherwise evaluate from scratch
                    on copy(snapshot) and materialize the complete
                    model for next time.
     Enumerate   -> always from scratch (a model set has no single
                    materialization)

   A session is driven by at most one worker at a time (the server
   dispatches one request per connection), so nothing here needs a
   lock; the only cross-domain touch is [cancel], which the event loop
   sets when the client disconnects and the governor polls. *)

module Ast = Gbc_datalog.Ast
module Database = Gbc_datalog.Database
module Relation = Gbc_datalog.Relation
module Value = Gbc_datalog.Value
module Parser = Gbc_datalog.Parser
module Eval = Gbc_datalog.Eval
module Compile = Gbc_datalog.Compile
module Ivm = Gbc_datalog.Ivm
module Par = Gbc_datalog.Par
module Limits = Gbc_datalog.Limits
module Telemetry = Gbc_datalog.Telemetry
module Gbc_error = Gbc_datalog.Gbc_error
module Choice_fixpoint = Gbc_datalog.Choice_fixpoint
module Stage_engine = Gbc_datalog.Stage_engine
module Lexer = Gbc_datalog.Lexer

type counters = {
  mutable requests : int;
  mutable evaluations : int;  (* Run + Enumerate + Query *)
  mutable partials : int;
  mutable errors : int;
  mutable facts_asserted : int;
  mutable facts_retracted : int;
  mutable runs_incremental : int;  (* served by maintaining the materialized model *)
  mutable runs_full : int;  (* from-scratch engine evaluations *)
  mutable ivm_fallbacks : int;  (* materializations dropped (choice reach, errors) *)
  mutable eval_wall_s : float;
  engine_totals : (string, int) Hashtbl.t;  (* summed Telemetry.totals *)
}

type materialization = {
  mat_engine : Protocol.engine;
  mat_seed : int option;
  ivm : Ivm.t;
}

(* Durability state of one session: its WAL handle (fd opened lazily,
   so sessions that never load a program leave nothing on disk), the
   next LSN to assign, and how many records were appended since the
   last snapshot. *)
type durability = {
  dur : Durable.t;
  wal : Wal.t;
  mutable next_lsn : int;
  mutable since_snapshot : int;
}

type t = {
  id : int;
  cache : Program_cache.t;
  cancel : bool ref;
  mutable entry : Program_cache.entry option;
  mutable db : Database.t option;  (* base snapshot + net asserted facts *)
  mutable asserted : (string, int Relation.Row_tbl.t) Hashtbl.t;
      (* occurrence count per asserted row, by predicate *)
  mutable pending_inserts : (string * Value.t array) list;  (* newest first *)
  mutable pending_deletes : (string * Value.t array) list;  (* newest first *)
  mutable mat : materialization option;
  durability : durability option;
  mutable replaying : bool;  (* recovery replay: suppress WAL writes *)
  mutable last_mut : (int * int) option;  (* exactly-once dedup: (request id, result) *)
  mutable recent_muts : (int * int) list;  (* bounded dedup window for pipelined replay *)
  mutable attachable : bool;  (* survives its connection in memory *)
  counters : counters;
}

type error = Protocol.error_code * string

let create ?durable ~cache ~id () =
  { id;
    cache;
    cancel = ref false;
    entry = None;
    db = None;
    asserted = Hashtbl.create 8;
    pending_inserts = [];
    pending_deletes = [];
    mat = None;
    durability =
      Option.map
        (fun dur ->
          { dur;
            wal = Wal.create ~fsync:(Durable.fsync dur) (Durable.wal_path dur id);
            next_lsn = 0;
            since_snapshot = 0 })
        durable;
    replaying = false;
    last_mut = None;
    recent_muts = [];
    attachable = false;
    counters =
      { requests = 0; evaluations = 0; partials = 0; errors = 0; facts_asserted = 0;
        facts_retracted = 0; runs_incremental = 0; runs_full = 0; ivm_fallbacks = 0;
        eval_wall_s = 0.0; engine_totals = Hashtbl.create 16 } }

let discard t =
  match t.durability with None -> () | Some d -> Wal.close d.wal

let of_gbc_error (e : Gbc_error.t) : error =
  let code =
    match e with
    | Gbc_error.Lex _ -> Protocol.Lex_error
    | Gbc_error.Parse _ -> Protocol.Parse_error
    | Gbc_error.Unsafe _ -> Protocol.Unsafe
    | Gbc_error.Unsupported _ -> Protocol.Unsupported
    | Gbc_error.Not_compilable _ -> Protocol.Not_compilable
    | Gbc_error.Io _ -> Protocol.Io_error
  in
  (code, Gbc_error.to_string e)

(* Classify like Gbc_error.protect, but also absorb the
   [Invalid_argument]s the substrate raises on arity clashes and
   rule-shape violations — a client must never crash a worker. *)
let protect f =
  match Gbc_error.protect f with
  | Ok v -> Ok v
  | Error e -> Error (of_gbc_error e)
  | exception Invalid_argument msg -> Error (Protocol.Unsupported, msg)

(* ---------------- rendering ---------------- *)

(* perfbench calls this name; it is the canonical rendering. *)
let render_model = Database.render

(* A served model is logged and snapshotted with [Database.digest].
   Data dirs written before it carry the MD5 of the canonical rendering
   instead (32 hex digits; multiset digests are longer), which recovery
   still verifies the old way. *)
let legacy_digest db = Digest.to_hex (Digest.string (Database.render db))

let digest_matches model digest =
  if String.length digest = 32 then String.equal (legacy_digest model) digest
  else String.equal (Database.digest model) digest

(* ---------------- durability ---------------- *)

(* Log-before-apply: the record must be on the log (per the fsync
   policy) before the mutation touches memory.  A failed append is an
   [io-error] frame and the mutation is NOT applied — the client can
   retry.  During recovery replay the log already holds the record, so
   appends are suppressed. *)
let log_record t record =
  match t.durability with
  | None -> Ok ()
  | Some _ when t.replaying -> Ok ()
  | Some d -> (
    match Wal.append d.wal ~lsn:d.next_lsn record with
    | () ->
      d.next_lsn <- d.next_lsn + 1;
      d.since_snapshot <- d.since_snapshot + 1;
      Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
      Error
        ( Protocol.Io_error,
          Printf.sprintf "write-ahead log append failed: %s: %s" fn (Unix.error_message e) ))

let engine_to_int = function Protocol.Staged -> 0 | Protocol.Reference -> 1
let engine_of_int n = if n = 1 then Protocol.Reference else Protocol.Staged

(* Collapse the WAL into a fresh snapshot once enough records piled
   up.  The materialized model is stored only when nothing is pending
   (then it, its engine key and its digest fully describe
   the session's warm state); with mutations pending the next run is
   full anyway, so recovery just drops the materialization.  A failed
   snapshot only warns — the WAL still holds everything. *)
let maybe_snapshot t =
  match t.durability with
  | Some d when (not t.replaying) && Durable.snapshot_every d.dur > 0
                && d.since_snapshot >= Durable.snapshot_every d.dur -> (
    match t.db with
    | None -> ()
    | Some db -> (
      let multiset =
        Hashtbl.fold
          (fun pred tb acc ->
            Relation.Row_tbl.fold (fun row n acc -> (pred, row, n) :: acc) tb acc)
          t.asserted []
      in
      let mat =
        match (t.mat, t.pending_inserts, t.pending_deletes) with
        | Some m, [], [] ->
          let model = Ivm.model m.ivm in
          Some
            { Durable.m_engine = engine_to_int m.mat_engine;
              m_seed = m.mat_seed;
              model;
              model_digest = Database.digest model }
        | _ -> None
      in
      let snap =
        { Durable.last_lsn = d.next_lsn - 1;
          digest = Option.map (fun e -> e.Program_cache.digest) t.entry;
          db;
          multiset;
          last_mut = t.last_mut;
          mat }
      in
      (* reset the counter either way: on failure we retry after
         another [snapshot_every] records, not on every append *)
      d.since_snapshot <- 0;
      match Durable.write_snapshot d.dur ~id:t.id snap with
      | Ok () -> ( try Wal.reset d.wal with Unix.Unix_error _ -> ())
      | Error msg -> Durable.warn d.dur (Printf.sprintf "session %d: %s" t.id msg)))
  | _ -> ()

(* ---------------- load / assert / retract ---------------- *)

let load t source =
  match Program_cache.find_or_compile t.cache source with
  | Error e -> Error (of_gbc_error e)
  | Ok (entry, hit) -> (
    (* Persist the source first (the WAL only names its digest), then
       log, then apply. *)
    (match t.durability with
    | Some d when not t.replaying ->
      Durable.store_program d.dur ~digest:entry.Program_cache.digest ~source
    | _ -> ());
    match log_record t (Wal.Load { digest = entry.Program_cache.digest }) with
    | Error e -> Error e
    | Ok () ->
      t.entry <- Some entry;
      t.db <- Some (Database.copy entry.Program_cache.base);
      t.asserted <- Hashtbl.create 8;
      t.pending_inserts <- [];
      t.pending_deletes <- [];
      t.mat <- None;
      maybe_snapshot t;
      Ok (entry, hit))

let parse_ground_facts text =
  protect (fun () ->
      let clauses = Parser.parse_program text in
      List.map
        (fun r ->
          if not (Ast.is_fact r) then
            raise (Parser.Error ("expected ground facts only", { Lexer.line = 0; col = 0 }));
          (r.Ast.head.Ast.pred, Array.of_list (List.map Ast.term_to_value r.Ast.head.Ast.args)))
        clauses)

let with_db t f =
  match t.db with
  | None -> Error (Protocol.No_program, "no program loaded (send a load frame first)")
  | Some db -> f db

let occ_tbl t pred =
  match Hashtbl.find_opt t.asserted pred with
  | Some tb -> tb
  | None ->
    let tb = Relation.Row_tbl.create 8 in
    Hashtbl.replace t.asserted pred tb;
    tb

let occ_count t pred row =
  match Hashtbl.find_opt t.asserted pred with
  | None -> 0
  | Some tb -> ( try Relation.Row_tbl.find tb row with Not_found -> 0)

(* Remove the first pending entry equal to (pred, row); [None] when
   absent.  Pending lists are the (small) net delta since the last
   materialization, so linear scans are fine. *)
let rec remove_first pred (row : Value.t array) = function
  | [] -> None
  | (p, r) :: rest when String.equal p pred && Relation.Row_key.equal r row -> Some rest
  | x :: rest -> Option.map (fun rest' -> x :: rest') (remove_first pred row rest)

(* Exactly-once dedup: a client that lost the response to a mutation
   resends it under the same request id; an id the session already
   applied is answered from the recorded result instead of applied
   twice.  The blocking client replays only its last unacknowledged
   mutation ([last_mut], which also rides snapshots), but a pipelined
   client reconnecting replays {e every} in-flight request, so a
   bounded window of recent ids backs the single slot.  The window is
   not snapshotted: WAL-tail replay repopulates it through the normal
   mutation paths, which covers exactly the records a replaying client
   could still resend. *)
let recent_muts_cap = 128

let dedup t id =
  match id with
  | None -> None
  | Some i -> (
    match t.last_mut with
    | Some (j, result) when i = j -> Some result
    | _ -> List.assoc_opt i t.recent_muts)

let record_mut t id result =
  match (id, result) with
  | Some i, Ok n ->
    t.last_mut <- Some (i, n);
    let window = (i, n) :: t.recent_muts in
    t.recent_muts <-
      (if List.length window > recent_muts_cap then
         List.filteri (fun k _ -> k < recent_muts_cap) window
       else window)
  | _ -> ()

let assert_facts ?id t text =
  match dedup t id with
  | Some result -> Ok result
  | None ->
    with_db t (fun db ->
        match parse_ground_facts text with
        | Error e -> Error e
        | Ok facts -> (
          match log_record t (Wal.Assert { text; id }) with
          | Error e -> Error e
          | Ok () ->
            let result =
              protect (fun () ->
            let added =
              List.fold_left
                (fun added (pred, row) ->
                  let tb = occ_tbl t pred in
                  let n = try Relation.Row_tbl.find tb row with Not_found -> 0 in
                  Relation.Row_tbl.replace tb row (n + 1);
                  if Database.add_fact db pred row then begin
                    (* A net-new visible row: it either cancels a
                       pending delete (re-asserted since the last
                       materialization) or becomes a pending insert. *)
                    (match remove_first pred row t.pending_deletes with
                    | Some rest -> t.pending_deletes <- rest
                    | None -> t.pending_inserts <- (pred, row) :: t.pending_inserts);
                    added + 1
                  end
                  else added)
                0 facts
            in
                  t.counters.facts_asserted <- t.counters.facts_asserted + List.length facts;
                  added)
            in
            record_mut t id result;
            maybe_snapshot t;
            result))

(* Retraction removes exactly one asserted occurrence per batch entry.
   The whole batch is validated against the occurrence multiset first:
   if any entry exceeds what the session asserted — including facts
   owned by the loaded program, which are immutable — the request is
   refused and nothing (snapshot, multiset, counters) changes. *)
let retract_facts ?id t text =
  match dedup t id with
  | Some result -> Ok result
  | None -> (
  match (t.entry, t.db) with
  | None, _ | _, None ->
    Error (Protocol.No_program, "no program loaded (send a load frame first)")
  | Some entry, Some db -> (
    match parse_ground_facts text with
    | Error e -> Error e
    | Ok facts ->
      (* Batch multiset: how many occurrences of each row this request
         wants gone (the same fact may appear twice in one batch). *)
      let need : (string * int Relation.Row_tbl.t) list ref = ref [] in
      let need_tbl pred =
        match List.assoc_opt pred !need with
        | Some tb -> tb
        | None ->
          let tb = Relation.Row_tbl.create 8 in
          need := (pred, tb) :: !need;
          tb
      in
      List.iter
        (fun (pred, row) ->
          let tb = need_tbl pred in
          let n = try Relation.Row_tbl.find tb row with Not_found -> 0 in
          Relation.Row_tbl.replace tb row (n + 1))
        facts;
      let bad = ref None in
      List.iter
        (fun (pred, tb) ->
          Relation.Row_tbl.iter
            (fun row n ->
              if !bad = None && occ_count t pred row < n then bad := Some (pred, row))
            tb)
        !need;
      match !bad with
      | Some (pred, row) ->
        let owned = Database.mem_fact entry.Program_cache.base pred row in
        Error
          ( Protocol.Not_retractable,
            Printf.sprintf "cannot retract %s: %s" (Database.fact_to_string pred row)
              (if owned then "the fact is owned by the loaded program"
               else "the fact was never asserted (or was already retracted)") )
      | None -> (
        (* validated: every occurrence is retractable, so log it — a
           replay of this record revalidates against the same state
           and succeeds identically *)
        match log_record t (Wal.Retract { text; id }) with
        | Error e -> Error e
        | Ok () ->
          let result =
            protect (fun () ->
            List.iter
              (fun (pred, tb) ->
                let gone = ref [] in
                Relation.Row_tbl.iter
                  (fun row n ->
                    let cur = occ_count t pred row in
                    let left = cur - n in
                    let otb = occ_tbl t pred in
                    if left > 0 then Relation.Row_tbl.replace otb row left
                    else begin
                      Relation.Row_tbl.remove otb row;
                      (* The last occurrence is gone; the row leaves
                         the snapshot unless the program owns it. *)
                      if not (Database.mem_fact entry.Program_cache.base pred row)
                      then begin
                        gone := row :: !gone;
                        match remove_first pred row t.pending_inserts with
                        | Some rest -> t.pending_inserts <- rest
                        | None -> t.pending_deletes <- (pred, row) :: t.pending_deletes
                      end
                    end)
                  tb;
                (* one removal pass per predicate for the whole batch *)
                match (!gone, Database.find db pred) with
                | _ :: _, Some rel -> Database.set_relation db pred (Relation.remove rel !gone)
                | _ -> ())
              !need;
            t.counters.facts_retracted <- t.counters.facts_retracted + List.length facts;
            List.length facts)
          in
          record_mut t id result;
          maybe_snapshot t;
          result)))

(* ---------------- evaluation ---------------- *)

let map_outcome f = function
  | Limits.Complete x -> Limits.Complete (f x)
  | Limits.Partial (x, d) -> Limits.Partial (f x, d)

let note_eval t telemetry t0 =
  t.counters.evaluations <- t.counters.evaluations + 1;
  t.counters.eval_wall_s <- t.counters.eval_wall_s +. (Unix.gettimeofday () -. t0);
  List.iter
    (fun (k, v) ->
      let prev = try Hashtbl.find t.counters.engine_totals k with Not_found -> 0 in
      Hashtbl.replace t.counters.engine_totals k (prev + v))
    (Telemetry.totals telemetry)

(* The materialization is keyed by what makes a run's model unique:
   the engine, and for the reference engine its choice seed. *)
let run_key engine seed =
  match engine with
  | Protocol.Staged -> (Protocol.Staged, None)
  | Protocol.Reference -> (Protocol.Reference, seed)

(* Try to serve this run from the live materialization: nothing
   pending means the model is already current; otherwise repair it
   from the pending delta.  [None] means evaluate from scratch —
   because there is no materialization for this (engine, seed), or the
   repair refused (choice stratum reachable) or failed (budget,
   substrate error): those drop the materialization, and the
   from-scratch run surfaces any real error through [protect]. *)
let try_incremental t ~key ~jobs ~limits ~telemetry =
  match t.mat with
  | Some m when (m.mat_engine, m.mat_seed) = key -> (
    match (t.pending_inserts, t.pending_deletes) with
    | [], [] -> Some (Limits.Complete (Ivm.model m.ivm))
    | ins, dels -> (
      let drop () =
        t.mat <- None;
        t.counters.ivm_fallbacks <- t.counters.ivm_fallbacks + 1;
        None
      in
      match
        Ivm.apply ~telemetry ~limits ~pool:(Par.get jobs) m.ivm
          ~inserts:(List.rev ins) ~deletes:(List.rev dels)
      with
      | Ivm.Maintained ->
        t.pending_inserts <- [];
        t.pending_deletes <- [];
        Some (Limits.Complete (Ivm.model m.ivm))
      | Ivm.Fallback _ -> drop ()
      | exception _ -> drop ()))
  | _ -> None

(* A complete run is WAL-logged with its model's digest: recovery
   re-runs it to rebuild the warm materialization and the digest proves
   the restored model identical.  The digest is only computed when the
   record is actually appended — ephemeral sessions and replay skip it.
   It is maintained: after a run served incrementally it costs the
   rows that run added and removed, and only a model built from
   scratch pays a pass over every fact.
   A failed append here only warns — the model was already computed and
   the fact state is fully covered by the mutation records. *)
let log_run t ~key model =
  if Option.is_some t.durability && not t.replaying then
    match
      log_record t
        (Wal.Run
           { engine = engine_to_int (fst key); seed = snd key;
             model_digest = Database.digest model })
    with
    | Ok () -> maybe_snapshot t
    | Error (_, msg) -> (
      match t.durability with Some d -> Durable.warn d.dur msg | None -> ())

let run t ~engine ~seed ~jobs ~limits ~telemetry =
  match (t.entry, t.db) with
  | None, _ | _, None -> Error (Protocol.No_program, "no program loaded (send a load frame first)")
  | Some entry, Some db -> (
    let t0 = Unix.gettimeofday () in
    let key = run_key engine seed in
    match try_incremental t ~key ~jobs ~limits ~telemetry with
    | Some outcome ->
      t.counters.runs_incremental <- t.counters.runs_incremental + 1;
      note_eval t telemetry t0;
      (match outcome with
      | Limits.Complete model -> log_run t ~key model
      | Limits.Partial _ -> ());
      Ok outcome
    | None ->
      let work = Database.copy db in
      (* The staged engine executes the entry's prepared program; the
         reference engine gets its cached cost plan.  Re-runs skip
         re-analysis, and every session sharing the entry executes the
         same join orders. *)
      let plan = entry.Program_cache.plan in
      let result =
        protect (fun () ->
            match engine with
            | Protocol.Staged ->
              map_outcome fst
                (Stage_engine.execute ~telemetry ~limits ~jobs ~db:work
                   entry.Program_cache.prepared)
            | Protocol.Reference ->
              let policy =
                match seed with Some s -> Choice_fixpoint.Random s | None -> Choice_fixpoint.First
              in
              map_outcome fst
                (Choice_fixpoint.run_governed ~plan ~policy ~telemetry ~limits ~jobs
                   ~db:work entry.Program_cache.rules))
      in
      note_eval t telemetry t0;
      (match result with
      | Ok (Limits.Complete model) ->
        t.counters.runs_full <- t.counters.runs_full + 1;
        (* A complete model over the current snapshot: materialize it
           so the next run with this key is incremental. *)
        t.pending_inserts <- [];
        t.pending_deletes <- [];
        t.mat <-
          Some
            { mat_engine = fst key;
              mat_seed = snd key;
              ivm = Ivm.materialize entry.Program_cache.ivm ~edb:db ~model };
        log_run t ~key model
      | Ok (Limits.Partial _) ->
        t.counters.runs_full <- t.counters.runs_full + 1;
        t.counters.partials <- t.counters.partials + 1;
        t.mat <- None
      | Error _ -> t.mat <- None);
      result)

let enumerate t ~max_models ~limits =
  match (t.entry, t.db) with
  | None, _ | _, None -> Error (Protocol.No_program, "no program loaded (send a load frame first)")
  | Some entry, Some db -> (
    let t0 = Unix.gettimeofday () in
    let result =
      protect (fun () ->
          (* [enumerate] snapshots the db itself; [Exhausted] escapes
             it (there is no governed variant of a model set), so it
             becomes a structured error frame here. *)
          try Ok (Choice_fixpoint.enumerate ~max_models ~limits ~db entry.Program_cache.rules)
          with Limits.Exhausted v ->
            Error
              ( Protocol.Budget_exhausted,
                "enumeration stopped: " ^ Limits.violation_to_string v ))
    in
    t.counters.evaluations <- t.counters.evaluations + 1;
    t.counters.eval_wall_s <- t.counters.eval_wall_s +. (Unix.gettimeofday () -. t0);
    match result with Ok r -> r | Error e -> Error e)

let nowhere = { Lexer.line = 0; col = 0 }

let parse_goal text =
  match Parser.parse_rule ("query_goal <- " ^ text) with
  | { Ast.body = [ Ast.Pos a ]; _ } -> a
  | _ -> raise (Parser.Error ("queries take a single positive atom", nowhere))

let query t ~engine ~text ~jobs ~limits ~telemetry =
  match parse_goal text with
  | exception Parser.Error (msg, pos) -> Error (of_gbc_error (Gbc_error.Parse (msg, pos)))
  | goal -> (
    match run t ~engine ~seed:None ~jobs ~limits ~telemetry with
    | Error e -> Error e
    | Ok outcome ->
      let complete = match outcome with Limits.Complete _ -> true | _ -> false in
      let db = Limits.value outcome in
      protect (fun () ->
          let body = Eval.compile_body [ Ast.Pos goal ] in
          let vars = Ast.atom_vars goal in
          let rows = Compile.solutions body db (List.map (fun v -> Ast.Var v) vars) in
          let rendered =
            List.map
              (fun row -> if vars = [] then "true" else Database.answer_to_string vars row)
              rows
          in
          (complete, vars, rendered)))


(* ---------------- recovery ---------------- *)

let warn_recovery t msg =
  match t.durability with
  | Some d -> Durable.warn d.dur (Printf.sprintf "session %d: %s" t.id msg)
  | None -> ()

(* Re-execute a logged complete run to rebuild the warm
   materialization, then prove the model identical to what was served
   before the crash: its digest must match the one logged with the
   record (a legacy MD5 is checked against the rendering).  Any
   disagreement — partial outcome, error, digest mismatch — drops the
   materialization and warns; the next client run evaluates from
   scratch.  Recovery never crashes and never serves a silently
   different model warm. *)
let replay_run t ~engine ~seed ~digest =
  let limits = Limits.create ~cancel:t.cancel () in
  let telemetry = Telemetry.create () in
  match run t ~engine:(engine_of_int engine) ~seed ~jobs:1 ~limits ~telemetry with
  | Ok (Limits.Complete model) ->
    if not (digest_matches model digest) then begin
      warn_recovery t "replayed run disagrees with the logged model digest; materialization dropped";
      t.mat <- None
    end
  | Ok (Limits.Partial _) | Error _ ->
    warn_recovery t "a logged run did not complete on replay; materialization dropped";
    t.mat <- None

let replay_load t dur digest =
  match Durable.load_program dur digest with
  | None ->
    warn_recovery t (Printf.sprintf "program %s is missing from the store; its state is lost" digest)
  | Some src -> (
    match load t src with
    | Ok _ -> ()
    | Error (_, msg) -> warn_recovery t ("stored program no longer compiles: " ^ msg))

let restore ~cache dur id =
  let t = create ~durable:dur ~cache ~id () in
  let d = match t.durability with Some d -> d | None -> assert false in
  t.replaying <- true;
  t.attachable <- true;
  let snap = Durable.read_snapshot dur ~id in
  let base_lsn = match snap with Some s -> s.Durable.last_lsn | None -> -1 in
  (* 1. the snapshot: program through the cache, then fact base,
     multiset, dedup state and (when stored) the materialization *)
  (match snap with
  | None -> ()
  | Some s ->
    (match s.Durable.digest with
    | None -> ()
    | Some digest -> replay_load t dur digest);
    (match t.entry with
    | None -> ()
    | Some entry ->
      t.db <- Some s.Durable.db;
      List.iter
        (fun (pred, row, n) -> Relation.Row_tbl.replace (occ_tbl t pred) row n)
        s.Durable.multiset;
      t.last_mut <- s.Durable.last_mut;
      (match s.Durable.mat with
      | None -> ()
      | Some m ->
        if not (digest_matches m.Durable.model m.Durable.model_digest) then
          warn_recovery t "snapshot materialization fails its digest; dropped"
        else
          t.mat <-
            Some
              { mat_engine = engine_of_int m.Durable.m_engine;
                mat_seed = m.Durable.m_seed;
                ivm =
                  Ivm.materialize entry.Program_cache.ivm ~edb:s.Durable.db
                    ~model:m.Durable.model })));
  (* 2. the WAL tail: records beyond the snapshot, in order, through
     the exact in-memory paths the live session used *)
  let { Wal.records; corrupt } = Wal.replay (Durable.wal_path dur id) in
  (match corrupt with
  | Some msg -> warn_recovery t ("write-ahead log tail dropped: " ^ msg)
  | None -> ());
  let replayed = ref 0 in
  let max_lsn = ref base_lsn in
  List.iter
    (fun (lsn, record) ->
      if lsn > base_lsn then begin
        if lsn > !max_lsn then max_lsn := lsn;
        incr replayed;
        match record with
        | Wal.Load { digest } -> replay_load t dur digest
        | Wal.Assert { text; id } -> (
          match assert_facts ?id t text with
          | Ok _ -> ()
          | Error (_, msg) -> warn_recovery t ("a logged assert failed on replay: " ^ msg))
        | Wal.Retract { text; id } -> (
          match retract_facts ?id t text with
          | Ok _ -> ()
          | Error (_, msg) -> warn_recovery t ("a logged retract failed on replay: " ^ msg))
        | Wal.Run { engine; seed; model_digest } -> replay_run t ~engine ~seed ~digest:model_digest
      end)
    records;
  d.next_lsn <- !max_lsn + 1;
  d.since_snapshot <- !replayed;
  t.replaying <- false;
  t
