(* serve_mix: read-mostly serving through gbc-router in front of one
   `gbcd --workers 2`, each in its own process.  Every connection sends
   Load, then Run or Query, over the shipped exemplars (all far below
   the flat-store threshold, so the engines do little).  A fixed share
   of the Loads carry fresh program text, so the program cache both
   hits and compiles.  Closed loop: one connection per CPU, at most
   two. *)

open Gbc
open Common

type exemplar = {
  name : string;
  source : string;
  mutable model_text : string;  (** single-shot `gbc run` output *)
  goal : string;  (** one atom over the first rule's head, all variables *)
  mutable answers : string list;  (** its rows in the single-shot model, sorted *)
}

type kind = Run | Query

let kind_name = function Run -> "run" | Query -> "query"

(* One Load in [fresh_every] carries program text the cache has never
   seen (the exemplar plus a unique comment). *)
let fresh_every = 8

let gbcd_flags = [ "--workers"; "2" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The single-shot oracle: evaluate each exemplar in process, render the
   model as `gbc run` prints it, and answer the query from the model's
   rows. *)
let exemplar dir file =
  let source = read_file (Filename.concat dir file) in
  let prog = Parser.parse_program source in
  let model, _ = Stage_engine.run prog in
  let head = (List.find (fun r -> not (Ast.is_fact r)) prog).Ast.head in
  let vars = List.mapi (fun i _ -> Printf.sprintf "V%d" i) head.Ast.args in
  let answers =
    Database.facts_of model head.Ast.pred
    |> List.map (fun row ->
           String.concat ", "
             (List.map2 (fun v x -> v ^ " = " ^ Value.to_string x) vars (Array.to_list row)))
    |> List.sort compare
  in
  { name = Filename.chop_suffix file ".dl"; source; model_text = Session.render_model model;
    goal = Printf.sprintf "%s(%s)" head.Ast.pred (String.concat ", " vars); answers }

let exemplars args =
  Sys.readdir args.programs |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".dl" && not (String.starts_with ~prefix:"adversarial" f))
  |> List.sort compare
  |> List.map (exemplar args.programs)
  |> Array.of_list

(* ---------------- the seeded request stream ---------------- *)

(* Connection [k]'s op [i]: every block of ops visits each exemplar once
   in a seeded order, alternating Run and Query between blocks, so the
   mix is the same in every run and every seed. *)
let stream ~seed ~exs k =
  let n = Array.length exs in
  let rng = Rng.create ((seed * 131) + k) in
  let offset = Rng.int rng fresh_every in
  let perm = Array.init n Fun.id in
  let block = ref (-1) in
  fun i ->
    if i / n <> !block then begin
      block := i / n;
      Rng.shuffle rng perm
    end;
    let e = perm.(i mod n) in
    let ex = exs.(e) in
    let text =
      if (i + offset) mod fresh_every = 0 then
        Printf.sprintf "%s\n%% fresh text %d.%d.%d\n" ex.source seed k i
      else ex.source
    in
    (ex, text, if (!block + e) mod 2 = 0 then Run else Query)

let run_request ex = function
  | Run -> Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }
  | Query -> Protocol.Query { engine = Protocol.Staged; text = ex.goal; budget = Protocol.no_budget }

let check_reply ex kind = function
  | Protocol.Model { complete = true; text; _ } -> kind = Run && String.equal text ex.model_text
  | Protocol.Answers { complete = true; rows; _ } -> kind = Query && List.sort compare rows = ex.answers
  | _ -> false

(* ---------------- one op ---------------- *)

let reply_bytes = Array.init connections (fun _ -> Samples.create ())

let op ~next tr k conn i =
  let ex, text, kind = next i in
  Trace.span tr ~op:i "op" (fun root ->
      let loaded, _ =
        call tr ~op:i ~parent:root conn ~kind:"load" (Protocol.Load text) (function
          | Protocol.Loaded _ -> true
          | _ -> false)
      in
      loaded
      &&
      let ok, bytes =
        call tr ~op:i ~parent:root conn ~kind:(kind_name kind) (run_request ex kind) (check_reply ex kind)
      in
      if tr.Trace.on then Samples.add reply_bytes.(k) (float_of_int bytes);
      ok)

(* ---------------- set-up ---------------- *)

type fleet = {
  gbcd_pid : int;
  gbcd_sock : string;
  router_pid : int;
  router_sock : string;
  exs : exemplar array;
  conns : conn array;
}

let teardown f =
  Array.iter close f.conns;
  stop f.router_pid;
  stop f.gbcd_pid

(* Daemons up, oracle computed, connections open and one warm-up pass
   over every exemplar on each connection. *)
let setup args () =
  let dir = Filename.concat args.run_dir "serve_mix" in
  rm_rf dir;
  mkdir_p dir;
  let gbcd_pid, gbcd_sock = start_daemon args.gbcd ~dir ~name:"gbcd" gbcd_flags in
  let router_pid, router_sock =
    start_daemon args.router ~dir ~name:"router" [ "--backend"; "unix:" ^ gbcd_sock ]
  in
  let exs = exemplars args in
  if args.corrupt then begin
    exs.(0).model_text <- exs.(0).model_text ^ "wrong(1).\n";
    exs.(0).answers <- "V0 = wrong" :: exs.(0).answers
  end;
  let conns = Array.init connections (fun _ -> connect router_sock) in
  let f = { gbcd_pid; gbcd_sock; router_pid; router_sock; exs; conns } in
  Array.iteri
    (fun k c ->
      let next = stream ~seed:(args.seed + 1_000_000) ~exs k in
      for i = 0 to Array.length exs - 1 do
        if not (op ~next Trace.off k c i) && not args.corrupt then
          failwith "serve_mix: a warm-up op failed"
      done)
    conns;
  f

(* ---------------- in-process replay ---------------- *)

(* The same seeded stream through the public functions the daemon
   calls — Program_cache and Session — to split an op's server side
   into its layers (the client spans already time the codec). *)
let replay args exs ~ops =
  let tr = Trace.create ~on:true 100 in
  let cache = Program_cache.create () in
  let session = Session.create ~cache ~id:1 () in
  let next = stream ~seed:args.seed ~exs 0 in
  let limits = Limits.unlimited and telemetry = Telemetry.none in
  for i = 0 to ops - 1 do
    let ex, text, kind = next i in
    ignore (Trace.span tr ~op:i "session.load" (fun _ -> Session.load session text));
    match kind with
    | Run -> (
      match
        Trace.span tr ~op:i "session.run" (fun _ ->
            Session.run session ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits ~telemetry)
      with
      | Ok (Limits.Complete model) ->
        ignore (Trace.span tr ~op:i "render" (fun _ -> Session.render_model model));
        (* what a durable session logs per run: render, then MD5 *)
        ignore
          (Trace.span tr ~op:i "session.model_digest" (fun _ ->
               Digest.string (Session.render_model model)))
      | _ -> failwith ("replay: " ^ ex.name ^ " did not complete"))
    | Query ->
      ignore
        (Trace.span tr ~op:i "session.query" (fun _ ->
             Session.query session ~engine:Protocol.Staged ~text:ex.goal ~jobs:1 ~limits ~telemetry))
  done;
  tr

(* ---------------- the run ---------------- *)

let run args =
  let f, setup_metric = repeated_setup ~teardown (setup args) in
  let next k = stream ~seed:args.seed ~exs:f.exs k in
  let measure ?(conns = f.conns) tr_of seconds =
    parallel_loops ~seconds conns (fun k c -> op ~next:(next k) (tr_of k) k c)
  in
  let info =
    [ ("gbcd_flags", json_string (String.concat " " gbcd_flags));
      ("router_flags", json_string "--backend unix:gbcd.sock");
      ("exemplars", string_of_int (Array.length f.exs));
      ("fresh_load_share", json_float (1.0 /. float_of_int fresh_every)) ]
  in
  let rss () = peak_rss_mb (string_of_int f.gbcd_pid) +. peak_rss_mb (string_of_int f.router_pid) in
  let out =
    if not args.trace then begin
      let l = measure (fun _ -> Trace.off) args.seconds in
      let lm, wall = latency_metrics ~tail:99.0 l in
      { attempted = l.lat.Samples.n;
        failed = l.failed;
        info = wall @ info;
        metrics = setup_metric :: metric "peak_rss_mb" "MiB" (rss ()) :: lm }
    end
    else begin
      let l0 = measure (fun _ -> Trace.off) (args.seconds *. 0.4) in
      let stats_conn = connect f.gbcd_sock and router_conn = connect f.router_sock in
      let s0 = stats_of stats_conn and r0 = stats_of router_conn in
      let routed = Array.init connections (fun k -> Trace.create ~on:true k) in
      let l1 = measure (fun k -> routed.(k)) (args.seconds *. 0.4) in
      let s1 = stats_of stats_conn and r1 = stats_of router_conn in
      close stats_conn;
      close router_conn;
      let direct_conns = Array.init connections (fun _ -> connect f.gbcd_sock) in
      let direct = Array.init connections (fun k -> Trace.create ~on:true (10 + k)) in
      let l2 = measure ~conns:direct_conns (fun k -> direct.(k)) (args.seconds *. 0.2) in
      Array.iter close direct_conns;
      let rtrs = Array.to_list routed and dtrs = Array.to_list direct in
      let replay_tr = replay args f.exs ~ops:(min 2000 (l1.lat.Samples.n / connections)) in
      let delta key s0 s1 = json_number s1 key -. json_number s0 key in
      let hits = delta "hits" s0 s1 and misses = delta "misses" s0 s1 in
      let hop kind =
        let name = "rtt." ^ kind in
        Trace.median_ms rtrs name -. Trace.median_ms dtrs name
      in
      let all_rtt trs =
        median (Array.concat (List.map (fun k -> Trace.durations_ms trs ("rtt." ^ k)) [ "load"; "run"; "query" ]))
      in
      let thr0 = float_of_int l0.lat.Samples.n /. l0.ref_elapsed
      and thr1 = float_of_int l1.lat.Samples.n /. l1.ref_elapsed in
      let us trs name = Trace.median_ms trs name *. 1e3 in
      let layer =
        [ metric "protocol.encode_us" "us" (us rtrs "protocol.encode");
          metric "protocol.decode_us" "us" (us rtrs "protocol.decode");
          metric "protocol.reply_bytes" "B" (median (Samples.sorted (Samples.concat (Array.to_list reply_bytes))));
          metric "router.hop_ms" "ms" (all_rtt rtrs -. all_rtt dtrs);
          metric "router.hop_ms.load" "ms" (hop "load");
          metric "router.hop_ms.run" "ms" (hop "run");
          metric "router.hop_ms.query" "ms" (hop "query");
          metric "router.forwarded" "count" (delta "forwarded" r0 r1);
          metric "server.queue_wait_p50_us" "us" (json_number s1 "p50_us");
          metric "server.queue_wait_p99_us" "us" (json_number s1 "p99_us");
          metric "server.inflight_max" "count" (json_number s1 "inflight_max");
          metric "program_cache.hit_ratio" "ratio" (hits /. (hits +. misses));
          metric "program_cache.compile_ms" "ms"
            (delta "compile_ms_total" s0 s1 /. delta "programs_compiled" s0 s1);
          metric "session.load_ms" "ms" (Trace.median_ms [ replay_tr ] "session.load");
          metric "session.run_ms" "ms" (Trace.median_ms [ replay_tr ] "session.run");
          metric "session.query_ms" "ms" (Trace.median_ms [ replay_tr ] "session.query");
          metric "session.model_digest_ms" "ms" (Trace.median_ms [ replay_tr ] "session.model_digest");
          metric "render.ms" "ms" (Trace.median_ms [ replay_tr ] "render");
          metric "trace.overhead_pct" "%" ((thr0 /. thr1 -. 1.0) *. 100.0) ]
      in
      Trace.dump (rtrs @ dtrs @ [ replay_tr ])
        (Filename.concat args.run_dir (Printf.sprintf "trace-serve_mix-%d.json" args.seed));
      let samples = l1.lat.Samples.n in
      { attempted = l0.lat.Samples.n + samples + l2.lat.Samples.n;
        failed = l0.failed + l1.failed + l2.failed;
        info =
          ("untraced_throughput", json_float thr0) :: ("traced_throughput", json_float thr1) :: info;
        metrics = List.map (fun m -> { m with samples }) layer }
    end
  in
  teardown f;
  out
