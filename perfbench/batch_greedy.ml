(* batch_greedy: the paper's own use, in process, the way
   `gbc run --db IMAGE PROG` runs it.  One op is one fixed job: restore
   four seeded fact-base images with the snapshot codec, evaluate Prim,
   Dijkstra, Kruskal and sorting on the staged engine with default
   flags, render every model canonically and check its digest.  The
   inputs are big enough (>= 1024 rows) that the flat relation store
   holds them; no server layer runs. *)

open Gbc
open Common

type job = {
  name : string;
  prog : Ast.program;
  image : string;  (** [Db_snapshot.write] of the seeded fact base *)
  image_facts : int;
  mutable digest : Digest.t;  (** canonical rendering of the model, fixed in setup *)
}

let image_of db =
  let b = Buffer.create 65536 in
  Db_snapshot.write b db;
  Buffer.contents b

let graph_db ?(nodes = false) g =
  let db = Database.create () in
  Graph_gen.load_big db g;
  if nodes then Graph_gen.load_big_nodes db g;
  db

(* [n] items with pairwise-distinct costs: p(iK, cost). *)
let items ~seed n =
  let rng = Rng.create seed in
  let costs = Array.init n (fun i -> (3 * i) + 1) in
  Rng.shuffle rng costs;
  Array.mapi (fun i c -> (Printf.sprintf "i%d" i, c)) costs

let items_db items =
  let db = Database.create () in
  Array.iter (fun (x, c) -> ignore (Database.add_fact db "p" [| Value.sym x; Value.Int c |])) items;
  db

let render model = Format.asprintf "%a" Database.pp model

(* ---------------- oracles ---------------- *)

let rows model pred = Database.facts_of model pred
let int_at row i = Value.as_int row.(i)

let staged_rows model pred ~stage =
  List.filter (fun r -> match r.(stage) with Value.Int s -> s > 0 | _ -> false) (rows model pred)

let tree_weight model pred =
  List.fold_left (fun acc r -> acc + int_at r 2) 0 (staged_rows model pred ~stage:3)

(* Dijkstra over the columns, both orientations: the shortest-path
   oracle, independent of the engines. *)
let shortest_paths (g : Graph_gen.big) ~root =
  let n = g.Graph_gen.big_nodes in
  let adj = Array.make n [] in
  Array.iteri
    (fun i u ->
      let v = g.Graph_gen.big_dst.(i) and c = g.Graph_gen.big_cost.(i) in
      adj.(u) <- (v, c) :: adj.(u);
      adj.(v) <- (u, c) :: adj.(v))
    g.Graph_gen.big_src;
  let dist = Array.make n max_int in
  let module H = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  dist.(root) <- 0;
  let rec loop h =
    match H.min_elt_opt h with
    | None -> ()
    | Some ((d, u) as e) ->
      let h = H.remove e h in
      if d > dist.(u) then loop h
      else
        loop
          (List.fold_left
             (fun h (v, c) ->
               if d + c < dist.(v) then begin
                 dist.(v) <- d + c;
                 H.add (d + c, v) h
               end
               else h)
             h adj.(u))
  in
  loop (H.singleton (0, root));
  dist

let check_prim g model =
  List.length (staged_rows model "prm" ~stage:3) = g.Graph_gen.big_nodes - 1
  && tree_weight model "prm" = Graph_gen.big_mst_weight g

let check_kruskal g model =
  List.length (staged_rows model "kruskal" ~stage:3) = g.Graph_gen.big_nodes - 1
  && tree_weight model "kruskal" = Graph_gen.big_mst_weight g

let check_dijkstra g model =
  let dist = shortest_paths g ~root:0 in
  let got = rows model "dij" in
  List.length got = g.Graph_gen.big_nodes
  && List.for_all (fun r -> dist.(int_at r 0) = int_at r 1) got

let check_sorting items model =
  let stamped =
    staged_rows model "sp" ~stage:2
    |> List.map (fun r -> (int_at r 2, int_at r 1))
    |> List.sort compare |> List.map snd
  in
  stamped = List.sort compare (Array.to_list (Array.map snd items))

(* ---------------- set-up ---------------- *)

type sizes = { tree_nodes : int; tree_edges : int; kr_nodes : int; kr_edges : int; n_items : int }

let sizes smoke =
  if smoke then { tree_nodes = 512; tree_edges = 1024; kr_nodes = 32; kr_edges = 512; n_items = 1024 }
  else { tree_nodes = 1024; tree_edges = 3072; kr_nodes = 64; kr_edges = 512; n_items = 1024 }

(* Generate the inputs, write the images, evaluate each job once and
   fix its digest — after the independent oracle accepted the model. *)
let setup args =
  let sz = sizes args.smoke in
  let seed = args.seed in
  let pg = Graph_gen.power_law ~seed:((seed * 4) + 1) ~nodes:sz.tree_nodes ~edges:sz.tree_edges in
  let dg = Graph_gen.power_law ~seed:((seed * 4) + 2) ~nodes:sz.tree_nodes ~edges:sz.tree_edges in
  let kg = Graph_gen.power_law ~seed:((seed * 4) + 3) ~nodes:sz.kr_nodes ~edges:sz.kr_edges in
  let its = items ~seed:((seed * 4) + 4) sz.n_items in
  let write_s = ref 0.0 in
  let job name source db check =
    let t0 = now () in
    let image = image_of db in
    write_s := !write_s +. (now () -. t0);
    let j =
      { name; prog = Parser.parse_program source; image; image_facts = Database.cardinal db;
        digest = Digest.string "" }
    in
    let model, _ = Stage_engine.run ~db:(fst (Db_snapshot.read image 0)) j.prog in
    if not (check model) then failwith (name ^ ": the model fails its oracle");
    j.digest <- Digest.string (render model);
    j
  in
  let jobs =
    [ job "prim" (Prim.source ~root:0) (graph_db pg) (check_prim pg);
      job "dijkstra" (Dijkstra.source ~root:0) (graph_db dg) (check_dijkstra dg);
      job "kruskal" Kruskal.source (graph_db ~nodes:true kg) (check_kruskal kg);
      job "sorting" Sorting.source (items_db its) (check_sorting its) ]
  in
  if args.corrupt then (List.hd jobs).digest <- Digest.string "not the model";
  (jobs, !write_s)

(* ---------------- the op ---------------- *)

(* Engine counters summed over the jobs of one traced op. *)
let counters = Hashtbl.create 16

let add_counters telemetry =
  List.iter
    (fun (k, v) -> Hashtbl.replace counters k (v + Option.value ~default:0 (Hashtbl.find_opt counters k)))
    (Telemetry.totals telemetry)

let derived = ref 0

let run_job tr ~op ~parent job =
  let traced = tr.Trace.on in
  let db, _ = Trace.span tr ~op ~parent "db_snapshot.read" (fun _ -> Db_snapshot.read job.image 0) in
  let telemetry = if traced then Telemetry.create () else Telemetry.none in
  let model, _ =
    Trace.span tr ~op ~parent ("engine." ^ job.name) (fun _ -> Stage_engine.run ~telemetry ~db job.prog)
  in
  let text = Trace.span tr ~op ~parent "render" (fun _ -> render model) in
  if traced then begin
    add_counters telemetry;
    derived := !derived + Database.cardinal model - job.image_facts
  end;
  Digest.equal (Digest.string text) job.digest

let op tr jobs i =
  Trace.span tr ~op:i "op" (fun parent ->
      List.fold_left (fun ok job -> run_job tr ~op:i ~parent job && ok) true jobs)

(* ---------------- the run ---------------- *)

let run args =
  let (jobs, write_s), setup_metric =
    repeated_setup ~teardown:(fun _ -> ()) (fun () -> setup args)
  in
  let info =
    [ ("sizes",
       let sz = sizes args.smoke in
       json_obj
         [ ("tree_nodes", string_of_int sz.tree_nodes); ("tree_edges", string_of_int sz.tree_edges);
           ("kruskal_nodes", string_of_int sz.kr_nodes); ("kruskal_edges", string_of_int sz.kr_edges);
           ("items", string_of_int sz.n_items) ]);
      ("engine", json_string "staged, interpreted, jobs 1") ]
  in
  if not args.trace then begin
    let l = closed_loop ~calibrate:0.0 ~seconds:args.seconds (op Trace.off jobs) in
    let lm, wall = latency_metrics ~tail:90.0 l in
    { attempted = l.lat.Samples.n;
      failed = l.failed;
      info = wall @ info;
      metrics = setup_metric :: metric "peak_rss_mb" "MiB" (peak_rss_mb "self") :: lm }
  end
  else begin
    (* Untraced, then traced, for the same time each: the difference is
       the tracing overhead. *)
    let half = args.seconds /. 2.0 in
    let l0 = closed_loop ~calibrate:0.0 ~seconds:half (op Trace.off jobs) in
    let tr = Trace.create ~on:true 0 in
    let gc0 = Gc.quick_stat () in
    let l1 = closed_loop ~calibrate:0.0 ~seconds:half (op tr jobs) in
    let gc1 = Gc.quick_stat () in
    let ops = float_of_int l1.lat.Samples.n in
    let per_op k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters k)) /. ops in
    let ratio a b = if b = 0.0 then 0.0 else a /. b in
    let thr0 = float_of_int l0.lat.Samples.n /. l0.ref_elapsed and thr1 = ops /. l1.ref_elapsed in
    let trs = [ tr ] in
    let image_bytes = List.fold_left (fun a j -> a + String.length j.image) 0 jobs in
    let image_facts = List.fold_left (fun a j -> a + j.image_facts) 0 jobs in
    let engine_ms name = Trace.median_ms trs ("engine." ^ name) in
    let layer =
      [ metric "db_snapshot.read_ms" "ms" (median (Trace.per_op_ms trs "db_snapshot.read"));
        metric "db_snapshot.write_ms" "ms" (write_s *. 1e3);
        metric "db_snapshot.bytes_per_fact" "B/fact" (float_of_int image_bytes /. float_of_int image_facts);
        metric "engine.prim_ms" "ms" (engine_ms "prim");
        metric "engine.dijkstra_ms" "ms" (engine_ms "dijkstra");
        metric "engine.kruskal_ms" "ms" (engine_ms "kruskal");
        metric "engine.sorting_ms" "ms" (engine_ms "sorting");
        metric "engine.iterations" "count" (per_op "iterations");
        metric "engine.delta_tuples" "count" (per_op "delta_tuples");
        metric "choice.candidates" "count" (per_op "candidates");
        metric "choice.fd_rejections" "count" (per_op "fd_rejections");
        metric "choice.useful_ratio" "ratio" (ratio (per_op "fired") (per_op "candidates"));
        metric "rql.pushes" "count" (per_op "pushes");
        metric "rql.pops" "count" (per_op "pops");
        metric "rql.wasted_ratio" "ratio"
          (ratio (per_op "stale" +. per_op "revalidations") (per_op "pops"));
        metric "relation.minor_words_per_fact" "words/fact"
          ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int !derived);
        metric "gc.top_heap_mb" "MiB"
          (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
        metric "gc.major_collections_per_op" "1/op"
          (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. ops);
        metric "render.ms" "ms" (median (Trace.per_op_ms trs "render"));
        metric "trace.overhead_pct" "%" ((ratio thr0 thr1 -. 1.0) *. 100.0) ]
    in
    Trace.dump trs (Filename.concat args.run_dir (Printf.sprintf "trace-batch_greedy-%d.json" args.seed));
    let samples = l1.lat.Samples.n in
    { attempted = l0.lat.Samples.n + samples;
      failed = l0.failed + l1.failed;
      info = ("untraced_throughput", json_float thr0) :: ("traced_throughput", json_float thr1) :: info;
      metrics = List.map (fun m -> { m with samples }) layer }
  end
