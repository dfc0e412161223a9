(* The experiments as one table: each entry reproduces a complexity
   claim of the paper's Section 6 (C1-C4), a worked example at scale, a
   design ablation (A1-A3) or a substrate measurement (DESIGN.md
   section 5 indexes them, EXPERIMENTS.md records their results).

     main.exe [--smoke] [--only NAME]

   --smoke runs every entry at its smallest sizes; a claim entry's are
   the sizes its gate is fitted on, so the runtest alias checks every
   claim.  --only NAME runs the entries called NAME.  The process exits
   1, naming each failure, if a gate fails, an entry raises (its oracle
   included) or a BENCH file does not parse back.  BENCH_<name>.json
   files land in the working directory only from a full-scale --only
   run, which is how the checked-in ones are made; other runs write
   and validate them in a temporary directory they then remove. *)

open Gbc
open Harness

let smoke, only =
  let rec go (smoke, only) = function
    | [] -> (smoke, only)
    | "--smoke" :: rest -> go (true, only) rest
    | "--only" :: name :: rest -> go (smoke, Some name) rest
    | _ ->
      prerr_endline "usage: main.exe [--smoke] [--only NAME]";
      exit 2
  in
  go (false, None) (List.tl (Array.to_list Sys.argv))

let sizes (at_smoke, full) = if smoke then at_smoke else full

(* Sockets, data dirs and other runs' BENCH files; removed at exit. *)
let work =
  let dir = Filename.temp_dir "gbc-bench-" "" in
  at_exit (fun () -> rm_rf dir);
  dir

let in_work name = Filename.concat work name

(* Counter snapshot for a BENCH point: the program once more on the
   staged engine with telemetry on (the timed runs stay
   uninstrumented); none for programs outside its class. *)
let staged_counters to_prog input =
  let telemetry = Telemetry.create () in
  match Stage_engine.run ~telemetry (to_prog input) with
  | _ -> Telemetry.totals telemetry
  | exception (Stage_engine.Not_compilable _ | Choice_fixpoint.Unsupported _) -> []

(* An exemplar from [programs/] in the nearest directory at or above
   the working directory that has one: the source root under `dune
   exec bench/main.exe`, the build root's copy under the dune alias. *)
let read_program name =
  let rec up dir =
    let cand = Filename.concat dir "programs" in
    if Sys.file_exists cand && Sys.is_directory cand then cand
    else if Filename.dirname dir = dir then failwith "no programs/ directory above the working directory"
    else up (Filename.dirname dir)
  in
  In_channel.with_open_bin (Filename.concat (up (Sys.getcwd ())) name) In_channel.input_all

let prim_graph seed n = Graph_gen.random_connected ~seed:(seed + n) ~nodes:n ~extra_edges:(7 * n)
let edges g = float_of_int (List.length g.Graph_gen.edges)
let mst_ok weight g rs = List.for_all (fun r -> weight r = Graph_gen.mst_weight g) rs

let sort_items seed n =
  let rng = Rng.create seed in
  List.init n (fun i -> (Printf.sprintf "x%d" i, Rng.int rng 1_000_000))

let matching_arcs seed n_arcs =
  let rng = Rng.create seed in
  let seen = Hashtbl.create (2 * n_arcs) in
  let side = max 8 (n_arcs / 4) in
  let rec go acc k guard =
    if k = 0 || guard = 0 then acc
    else
      let x = Rng.int rng side and y = side + Rng.int rng side in
      if Hashtbl.mem seen (x, y) then go acc k (guard - 1)
      else begin
        Hashtbl.add seen (x, y) ();
        go ((x, y, 1 + Rng.int rng 1_000_000) :: acc) (k - 1) guard
      end
  in
  go [] n_arcs (100 * n_arcs)

(* ---- Section 6: claims C1-C4 (bands from repeated runs, see CHANGES.md) ---- *)

let e1 =
  sweep ~name:"E1" ~title:"Prim's algorithm (paper claim C1: O(e log e) vs procedural O(e log n))"
    ~xname:"e" ~x:(fun _ g -> edges g)
    ~sizes:(sizes ([ 128; 512; 2048 ], [ 128; 256; 512; 1024; 2048 ]))
    ~reps:5 ~input:(prim_graph 100)
    ~timed:[ ("staged", fun g -> Prim.run Runner.Staged g); ("procedural", fun g -> Prim.procedural g) ]
    ~oracle:(mst_ok (fun r -> r.Prim.weight))
    ~extra:(fun g _ -> [ ("e", int_of_float (edges g)) ])
    ~counters:(staged_counters (Prim.program ~root:0)) ~gates:[ slope_band "C1" 0.75 1.6 ] ()

let e2 =
  sweep ~name:"E2" ~title:"Sorting (paper claim C2: O(n log n), a heap-sort, not insertion)"
    ~sizes:(sizes ([ 1024; 4096; 16384 ], [ 1024; 2048; 4096; 8192; 16384 ]))
    ~reps:5 ~input:(sort_items 7)
    ~timed:
      [ ("staged", Sorting.run Runner.Staged); ("heap-sort", Sorting.procedural);
        ("List.sort", List.sort (fun (_, a) (_, b) -> compare a b)) ]
    ~oracle:(fun items outs -> List.for_all (Sorting.is_sorted_permutation ~input:items) outs)
    ~counters:(staged_counters Sorting.program) ~gates:[ slope_band "C2" 0.8 1.55 ] ()

let e3 =
  sweep ~name:"E3" ~title:"Greedy matching (paper claim C3: O(e log e), Q holds all e arcs)"
    ~xname:"arcs" ~sizes:(sizes ([ 1024; 4096; 16384 ], [ 1024; 2048; 4096; 8192; 16384 ]))
    ~reps:5 ~input:(fun e -> matching_arcs (3 * e) e)
    ~timed:[ ("staged", Matching.run Runner.Staged); ("procedural", Matching.procedural) ]
    ~oracle:(fun _ -> all_equal (fun r -> r.Matching.arcs))
    ~extra:(fun _ rs -> [ ("matched", List.length (List.hd rs).Matching.arcs) ])
    ~counters:(staged_counters Matching.program) ~gates:[ slope_band "C3" 0.7 1.6 ] ()

let e4 =
  sweep ~name:"E4"
    ~title:"Kruskal (paper claim C4: declarative O(e*n), no merge-small-into-large, vs O(e log e); e = 4n)"
    ~sizes:(sizes ([ 30; 120; 480 ], [ 30; 60; 120; 240; 480 ]))
    ~reps:5
    ~input:(fun n -> Graph_gen.random_connected ~seed:(400 + n) ~nodes:n ~extra_edges:(3 * n))
    ~timed:
      [ ("staged", Kruskal.run Runner.Staged); ("union-find", fun g -> Kruskal.procedural g);
        ("uf-no-rank", Kruskal.procedural ~by_rank:false) ]
    ~oracle:(mst_ok (fun r -> r.Kruskal.weight))
    ~extra:(fun g _ -> [ ("e", int_of_float (edges g)) ])
    ~counters:(staged_counters Kruskal.program) ~gates:[ slope_band "C4" 1.5 2.6 ] ()

(* ---- Worked examples at scale, the compile-time class, extensions ---- *)

let e5 =
  sweep ~name:"E5" ~title:"Greedy TSP chain on complete graphs (identical tours to procedural greedy)"
    ~xname:"e" ~x:(fun _ g -> edges g) ~sizes:(sizes ([ 32 ], [ 32; 64; 128; 256 ]))
    ~input:(fun n -> Graph_gen.complete ~seed:(500 + n) ~nodes:n)
    ~timed:[ ("staged", Tsp.run Runner.Staged); ("procedural", Tsp.procedural) ]
    ~oracle:(fun g rs -> Tsp.is_hamiltonian_path g (List.hd rs) && all_equal (fun r -> r.Tsp.chain) rs)
    ~extra:(fun g rs -> [ ("e", int_of_float (edges g)); ("chain cost", (List.hd rs).Tsp.cost) ])
    ~counters:(staged_counters Tsp.program) ()

let e6 =
  sweep ~name:"E6"
    ~title:"Huffman trees (engine Theta(n^2), two-queue O(n log n); equal optimal costs)"
    ~sizes:(sizes ([ 32 ], [ 32; 64; 128; 256 ]))
    ~input:(fun n -> Text_gen.zipf ~seed:(600 + n) ~letters:n)
    ~timed:
      [ ("staged", fun l -> (Huffman.run Runner.Staged l).Huffman.internal_cost);
        ("two-queue", Huffman.procedural_cost) ]
    ~oracle:(fun _ -> all_equal Fun.id)
    ~extra:(fun _ costs -> [ ("tree cost", List.hd costs) ])
    ~counters:(staged_counters Huffman.program) ()

let e7 =
  sweep ~name:"E7" ~title:"Choice fixpoint throughput (Example 1, random bipartite takes)"
    ~xname:"enrollments" ~sizes:(sizes ([ 800 ], [ 800; 1600; 3200; 6400 ]))
    ~input:(fun n ->
      Assignment.random_takes ~seed:(n / 4) ~students:(n / 4) ~courses:(n / 4) ~enrollments:n
      @ Parser.parse_program Assignment.example1_source)
    ~timed:[ ("reference", fun prog -> Choice_fixpoint.run prog) ]
    ~extra:(fun _ rs ->
      let db, stats = List.hd rs in
      [ ("assigned", List.length (Database.facts_of db "a_st"));
        ("gamma steps", stats.Choice_fixpoint.gamma_steps);
        ("candidates", stats.Choice_fixpoint.candidates_examined) ])
    ~counters:(staged_counters Fun.id) ()

let e8 =
  listing ~name:"E8" ~title:"Theorem 1: produced models are stable models of the rewriting"
    ~header:[ "program"; "reference stable"; "staged stable" ]
    ~rows:(fun () ->
      List.map
        (fun (name, prog) ->
          let stable model = string_of_bool (Stable.is_stable prog model) in
          [ name; stable (Choice_fixpoint.model prog); stable (Stage_engine.model prog) ])
        [ ("example1", Assignment.program Assignment.example1_source);
          ("bi_st_c", Assignment.program Assignment.bi_st_c_source);
          ("sorting", Sorting.program (List.init 12 (fun i -> (Printf.sprintf "x%d" i, i * 7 mod 23))));
          ("prim", Prim.program ~root:0 (Graph_gen.random_connected ~seed:81 ~nodes:8 ~extra_edges:8));
          ("kruskal", Kruskal.program (Graph_gen.random_connected ~seed:82 ~nodes:6 ~extra_edges:5));
          ("matching", Matching.program [ (0, 9, 3); (0, 8, 1); (1, 9, 2); (2, 7, 5) ]);
          ("tsp", Tsp.program (Graph_gen.complete ~seed:83 ~nodes:6));
          ("huffman", Huffman.program (Text_gen.zipf ~seed:84 ~letters:6));
          ("dijkstra", Dijkstra.program ~root:0 (Graph_gen.random_connected ~seed:85 ~nodes:8 ~extra_edges:8));
          ("scheduling", Scheduling.program (Interval_gen.random ~seed:86 ~jobs:7 ~horizon:40)) ])
    ~gates:
      [ (fun rows ->
          { gate = "Theorem 1"; ok = List.for_all (List.for_all (( <> ) "false")) rows;
            detail = "every model stable, on both engines" }) ]
    ()

let e9 =
  let prim = Prim.source ~root:0 in
  listing ~name:"E9" ~title:"Section-4 checker verdicts (Kruskal is beyond the class, as the paper says)"
    ~header:[ "program"; "stage-stratified"; "issues"; "notes" ]
    ~rows:(fun () ->
      List.map
        (fun (name, src) ->
          let report = Stage.analyze (Parser.parse_program src) in
          let count f = string_of_int (List.length (List.concat_map f report.Stage.cliques)) in
          [ name; string_of_bool report.Stage.stage_stratified; count (fun c -> c.Stage.issues);
            count (fun c -> c.Stage.notes) ])
        [ ("example1", Assignment.example1_source); ("bi_st_c", Assignment.bi_st_c_source);
          ("sorting", Sorting.source); ("prim", prim);
          ("prim least(C,())", Str.global_replace (Str.regexp_string "least(C, I)") "least(C)" prim);
          ("matching", Matching.source); ("tsp", Tsp.source); ("huffman", Huffman.source);
          ("kruskal", Kruskal.source); ("dijkstra", Dijkstra.source ~root:0);
          ("scheduling", Scheduling.source); ("vertex cover", Vertex_cover.source);
          ("set cover", Set_cover.source) ])
    ()

let e10 =
  sweep ~name:"E10" ~title:"Extension programs: Dijkstra SSSP (e = 8n) and earliest-finish scheduling"
    ~sizes:(sizes ([ 256 ], [ 256; 512; 1024; 2048 ]))
    ~input:(fun n -> (prim_graph 700 n, Interval_gen.random ~seed:(700 + n) ~jobs:n ~horizon:(20 * n)))
    ~timed:
      [ ("dijkstra", fun (g, _) -> `Dist (List.sort compare (Dijkstra.run Runner.Staged g)));
        ("dijkstra-proc", fun (g, _) -> `Dist (List.sort compare (Dijkstra.procedural g)));
        ("scheduling", fun (_, jobs) -> `Jobs (Scheduling.run Runner.Staged jobs)) ]
    ~oracle:(fun (_, jobs) -> function
      | [ d; p; s ] -> d = p && s = `Jobs (Scheduling.procedural jobs)
      | _ -> false)
    ~counters:(staged_counters (fun (g, _) -> Dijkstra.program ~root:0 g)) ()

let e11 =
  sweep ~name:"E11"
    ~title:"Magic sets: query tc(n-5, X) on an n-chain, goal-directed vs full evaluation"
    ~sizes:(sizes ([ 100 ], [ 100; 200; 400; 800 ]))
    ~input:(fun n ->
      ( List.init n (fun i -> Ast.fact "e" [ Value.Int i; Value.Int (i + 1) ])
        @ Parser.parse_program "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).",
        Ast.atom "tc" [ Ast.int (n - 5); Ast.Var "X" ] ))
    ~timed:
      [ ("magic", fun (prog, query) -> Magic.answers ~query prog);
        ("full", fun (prog, query) -> Magic.answers_unoptimized ~query prog) ]
    ~oracle:(fun _ -> all_equal (List.sort compare))
    ~extra:(fun (prog, query) _ ->
      let m, f = Magic.facts_computed ~query prog in
      [ ("magic facts", m); ("full facts", f) ])
    ()

let e12 =
  sweep ~name:"E12"
    ~title:"Approximations: vertex cover (2-approx, no extremum), set cover (H_k via count aggregates)"
    ~sizes:(sizes ([ 128 ], [ 128; 256; 512; 1024 ]))
    ~input:(fun n ->
      ( Graph_gen.random_connected ~seed:(1200 + n) ~nodes:n ~extra_edges:(2 * n),
        Set_cover.random_instance ~seed:(1300 + n) ~sets:(n / 4) ~universe:n ))
    ~timed:
      [ ("vcover", fun (g, _) -> `Cover (Vertex_cover.run Runner.Staged g));
        ("setcover", fun (_, sets) -> `Sets (Set_cover.run Runner.Staged sets)) ]
    ~oracle:(fun (g, sets) -> function
      | [ `Cover vc; `Sets sc ] ->
        Vertex_cover.is_cover g vc && Set_cover.coverage sets sc = Set_cover.coverable sets
      | _ -> false)
    ~extra:(fun _ -> function
      | [ `Cover vc; `Sets sc ] ->
        [ ("cover size", List.length vc.Vertex_cover.cover); ("sets picked", List.length sc) ]
      | _ -> [])
    ~counters:(staged_counters (fun (g, _) -> Vertex_cover.program g)) ()

(* Non-terminating programs under a max-facts budget: every governed
   run must come back Partial.  The values are deep [s(...)] chains,
   so hashing a fact costs O(depth) and the reference gamma loop is
   ~O(n^3) in the budget: 8_000 took over an hour. *)
let e13 =
  let parse = Parser.parse_program in
  let nat = parse "nat(z). nat(s(X)) <- nat(X)." in
  let blowup = parse "p(z, z). p(s(X), Y) <- p(X, Y). p(X, s(Y)) <- p(X, Y)." in
  let choice = parse "grow(z). grow(s(X)) <- pick(X, I). pick(X, I) <- grow(X), next(I)." in
  let partial = function Limits.Partial _ -> true | Limits.Complete _ -> false in
  let runs =
    [ (fun l -> partial (Choice_fixpoint.run_governed ~limits:l nat));
      (fun l -> partial (Stage_engine.run_governed ~limits:l nat));
      (fun l -> partial (Stage_engine.run_governed ~limits:l blowup));
      (fun l -> partial (Choice_fixpoint.run_governed ~limits:l choice));
      (fun l -> partial (Stage_engine.run_governed ~limits:l choice)) ]
  in
  let governed b = List.length (List.filter (fun run -> run (Limits.create ~max_facts:b ())) runs) in
  sweep ~name:"E13" ~title:"Governor: non-terminating programs stop Partial under a max-facts budget"
    ~xname:"max_facts" ~sizes:(sizes ([ 500 ], [ 500; 1_000; 2_000 ])) ~input:Fun.id
    ~timed:[ ("governed", governed) ]
    ~oracle:(fun _ counts -> counts = [ List.length runs ])
    ~extra:(fun _ counts -> [ ("budget_exhausted", List.hd counts); ("governed_runs", List.length runs) ])
    ()

(* ---- E14 - allocation: words per derived fact, per gamma step, per update ---- *)

(* The join-kernel claim: with interned symbols, array-backed indexes
   and closure-chain rule bodies over int cells, a staged run allocates
   a few minor-heap words per derived fact.  Minor words bracket one
   uninstrumented run ([Gc.counters]' minor count only advances at
   minor collections on OCaml 5.1); rendering the model then counts
   minor plus major minus promoted words, the minor heap emptied first
   so nothing older is promoted inside the window.  Gates:
   - at most [limit] words per fact, per kernel: at the smoke sizes
     the cell-native chains read 24 (sort), 28 (Prim) and 45
     (matching) in each of 10 runs, where binding boxed values read
     43, 37 and 87 (and 230-630 before interning and array indexes);
     the limits, 32, 32 and 64, sit between;
   - at most 8 words per fact rendering the Prim model: the printer
     writing its exact size reads 4.4 in each of 10 runs, growing a
     [Buffer] read 14, decoding rows into boxed values 52;
   - at most 1,500 minor words per Prim gamma step, the saturation's
     bookkeeping beyond the few facts a step adds: copying each delta
     into a fresh relation took 1,954 at 256 nodes, reading deltas as
     id ranges of the live relations 1,252 (in all of 12 runs). *)
let e14 kernel ~limit sz mk gates =
  let render_words db =
    Gc.minor ();
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (Database.render db));
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let staged prog =
    let w0 = Gc.minor_words () in
    let db, stats = Stage_engine.run prog in
    (db, stats, Gc.minor_words () -. w0)
  in
  let per d x = int_of_float (Float.round (x /. float_of_int d)) in
  sweep ~name:"E14" ~title:(kernel ^ ": minor-heap words per derived fact, staged engine")
    ~sizes:(sizes sz) ~input:mk ~timed:[ ("staged", staged) ]
    ~extra:(fun _ rs ->
      let db, stats, words = List.hd rs in
      let facts = Database.cardinal db in
      [ ("facts", facts); ("minor_words", int_of_float words); ("words_per_fact", per facts words);
        ("render_words_per_fact_x10", per facts (10.0 *. render_words db));
        ("words_per_step", per stats.Stage_engine.gamma_steps words); ("top_heap_words", top_heap_words ()) ])
    ~gates:
      ((fun ps -> at_most "E14 words/fact" ~limit (kernel ^ " words/fact") (largest "words_per_fact" ps))
      :: gates)
    ()

(* Update allocation: a session holding serve_update's model - [paths]
   disjoint seeded 20-node paths with forward chords, closed under
   [reach] - runs that workload's op: assert an edge from one path's
   tail to another's head, query the reach fact only it supports,
   retract it, query again.  Each op changes 400 reach facts at any
   size, so its words ([Gc.allocated_bytes], major included) should not
   follow the model: at 104 paths at most 1.25x those at 26 (2.34 when
   every retract rebuilt the relations it touched).  Its major-heap words
   (allocated there or promoted) at 104 paths are at most 6,000 per op:
   compacting in place read 4,115 in each of 10 smoke runs, where
   compacting into a freshly allocated store read 22,220. *)
let update_words_per_op paths =
  let len = 20 and cycles = 50 and warm = 10 in
  let rng = Rng.create 42 in
  let ids = Array.init (paths * len) Fun.id in
  Rng.shuffle rng ids;
  let chains = Array.init paths (fun c -> Array.sub ids (c * len) len) in
  let facts = Buffer.create (64 * paths * len) in
  Array.iter
    (fun ch ->
      let edge a b = Buffer.add_string facts (Printf.sprintf "e(%d, %d). " a b) in
      for i = 0 to len - 2 do
        edge ch.(i) ch.(i + 1)
      done;
      List.init (len / 2) (fun _ ->
          let a = Rng.int rng (len - 2) in
          (a, a + 2 + Rng.int rng (len - a - 2)))
      |> List.sort_uniq compare
      |> List.iter (fun (a, b) -> edge ch.(a) ch.(b)))
    chains;
  let ok what = function Ok _ -> () | Error (_, m) -> failwith (Printf.sprintf "update %s: %s" what m) in
  let s = Session.create ~cache:(Program_cache.create ()) ~id:0 () in
  let limits = Limits.unlimited and telemetry = Telemetry.none and engine = Protocol.Staged in
  ok "load" (Session.load s "reach(X, Y) <- e(X, Y).\nreach(X, Y) <- e(X, Z), reach(Z, Y).\n");
  ok "assert" (Session.assert_facts s (Buffer.contents facts));
  ok "run" (Session.run s ~engine ~seed:None ~jobs:1 ~limits ~telemetry);
  let op () =
    let a = Rng.int rng paths in
    let b = (a + 1 + Rng.int rng (paths - 1)) mod paths in
    let edge = Printf.sprintf "e(%d, %d)." chains.(a).(len - 1) chains.(b).(0) in
    let text = Printf.sprintf "reach(%d, %d)" chains.(a).(0) chains.(b).(len - 1) in
    let query () = ok "query" (Session.query s ~engine ~text ~jobs:1 ~limits ~telemetry) in
    ok "assert" (Session.assert_facts s edge);
    query ();
    ok "retract" (Session.retract_facts s edge);
    query ()
  in
  List.iter op (List.init warm ignore);
  let b0 = Gc.allocated_bytes () and _, _, major0 = Gc.counters () in
  List.iter op (List.init cycles ignore);
  let _, _, major1 = Gc.counters () and per x = x /. float_of_int cycles in
  (per ((Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)), per (major1 -. major0))

let e14_update =
  sweep ~name:"E14" ~title:"update: assert, query, retract, query on serve_update's model"
    ~xname:"paths" ~sizes:(sizes ([ 26; 104 ], [ 26; 104 ])) ~input:Fun.id
    ~timed:[ ("setup+ops", update_words_per_op) ]
    ~extra:(fun _ ws ->
      let words, major = List.hd ws in
      [ ("words_per_op", int_of_float words); ("major_words_per_op", int_of_float major) ])
    ~gates:
      [ (fun ps ->
          let w p = float_of_int (col "words_per_op" p) in
          at_most "E14 update allocation" ~limit:1.25 "words/op, 104 paths over 26"
            (w (List.nth ps 1) /. w (List.hd ps)));
        (fun ps ->
          at_most "E14 update major words" ~limit:6_000.0 "major words/op at 104 paths"
            (float_of_int (col "major_words_per_op" (List.nth ps 1))))
      ]
    ()

(* ---- E16 - data-parallel saturation at jobs 1/2/4 ---- *)

(* The sharded mode (Par.run) is byte-identical to the sequential run
   by construction, and the oracle re-checks it at every point.  The
   curve is machine-dependent: on one core extra domains only
   time-slice and it is flat, which the json records as it is. *)
let e16 workload_id label sz mk =
  sweep ~name:"E16" ~title:("Data-parallel saturation, reference engine, --jobs scaling: " ^ label)
    ~sizes:(sizes sz) ~reps:2 ~input:mk
    ~timed:
      (List.map (fun j -> ("jobs" ^ string_of_int j, fun p -> fst (Choice_fixpoint.run ~jobs:j p))) [ 1; 2; 4 ])
    ~oracle:(fun _ -> all_equal Database.render)
    ~extra:(fun _ _ -> [ ("workload_id", workload_id) ])
    ()

(* ---- E17 - incremental view maintenance: single-fact update latency ---- *)

(* A transitive-closure chain over edge(1, 2) ... edge(n-1, n), less
   the edge leaving [skip]. *)
let tc_chain ?(skip = 0) n =
  let buf = Buffer.create (32 * n) in
  Buffer.add_string buf "tc(X, Y) <- edge(X, Y).\ntc(X, Z) <- tc(X, Y), edge(Y, Z).\n";
  for i = 1 to n - 1 do
    if i <> skip then Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i (i + 1))
  done;
  Buffer.contents buf

(* A session keeps its complete model materialized, so the run after a
   single-fact assert is a delta step of incremental maintenance (Ivm).
   On a TC chain (n(n-1)/2 facts, the worst case for re-evaluation)
   each update asserts an edge from a fresh source into the sink: one
   new tc fact.  The retract column removes the middle edge instead -
   DRed's worst case, (n/2)^2 facts over-deleted through n/2 rounds,
   none re-derivable - and restores it, untimed, after each sample (it
   is asserted, since a session may only retract what it asserted).
   Every update must be served incrementally (DRed for retracts) and
   leave the model a from-scratch run derives, and at every full-scale
   size a retract's median must not exceed the from-scratch run's (at
   the smoke size, 128, ten runs read 0.49-0.98: too close to the
   bound to gate beside the test suites).  Both are
   repeated on a durable session (fsync batch 16, snapshot every 64)
   whose runs also log the maintained model digest, so a durable
   assert should cost about an ephemeral one: above 3x at n = 512
   fails the gate (full scale, the only one with n = 512).  Its
   medians are of 30 samples a side: over 10 of ~25 us each, one slow
   fsync batch moved the ratio from 1.4 to 2.7. *)
let e17 =
  let run () =
    let cache = Program_cache.create () and dir = in_work "e17.data" in
    let reps = if smoke then 3 else 30 and retract_reps = 5 in
    let verdicts = ref [] in
    let expect what = function Ok _ -> () | Error (_, m) -> failwith (what ^ ": " ^ m) in
    let row n =
      let mid = n / 2 in
      let mid_edge = Printf.sprintf "edge(%d, %d)." mid (mid + 1) in
      let fresh_fact k = Printf.sprintf "edge(%d, %d)." (10_000_000 + k) n in
      let session ?(whole = true) ?durable () =
        let s = Session.create ?durable ~cache ~id:0 () in
        expect "load" (Session.load s (tc_chain ~skip:mid n));
        if whole then expect "assert" (Session.assert_facts s mid_edge);
        s
      in
      let run s =
        match
          Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits:Limits.unlimited
            ~telemetry:Telemetry.none
        with
        | Ok (Limits.Complete db) -> db
        | _ -> failwith "run did not complete"
      in
      let incremental s k what =
        let c = s.Session.counters in
        if c.Session.ivm_fallbacks > 0 || c.Session.runs_incremental < k then
          failwith (Printf.sprintf "n=%d %s were not served incrementally" n what)
      in
      (* [k] timings of [f], sorted; [untimed] runs after each *)
      let samples ?(untimed = ignore) s k f =
        ignore (run s);
        let sample k =
          let (), t = time (fun () -> f k) in
          untimed ();
          t
        in
        let a = Array.init k sample in
        Array.sort compare a;
        a
      in
      let median a = a.(Array.length a / 2) in
      let asserts s =
        let a =
          samples s reps (fun k ->
              expect "assert" (Session.assert_facts s (fresh_fact k));
              ignore (run s))
        in
        incremental s reps "updates";
        a
      in
      let retracted = ref "" in
      let retracts r =
        let a =
          samples r retract_reps
            ~untimed:(fun () ->
              expect "assert" (Session.assert_facts r mid_edge);
              ignore (run r))
            (fun k ->
              expect "retract" (Session.retract_facts r mid_edge);
              let db = run r in
              if k = 0 && n <= 256 then retracted := Session.render_model db)
        in
        incremental r (2 * retract_reps) "retracts";
        let st =
          match r.Session.mat with
          | Some m -> Ivm.stats m.Session.ivm
          | None -> failwith (Printf.sprintf "n=%d lost its materialization" n)
        in
        if st.Ivm.dred_overdeleted < retract_reps * mid * (n - mid) then
          failwith (Printf.sprintf "n=%d retracts were not served by DRed" n);
        (a, st)
      in
      (* from scratch: a fresh session's first run (the load is a cache hit) *)
      let model, full = time_stats ~repeat:5 (fun () -> run (session ())) in
      let t_full = full.best_s in
      let s = session () in
      let inc = asserts s in
      let ret, st = retracts (session ()) in
      let per_retract k = k / retract_reps in
      let on_disk f =
        rm_rf dir;
        match Durable.create ~fsync:(Wal.Batch 16) ~snapshot_every:64 dir with
        | Error msg -> failwith ("data dir: " ^ msg)
        | Ok d ->
          let d = session ~durable:d () in
          Fun.protect ~finally:(fun () -> Session.discard d) (fun () -> median (f d))
      in
      let t_dur = on_disk asserts in
      let t_dur_ret = on_disk (fun d -> fst (retracts d)) in
      let durable_x = t_dur /. median inc in
      if n = 512 then
        verdicts := at_most "E17 durable/ephemeral" ~limit:3.0 "durable/ephemeral assert median" durable_x :: !verdicts;
      let retract_x = median ret /. full.median_s in
      if not smoke then
        verdicts :=
          !verdicts
          @ [ at_most "E17 retract/from-scratch" ~limit:1.0
                (Printf.sprintf "n=%d retract/from-scratch median" n)
                retract_x ];
      (* byte-identity with from-scratch models on the small sizes *)
      if n <= 256 then begin
        let fresh = session () in
        for k = 0 to reps - 1 do
          expect "assert" (Session.assert_facts fresh (fresh_fact k))
        done;
        let render s = Session.render_model (run s) in
        if render s <> render fresh || !retracted <> render (session ~whole:false ()) then
          failwith (Printf.sprintf "n=%d maintained model differs from from-scratch" n)
      end;
      let x10 t = int_of_float (t_full /. t *. 10.0) in
      ( n, inc.(0), median inc,
        [ ("model_facts", Database.cardinal model); ("full_us", us t_full);
          ("full_median_us", us full.median_s); ("inc_best_us", us inc.(0));
          ("inc_median_us", us (median inc)); ("updates", reps); ("speedup_x10", x10 inc.(0));
          ("retract_best_us", us ret.(0)); ("retract_median_us", us (median ret)); ("retracts", retract_reps);
          ("retract_overdeleted", mid * (n - mid)); ("retract_speedup_x10", x10 ret.(0));
          ("retract_x100", int_of_float (retract_x *. 100.0));
          ("dred_rounds", per_retract st.Ivm.dred_rounds);
          ("dred_checked", per_retract st.Ivm.dred_checked);
          ("durable_inc_median_us", us t_dur); ("durable_retract_median_us", us t_dur_ret);
          ("durable_x100", int_of_float (durable_x *. 100.0)) ] )
    in
    report ~exp:"E17"
      ~title:
        "Incremental maintenance: single-fact assert or retract + maintained run vs model size (TC chain, \
         staged engine; durable = fsync batch:16, snapshot every 64)"
      (List.map row (sizes ([ 128 ], [ 128; 256; 512; 1024 ])));
    !verdicts
  in
  { name = "E17"; run }

(* ---- In-process daemons (E18, E19) ---- *)

let rec connect sock tries =
  match Client.connect_unix sock with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
    Unix.sleepf 0.02;
    connect sock (tries - 1)

(* A gbcd on a Unix socket in the work dir, served by its own domain. *)
let start_server ?(workers = 2) ?data_dir ?(snapshot_every = 64) name =
  let sock = in_work (name ^ ".sock") in
  let cfg =
    { Server.default_config with
      port = None; unix_path = Some sock; workers; data_dir; snapshot_every; fsync = Wal.Batch 16 }
  in
  match Server.create cfg with
  | Error msg -> failwith ("server create: " ^ msg)
  | Ok srv -> (sock, srv, Domain.spawn (fun () -> Server.run srv))

let stop_server (_, srv, d) =
  Server.shutdown srv;
  Domain.join d

(* A blocking rpc whose latency goes on [lats]; a reply failing
   [check] counts in [errors]. *)
let timed_rpc c errors lats req check =
  let resp, t = time (fun () -> Client.rpc c req) in
  lats := t :: !lats;
  if not (check resp) then Atomic.incr errors

let run_req = Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }
let is_loaded = function Protocol.Loaded _ -> true | _ -> false
let is_asserted = function Protocol.Asserted _ -> true | _ -> false

(* ---- E18 - durability: WAL overhead and cold-recovery time ---- *)

(* 1. The write-ahead log's cost on the serving path: concurrent
      sessions replay the 13 exemplars as Load + Assert + Run against
      an in-process daemon, ephemeral and then durable (fsync batch
      16).  Records are a few dozen bytes and evaluation dominates, so
      losing over 20% of req/s means the logging path regressed
      (checked at full scale: at smoke scale, 78 requests, the ratio
      is noise).
   2. Cold recovery vs model size: a durable session materializes the
      TC chain, the server stops, and a server on the same data dir
      (snapshot read, WAL-tail replay, digest-verified re-evaluation)
      is timed from create until it serves. *)
let e18 =
  let run () =
    let sources =
      List.map read_program
        [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl"; "matching.dl"; "huffman.dl";
          "tsp.dl"; "dijkstra.dl"; "scheduling.dl"; "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]
    in
    let sessions = if smoke then 2 else 4 and rounds = if smoke then 1 else 2 in
    let serve ?data_dir name =
      let ((sock, _, _) as server) = start_server ~workers:4 ?data_dir name in
      let errors = Atomic.make 0 in
      let wall, lats =
        clients sessions (fun i ->
            let c = connect sock 100 and lats = ref [] in
            for round = 1 to rounds do
              List.iteri
                (fun k src ->
                  let text = Printf.sprintf "zz_bench(%d, %d)." i ((100 * round) + k) in
                  timed_rpc c errors lats (Protocol.Load src) is_loaded;
                  timed_rpc c errors lats (Protocol.Assert_facts { text; id = None }) is_asserted;
                  timed_rpc c errors lats run_req (function Protocol.Model m -> m.complete | _ -> false))
                sources
            done;
            Client.close c;
            !lats)
      in
      stop_server server;
      (float_of_int (List.length lats) /. wall, List.length lats, Atomic.get errors, wall)
    in
    let rps_off, reqs, errs_off, _ = serve "e18_off" in
    let rps_on, _, errs_on, wall_on = serve ~data_dir:(in_work "e18.data") "e18_on" in
    let overhead = (rps_off -. rps_on) /. rps_off *. 100.0 in
    report ~exp:"E18" ~title:"WAL overhead: 13 exemplars, Load + Assert + Run (n sessions, 4 workers)"
      [ ( sessions, wall_on, wall_on,
          [ ("requests", reqs); ("errors", errs_off + errs_on); ("workers", 4);
            ("rps_wal_off", int_of_float rps_off); ("rps_wal_on", int_of_float rps_on);
            ("overhead_pct_x10", int_of_float (overhead *. 10.0));
            ("within_budget", Bool.to_int (overhead <= 20.0)) ]
        ) ];
    let recovery n =
      let data_dir = in_work (Printf.sprintf "e18r_%d.data" n) and name = Printf.sprintf "e18r_%d" n in
      let ((sock, _, _) as server) = start_server ~data_dir ~snapshot_every:2 name in
      let c = connect sock 100 and facts = ref 0 in
      let rpc what req ok = if not (ok (Client.rpc c req)) then failwith ("recovery setup: " ^ what) in
      rpc "load" (Protocol.Load (tc_chain n)) is_loaded;
      rpc "assert" (Protocol.Assert_facts { text = Printf.sprintf "edge(%d, 1)." (n + 1); id = None })
        is_asserted;
      rpc "run" run_req (function
        | Protocol.Model { complete = true; text; _ } ->
          facts := List.length (List.filter (( <> ) "") (String.split_on_char '\n' text));
          true
        | _ -> false);
      rpc "attach" (Protocol.Attach None) (function Protocol.Attached _ -> true | _ -> false);
      Client.close c;
      stop_server server;
      (* the cold start: recovery happens inside Server.create *)
      let server, t_rec = time (fun () -> start_server ~data_dir ~snapshot_every:2 name) in
      stop_server server;
      (n, t_rec, t_rec, [ ("model_facts", !facts); ("recovery_us", us t_rec) ])
    in
    report ~exp:"E18" ~title:"Cold recovery: a server on a durable data dir vs model size"
      (List.map recovery (sizes ([ 128 ], [ 128; 256; 512 ])));
    if smoke then [] else [ at_most "E18 WAL overhead" ~limit:20.0 "req/s lost to the WAL, %" overhead ]
  in
  { name = "E18"; run }

(* ---- E19 - scale-out serving: open-loop load through gbc-router ---- *)

(* The worst p50 and p99 queue wait (µs from frame parse to worker
   dequeue) over the servers at [socks], from their stats. *)
let queue_wait socks =
  let stat json k =
    let field k = function Some (Obj fs) -> List.assoc_opt k fs | _ -> None in
    match field k (field "queue_wait" (field "server" (Result.to_option (parse_json json)))) with
    | Some (Num f) -> int_of_float f
    | _ -> 0
  in
  List.fold_left
    (fun (p50, p99) sock ->
      let c = connect sock 100 in
      match Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.rpc c Protocol.Stats) with
      | Protocol.Stats_json json -> (max p50 (stat json "p50_us"), max p99 (stat json "p99_us"))
      | _ -> (p50, p99))
    (0, 0) socks

(* Two in-process gbcd backends behind an in-process router, driven
   two ways over one workload (Load + Run per session, three
   exemplars): closed-loop blocking clients, each request paying the
   whole round trip before the next; and a [Client.Pipeline] fed by an
   open-loop Poisson generator, bounded only by an in-flight window,
   so the backends always find work queued and requests/s must come
   out strictly higher (checked at full scale: 30 smoke sessions end
   before the pipeline fills).  Every Model reply must equal
   single-shot evaluation byte for byte.  Each phase gets a fresh fleet
   whose queue waits are read before teardown, and runs under a
   deadline: a watchdog then names the stuck phase and the requests
   unanswered, signals the fleet and exits non-zero, so a lost reply
   is a named failure, not a hang. *)
let e19 =
  let run () =
    let deadline_s = if smoke then 20.0 else 60.0 in
    let progs =
      List.map
        (fun n ->
          let src = read_program n in
          (src, Database.render (Stage_engine.model (Parser.parse_program src))))
        [ "example1.dl"; "prim.dl"; "transitive_closure.dl" ]
    in
    let prog i = List.nth progs (i mod List.length progs) in
    let sessions = if smoke then 30 else 2000 and gens = 2 and inflight_cap = 64 and backends_n = 2 in
    let per = sessions / gens in
    let errors = Atomic.make 0 and outstanding = Atomic.make 0 in
    let model_ok reference = function
      | Protocol.Model { complete; text; _ } -> complete && text = reference
      | _ -> false
    in
    let with_fleet phase f =
      let backs = List.init backends_n (fun i -> start_server (Printf.sprintf "e19_%s_b%d" phase i)) in
      let rsock = in_work (Printf.sprintf "e19_%s_r.sock" phase) in
      let rcfg =
        { Router.default_config with
          port = None; unix_path = Some rsock; connect_timeout = Some 2.0;
          backends = List.map (fun (p, _, _) -> Client.Uds p) backs }
      in
      match Router.create rcfg with
      | Error msg -> failwith ("router create: " ^ msg)
      | Ok rt ->
        let rrunner = Domain.spawn (fun () -> Router.run rt) in
        Atomic.set outstanding 0;
        let finished = Atomic.make false and t_end = Unix.gettimeofday () +. deadline_s in
        let watchdog () =
          while (not (Atomic.get finished)) && Unix.gettimeofday () < t_end do
            Unix.sleepf 0.05
          done;
          if not (Atomic.get finished) then begin
            Printf.printf "FAILED E19: %s phase still running after %.0f s, %d request(s) outstanding\n%!" phase
              deadline_s (Atomic.get outstanding);
            Printf.printf "E19: router view: %s\n%!" (Router.stats_json rt);
            (* a drain waits for the lost reply too: signal, never join *)
            Router.shutdown rt;
            List.iter (fun (_, srv, _) -> Server.shutdown srv) backs;
            rm_rf work;
            Unix._exit 1
          end
        in
        let watchdog = Thread.create watchdog () in
        Fun.protect
          ~finally:(fun () ->
            Router.shutdown rt;
            Domain.join rrunner;
            List.iter stop_server backs;
            Atomic.set finished true;
            Thread.join watchdog)
          (fun () ->
            let r = f rsock in
            (r, queue_wait (List.map (fun (p, _, _) -> p) backs)))
    in
    let blocking rsock =
      clients gens (fun g ->
          let c = connect rsock 150 and lats = ref [] in
          let rpc req check =
            Atomic.incr outstanding;
            timed_rpc c errors lats req check;
            Atomic.decr outstanding
          in
          for s = 0 to per - 1 do
            let src, reference = prog ((g * per) + s) in
            rpc (Protocol.Load src) is_loaded;
            rpc run_req (model_ok reference)
          done;
          Client.close c;
          !lats)
    in
    let pipelined ~session_rate rsock =
      clients gens (fun g ->
          let p = Client.Pipeline.create (Client.resilient ~connect_timeout:2.0 (Client.Uds rsock)) in
          let pending = Hashtbl.create 256 and lats = ref [] in
          let complete (rid, resp) =
            match Hashtbl.find_opt pending rid with
            | None -> Atomic.incr errors
            | Some (check, t0) ->
              Hashtbl.remove pending rid;
              Atomic.decr outstanding;
              (* sojourn time, submit to completion: the honest latency
                 of an open-loop system *)
              lats := (Unix.gettimeofday () -. t0) :: !lats;
              if not (check resp) then Atomic.incr errors
          in
          let rng = Random.State.make [| 0x919; g |] and rate = session_rate /. float_of_int gens in
          let next = ref (Unix.gettimeofday ()) in
          for s = 0 to per - 1 do
            next := !next +. (-.log (1.0 -. Random.State.float rng 1.0) /. rate);
            while Client.Pipeline.inflight p >= inflight_cap do
              complete (Client.Pipeline.await p)
            done;
            let now = Unix.gettimeofday () in
            if !next > now then Unix.sleepf (!next -. now);
            let src, reference = prog ((g * per) + s) and t = Unix.gettimeofday () in
            let submit req check =
              Atomic.incr outstanding;
              Hashtbl.replace pending (Client.Pipeline.submit p req) (check, t)
            in
            submit (Protocol.Load src) is_loaded;
            submit run_req (model_ok reference)
          done;
          List.iter complete (Client.Pipeline.drain p);
          Client.Pipeline.close p;
          !lats)
    in
    let rps (wall, lats) = float_of_int (List.length lats) /. wall in
    let ((_, lats_b) as blk), _ = with_fleet "blocking" blocking in
    (* sessions (two requests each) arrive at the blocking request rate:
       the generator does not slow down for the server, only the
       in-flight cap bounds admission, so the fleet runs saturated *)
    let ((_, lats_p) as pip), (qw_p50, qw_p99) = with_fleet "pipelined" (pipelined ~session_rate:(rps blk)) in
    let rps_b = rps blk and rps_p = rps pip and errors = Atomic.get errors in
    let pct lats p =
      let a = Array.of_list lats in
      Array.sort compare a;
      let n = Array.length a in
      if n = 0 then 0 else us a.(min (n - 1) (int_of_float (p *. float_of_int n)))
    in
    let wall = fst blk +. fst pip in
    report ~exp:"E19" ~title:"gbc-router over 2 backends x 2 workers: blocking vs pipelined clients"
      [ ( sessions, wall, wall,
          [ ("requests", List.length lats_b + List.length lats_p); ("errors", errors); ("backends", backends_n);
            ("generators", gens); ("inflight_cap", inflight_cap); ("blocking_rps", int_of_float rps_b);
            ("pipelined_rps", int_of_float rps_p); ("blocking_p50_us", pct lats_b 0.50);
            ("blocking_p99_us", pct lats_b 0.99); ("pipelined_p50_us", pct lats_p 0.50);
            ("pipelined_p99_us", pct lats_p 0.99); ("queue_wait_p50_us", qw_p50); ("queue_wait_p99_us", qw_p99);
            ("speedup_pct", int_of_float ((rps_p -. rps_b) /. rps_b *. 100.0)) ] ) ];
    { gate = "E19 models byte-identical"; ok = errors = 0;
      detail = Printf.sprintf "%d reply(ies) failed or differed from single-shot" errors }
    :: (if smoke then []
        else
          [ { gate = "E19 pipelined beats blocking"; ok = rps_p > rps_b;
              detail = Printf.sprintf "pipelined %.0f req/s, blocking %.0f req/s" rps_p rps_b } ])
  in
  { name = "E19"; run }

(* ---- E20 - the big-EDB tier: million-edge loads into the cell store ---- *)

(* Relations of int cells make the million-edge corpora behind Prim /
   Kruskal / Dijkstra a systems workload: bulk loads
   ([Relation.add_ints]) take at most 2.0 minor words per fact, since
   nothing is boxed per row (boxing cost ~23); then the snapshot
   round-trip and session fork ([Database.copy]) of the Dijkstra base,
   and the programs on the staged engine at a sub-tier they settle in
   bench time (declarative Kruskal, O(e.n), gets a smaller one). *)
let e20 =
  let seed = 42 in
  let run () =
    let nodes, edges, grid = if smoke then (2_000, 20_000, 100) else (100_000, 1_000_000, 707) in
    let worst = ref 0.0 and big_db = ref None in
    let load (g, directed) =
      let g = Lazy.force g in
      Gc.compact ();
      let w0 = Gc.minor_words () and db = Database.create () in
      let (), wall = time (fun () -> Graph_gen.load_big ~directed db g; Graph_gen.load_big_nodes db g) in
      let words = Gc.minor_words () -. w0 and facts = Database.cardinal db in
      worst := Float.max !worst (words /. float_of_int facts);
      if directed then big_db := Some db;
      ( facts, wall, wall,
        [ ("seed", seed); ("nodes", nodes); ("graph_edges", Graph_gen.big_edges g);
          ("directed", Bool.to_int directed); ("minor_words", int_of_float words);
          ("words_per_fact_x10", int_of_float (words /. float_of_int facts *. 10.0)); ("load_us", us wall);
          ("top_heap_words", top_heap_words ()) ] )
    in
    report ~exp:"E20" ~labels:("corpus", [ "prim"; "kruskal"; "dijkstra" ])
      ~title:(Printf.sprintf "Bulk loads (%d/%d power-law, %dx%d road); n = facts" nodes edges grid grid)
      (List.map load
         [ (lazy (Graph_gen.power_law ~seed ~nodes ~edges), false);
           (lazy (Graph_gen.road_network ~seed ~width:grid ~height:grid), false);
           (lazy (Graph_gen.power_law ~seed ~nodes ~edges), true) ]);
    let db = Option.get !big_db in
    let facts = Database.cardinal db and buf = Buffer.create (1 lsl 20) in
    Db_snapshot.write buf db;
    let snap = Buffer.contents buf in
    let (db2, _), t_restore = time ~repeat:2 (fun () -> Db_snapshot.read snap 0) in
    if Database.cardinal db2 <> facts then failwith "snapshot round-trip lost facts";
    let _, t_fork = time ~repeat:2 (fun () -> Database.copy db) in
    report ~exp:"E20" ~title:"Snapshot round-trip of the Dijkstra base, and the session fork"
      [ ( facts, t_restore, t_restore,
          [ ("seed", seed); ("snapshot_v2_bytes", String.length snap); ("restore_v2_us", us t_restore);
            ("fork_us", us t_fork); ("top_heap_words", top_heap_words ()) ] ) ];
    let engine (source, directed, (sub_nodes, sub_edges)) =
      let sub_nodes, sub_edges = if smoke then (500, 2_000) else (sub_nodes, sub_edges) in
      let sub = Graph_gen.power_law ~seed ~nodes:sub_nodes ~edges:sub_edges and db = Database.create () in
      Graph_gen.load_big ~directed db sub;
      Graph_gen.load_big_nodes db sub;
      let (model, _), wall = time (fun () -> Stage_engine.run ~db (Parser.parse_program source)) in
      ( sub_edges, wall, wall,
        [ ("seed", seed); ("sub_nodes", sub_nodes); ("sub_edges", sub_edges); ("engine_us", us wall);
          ("model_facts", Database.cardinal model) ] )
    in
    report ~exp:"E20" ~labels:("program", [ "prim"; "kruskal"; "dijkstra" ])
      ~title:"Prim / Kruskal / Dijkstra on the generated corpus (staged engine); n = edges"
      (List.map engine
         [ (Prim.source ~root:0, false, (4_096, 32_768)); (Kruskal.source, false, (1_024, 4_096));
           (Dijkstra.source ~root:0, true, (4_096, 32_768)) ]);
    [ at_most "E20 bulk-load words/fact" ~limit:2.0 "worst corpus" !worst ]
  in
  { name = "E20"; run }

(* ---- Ablations ---- *)

(* A1: the reference engine recomputes the least candidate set at every
   stage; the Section-6 (R,Q,L) queues remove a power of n. *)
let a1 =
  sweep ~name:"A1" ~title:"Ablation: (R,Q,L) priority queues vs recompute-least-per-stage (Prim, e = 8n)"
    ~sizes:(sizes ([ 64; 128 ], [ 64; 128; 256; 512 ]))
    ~reps:5 ~input:(prim_graph 800)
    ~timed:
      [ ("staged", fun g -> Prim.run Runner.Staged g); ("reference", fun g -> Prim.run Runner.Reference g) ]
    ~oracle:(mst_ok (fun r -> r.Prim.weight))
    ~counters:(staged_counters (Prim.program ~root:0)) ~gates:[ ratio_at_least "A1" "reference" 10.0 ] ()

(* A2: r-congruence shadowing keeps one candidate per class, at
   identical output; its queue high-water mark must be below the
   unshadowed one at every size (a count, so the gate cannot flake). *)
let a2 =
  let queue k p = col ("max queue " ^ k) p in
  sweep ~name:"A2" ~title:"Ablation: r-congruence shadowing (Prim; queue high-water mark and time)"
    ~sizes:(sizes ([ 256 ], [ 256; 512; 1024 ]))
    ~input:(fun n -> Prim.program ~root:0 (prim_graph 900 n))
    ~timed:
      [ ("auto", fun p -> Stage_engine.run ~shadow:`Auto p); ("off", fun p -> Stage_engine.run ~shadow:`Off p) ]
    ~oracle:(fun _ -> all_equal (fun (db, _) -> Database.render db))
    ~extra:(fun _ -> function
      | [ (_, a); (_, o) ] ->
        [ ("max queue auto", a.Stage_engine.max_queue); ("max queue off", o.Stage_engine.max_queue);
          ("shadowed", a.Stage_engine.shadowed); ("stale pops", a.Stage_engine.stale) ]
      | _ -> [])
    ~counters:(staged_counters Fun.id)
    ~gates:
      [ (fun ps ->
          let pair p = Printf.sprintf "%d vs %d at n=%d" (queue "auto" p) (queue "off" p) p.n in
          { gate = "A2"; ok = List.for_all (fun p -> queue "auto" p < queue "off" p) ps;
            detail = "max queue shadowed vs not: " ^ String.concat ", " (List.map pair ps) }) ]
    ()

(* A3, the conclusion's naive matching: without the extremum inside the
   recursion one must enumerate choice models and filter afterwards -
   exponentially many; with least inside, one greedy run suffices. *)
let a3 =
  sweep ~name:"A3" ~title:"Ablation: least inside the clique vs enumerating choice models"
    ~xname:"arcs" ~sizes:(sizes ([ 3 ], [ 3; 4; 5; 6 ]))
    ~input:(fun n ->
      let arc (x, y, c) = Ast.fact "g" [ Value.Int x; Value.Int y; Value.Int c ] in
      let g = List.map arc (matching_arcs (37 * n) n) in
      ( g @ Parser.parse_program Matching.source,
        g @ Parser.parse_program "matching(nil, nil, 0, 0).\n\
                                  matching(X, Y, C, I) <- next(I), g(X, Y, C), choice(Y, X), choice(X, Y).\n" ))
    ~timed:
      [ ("greedy", fun (greedy, _) -> ignore (Choice_fixpoint.model greedy); 1);
        ("enumerate", fun (_, naive) -> List.length (Choice_fixpoint.enumerate ~max_models:100_000 naive)) ]
    ~extra:(fun _ counts -> [ ("models to filter", List.nth counts 1) ])
    ()

(* ---- The table and the runner ---- *)

let entries =
  [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13;
    e14 "sort" ~limit:32.0 ([ 4096 ], [ 4096; 16384 ]) (fun n -> Sorting.program (sort_items 7 n)) [];
    e14 "Prim" ~limit:32.0 ([ 256 ], [ 256; 1024 ]) (fun n -> Prim.program ~root:0 (prim_graph 100 n))
      [ (fun ps ->
          at_most "E14 render words/fact" ~limit:8.0 "Prim" (largest "render_words_per_fact_x10" ps /. 10.0));
        (fun ps -> at_most "E14 words per gamma step" ~limit:1500.0 "Prim" (largest "words_per_step" ps)) ];
    e14 "matching" ~limit:64.0 ([ 2048 ], [ 2048; 8192 ]) (fun e -> Matching.program (matching_arcs (3 * e) e)) [];
    e14_update;
    e16 1 "Prim" ([ 96 ], [ 96; 192; 320 ]) (fun n ->
        Prim.program ~root:0 (Graph_gen.random_connected ~seed:(1600 + n) ~nodes:n ~extra_edges:(4 * n)));
    e16 2 "sorting" ([ 128 ], [ 128; 256; 512 ]) (fun n -> Sorting.program (sort_items 16 n));
    e17; e18; e19; e20; a1; a2; a3 ]

let () =
  let chosen = List.filter (fun e -> only = None || only = Some e.name) entries in
  if chosen = [] then begin
    Printf.eprintf "main.exe: no entry %s; entries: %s\n" (Option.get only)
      (String.concat " " (List.sort_uniq compare (List.map (fun e -> e.name) entries)));
    exit 2
  end;
  Printf.printf "Greedy by Choice - experiment harness%s\n" (if smoke then " (smoke)" else "");
  let verdicts =
    List.concat_map
      (fun e -> try e.run () with exn -> [ { gate = e.name; ok = false; detail = Printexc.to_string exn } ])
      chosen
  in
  let in_tree = (not smoke) && only <> None in
  let files = flush_bench ~dir:(if in_tree then Filename.current_dir_name else work) in
  let json =
    { gate = "BENCH JSON"; ok = validate_bench files;
      detail =
        Printf.sprintf "%s parse back (%s)" (String.concat ", " (List.map Filename.basename files))
          (if in_tree then "in the working directory" else "temporary, removed") }
  in
  print_newline ();
  let verdicts = verdicts @ [ json ] in
  List.iter (fun v -> Printf.printf "%-6s %s: %s\n" (if v.ok then "ok" else "FAILED") v.gate v.detail) verdicts;
  match List.filter (fun v -> not v.ok) verdicts with
  | [] -> print_endline "all gates ok"
  | failed ->
    Printf.printf "FAILED: %s\n" (String.concat ", " (List.map (fun v -> v.gate) failed));
    exit 1
