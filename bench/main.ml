(* The benchmark harness: one experiment per complexity claim of the
   paper's Section 6 (plus the worked-example scalings and the design
   ablations), followed by bechamel micro-benchmarks — one Test.make
   per experiment table.  See DESIGN.md section 5 for the experiment
   index and EXPERIMENTS.md for the recorded results. *)

open Gbc

(* --smoke: tiniest instance per experiment, no bechamel; afterwards
   the emitted BENCH_*.json files are parsed back and the process
   exits nonzero if any is malformed (the `bench-smoke` dune alias). *)
(* --perf-smoke: run only the E14 allocation kernels at their smallest
   size, validate the emitted BENCH_E14.json and fail on a words-per-
   fact regression (the `perf-smoke` dune alias). *)
(* --e15: run only the daemon throughput/latency experiment at full
   scale (8 sessions, 3 rounds) and write BENCH_E15.json. *)
(* --e17: run only the incremental-maintenance latency experiment at
   full scale and write BENCH_E17.json. *)
(* --e18: run only the durability experiment (WAL overhead + cold
   recovery) at full scale, write BENCH_E18.json, and fail if the
   fsync-batched WAL costs more than 20% of the E15 workload's rps. *)
(* --e14: run only the allocation kernels at full scale, write
   BENCH_E14.json, and fail on a words-per-fact budget violation. *)
(* --e19: run only the scale-out serving experiment (open-loop load
   through gbc-router, blocking vs pipelined clients) at full scale,
   write BENCH_E19.json, and fail unless the pipelined client's
   requests/s strictly beats the blocking client's. *)
(* --e20: run only the big-EDB tier (million-edge bulk loads; snapshot
   restore; the greedy exemplars at a sub-tier), write BENCH_E20.json,
   and fail unless every corpus loads in at most 2.0 minor words per
   fact. *)
let only_e14 = Array.exists (( = ) "--e14") Sys.argv
let only_e15 = Array.exists (( = ) "--e15") Sys.argv
let only_e17 = Array.exists (( = ) "--e17") Sys.argv
let only_e18 = Array.exists (( = ) "--e18") Sys.argv
let only_e19 = Array.exists (( = ) "--e19") Sys.argv
let only_e20 = Array.exists (( = ) "--e20") Sys.argv
let perf_smoke = Array.exists (( = ) "--perf-smoke") Sys.argv
let smoke = perf_smoke || Array.exists (( = ) "--smoke") Sys.argv
let quick = smoke || Array.exists (( = ) "--quick") Sys.argv

(* --repeat N: time every point with N repetitions (best and median
   both land in the BENCH json) instead of the per-site defaults. *)
let () =
  Array.iteri
    (fun i a ->
      if a = "--repeat" && i + 1 < Array.length Sys.argv then
        match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n >= 1 -> Harness.repeat_override := Some n
        | _ -> ())
    Sys.argv

let scale xs =
  let keep = if smoke then 1 else if quick then 2 else List.length xs in
  List.filteri (fun i _ -> i < keep) xs

(* Counter snapshot for a BENCH point: re-run the program once on the
   staged engine with telemetry enabled (the timed runs stay
   uninstrumented).  Programs outside the staged engine's class record
   no counters. *)
let counters_of prog =
  let telemetry = Telemetry.create () in
  match Stage_engine.run ~telemetry prog with
  | _ -> Telemetry.totals telemetry
  | exception (Stage_engine.Not_compilable _ | Choice_fixpoint.Unsupported _) -> []

let record = Harness.record

(* ------------------------------------------------------------------ *)
(* E1 — Prim (claim C1: O(e log e) vs procedural O(e log n))           *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let sizes = scale [ 128; 256; 512; 1024; 2048 ] in
  let rows, staged_pts, ref_pts, proc_pts =
    List.fold_left
      (fun (rows, sp, rp, pp) n ->
        let g = Graph_gen.random_connected ~seed:(100 + n) ~nodes:n ~extra_edges:(7 * n) in
        let e = float_of_int (List.length g.Graph_gen.edges) in
        let oracle = Graph_gen.mst_weight g in
        let r_staged, ts = Harness.time_stats (fun () -> Prim.run Runner.Staged g) in
        let t_staged = ts.Harness.best_s in
        let r_ref, t_ref =
          if n <= 512 then
            let r, t = Harness.time ~repeat:1 (fun () -> Prim.run Runner.Reference g) in
            (Some r, Some t)
          else (None, None)
        in
        let r_proc, t_proc = Harness.time (fun () -> Prim.procedural g) in
        assert (r_staged.Prim.weight = oracle && r_proc.Prim.weight = oracle);
        Option.iter (fun r -> assert (r.Prim.weight = oracle)) r_ref;
        record ~exp:"E1" ~n ~wall:t_staged ~median:ts.Harness.median_s
          (counters_of (Prim.program ~root:0 g));
        let row =
          [ string_of_int n; string_of_int (int_of_float e); Harness.sec t_staged;
            (match t_ref with Some t -> Harness.sec t | None -> "-");
            Harness.sec t_proc; Harness.ratio t_staged t_proc ]
        in
        ( row :: rows,
          (e, t_staged) :: sp,
          (match t_ref with Some t -> (e, t) :: rp | None -> rp),
          (e, t_proc) :: pp ))
      ([], [], [], []) sizes
  in
  Harness.table ~title:"E1  Prim's algorithm (paper claim C1: O(e log e))"
    ~header:[ "n"; "e"; "staged(s)"; "reference(s)"; "procedural(s)"; "staged/proc" ]
    (List.rev rows);
  Printf.printf
    "E1 slopes (log-log vs e): staged %s, reference %s, procedural %s  (1.0 = linear)\n"
    (Harness.slope (Harness.loglog_slope staged_pts))
    (Harness.slope (Harness.loglog_slope ref_pts))
    (Harness.slope (Harness.loglog_slope proc_pts))

(* ------------------------------------------------------------------ *)
(* E2 — Sorting (claim C2: O(n log n), "heap-sort, not insertion")     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let sizes = scale [ 1024; 2048; 4096; 8192; 16384 ] in
  let rng = Rng.create 7 in
  let rows, staged_pts, proc_pts =
    List.fold_left
      (fun (rows, sp, pp) n ->
        let items = List.init n (fun i -> (Printf.sprintf "x%d" i, Rng.int rng 1_000_000)) in
        let out, ts = Harness.time_stats (fun () -> Sorting.run Runner.Staged items) in
        let t_staged = ts.Harness.best_s in
        assert (Sorting.is_sorted_permutation ~input:items out);
        let _, t_proc = Harness.time (fun () -> Sorting.procedural items) in
        let _, t_list = Harness.time (fun () -> List.sort (fun (_, a) (_, b) -> compare a b) items) in
        record ~exp:"E2" ~n ~wall:t_staged ~median:ts.Harness.median_s
          (counters_of (Sorting.program items));
        let fn = float_of_int n in
        ( [ string_of_int n; Harness.sec t_staged; Harness.sec t_proc; Harness.sec t_list;
            Harness.ratio t_staged t_proc ]
          :: rows,
          (fn, t_staged) :: sp,
          (fn, t_proc) :: pp ))
      ([], [], []) sizes
  in
  Harness.table ~title:"E2  Sorting (paper claim C2: O(n log n))"
    ~header:[ "n"; "staged(s)"; "heap-sort(s)"; "List.sort(s)"; "staged/heap" ]
    (List.rev rows);
  Printf.printf "E2 slopes: staged %s, heap-sort %s\n"
    (Harness.slope (Harness.loglog_slope staged_pts))
    (Harness.slope (Harness.loglog_slope proc_pts))

(* ------------------------------------------------------------------ *)
(* E3 — Matching (claim C3: O(e log e), all arcs queued)               *)
(* ------------------------------------------------------------------ *)

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

let e3 () =
  let sizes = scale [ 1024; 2048; 4096; 8192; 16384 ] in
  let rows, staged_pts =
    List.fold_left
      (fun (rows, sp) e ->
        let arcs = matching_arcs (3 * e) e in
        let r_staged, t_staged = Harness.time (fun () -> Matching.run Runner.Staged arcs) in
        let r_proc, t_proc = Harness.time (fun () -> Matching.procedural arcs) in
        assert (r_staged.Matching.arcs = r_proc.Matching.arcs);
        record ~exp:"E3" ~n:e ~wall:t_staged (counters_of (Matching.program arcs));
        ( [ string_of_int e; string_of_int (List.length r_staged.Matching.arcs);
            Harness.sec t_staged; Harness.sec t_proc; Harness.ratio t_staged t_proc ]
          :: rows,
          (float_of_int e, t_staged) :: sp ))
      ([], []) sizes
  in
  Harness.table ~title:"E3  Greedy matching (paper claim C3: O(e log e), Q holds all e arcs)"
    ~header:[ "arcs"; "matched"; "staged(s)"; "procedural(s)"; "staged/proc" ]
    (List.rev rows);
  Printf.printf "E3 slope: staged %s\n" (Harness.slope (Harness.loglog_slope staged_pts))

(* ------------------------------------------------------------------ *)
(* E4 — Kruskal (claim C4: O(e*n) declarative vs O(e log e) classic)   *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let sizes = scale [ 60; 120; 240; 480 ] in
  let rows, staged_pts, proc_pts =
    List.fold_left
      (fun (rows, sp, pp) n ->
        let g = Graph_gen.random_connected ~seed:(400 + n) ~nodes:n ~extra_edges:(3 * n) in
        let oracle = Graph_gen.mst_weight g in
        let r_staged, t_staged = Harness.time ~repeat:1 (fun () -> Kruskal.run Runner.Staged g) in
        let r_proc, t_proc = Harness.time (fun () -> Kruskal.procedural g) in
        let _, t_norank = Harness.time (fun () -> Kruskal.procedural ~by_rank:false g) in
        assert (r_staged.Kruskal.weight = oracle && r_proc.Kruskal.weight = oracle);
        record ~exp:"E4" ~n ~wall:t_staged (counters_of (Kruskal.program g));
        let fn = float_of_int n in
        ( [ string_of_int n; string_of_int (4 * n); Harness.sec t_staged; Harness.sec t_proc;
            Harness.sec t_norank; Harness.ratio t_staged t_proc ]
          :: rows,
          (fn, t_staged) :: sp,
          (fn, t_proc) :: pp ))
      ([], [], []) sizes
  in
  Harness.table
    ~title:
      "E4  Kruskal (paper claim C4: declarative O(e*n) — full relabeling, no \
       merge-small-into-large — vs classical O(e log e))"
    ~header:[ "n"; "e"; "staged(s)"; "union-find(s)"; "uf-no-rank(s)"; "staged/uf" ]
    (List.rev rows);
  Printf.printf
    "E4 slopes vs n (e = 4n): staged %s (paper predicts ~2: e*n), procedural %s (~1: e log e)\n"
    (Harness.slope (Harness.loglog_slope staged_pts))
    (Harness.slope (Harness.loglog_slope proc_pts))

(* ------------------------------------------------------------------ *)
(* E5 — Greedy TSP chains (sub-optimals)                               *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let sizes = scale [ 32; 64; 128; 256 ] in
  let rows, staged_pts =
    List.fold_left
      (fun (rows, sp) n ->
        let g = Graph_gen.complete ~seed:(500 + n) ~nodes:n in
        let e = List.length g.Graph_gen.edges in
        let r_staged, t_staged = Harness.time ~repeat:1 (fun () -> Tsp.run Runner.Staged g) in
        let r_proc, t_proc = Harness.time (fun () -> Tsp.procedural g) in
        assert (Tsp.is_hamiltonian_path g r_staged);
        assert (r_staged.Tsp.chain = r_proc.Tsp.chain);
        record ~exp:"E5" ~n ~wall:t_staged (counters_of (Tsp.program g));
        ( [ string_of_int n; string_of_int e; Harness.sec t_staged; Harness.sec t_proc;
            string_of_int r_staged.Tsp.cost ]
          :: rows,
          (float_of_int e, t_staged) :: sp ))
      ([], []) sizes
  in
  Harness.table
    ~title:"E5  Greedy TSP chain on complete graphs (identical tours to procedural greedy)"
    ~header:[ "n"; "e"; "staged(s)"; "procedural(s)"; "chain cost" ]
    (List.rev rows);
  Printf.printf "E5 slope vs e: staged %s\n" (Harness.slope (Harness.loglog_slope staged_pts))

(* ------------------------------------------------------------------ *)
(* E6 — Huffman                                                        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let sizes = scale [ 32; 64; 128; 256 ] in
  let rows, staged_pts =
    List.fold_left
      (fun (rows, sp) n ->
        let letters = Text_gen.zipf ~seed:(600 + n) ~letters:n in
        let r_staged, t_staged = Harness.time ~repeat:1 (fun () -> Huffman.run Runner.Staged letters) in
        let optimal, t_proc = Harness.time (fun () -> Huffman.procedural_cost letters) in
        assert (r_staged.Huffman.internal_cost = optimal);
        record ~exp:"E6" ~n ~wall:t_staged (counters_of (Huffman.program letters));
        ( [ string_of_int n; Harness.sec t_staged; Harness.sec t_proc;
            string_of_int r_staged.Huffman.internal_cost ]
          :: rows,
          (float_of_int n, t_staged) :: sp ))
      ([], []) sizes
  in
  Harness.table
    ~title:
      "E6  Huffman trees (engine is Theta(n^2): the feasible relation is quadratic; \
       two-queue baseline is O(n log n); equal optimal costs)"
    ~header:[ "letters"; "staged(s)"; "two-queue(s)"; "tree cost" ]
    (List.rev rows);
  Printf.printf "E6 slope vs n: staged %s (expected ~2)\n"
    (Harness.slope (Harness.loglog_slope staged_pts))

(* ------------------------------------------------------------------ *)
(* E7 — Choice-fixpoint throughput (Example 1 at scale)                *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let sizes = scale [ 200; 400; 800; 1600 ] in
  let rows =
    List.map
      (fun n ->
        let prog =
          Assignment.random_takes ~seed:n ~students:n ~courses:n ~enrollments:(4 * n)
          @ Parser.parse_program Assignment.example1_source
        in
        let (db, stats), t = Harness.time ~repeat:1 (fun () -> Choice_fixpoint.run prog) in
        let chosen = List.length (Database.facts_of db "a_st") in
        record ~exp:"E7" ~n:(4 * n) ~wall:t (counters_of prog);
        [ string_of_int (4 * n); string_of_int chosen;
          string_of_int stats.Choice_fixpoint.gamma_steps;
          string_of_int stats.Choice_fixpoint.candidates_examined; Harness.sec t ])
      sizes
  in
  Harness.table ~title:"E7  Choice fixpoint throughput (Example 1, random bipartite takes)"
    ~header:[ "enrollments"; "assigned"; "gamma steps"; "candidates"; "reference(s)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 1 in practice: stability of produced models            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let programs =
    [ ("example1", Assignment.program Assignment.example1_source);
      ("bi_st_c", Assignment.program Assignment.bi_st_c_source);
      ("sorting", Sorting.program (List.init 12 (fun i -> (Printf.sprintf "x%d" i, (i * 7) mod 23))));
      ("prim", Prim.program ~root:0 (Graph_gen.random_connected ~seed:81 ~nodes:8 ~extra_edges:8));
      ("kruskal", Kruskal.program (Graph_gen.random_connected ~seed:82 ~nodes:6 ~extra_edges:5));
      ("matching", Matching.program [ (0, 9, 3); (0, 8, 1); (1, 9, 2); (2, 7, 5) ]);
      ("tsp", Tsp.program (Graph_gen.complete ~seed:83 ~nodes:6));
      ("huffman", Huffman.program (Text_gen.zipf ~seed:84 ~letters:6));
      ("dijkstra", Dijkstra.program ~root:0 (Graph_gen.random_connected ~seed:85 ~nodes:8 ~extra_edges:8));
      ("scheduling", Scheduling.program (Interval_gen.random ~seed:86 ~jobs:7 ~horizon:40)) ]
  in
  let rows =
    List.map
      (fun (name, prog) ->
        let reference = Stable.is_stable prog (Choice_fixpoint.model prog) in
        let staged = Stable.is_stable prog (Stage_engine.model prog) in
        [ name; string_of_bool reference; string_of_bool staged ])
      programs
  in
  Harness.table ~title:"E8  Theorem 1: produced models are stable models of the rewriting"
    ~header:[ "program"; "reference stable"; "staged stable" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 — The compile-time class (Section 4 checker verdicts)            *)
(* ------------------------------------------------------------------ *)

let replace_once ~pattern ~by src =
  let n = String.length pattern in
  let rec find i =
    if i + n > String.length src then src
    else if String.sub src i n = pattern then
      String.sub src 0 i ^ by ^ String.sub src (i + n) (String.length src - i - n)
    else find (i + 1)
  in
  find 0

let e9 () =
  let programs =
    [ ("example1", Assignment.example1_source); ("bi_st_c", Assignment.bi_st_c_source);
      ("sorting", Sorting.source); ("prim", Prim.source ~root:0);
      ( "prim least(C,())",
        replace_once ~pattern:"least(C, I)" ~by:"least(C)" (Prim.source ~root:0) );
      ("matching", Matching.source); ("tsp", Tsp.source); ("huffman", Huffman.source);
      ("kruskal", Kruskal.source); ("dijkstra", Dijkstra.source ~root:0);
      ("scheduling", Scheduling.source); ("vertex cover", Vertex_cover.source);
      ("set cover", Set_cover.source) ]
  in
  let rows =
    List.map
      (fun (name, src) ->
        let report = Stage.analyze (Parser.parse_program src) in
        let issues = List.concat_map (fun c -> c.Stage.issues) report.Stage.cliques in
        let notes = List.concat_map (fun c -> c.Stage.notes) report.Stage.cliques in
        [ name; string_of_bool report.Stage.stage_stratified;
          string_of_int (List.length issues); string_of_int (List.length notes) ])
      programs
  in
  Harness.table ~title:"E9  Section-4 checker verdicts (Kruskal is beyond the class, as the paper says)"
    ~header:[ "program"; "stage-stratified"; "issues"; "notes" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 — Extensions: Dijkstra and interval scheduling                  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let sizes = scale [ 256; 512; 1024; 2048 ] in
  let rows, dij_pts =
    List.fold_left
      (fun (rows, dp) n ->
        let g = Graph_gen.random_connected ~seed:(700 + n) ~nodes:n ~extra_edges:(7 * n) in
        let d_staged, t_dij = Harness.time ~repeat:1 (fun () -> Dijkstra.run Runner.Staged g) in
        let d_proc, t_dij_proc = Harness.time (fun () -> Dijkstra.procedural g) in
        assert (List.sort compare d_staged = List.sort compare d_proc);
        let jobs = Interval_gen.random ~seed:(700 + n) ~jobs:n ~horizon:(20 * n) in
        let s_staged, t_sched = Harness.time ~repeat:1 (fun () -> Scheduling.run Runner.Staged jobs) in
        assert (s_staged = Scheduling.procedural jobs);
        record ~exp:"E10" ~n ~wall:t_dij (counters_of (Dijkstra.program ~root:0 g));
        ( [ string_of_int n; Harness.sec t_dij; Harness.sec t_dij_proc; Harness.sec t_sched ]
          :: rows,
          (float_of_int n, t_dij) :: dp ))
      ([], []) sizes
  in
  Harness.table ~title:"E10  Extension programs: Dijkstra SSSP and earliest-finish scheduling"
    ~header:[ "n"; "dijkstra staged(s)"; "dijkstra proc(s)"; "scheduling staged(s)" ]
    (List.rev rows);
  Printf.printf "E10 slope (dijkstra vs n, e = 8n): %s\n"
    (Harness.slope (Harness.loglog_slope dij_pts))

(* ------------------------------------------------------------------ *)
(* E12 — approximation programs: vertex cover and set cover            *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let rows =
    List.map
      (fun n ->
        let g = Graph_gen.random_connected ~seed:(1200 + n) ~nodes:n ~extra_edges:(2 * n) in
        let vc, t_vc = Harness.time ~repeat:1 (fun () -> Vertex_cover.run Runner.Staged g) in
        assert (Vertex_cover.is_cover g vc);
        let sets = Set_cover.random_instance ~seed:(1300 + n) ~sets:(n / 4) ~universe:n in
        let sc, t_sc = Harness.time ~repeat:1 (fun () -> Set_cover.run Runner.Staged sets) in
        assert (Set_cover.coverage sets sc = Set_cover.coverable sets);
        record ~exp:"E12" ~n ~wall:t_vc (counters_of (Vertex_cover.program g));
        [ string_of_int n; Harness.sec t_vc;
          string_of_int (List.length vc.Vertex_cover.cover);
          Harness.sec t_sc; string_of_int (List.length sc) ])
      (scale [ 128; 256; 512; 1024 ])
  in
  Harness.table
    ~title:
      "E12  Approximation programs: vertex cover (2-approx, no extremum) and set cover \
       (H_k-approx via count aggregates)"
    ~header:[ "n"; "vcover(s)"; "cover size"; "setcover(s)"; "sets picked" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13 — resource governor on the adversarial corpus                   *)
(* ------------------------------------------------------------------ *)

(* Non-terminating programs under a max-facts budget: every governed
   run must come back Partial, and the per-budget exhaustion count is
   recorded into BENCH_E13.json (the smoke run checks it like every
   other counter). *)
let e13 () =
  let nat = Parser.parse_program "nat(z). nat(s(X)) <- nat(X)." in
  let blowup =
    Parser.parse_program "p(z, z). p(s(X), Y) <- p(X, Y). p(X, s(Y)) <- p(X, Y)."
  in
  let choice =
    Parser.parse_program
      "grow(z). grow(s(X)) <- pick(X, I). pick(X, I) <- grow(X), next(I)."
  in
  let partial = function Limits.Partial _ -> true | Limits.Complete _ -> false in
  let runs : (string * (Limits.t -> bool)) list =
    [ ("nat/ref", fun l -> partial (Choice_fixpoint.run_governed ~limits:l nat));
      ("nat/staged", fun l -> partial (Stage_engine.run_governed ~limits:l nat));
      ("blowup/staged", fun l -> partial (Stage_engine.run_governed ~limits:l blowup));
      ("choice/ref", fun l -> partial (Choice_fixpoint.run_governed ~limits:l choice));
      ("choice/staged", fun l -> partial (Stage_engine.run_governed ~limits:l choice)) ]
  in
  let rows =
    List.map
      (fun budget ->
        let exhausted = ref 0 in
        let (), t =
          Harness.time ~repeat:1 (fun () ->
              List.iter
                (fun (_, run) ->
                  if run (Limits.create ~max_facts:budget ()) then incr exhausted)
                runs)
        in
        assert (!exhausted = List.length runs);
        record ~exp:"E13" ~n:budget ~wall:t
          [ ("budget_exhausted", !exhausted); ("governed_runs", List.length runs) ];
        [ string_of_int budget; Harness.sec t;
          Printf.sprintf "%d/%d" !exhausted (List.length runs) ])
      (* The adversarial values are deep [s(...)] chains, so hashing a
         fact costs O(depth) and the reference gamma loop is ~O(n^3) in
         the budget — 8_000 took over an hour, which made the full
         suite unrunnable.  2_000 still exercises every governed path
         for minutes of derivation. *)
      (scale [ 500; 1_000; 2_000 ])
  in
  Harness.table
    ~title:
      "E13  Resource governor: adversarial (non-terminating) programs under a max-facts \
       budget — every governed run stops with a Partial outcome"
    ~header:[ "max_facts"; "wall(s)"; "exhausted/runs" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 — magic sets: goal-directed vs full bottom-up evaluation        *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let chain n =
    List.init n (fun i -> Ast.fact "e" [ Value.Int i; Value.Int (i + 1) ])
    @ Parser.parse_program "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y)."
  in
  let rows =
    List.map
      (fun n ->
        let prog = chain n in
        let query =
          Ast.atom "tc" [ Ast.int (n - 5); Ast.Var "X" ]
        in
        let a, t_magic = Harness.time ~repeat:1 (fun () -> Magic.answers ~query prog) in
        let b, t_full =
          Harness.time ~repeat:1 (fun () -> Magic.answers_unoptimized ~query prog)
        in
        assert (List.length a = List.length b);
        record ~exp:"E11" ~n ~wall:t_magic [];
        let m_facts, f_facts = Magic.facts_computed ~query prog in
        [ string_of_int n; Harness.sec t_magic; Harness.sec t_full;
          string_of_int m_facts; string_of_int f_facts; Harness.ratio t_full t_magic ])
      (scale [ 100; 200; 400; 800 ])
  in
  Harness.table
    ~title:
      "E11  Magic sets: point query tc(n-5, X) on an n-chain — goal-directed vs full \
       evaluation (substrate feature; not a claim of the paper)"
    ~header:[ "n"; "magic(s)"; "full(s)"; "magic facts"; "full facts"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* E14 — allocation kernels: minor-heap words per derived fact         *)
(* ------------------------------------------------------------------ *)

(* Words [Database.render] allocates per fact: minor, plus major minus
   promoted.  The minor heap is emptied first, so nothing allocated
   before the window is promoted inside it; minor words come from
   [Gc.minor_words], because [Gc.counters]' minor count only advances
   at minor collections on OCaml 5.1. *)
let render_words_per_fact db =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (Database.render db));
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int (Database.cardinal db)

(* The join-kernel claim: with interned symbols, array-backed indexes
   and closure-chain rule bodies, a staged run allocates a small
   bounded number of minor-heap words per derived fact.  GC counters
   bracket a single uninstrumented run per point (telemetry itself
   allocates).  Each model is then rendered once.  Returns the worst
   words/fact seen and the worst render words/fact on the Prim
   models, which the perf-smoke gate bounds. *)
let e14_prim n =
  Prim.program ~root:0 (Graph_gen.random_connected ~seed:(100 + n) ~nodes:n ~extra_edges:(7 * n))

let e14 () =
  let mk_sort n =
    let rng = Rng.create 7 in
    Sorting.program (List.init n (fun i -> (Printf.sprintf "x%d" i, Rng.int rng 1_000_000)))
  in
  let mk_matching e = Matching.program (matching_arcs (3 * e) e) in
  let kernels =
    [ ("sort", mk_sort, scale [ 4096; 16384 ]);
      ("prim", e14_prim, scale [ 256; 1024 ]);
      ("matching", mk_matching, scale [ 2048; 8192 ]) ]
  in
  let worst = ref 0.0 and worst_render = ref 0.0 in
  let rows =
    List.concat_map
      (fun (name, mk, sizes) ->
        List.map
          (fun n ->
            let prog = mk n in
            Gc.compact ();
            let w0 = Gc.minor_words () in
            let t0 = Unix.gettimeofday () in
            let db, _ = Stage_engine.run prog in
            let wall = Unix.gettimeofday () -. t0 in
            let dw = Gc.minor_words () -. w0 in
            let facts = Database.cardinal db in
            let wpf = dw /. float_of_int facts in
            worst := Float.max !worst wpf;
            let rpf = render_words_per_fact db in
            if name = "prim" then worst_render := Float.max !worst_render rpf;
            record ~exp:"E14" ~n ~wall
              [ ("minor_words", int_of_float dw); ("facts", facts);
                ("words_per_fact", int_of_float (Float.round wpf));
                ("render_words_per_fact_x10", int_of_float (Float.round (rpf *. 10.0)));
                ("top_heap_words", Harness.top_heap_words ()) ];
            [ name; string_of_int n; Harness.sec wall; string_of_int facts;
              Printf.sprintf "%.1f" wpf; Printf.sprintf "%.1f" rpf ])
          sizes)
      kernels
  in
  Harness.table
    ~title:"E14  Allocation kernels: minor-heap words per derived fact, staged engine"
    ~header:[ "kernel"; "n"; "staged(s)"; "facts"; "words/fact"; "render words/fact" ]
    rows;
  (!worst, !worst_render)

(* ------------------------------------------------------------------ *)
(* E15 — gbcd daemon throughput and latency                            *)
(* ------------------------------------------------------------------ *)

(* An in-process 4-worker gbcd on a Unix-domain socket, loaded by N
   concurrent client sessions each replaying the 13 shipped exemplar
   programs (Load + Run per program, several rounds).  Records
   requests/s and the p50/p99 request latency into BENCH_E15.json;
   every response is checked — a served error or partial counts as a
   failure, keeping the numbers honest. *)

let e15_exemplars =
  [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl";
    "matching.dl"; "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl";
    "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]

(* pick ["key": <int>] out of a stats json, scanning from the first
   occurrence of [section] so repeated field names across nested
   objects resolve to the right one (floats truncate at the point) *)
let json_int_after json ~section key =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None
      else if String.sub json i n = sub then Some (i + n)
      else go (i + 1)
    in
    go from
  in
  match find ("\"" ^ section ^ "\"") 0 with
  | None -> 0
  | Some s -> (
    match find ("\"" ^ key ^ "\":") s with
    | None -> 0
    | Some p ->
      let p = ref p in
      while !p < String.length json && json.[!p] = ' ' do
        incr p
      done;
      let q = ref !p in
      while
        !q < String.length json
        && (match json.[!q] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr q
      done;
      if !q = !p then 0 else int_of_string (String.sub json !p (!q - !p)))

let e15 () =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let sources = List.map (fun n -> read_file ("../programs/" ^ n)) e15_exemplars in
  let sessions = if smoke then 2 else 8 in
  let rounds = if smoke then 1 else 3 in
  let sock = Printf.sprintf "gbcd_e15_%d.sock" (Unix.getpid ()) in
  let cfg =
    { Server.default_config with port = None; unix_path = Some sock; workers = 4 }
  in
  match Server.create cfg with
  | Error msg ->
    Printf.eprintf "E15: server create failed: %s\n" msg
  | Ok srv ->
    let runner = Domain.spawn (fun () -> Server.run srv) in
    let errors = Atomic.make 0 in
    let lat_m = Mutex.create () in
    let latencies = ref [] in
    let session _i =
      let rec conn tries =
        match Client.connect_unix sock with
        | c -> c
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when tries > 0 ->
          Unix.sleepf 0.02;
          conn (tries - 1)
      in
      let c = conn 100 in
      let mine = ref [] in
      let timed req check =
        let t0 = Unix.gettimeofday () in
        let resp = Client.rpc c req in
        mine := (Unix.gettimeofday () -. t0) :: !mine;
        if not (check resp) then Atomic.incr errors
      in
      for _ = 1 to rounds do
        List.iter
          (fun src ->
            timed (Protocol.Load src) (function Protocol.Loaded _ -> true | _ -> false);
            timed
              (Protocol.Run
                 { engine = Protocol.Staged; seed = None; preds = None;
                   budget = Protocol.no_budget })
              (function Protocol.Model { complete; _ } -> complete | _ -> false))
          sources
      done;
      Client.close c;
      Mutex.protect lat_m (fun () -> latencies := !mine @ !latencies)
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init sessions (fun i -> Thread.create session i) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    (* one more connection reads the server's queue-wait histogram:
       time from frame parse to worker dequeue, recorded separately
       from the client-observed latency so service time and queueing
       are distinguishable in the json *)
    let qw_mean, qw_p50, qw_p99 =
      let rec conn tries =
        match Client.connect_unix sock with
        | c -> c
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when tries > 0 ->
          Unix.sleepf 0.02;
          conn (tries - 1)
      in
      let c = conn 50 in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.rpc c Protocol.Stats with
          | Protocol.Stats_json json ->
            ( json_int_after json ~section:"queue_wait" "mean_us",
              json_int_after json ~section:"queue_wait" "p50_us",
              json_int_after json ~section:"queue_wait" "p99_us" )
          | _ -> (0, 0, 0))
    in
    Server.shutdown srv;
    Domain.join runner;
    (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
    let lats = Array.of_list !latencies in
    Array.sort compare lats;
    let n_req = Array.length lats in
    let pct p =
      if n_req = 0 then 0.0
      else lats.(min (n_req - 1) (int_of_float (p *. float_of_int n_req)))
    in
    let us t = int_of_float (t *. 1e6) in
    let rps = if wall > 0.0 then float_of_int n_req /. wall else 0.0 in
    record ~exp:"E15" ~n:sessions ~wall
      [ ("requests", n_req); ("errors", Atomic.get errors); ("workers", 4);
        ("rounds", rounds); ("rps", int_of_float rps); ("p50_us", us (pct 0.50));
        ("p99_us", us (pct 0.99)); ("queue_wait_mean_us", qw_mean);
        ("queue_wait_p50_us", qw_p50); ("queue_wait_p99_us", qw_p99) ];
    Harness.table
      ~title:
        "E15  gbcd daemon: concurrent sessions replaying the exemplar corpus \
         (4 workers, Unix-domain socket, Load+Run per program)"
      ~header:[ "sessions"; "requests"; "errors"; "wall(s)"; "req/s"; "p50(us)"; "p99(us)" ]
      [ [ string_of_int sessions; string_of_int n_req; string_of_int (Atomic.get errors);
          Harness.sec wall; Printf.sprintf "%.0f" rps; string_of_int (us (pct 0.50));
          string_of_int (us (pct 0.99)) ] ]

(* ------------------------------------------------------------------ *)
(* E16 — domains scaling: sharded saturation at jobs 1/2/4             *)
(* ------------------------------------------------------------------ *)

(* The data-parallel mode shards each flat rule's delta across OCaml
   domains (Par.run); by construction the model — and every telemetry
   counter — is byte-identical to the sequential run, and every point
   below re-verifies that before its timing is recorded.  The scaling
   curve itself is machine-dependent: on a single-core host the extra
   domains only time-slice and the curve is flat, which the json
   records honestly (no speedup assertion here — byte-identity is the
   correctness gate, the curve is the measurement). *)

let e16 () =
  let jobs_levels = [ 1; 2; 4 ] in
  let curve (tag, workload_id, n, prog) =
    let seq_bytes = ref "" in
    let t1 = ref 0.0 in
    List.map
      (fun jobs ->
        let result = ref None in
        let _, ts =
          Harness.time_stats (fun () ->
              result := Some (fst (Choice_fixpoint.run ~jobs prog)))
        in
        let bytes = Database.render (Option.get !result) in
        if jobs = 1 then begin
          seq_bytes := bytes;
          t1 := ts.Harness.best_s
        end
        else if not (String.equal !seq_bytes bytes) then begin
          Printf.eprintf "E16: %s n=%d jobs=%d model differs from the sequential run\n"
            tag n jobs;
          exit 1
        end;
        let telemetry = Telemetry.create () in
        ignore (Choice_fixpoint.run ~telemetry ~jobs prog);
        record ~exp:"E16" ~n ~wall:ts.Harness.best_s ~median:ts.Harness.median_s
          (("jobs", jobs) :: ("workload_id", workload_id) :: Telemetry.totals telemetry);
        [ tag; string_of_int n; string_of_int jobs; Harness.sec ts.Harness.best_s;
          Harness.sec ts.Harness.median_s; Harness.ratio !t1 ts.Harness.best_s ])
      jobs_levels
  in
  let prim_workloads =
    List.map
      (fun n ->
        let g = Graph_gen.random_connected ~seed:(1600 + n) ~nodes:n ~extra_edges:(4 * n) in
        ("prim", 1, n, Prim.program ~root:0 g))
      (scale [ 96; 192; 320 ])
  in
  let sort_workloads =
    List.map
      (fun n ->
        let rng = Rng.create 16 in
        let items = List.init n (fun i -> (Printf.sprintf "x%d" i, Rng.int rng 1_000_000)) in
        ("sort", 2, n, Sorting.program items))
      (scale [ 128; 256; 512 ])
  in
  let rows = List.concat_map curve (prim_workloads @ sort_workloads) in
  Harness.table
    ~title:
      "E16  Data-parallel saturation (reference engine, --jobs scaling; model \
       byte-identical at every point)"
    ~header:[ "workload"; "n"; "jobs"; "best(s)"; "median(s)"; "speedup vs j=1" ]
    rows

(* ------------------------------------------------------------------ *)
(* E17 — incremental view maintenance: single-fact update latency      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A session that has run its program to a complete model keeps it
   materialized; the next run after a single-fact assert is served by
   incremental maintenance (Ivm) — a delta step over the one new row —
   instead of a from-scratch fixpoint.  Measured on a transitive-
   closure chain (model of n(n-1)/2 facts, the honest worst case for
   re-evaluation): each update asserts one edge from a fresh source
   into the chain's sink, deriving exactly one new tc fact.  The
   retract column removes the chain's middle edge instead — the DRed
   worst case: (n/2)^2 tc facts over-deleted through n/2 rounds, none
   re-derivable — then restores it, untimed, for the next sample.  The
   middle edge is asserted rather than part of the program, since a
   session may only retract what it asserted.  Every update is checked
   to have been served incrementally (zero fallbacks, DRed on every
   retract); the speedup over the from-scratch run is the claim.

   Both samples are repeated on a durable session (a data dir with
   gbcd's defaults: fsync batched every 16 records, a snapshot every
   64), where every run also appends a WAL record carrying the model
   digest.  The digest is maintained through appends and removals, so
   a durable update should cost about what an ephemeral one does: at
   full scale a durable assert median above [e17_durable_x] times the
   ephemeral one at n = 512 fails the bench. *)

let e17_durable_x = 3.0

let e17 () =
  let sizes = scale [ 128; 256; 512; 1024 ] in
  let cache = Program_cache.create () in
  let reps = if smoke then 3 else 10 in
  let retract_reps = if smoke then 2 else 5 in
  let dir = Printf.sprintf "gbcd_e17_%d.data" (Unix.getpid ()) in
  let durable () =
    rm_rf dir;
    match Durable.create ~fsync:(Wal.Batch 16) ~snapshot_every:64 dir with
    | Ok d -> d
    | Error msg -> failwith ("E17: data dir: " ^ msg)
  in
  let too_slow = ref None in
  let rows =
    List.map
      (fun n ->
        let mid = n / 2 in
        let mid_edge = Printf.sprintf "edge(%d, %d)." mid (mid + 1) in
        let buf = Buffer.create (32 * n) in
        Buffer.add_string buf
          "tc(X, Y) <- edge(X, Y).\ntc(X, Z) <- tc(X, Y), edge(Y, Z).\n";
        for i = 1 to n - 1 do
          if i <> mid then Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i (i + 1))
        done;
        let src = Buffer.contents buf in
        let expect what = function
          | Ok _ -> ()
          | Error (_, m) -> failwith (Printf.sprintf "E17 %s: %s" what m)
        in
        let session ?(whole = true) ?durable () =
          let s = Session.create ?durable ~cache ~id:0 () in
          expect "load" (Session.load s src);
          if whole then expect "assert" (Session.assert_facts s mid_edge);
          s
        in
        let run s =
          match
            Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1
              ~limits:Limits.unlimited ~telemetry:Telemetry.none
          with
          | Ok (Limits.Complete db) -> db
          | _ -> failwith "E17: run did not complete"
        in
        let served_incrementally s k =
          let c = s.Session.counters in
          c.Session.ivm_fallbacks = 0 && c.Session.runs_incremental >= k
        in
        let median samples = samples.(Array.length samples / 2) in
        (* from-scratch latency: a fresh session's first run (the load
           is a cache hit; the evaluation dominates) *)
        let model, t_full =
          Harness.time (fun () ->
              let s = session () in
              run s)
        in
        let model_facts =
          List.fold_left
            (fun acc p -> acc + List.length (Database.facts_of model p))
            0 (Database.preds model)
        in
        (* update latency: one warm session, [reps] distinct
           single-fact asserts, each followed by a (maintained) run *)
        let assert_samples s =
          ignore (run s);
          let samples =
            Array.init reps (fun k ->
                let fact = Printf.sprintf "edge(%d, %d)." (10_000_000 + k) n in
                let t0 = Unix.gettimeofday () in
                expect "assert" (Session.assert_facts s fact);
                ignore (run s);
                Unix.gettimeofday () -. t0)
          in
          Array.sort compare samples;
          if not (served_incrementally s reps) then begin
            Printf.eprintf "E17: n=%d updates were not served incrementally\n" n;
            exit 1
          end;
          samples
        in
        (* retract latency: a second warm session; each sample retracts
           the middle edge and runs, then puts the edge back *)
        let retracted = ref "" in
        let retract_samples r =
          ignore (run r);
          let samples =
            Array.init retract_reps (fun k ->
                let t0 = Unix.gettimeofday () in
                expect "retract" (Session.retract_facts r mid_edge);
                let db = run r in
                let t = Unix.gettimeofday () -. t0 in
                if k = 0 && n <= 256 then retracted := Session.render_model db;
                expect "assert" (Session.assert_facts r mid_edge);
                ignore (run r);
                t)
          in
          Array.sort compare samples;
          let overdeleted =
            match r.Session.mat with
            | Some m -> (Ivm.stats m.Session.ivm).Ivm.dred_overdeleted
            | None -> 0
          in
          if
            (not (served_incrementally r (2 * retract_reps)))
            || overdeleted < retract_reps * mid * (n - mid)
          then begin
            Printf.eprintf "E17: n=%d retracts were not served incrementally by DRed\n" n;
            exit 1
          end;
          samples
        in
        let s = session () in
        let samples = assert_samples s in
        let t_inc = samples.(0) and t_inc_median = median samples in
        let r = session () in
        let rsamples = retract_samples r in
        let t_ret = rsamples.(0) and t_ret_median = median rsamples in
        let on_disk f =
          let d = session ~durable:(durable ()) () in
          Fun.protect
            ~finally:(fun () ->
              Session.discard d;
              rm_rf dir)
            (fun () -> median (f d))
        in
        let t_dur = on_disk assert_samples in
        let t_dur_ret = on_disk retract_samples in
        let durable_x = if t_inc_median > 0.0 then t_dur /. t_inc_median else 0.0 in
        if (not quick) && n = 512 && durable_x > e17_durable_x then too_slow := Some durable_x;
        (* byte-identity spot check against from-scratch on the small
           sizes (rendering a half-million-fact model is not a timing) *)
        if n <= 256 then begin
          let fresh = session () in
          for k = 0 to reps - 1 do
            expect "assert"
              (Session.assert_facts fresh (Printf.sprintf "edge(%d, %d)." (10_000_000 + k) n))
          done;
          let b1 = Session.render_model (run s) in
          let b2 = Session.render_model (run fresh) in
          let b3 = Session.render_model (run (session ~whole:false ())) in
          if not (String.equal b1 b2 && String.equal !retracted b3) then begin
            Printf.eprintf "E17: n=%d maintained model differs from from-scratch\n" n;
            exit 1
          end
        end;
        let us t = int_of_float (t *. 1e6) in
        let speedup t = if t > 0.0 then t_full /. t else 0.0 in
        record ~exp:"E17" ~n ~wall:t_inc ~median:t_inc_median
          [ ("model_facts", model_facts); ("full_us", us t_full);
            ("inc_best_us", us t_inc); ("inc_median_us", us t_inc_median);
            ("updates", reps); ("speedup_x10", int_of_float (speedup t_inc *. 10.0));
            ("retract_best_us", us t_ret); ("retract_median_us", us t_ret_median);
            ("retracts", retract_reps); ("retract_overdeleted", mid * (n - mid));
            ("retract_speedup_x10", int_of_float (speedup t_ret *. 10.0));
            ("durable_inc_median_us", us t_dur);
            ("durable_retract_median_us", us t_dur_ret);
            ("durable_x100", int_of_float (durable_x *. 100.0)) ];
        [ string_of_int n; string_of_int model_facts; Harness.sec t_full;
          Printf.sprintf "%d" (us t_inc); Printf.sprintf "%d" (us t_inc_median);
          Printf.sprintf "%.0fx" (speedup t_inc); Harness.sec t_ret; Harness.sec t_ret_median;
          Printf.sprintf "%.1fx" (speedup t_ret); Printf.sprintf "%d" (us t_dur);
          Harness.sec t_dur_ret; Printf.sprintf "%.1fx" durable_x ])
      sizes
  in
  Harness.table
    ~title:
      "E17  Incremental maintenance: single-fact update latency vs model size \
       (TC chain, staged engine; update = assert or retract + maintained run; \
       durable = data dir, fsync batch:16, snapshot every 64)"
    ~header:
      [ "n"; "model facts"; "full run(s)"; "assert best(us)"; "assert median(us)";
        "assert speedup"; "retract best(s)"; "retract median(s)"; "retract speedup";
        "durable assert median(us)"; "durable retract median(s)"; "durable/ephemeral" ]
    rows;
  match !too_slow with
  | None -> true
  | Some x ->
    Printf.printf
      "E17: FAILED — n=512 durable assert median is %.1fx the ephemeral one (gate %.0fx)\n" x
      e17_durable_x;
    false

(* ------------------------------------------------------------------ *)
(* E18 — durability: WAL overhead and cold-recovery time               *)
(* ------------------------------------------------------------------ *)

(* Two questions the durability layer must answer with numbers:

   1. What does the write-ahead log cost on the serving path?  The E15
      workload, extended with one mutation per program (Load + Assert
      + Run), is replayed against the same in-process daemon twice —
      ephemeral, then durable with the default batch:16 fsync — and
      the req/s ratio is the overhead.  The budget is 20% (asserted by
      the --e18 gate): records are a few dozen bytes and evaluation
      dominates each request, so exceeding it means the logging path
      regressed.

   2. How long does cold recovery take as the model grows?  A durable
      session materializes the TC chain at n, the server shuts down,
      and Server.create on the same data dir — program store warm-up,
      snapshot read, WAL-tail replay, digest-verified re-evaluation —
      is timed before any listener binds. *)

let e18 () =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rec conn_retry sock tries =
    match Client.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.sleepf 0.02;
      conn_retry sock (tries - 1)
  in
  let run_req =
    Protocol.Run
      { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }
  in
  (* -- 1: req/s with the WAL off vs on ----------------------------- *)
  let sources = List.map (fun n -> read_file ("../programs/" ^ n)) e15_exemplars in
  let sessions = if smoke then 2 else 4 in
  let rounds = if smoke then 1 else 2 in
  let serve ~data_dir =
    let sock =
      Printf.sprintf "gbcd_e18_%d_%s.sock" (Unix.getpid ())
        (if data_dir = None then "off" else "on")
    in
    let cfg =
      { Server.default_config with
        port = None; unix_path = Some sock; workers = 4; data_dir; fsync = Wal.Batch 16 }
    in
    match Server.create cfg with
    | Error msg -> failwith ("E18: server create failed: " ^ msg)
    | Ok srv ->
      let runner = Domain.spawn (fun () -> Server.run srv) in
      let errors = Atomic.make 0 in
      let requests = Atomic.make 0 in
      let session i =
        let c = conn_retry sock 100 in
        let k = ref 0 in
        let rpc req check =
          let resp = Client.rpc c req in
          Atomic.incr requests;
          if not (check resp) then Atomic.incr errors
        in
        for _ = 1 to rounds do
          List.iter
            (fun src ->
              rpc (Protocol.Load src) (function Protocol.Loaded _ -> true | _ -> false);
              incr k;
              rpc
                (Protocol.Assert_facts
                   { text = Printf.sprintf "zz_bench(%d, %d)." i !k; id = None })
                (function Protocol.Asserted _ -> true | _ -> false);
              rpc run_req (function Protocol.Model { complete; _ } -> complete | _ -> false))
            sources
        done;
        Client.close c
      in
      let t0 = Unix.gettimeofday () in
      let threads = List.init sessions (fun i -> Thread.create session i) in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      Server.shutdown srv;
      Domain.join runner;
      (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
      (float_of_int (Atomic.get requests) /. wall, Atomic.get requests, Atomic.get errors, wall)
  in
  let rps_off, reqs, errs_off, _ = serve ~data_dir:None in
  let dir = Printf.sprintf "gbcd_e18_%d.data" (Unix.getpid ()) in
  rm_rf dir;
  let rps_on, _, errs_on, wall_on = serve ~data_dir:(Some dir) in
  rm_rf dir;
  let overhead = if rps_off > 0.0 then (rps_off -. rps_on) /. rps_off *. 100.0 else 0.0 in
  record ~exp:"E18" ~n:sessions ~wall:wall_on
    [ ("requests", reqs); ("errors", errs_off + errs_on); ("workers", 4);
      ("rps_wal_off", int_of_float rps_off); ("rps_wal_on", int_of_float rps_on);
      ("overhead_pct_x10", int_of_float (overhead *. 10.0));
      ("within_budget", if overhead <= 20.0 then 1 else 0) ];
  Harness.table
    ~title:
      "E18  WAL overhead: the E15 workload + one mutation per program \
       (4 workers, fsync batch:16), ephemeral vs durable"
    ~header:[ "sessions"; "requests"; "errors"; "req/s off"; "req/s on"; "overhead" ]
    [ [ string_of_int sessions; string_of_int reqs; string_of_int (errs_off + errs_on);
        Printf.sprintf "%.0f" rps_off; Printf.sprintf "%.0f" rps_on;
        Printf.sprintf "%.1f%%" overhead ] ];
  (* -- 2: cold recovery vs model size ------------------------------ *)
  let rec_rows =
    List.map
      (fun n ->
        let dir = Printf.sprintf "gbcd_e18r_%d_%d.data" (Unix.getpid ()) n in
        rm_rf dir;
        let sock = Printf.sprintf "gbcd_e18r_%d_%d.sock" (Unix.getpid ()) n in
        let cfg =
          { Server.default_config with
            port = None; unix_path = Some sock; workers = 2; data_dir = Some dir;
            fsync = Wal.Batch 16; snapshot_every = 2 }
        in
        let buf = Buffer.create (32 * n) in
        Buffer.add_string buf "tc(X, Y) <- edge(X, Y).\ntc(X, Z) <- tc(X, Y), edge(Y, Z).\n";
        for i = 1 to n - 1 do
          Buffer.add_string buf (Printf.sprintf "edge(%d, %d).\n" i (i + 1))
        done;
        let src = Buffer.contents buf in
        let model_facts = ref 0 in
        (match Server.create cfg with
         | Error msg -> failwith ("E18: server create failed: " ^ msg)
         | Ok srv ->
           let runner = Domain.spawn (fun () -> Server.run srv) in
           let c = conn_retry sock 100 in
           (match Client.rpc c (Protocol.Load src) with
            | Protocol.Loaded _ -> ()
            | _ -> failwith "E18: load");
           (match
              Client.rpc c
                (Protocol.Assert_facts
                   { text = Printf.sprintf "edge(%d, 1)." (n + 1); id = None })
            with
            | Protocol.Asserted _ -> ()
            | _ -> failwith "E18: assert");
           (match Client.rpc c run_req with
            | Protocol.Model { complete = true; text; _ } ->
              model_facts :=
                List.length
                  (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
            | _ -> failwith "E18: run");
           (match Client.rpc c (Protocol.Attach None) with
            | Protocol.Attached _ -> ()
            | _ -> failwith "E18: attach");
           Client.close c;
           Server.shutdown srv;
           Domain.join runner);
        (* the cold start: recovery happens inside Server.create *)
        let t0 = Unix.gettimeofday () in
        let t_rec =
          match Server.create cfg with
          | Error msg -> failwith ("E18: recovery create failed: " ^ msg)
          | Ok srv ->
            let t = Unix.gettimeofday () -. t0 in
            let runner = Domain.spawn (fun () -> Server.run srv) in
            Server.shutdown srv;
            Domain.join runner;
            t
        in
        rm_rf dir;
        (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
        record ~exp:"E18" ~n ~wall:t_rec
          [ ("model_facts", !model_facts);
            ("recovery_us", int_of_float (t_rec *. 1e6)) ];
        [ string_of_int n; string_of_int !model_facts;
          Printf.sprintf "%d" (int_of_float (t_rec *. 1e6)) ])
      (scale [ 128; 256; 512 ])
  in
  Harness.table
    ~title:
      "E18  Cold recovery: Server.create on a durable data dir \
       (snapshot + WAL tail, digest-verified) vs model size"
    ~header:[ "n"; "model facts"; "recovery(us)" ]
    rec_rows;
  overhead

(* ------------------------------------------------------------------ *)
(* E19 — scale-out serving: open-loop load through gbc-router          *)
(* ------------------------------------------------------------------ *)

(* Two in-process gbcd backends behind an in-process consistent-hash
   router, driven two ways over the same workload (Load + Run per
   session, cycling three exemplar programs):

   - blocking: classic closed-loop clients — send, wait, check,
     repeat.  Every request pays the full client → router → backend →
     router → client turnaround before the next may start.
   - pipelined: the same connections switched to protocol v2, fed by
     an open-loop generator with exponential (Poisson) inter-arrival
     times provisioned at twice the blocking throughput, bounded only
     by an in-flight window.  The backend always finds the next
     request already queued, so requests/s must come out strictly
     higher.

   Every Model response in BOTH phases is compared byte-for-byte
   against single-shot evaluation of the same program — a router or
   envelope bug fails the bench, not just the numbers.  Each phase
   gets a fresh fleet, and the backends' queue-wait histograms are
   read back before teardown, so BENCH_E19 records queueing
   separately from service time (under open-loop overload the
   pipelined phase's queue-wait is the interesting number).

   Each phase, teardown included, runs under a deadline
   ([e19_deadline_s]): on expiry a watchdog names the stuck phase and
   how many requests were still unanswered, signals the fleet to stop,
   removes its sockets and exits non-zero, so a lost reply is a named
   failure rather than a hang. *)

let e19_deadline_s = if smoke then 20.0 else 60.0

let e19_exemplars = [ "example1.dl"; "prim.dl"; "transitive_closure.dl" ]

let e19 () =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let progs =
    List.map
      (fun n ->
        let src = read_file ("../programs/" ^ n) in
        let reference = Database.render (Stage_engine.model (Parser.parse_program src)) in
        (src, reference))
      e19_exemplars
  in
  let nprogs = List.length progs in
  let prog i = List.nth progs (i mod nprogs) in
  let sessions = if smoke then 30 else 2000 in
  let gens = 2 in
  let per = sessions / gens in
  let inflight_cap = 64 in
  let backends_n = 2 in
  let errors = Atomic.make 0 in
  (* requests of the current phase submitted and not yet answered *)
  let outstanding = Atomic.make 0 in
  let run_req =
    Protocol.Run { engine = Protocol.Staged; seed = None; preds = None; budget = Protocol.no_budget }
  in
  let rec conn_retry sock tries =
    match Client.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.sleepf 0.02;
      conn_retry sock (tries - 1)
  in
  (* a fresh fleet per phase; the result of [f] comes back with the
     backends' queue-wait numbers, read just before teardown *)
  let with_fleet phase f =
    let backs =
      List.init backends_n (fun i ->
          let path = Printf.sprintf "gbcd_e19_%s_b%d_%d.sock" phase i (Unix.getpid ()) in
          let cfg = { Server.default_config with port = None; unix_path = Some path; workers = 2 } in
          match Server.create cfg with
          | Error msg -> failwith ("E19: backend create: " ^ msg)
          | Ok srv -> (path, srv, Domain.spawn (fun () -> Server.run srv)))
    in
    let rsock = Printf.sprintf "gbcd_e19_%s_r_%d.sock" phase (Unix.getpid ()) in
    let rcfg =
      { Router.default_config with
        port = None;
        unix_path = Some rsock;
        backends = List.map (fun (p, _, _) -> Client.Uds p) backs;
        connect_timeout = Some 2.0 }
    in
    match Router.create rcfg with
    | Error msg -> failwith ("E19: router create: " ^ msg)
    | Ok rt ->
      let rrunner = Domain.spawn (fun () -> Router.run rt) in
      let socks = rsock :: List.map (fun (p, _, _) -> p) backs in
      let unlink_all () =
        List.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ()) socks
      in
      Atomic.set outstanding 0;
      let finished = Atomic.make false in
      let t_end = Unix.gettimeofday () +. e19_deadline_s in
      let watchdog =
        Thread.create
          (fun () ->
            while (not (Atomic.get finished)) && Unix.gettimeofday () < t_end do
              Unix.sleepf 0.05
            done;
            if not (Atomic.get finished) then begin
              Printf.printf
                "E19: FAILED — %s phase still running after %.0f s, %d request(s) outstanding\n%!"
                (if phase = "blk" then "blocking" else "pipelined")
                e19_deadline_s (Atomic.get outstanding);
              Printf.printf "E19: router view: %s\n%!" (Router.stats_json rt);
              (* a drain waits for the lost reply too: signal, never join *)
              Router.shutdown rt;
              List.iter (fun (_, srv, _) -> Server.shutdown srv) backs;
              unlink_all ();
              Unix._exit 1
            end)
          ()
      in
      let queue_wait () =
        let per_backend =
          List.map
            (fun (p, _, _) ->
              let c = conn_retry p 100 in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  match Client.rpc c Protocol.Stats with
                  | Protocol.Stats_json json ->
                    ( json_int_after json ~section:"queue_wait" "p50_us",
                      json_int_after json ~section:"queue_wait" "p99_us" )
                  | _ -> (0, 0)))
            backs
        in
        ( List.fold_left (fun a (p, _) -> max a p) 0 per_backend,
          List.fold_left (fun a (_, p) -> max a p) 0 per_backend )
      in
      Fun.protect
        ~finally:(fun () ->
          Router.shutdown rt;
          Domain.join rrunner;
          List.iter
            (fun (_, srv, d) ->
              Server.shutdown srv;
              Domain.join d)
            backs;
          unlink_all ();
          Atomic.set finished true;
          Thread.join watchdog)
        (fun () ->
          let r = f rsock in
          (r, queue_wait ()))
  in
  let join_gens gen =
    let lat_m = Mutex.create () in
    let lats = ref [] in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init gens (fun g ->
          Thread.create
            (fun g ->
              let mine = gen g in
              Mutex.protect lat_m (fun () -> lats := mine @ !lats))
            g)
    in
    List.iter Thread.join threads;
    (Unix.gettimeofday () -. t0, !lats)
  in
  (* -- phase 1: blocking closed-loop clients ------------------------ *)
  let blocking rsock =
    join_gens (fun g ->
        let c = conn_retry rsock 150 in
        let mine = ref [] in
        let timed req check =
          let t0 = Unix.gettimeofday () in
          Atomic.incr outstanding;
          let resp = Client.rpc c req in
          Atomic.decr outstanding;
          mine := (Unix.gettimeofday () -. t0) :: !mine;
          if not (check resp) then Atomic.incr errors
        in
        for s = 0 to per - 1 do
          let src, reference = prog ((g * per) + s) in
          timed (Protocol.Load src) (function Protocol.Loaded _ -> true | _ -> false);
          timed run_req (function
            | Protocol.Model { complete; text; _ } -> complete && text = reference
            | _ -> false)
        done;
        Client.close c;
        !mine)
  in
  (* -- phase 2: open-loop pipelined generators ---------------------- *)
  let pipelined ~session_rate rsock =
    join_gens (fun g ->
        let r = Client.resilient ~connect_timeout:2.0 (Client.Uds rsock) in
        let p = Client.Pipeline.create r in
        let pending = Hashtbl.create 256 in
        let mine = ref [] in
        let complete (rid, resp) =
          match Hashtbl.find_opt pending rid with
          | None -> Atomic.incr errors
          | Some (is_run, reference, t0) ->
            Hashtbl.remove pending rid;
            Atomic.decr outstanding;
            (* sojourn time: submit to completion, queueing included —
               the honest latency of an open-loop system *)
            mine := (Unix.gettimeofday () -. t0) :: !mine;
            let ok =
              if is_run then
                match resp with
                | Protocol.Model { complete; text; _ } -> complete && text = reference
                | _ -> false
              else match resp with Protocol.Loaded _ -> true | _ -> false
            in
            if not ok then Atomic.incr errors
        in
        let rng = Random.State.make [| 0x919; g |] in
        let rate = session_rate /. float_of_int gens in
        let next = ref (Unix.gettimeofday ()) in
        for s = 0 to per - 1 do
          let u = Random.State.float rng 1.0 in
          next := !next +. (-.log (1.0 -. u) /. rate);
          while Client.Pipeline.inflight p >= inflight_cap do
            complete (Client.Pipeline.await p)
          done;
          let now = Unix.gettimeofday () in
          if !next > now then Unix.sleepf (!next -. now);
          let src, reference = prog ((g * per) + s) in
          let t = Unix.gettimeofday () in
          let submit req is_run =
            Atomic.incr outstanding;
            Hashtbl.replace pending (Client.Pipeline.submit p req) (is_run, reference, t)
          in
          submit (Protocol.Load src) false;
          submit run_req true
        done;
        List.iter complete (Client.Pipeline.drain p);
        Client.Pipeline.close p;
        !mine)
  in
  let (wall_b, lats_b), _ = with_fleet "blk" blocking in
  let n_b = List.length lats_b in
  let rps_b = if wall_b > 0.0 then float_of_int n_b /. wall_b else 0.0 in
  (* provision arrivals at 2x the blocking throughput: the generator
     does not slow down for the server, only the in-flight cap bounds
     admission, so the fleet runs saturated and queueing shows up *)
  let session_rate = rps_b in
  let (wall_p, lats_p), (qw_p50, qw_p99) = with_fleet "pip" (pipelined ~session_rate) in
  let n_p = List.length lats_p in
  let rps_p = if wall_p > 0.0 then float_of_int n_p /. wall_p else 0.0 in
  let pct lats p =
    let a = Array.of_list lats in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0 else int_of_float (a.(min (n - 1) (int_of_float (p *. float_of_int n))) *. 1e6)
  in
  record ~exp:"E19" ~n:sessions ~wall:(wall_b +. wall_p)
    [ ("requests", n_b + n_p); ("errors", Atomic.get errors); ("backends", backends_n);
      ("generators", gens); ("inflight_cap", inflight_cap);
      ("blocking_rps", int_of_float rps_b); ("pipelined_rps", int_of_float rps_p);
      ("blocking_p50_us", pct lats_b 0.50); ("blocking_p99_us", pct lats_b 0.99);
      ("pipelined_p50_us", pct lats_p 0.50); ("pipelined_p99_us", pct lats_p 0.99);
      ("queue_wait_p50_us", qw_p50); ("queue_wait_p99_us", qw_p99);
      ("speedup_pct", int_of_float ((rps_p -. rps_b) /. Float.max rps_b 1.0 *. 100.0)) ];
  Harness.table
    ~title:
      "E19  Scale-out serving: open-loop load through gbc-router (2 backends x 2 \
       workers), blocking vs pipelined clients, models checked against single-shot"
    ~header:
      [ "sessions"; "errors"; "blk req/s"; "pip req/s"; "blk p99(us)"; "pip p99(us)";
        "qwait p99(us)" ]
    [ [ string_of_int sessions; string_of_int (Atomic.get errors);
        Printf.sprintf "%.0f" rps_b; Printf.sprintf "%.0f" rps_p;
        string_of_int (pct lats_b 0.99); string_of_int (pct lats_p 0.99);
        string_of_int qw_p99 ] ];
  (rps_b, rps_p)

(* ------------------------------------------------------------------ *)
(* E20 — the big-EDB tier: million-edge loads into the cell store     *)
(* ------------------------------------------------------------------ *)

(* The storage-layout claim: relations of int cells make the
   million-edge corpus a systems workload rather than an allocation
   stress test.  Three measurements, all on the generated graph
   corpora behind Prim / Kruskal / Dijkstra (seeds recorded in every
   point):

   1. Bulk-load allocation — each corpus loaded through
      [Graph_gen.load_big] ([Relation.add_ints]).  The gate asserts at
      most [e20_words_per_fact] minor words per loaded fact: nothing
      is boxed per row (boxing each row cost ~23 words/fact).

   2. Snapshot round-trip at the tier — the database written with the
      v2 cell-blob codec and restored, against the same data written
      v1 (tagged values) and restored; plus the session-fork primitive
      ([Database.copy]) timed on the million-fact database.

   3. The programs themselves at a sub-tier the engines settle in
      bench time — Prim / Kruskal / Dijkstra through the staged
      engine seeded via [?db]. *)

let e20_seed = 42
let e20_words_per_fact = 2.0

let e20 () =
  let nodes, edges, grid = if smoke then (2_000, 20_000, 100) else (100_000, 1_000_000, 707) in
  (* -- 1: bulk-load allocation ----------------------------------------- *)
  let corpora =
    [ ("prim", `Power, false); ("kruskal", `Road, false); ("dijkstra", `Power, true) ]
  in
  let worst_wpf = ref 0.0 in
  let big_db = ref None in
  let load_rows =
    List.map
      (fun (name, kind, directed) ->
        let g =
          match kind with
          | `Power -> Graph_gen.power_law ~seed:e20_seed ~nodes ~edges
          | `Road -> Graph_gen.road_network ~seed:e20_seed ~width:grid ~height:grid
        in
        Gc.compact ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let db = Database.create () in
        Graph_gen.load_big ~directed db g;
        Graph_gen.load_big_nodes db g;
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        let facts = Database.cardinal db in
        let wpf = words /. float_of_int facts in
        worst_wpf := Float.max !worst_wpf wpf;
        if name = "dijkstra" then big_db := Some db;
        record ~exp:"E20" ~n:facts ~wall
          [ ("seed", e20_seed); ("nodes", nodes); ("graph_edges", Graph_gen.big_edges g);
            ("directed", if directed then 1 else 0);
            ("minor_words", int_of_float words);
            ("words_per_fact_x10", int_of_float (wpf *. 10.0));
            ("load_us", int_of_float (wall *. 1e6));
            ("top_heap_words", Harness.top_heap_words ()) ];
        [ name; string_of_int facts; Harness.sec wall; Printf.sprintf "%.2f" wpf ])
      corpora
  in
  Harness.table
    ~title:
      (Printf.sprintf
         "E20  Big-EDB bulk loads (%d-node / %d-edge power-law, %dx%d road): minor words per \
          loaded fact (gate <= %.1f)"
         nodes edges grid grid e20_words_per_fact)
    ~header:[ "corpus"; "facts"; "load(s)"; "w/f" ]
    load_rows;
  (* -- 2: snapshot round-trip and session fork at the tier ---------- *)
  let db = Option.get !big_db in
  let facts = Database.cardinal db in
  let buf = Buffer.create (1 lsl 20) in
  Db_snapshot.write buf db;
  let v2 = Buffer.contents buf in
  let (db2, _), t_restore = Harness.time (fun () -> Db_snapshot.read v2 0) in
  let buf = Buffer.create (1 lsl 20) in
  Db_snapshot.write_v1 buf db;
  let v1 = Buffer.contents buf in
  let (db1, _), t_restore_v1 = Harness.time (fun () -> Db_snapshot.read v1 0) in
  if Database.cardinal db2 <> facts || Database.cardinal db1 <> facts then begin
    Printf.eprintf "E20: snapshot round-trip lost facts\n";
    exit 1
  end;
  let _, t_fork = Harness.time (fun () -> Database.copy db) in
  record ~exp:"E20" ~n:facts ~wall:t_restore
    [ ("seed", e20_seed); ("snapshot_v2_bytes", String.length v2);
      ("snapshot_v1_bytes", String.length v1);
      ("restore_v2_us", int_of_float (t_restore *. 1e6));
      ("restore_v1_us", int_of_float (t_restore_v1 *. 1e6));
      ("fork_us", int_of_float (t_fork *. 1e6));
      ("top_heap_words", Harness.top_heap_words ()) ];
  Harness.table
    ~title:"E20  Snapshot round-trip of the big fact base: v2 (cell blobs) vs v1 \
            (tagged values), and the session-fork primitive"
    ~header:[ "facts"; "v2 bytes"; "v1 bytes"; "v2 restore(s)"; "v1 restore(s)"; "fork(s)" ]
    [ [ string_of_int facts; string_of_int (String.length v2); string_of_int (String.length v1);
        Harness.sec t_restore; Harness.sec t_restore_v1; Printf.sprintf "%.6f" t_fork ] ];
  (* -- 3: the greedy exemplars over a corpus the engines settle ----- *)
  (* Per-program sub-tier: declarative Kruskal is O(e.n) (claim C4), so
     it gets a smaller corpus than the near-linear Prim/Dijkstra. *)
  let engine_rows =
    List.map
      (fun (name, source, directed, (sub_nodes, sub_edges)) ->
        let sub_nodes, sub_edges =
          if smoke then (500, 2_000) else (sub_nodes, sub_edges)
        in
        let sub = Graph_gen.power_law ~seed:e20_seed ~nodes:sub_nodes ~edges:sub_edges in
        let prog = Parser.parse_program source in
        let db = Database.create () in
        Graph_gen.load_big ~directed db sub;
        Graph_gen.load_big_nodes db sub;
        let t0 = Unix.gettimeofday () in
        let model, _ = Stage_engine.run ~db prog in
        let wall = Unix.gettimeofday () -. t0 in
        record ~exp:"E20" ~n:sub_edges ~wall
          [ ("seed", e20_seed); ("sub_nodes", sub_nodes); ("sub_edges", sub_edges);
            ("engine_us", int_of_float (wall *. 1e6));
            ("model_facts", Database.cardinal model) ];
        [ name; string_of_int sub_edges; Harness.sec wall; string_of_int (Database.cardinal model) ])
      [ ("prim", Prim.source ~root:0, false, (4_096, 32_768));
        ("kruskal", Kruskal.source, false, (1_024, 4_096));
        ("dijkstra", Dijkstra.source ~root:0, true, (4_096, 32_768)) ]
  in
  Harness.table
    ~title:"E20  Prim / Kruskal / Dijkstra on the generated corpus (staged engine)"
    ~header:[ "program"; "edges"; "time(s)"; "model facts" ]
    engine_rows;
  !worst_wpf

(* ------------------------------------------------------------------ *)
(* A1 — (R,Q,L) vs recompute-least (reference engine)                  *)
(* ------------------------------------------------------------------ *)

let a1 () =
  let sizes = scale [ 64; 128; 256; 512 ] in
  let rows, ref_pts, staged_pts =
    List.fold_left
      (fun (rows, rp, sp) n ->
        let g = Graph_gen.random_connected ~seed:(800 + n) ~nodes:n ~extra_edges:(7 * n) in
        let _, t_ref = Harness.time ~repeat:1 (fun () -> Prim.run Runner.Reference g) in
        let _, t_staged = Harness.time (fun () -> Prim.run Runner.Staged g) in
        record ~exp:"A1" ~n ~wall:t_staged (counters_of (Prim.program ~root:0 g));
        let fn = float_of_int n in
        ( [ string_of_int n; Harness.sec t_ref; Harness.sec t_staged;
            Harness.ratio t_ref t_staged ]
          :: rows,
          (fn, t_ref) :: rp,
          (fn, t_staged) :: sp ))
      ([], [], []) sizes
  in
  Harness.table
    ~title:
      "A1  Ablation: Section-6 (R,Q,L) priority queues vs the reference engine's \
       recompute-least-per-stage (Prim, e = 8n)"
    ~header:[ "n"; "reference(s)"; "staged(s)"; "speedup" ]
    (List.rev rows);
  Printf.printf "A1 slopes: reference %s (quadratic-ish), staged %s (near-linear)\n"
    (Harness.slope (Harness.loglog_slope ref_pts))
    (Harness.slope (Harness.loglog_slope staged_pts))

(* ------------------------------------------------------------------ *)
(* A2 — congruence shadowing on/off                                    *)
(* ------------------------------------------------------------------ *)

let a2 () =
  let rows =
    List.concat_map
      (fun n ->
        let g = Graph_gen.random_connected ~seed:(900 + n) ~nodes:n ~extra_edges:(7 * n) in
        let prog = Prim.program ~root:0 g in
        List.map
          (fun (label, shadow) ->
            let (_, stats), t = Harness.time ~repeat:1 (fun () -> Stage_engine.run ~shadow prog) in
            let telemetry = Telemetry.create () in
            ignore (Stage_engine.run ~shadow ~telemetry prog);
            record ~exp:("A2_" ^ label) ~n ~wall:t (Telemetry.totals telemetry);
            [ string_of_int n; label; Harness.sec t;
              string_of_int stats.Stage_engine.max_queue;
              string_of_int stats.Stage_engine.shadowed;
              string_of_int stats.Stage_engine.stale ])
          [ ("auto", `Auto); ("off", `Off) ])
      (scale [ 256; 512; 1024 ])
  in
  Harness.table
    ~title:"A2  Ablation: r-congruence shadowing (Prim; queue high-water mark and time)"
    ~header:[ "n"; "shadow"; "time(s)"; "max queue"; "shadowed"; "stale pops" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3 — least inside the clique vs post-hoc model filtering            *)
(* ------------------------------------------------------------------ *)

let a3 () =
  (* The conclusion's "naive matching" discussion: without pushing the
     extremum into the recursion one must enumerate choice models and
     filter afterwards — exponentially many; with least inside, one
     greedy run suffices. *)
  let rows =
    List.map
      (fun n_arcs ->
        let arcs = matching_arcs (37 * n_arcs) n_arcs in
        let greedy_src = Matching.source in
        let naive_src =
          "matching(nil, nil, 0, 0).\n\
           matching(X, Y, C, I) <- next(I), g(X, Y, C), choice(Y, X), choice(X, Y).\n"
        in
        let facts =
          List.map (fun (x, y, c) -> Ast.fact "g" [ Value.Int x; Value.Int y; Value.Int c ]) arcs
        in
        let greedy_prog = facts @ Parser.parse_program greedy_src in
        let naive_prog = facts @ Parser.parse_program naive_src in
        let _, t_greedy = Harness.time ~repeat:1 (fun () -> Choice_fixpoint.model greedy_prog) in
        let models, t_enum =
          Harness.time ~repeat:1 (fun () ->
              Choice_fixpoint.enumerate ~max_models:100_000 naive_prog)
        in
        [ string_of_int n_arcs; Harness.sec t_greedy; string_of_int (List.length models);
          Harness.sec t_enum ])
      (scale [ 3; 4; 5; 6 ])
  in
  Harness.table
    ~title:
      "A3  Ablation: least pushed into the clique (one greedy run) vs enumerating all \
       choice models and filtering post hoc (the conclusion's naive matching)"
    ~header:[ "arcs"; "greedy(s)"; "models to filter"; "enumerate(s)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment table       *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let prim_g = Graph_gen.random_connected ~seed:1 ~nodes:128 ~extra_edges:896 in
  let sort_items = List.init 1024 (fun i -> (Printf.sprintf "x%d" i, (i * 7919) mod 65537)) in
  let match_arcs = matching_arcs 11 1024 in
  let kruskal_g = Graph_gen.random_connected ~seed:2 ~nodes:96 ~extra_edges:288 in
  let tsp_g = Graph_gen.complete ~seed:3 ~nodes:48 in
  let huff_letters = Text_gen.zipf ~seed:4 ~letters:48 in
  let ex1_prog =
    Assignment.random_takes ~seed:5 ~students:100 ~courses:100 ~enrollments:400
    @ Parser.parse_program Assignment.example1_source
  in
  let stable_prog = Prim.program ~root:0 (Graph_gen.random_connected ~seed:6 ~nodes:8 ~extra_edges:8) in
  let stable_model = Choice_fixpoint.model stable_prog in
  let check_prog = Parser.parse_program (Huffman.source ^ "letter(a, 1).") in
  let dij_g = Graph_gen.random_connected ~seed:7 ~nodes:256 ~extra_edges:1792 in
  let tests =
    Test.make_grouped ~name:"gbc"
      [ Test.make ~name:"E1:prim/staged/n=128"
          (Staged.stage (fun () -> Prim.run Runner.Staged prim_g));
        Test.make ~name:"E2:sort/staged/n=1024"
          (Staged.stage (fun () -> Sorting.run Runner.Staged sort_items));
        Test.make ~name:"E3:matching/staged/e=1024"
          (Staged.stage (fun () -> Matching.run Runner.Staged match_arcs));
        Test.make ~name:"E4:kruskal/staged/n=96"
          (Staged.stage (fun () -> Kruskal.run Runner.Staged kruskal_g));
        Test.make ~name:"E5:tsp/staged/n=48"
          (Staged.stage (fun () -> Tsp.run Runner.Staged tsp_g));
        Test.make ~name:"E6:huffman/staged/n=48"
          (Staged.stage (fun () -> Huffman.run Runner.Staged huff_letters));
        Test.make ~name:"E7:choice/reference/400-enrollments"
          (Staged.stage (fun () -> Choice_fixpoint.model ex1_prog));
        Test.make ~name:"E8:stability-check/prim-n=8"
          (Staged.stage (fun () -> Stable.is_stable stable_prog stable_model));
        Test.make ~name:"E9:stage-analysis/huffman"
          (Staged.stage (fun () -> Stage.analyze check_prog));
        Test.make ~name:"E10:dijkstra/staged/n=256"
          (Staged.stage (fun () -> Dijkstra.run Runner.Staged dij_g)) ]
  in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  print_newline ();
  print_endline "Bechamel micro-benchmarks (ns per run, OLS on monotonic clock)";
  Harness.hline 72;
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, result) ->
         let est =
           match Analyze.OLS.estimates result with
           | Some [ t ] -> Printf.sprintf "%12.0f ns/run" t
           | _ -> "(no estimate)"
         in
         Printf.printf "%-40s %s\n" name est)

(* Regression gate for the perf-smoke alias: smoke-size kernels sit
   around 60–110 minor words per derived fact on the current engine
   (before interning and array indexes they were 230–630), so 400
   words/fact means the allocation discipline has been lost somewhere. *)
let perf_smoke_budget = 400.0

(* Render allocation gate: words allocated (minor, plus major minus
   promoted) per fact while [Database.render] prints the E14 Prim
   model.  The cell printer sits near 14; the printer that decoded
   every row into boxed values took 52. *)
let render_budget = 32.0

(* Update allocation gate: an ephemeral session holding serve_update's
   model — [paths] disjoint seeded paths of 20 nodes with forward
   chords, closed under [reach] — runs the same op as that workload:
   assert an edge from one path's tail to another's head, query the
   reach fact only it supports, retract it, query again.  Every op
   changes exactly 400 reach facts at any size, so its allocation
   should not follow the model: words per op (from [Gc.allocated_bytes],
   which sees major allocations too) at 104 paths may be at most
   [update_budget_x] times those at 26.  When every retract rebuilt
   the relations it touched, the ratio was 2.34. *)
let update_budget_x = 1.25

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
  let ok what = function Ok _ -> () | Error (_, m) -> failwith (Printf.sprintf "update gate %s: %s" what m) in
  let s = Session.create ~cache:(Program_cache.create ()) ~id:0 () in
  ok "load" (Session.load s "reach(X, Y) <- e(X, Y).\nreach(X, Y) <- e(X, Z), reach(Z, Y).\n");
  ok "assert" (Session.assert_facts s (Buffer.contents facts));
  ok "run"
    (Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits:Limits.unlimited
       ~telemetry:Telemetry.none);
  let op () =
    let a = Rng.int rng paths in
    let b = (a + 1 + Rng.int rng (paths - 1)) mod paths in
    let edge = Printf.sprintf "e(%d, %d)." chains.(a).(len - 1) chains.(b).(0) in
    let goal = Printf.sprintf "reach(%d, %d)" chains.(a).(0) chains.(b).(len - 1) in
    let query () =
      ok "query"
        (Session.query s ~engine:Protocol.Staged ~text:goal ~jobs:1 ~limits:Limits.unlimited
           ~telemetry:Telemetry.none)
    in
    ok "assert" (Session.assert_facts s edge);
    query ();
    ok "retract" (Session.retract_facts s edge);
    query ()
  in
  for _ = 1 to warm do
    op ()
  done;
  let b0 = Gc.allocated_bytes () in
  for _ = 1 to cycles do
    op ()
  done;
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8) /. float_of_int cycles

(* Words per op at 26 and 104 paths, printed; false if the larger model
   allocates more than [update_budget_x] times the smaller. *)
let check_update_alloc label =
  let small = update_words_per_op 26 and large = update_words_per_op 104 in
  let x = large /. small in
  Printf.printf "%s: update %.0f words/op at 26 paths, %.0f at 104 (x%.2f, budget x%.2f)\n" label
    small large x update_budget_x;
  if x > update_budget_x then
    Printf.printf "%s: FAILED — update allocation follows the model size\n" label;
  x <= update_budget_x

(* Saturation allocation gate: minor words per gamma step of one
   staged run of the smoke-size E14 Prim kernel (256 nodes, 255 steps).
   Each gamma step adds a few facts and is followed by a semi-naive
   step over them, so what a step allocates beyond those facts is the
   saturation's fixed bookkeeping.  When every round copied each delta
   into a fresh relation and bound it in the database, a step took
   1,954 words; reading deltas as id ranges of the live relations
   brought it to 1,252 (each the same in all of 12 runs). *)
let step_budget = 1500.0

let prim_words_per_step () =
  let prog = e14_prim 256 in
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let _, stats = Stage_engine.run prog in
  (Gc.minor_words () -. w0) /. float_of_int stats.Stage_engine.gamma_steps

let check_step_alloc label =
  let wps = prim_words_per_step () in
  Printf.printf "%s: Prim %.0f words per gamma step (budget %.0f)\n" label wps step_budget;
  if wps > step_budget then
    Printf.printf "%s: FAILED — saturation allocation regression\n" label;
  wps <= step_budget

(* Print both gates; false if either is exceeded. *)
let check_e14 label (worst, worst_render) =
  Printf.printf "%s: worst %.1f words/fact (budget %.0f), render %.1f words/fact (budget %.0f)\n"
    label worst perf_smoke_budget worst_render render_budget;
  if worst > perf_smoke_budget then
    Printf.printf "%s: FAILED — allocation regression\n" label;
  if worst_render > render_budget then
    Printf.printf "%s: FAILED — render allocation regression\n" label;
  worst <= perf_smoke_budget && worst_render <= render_budget

let () =
  if only_e14 then begin
    Printf.printf "Greedy by Choice — E14 (allocation kernels)\n";
    let worst = e14 () in
    let files = Harness.flush_bench () in
    if not (Harness.validate_bench files) then begin
      print_endline "E14: BENCH JSON malformed";
      exit 1
    end;
    Printf.printf "wrote %s\n" (String.concat ", " files);
    exit (if check_e14 "E14" worst then 0 else 1)
  end;
  if only_e15 then begin
    Printf.printf "Greedy by Choice — E15 (gbcd daemon)\n";
    e15 ();
    let files = Harness.flush_bench () in
    if Harness.validate_bench files then begin
      Printf.printf "wrote %s\n" (String.concat ", " files);
      exit 0
    end
    else begin
      print_endline "E15: BENCH JSON malformed";
      exit 1
    end
  end;
  if only_e19 then begin
    Printf.printf "Greedy by Choice — E19 (scale-out serving through gbc-router)\n";
    let rps_b, rps_p = e19 () in
    let files = Harness.flush_bench () in
    if not (Harness.validate_bench files) then begin
      print_endline "E19: BENCH JSON malformed";
      exit 1
    end;
    Printf.printf "wrote %s\n" (String.concat ", " files);
    if rps_p <= rps_b then begin
      Printf.printf "E19: FAILED — pipelined %.0f req/s does not beat blocking %.0f req/s\n"
        rps_p rps_b;
      exit 1
    end;
    exit 0
  end;
  if only_e20 then begin
    Printf.printf "Greedy by Choice — E20 (big-EDB tier: bulk loads into the cell store)\n";
    let worst = e20 () in
    let files = Harness.flush_bench () in
    if not (Harness.validate_bench files) then begin
      print_endline "E20: BENCH JSON malformed";
      exit 1
    end;
    Printf.printf "wrote %s\n" (String.concat ", " files);
    Printf.printf "E20: worst bulk load %.2f minor words/fact (gate <= %.1f)\n" worst
      e20_words_per_fact;
    if worst > e20_words_per_fact then begin
      print_endline "E20: FAILED — bulk loads allocate per row";
      exit 1
    end;
    exit 0
  end;
  if only_e17 then begin
    Printf.printf "Greedy by Choice — E17 (incremental maintenance)\n";
    let within_gate = e17 () in
    let files = Harness.flush_bench () in
    if not (Harness.validate_bench files) then begin
      print_endline "E17: BENCH JSON malformed";
      exit 1
    end;
    Printf.printf "wrote %s\n" (String.concat ", " files);
    exit (if within_gate then 0 else 1)
  end;
  if only_e18 then begin
    Printf.printf "Greedy by Choice — E18 (durability: WAL overhead + recovery)\n";
    let overhead = e18 () in
    let files = Harness.flush_bench () in
    if not (Harness.validate_bench files) then begin
      print_endline "E18: BENCH JSON malformed";
      exit 1
    end;
    Printf.printf "wrote %s\n" (String.concat ", " files);
    if overhead > 20.0 then begin
      Printf.printf "E18: FAILED — WAL overhead %.1f%% exceeds the 20%% budget\n" overhead;
      exit 1
    end;
    exit 0
  end;
  if perf_smoke then begin
    Printf.printf "Greedy by Choice — perf smoke (E14 allocation kernels)\n";
    let worst = e14 () in
    let files = Harness.flush_bench () in
    if not (Harness.validate_bench files) then begin
      print_endline "perf-smoke: BENCH JSON malformed";
      exit 1
    end;
    let e14_ok = check_e14 "perf-smoke" worst in
    let step_ok = check_step_alloc "perf-smoke" in
    if not (check_update_alloc "perf-smoke" && e14_ok && step_ok) then exit 1;
    print_endline "perf-smoke: ok";
    exit 0
  end;
  Printf.printf "Greedy by Choice — experiment harness%s\n"
    (if smoke then " (smoke mode)" else if quick then " (quick mode)" else "");
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  ignore (e14 ());
  e15 ();
  e16 ();
  let e17_within_gate = e17 () in
  ignore (e18 ());
  ignore (e19 ());
  ignore (e20 ());
  a1 ();
  a2 ();
  a3 ();
  if not smoke then bechamel_suite ();
  let files = Harness.flush_bench () in
  print_newline ();
  Printf.printf "wrote %d BENCH_*.json file(s): %s\n" (List.length files)
    (String.concat ", " files);
  if smoke then
    if Harness.validate_bench files then print_endline "bench-smoke: all JSON well-formed"
    else begin
      print_endline "bench-smoke: FAILED";
      exit 1
    end;
  if not e17_within_gate then exit 1;
  print_endline "done."
