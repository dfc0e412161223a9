(* The greedy algorithm suite: every Section-5 program (plus the
   extensions) against its procedural baseline, on both engines,
   across deterministic and randomized workloads. *)

open Gbc

let engines = [ ("reference", Runner.Reference); ("staged", Runner.Staged) ]

(* ---------------- sorting (Example 5) ---------------- *)

let test_sorting_basic () =
  let items = [ ("c", 3); ("a", 1); ("b", 2) ] in
  List.iter
    (fun (name, eng) ->
      Alcotest.(check (list (pair string int))) name
        [ ("a", 1); ("b", 2); ("c", 3) ]
        (Sorting.run eng items))
    engines

let test_sorting_with_cost_ties () =
  let items = [ ("a", 2); ("b", 1); ("c", 2); ("d", 1) ] in
  List.iter
    (fun (name, eng) ->
      let out = Sorting.run eng items in
      Alcotest.(check bool) (name ^ " sorted perm") true
        (Sorting.is_sorted_permutation ~input:items out))
    engines

let test_sorting_singleton_and_empty () =
  List.iter
    (fun (name, eng) ->
      Alcotest.(check (list (pair string int))) (name ^ " singleton") [ ("x", 5) ]
        (Sorting.run eng [ ("x", 5) ]);
      Alcotest.(check (list (pair string int))) (name ^ " empty") [] (Sorting.run eng []))
    engines

let prop_sorting =
  QCheck.Test.make ~name:"sorting = heap sort (both engines)" ~count:30
    QCheck.(small_list (int_bound 100))
    (fun costs ->
      let items = List.mapi (fun i c -> (Printf.sprintf "x%d" i, c)) costs in
      let reference = Sorting.run Runner.Reference items in
      let staged = Sorting.run Runner.Staged items in
      (* The heap baseline breaks cost ties arbitrarily, so compare the
         engines exactly against each other and both against the
         sorted-permutation specification. *)
      reference = staged
      && Sorting.is_sorted_permutation ~input:items reference
      && List.map snd reference = List.map snd (Sorting.procedural items))

(* ---------------- Prim (Example 4) ---------------- *)

let test_prim_triangle_root_guard () =
  (* The canonical root re-entry trap: without Y != root the program
     picks the cheap reverse edge into the root. *)
  let g = { Graph_gen.nodes = 3; edges = [ (0, 1, 1); (1, 2, 3); (0, 2, 5) ] } in
  List.iter
    (fun (name, eng) ->
      let r = Prim.run eng g in
      Alcotest.(check int) (name ^ " weight") 4 r.Prim.weight;
      Alcotest.(check bool) (name ^ " tree") true (Prim.is_spanning_tree g r))
    engines

let test_prim_matches_oracle () =
  List.iter
    (fun seed ->
      let g = Graph_gen.random_connected ~seed ~nodes:24 ~extra_edges:50 in
      let oracle = Graph_gen.mst_weight g in
      List.iter
        (fun (name, eng) ->
          let r = Prim.run eng g in
          Alcotest.(check int) (Printf.sprintf "%s seed %d" name seed) oracle r.Prim.weight;
          Alcotest.(check bool) "spanning tree" true (Prim.is_spanning_tree g r))
        engines;
      Alcotest.(check int) "procedural" oracle (Prim.procedural g).Prim.weight)
    [ 10; 20; 30 ]

let test_prim_nonzero_root () =
  let g = Graph_gen.random_connected ~seed:77 ~nodes:10 ~extra_edges:12 in
  let r = Prim.run Runner.Staged ~root:3 g in
  Alcotest.(check int) "weight independent of root" (Graph_gen.mst_weight g) r.Prim.weight

let test_prim_on_grid () =
  let g = Graph_gen.grid ~width:5 ~height:4 in
  let oracle = Graph_gen.mst_weight g in
  List.iter
    (fun (name, eng) ->
      Alcotest.(check int) (name ^ " grid") oracle (Prim.run eng g).Prim.weight)
    engines

let prop_mst_with_ties =
  QCheck.Test.make ~name:"prim and kruskal handle weight ties" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Graph_gen.random_connected_ties ~seed ~nodes:14 ~extra_edges:20 in
      let oracle = Graph_gen.mst_weight g in
      let p = Prim.run Runner.Staged g and k = Kruskal.run Runner.Staged g in
      p.Prim.weight = oracle && k.Kruskal.weight = oracle
      && Prim.is_spanning_tree g p && Kruskal.is_spanning_tree g k)

let prop_prim =
  QCheck.Test.make ~name:"prim = MST oracle (staged)" ~count:30 QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Graph_gen.random_connected ~seed ~nodes:16 ~extra_edges:25 in
      let r = Prim.run Runner.Staged g in
      r.Prim.weight = Graph_gen.mst_weight g && Prim.is_spanning_tree g r)

(* ---------------- Kruskal (Example 8) ---------------- *)

let test_kruskal_matches_oracle () =
  List.iter
    (fun seed ->
      let g = Graph_gen.random_connected ~seed ~nodes:14 ~extra_edges:25 in
      let oracle = Graph_gen.mst_weight g in
      List.iter
        (fun (name, eng) ->
          let r = Kruskal.run eng g in
          Alcotest.(check int) (Printf.sprintf "%s seed %d" name seed) oracle r.Kruskal.weight;
          Alcotest.(check bool) "spanning tree" true (Kruskal.is_spanning_tree g r))
        engines)
    [ 11; 22; 33 ]

let test_kruskal_selects_edges_in_cost_order () =
  let g = Graph_gen.random_connected ~seed:5 ~nodes:12 ~extra_edges:20 in
  let r = Kruskal.run Runner.Staged g in
  let costs = List.map (fun (_, _, c) -> c) r.Kruskal.edges in
  Alcotest.(check (list int)) "monotone selection" (List.sort compare costs) costs

let test_kruskal_no_rank_ablation_same_tree () =
  let g = Graph_gen.random_connected ~seed:6 ~nodes:20 ~extra_edges:30 in
  Alcotest.(check int) "rank heuristic does not change the MST"
    (Kruskal.procedural ~by_rank:true g).Kruskal.weight
    (Kruskal.procedural ~by_rank:false g).Kruskal.weight

let prop_kruskal_equals_prim =
  QCheck.Test.make ~name:"kruskal = prim (staged engines)" ~count:20 QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Graph_gen.random_connected ~seed ~nodes:12 ~extra_edges:18 in
      (Kruskal.run Runner.Staged g).Kruskal.weight = (Prim.run Runner.Staged g).Prim.weight)

(* ---------------- matching (Example 7) ---------------- *)

let arcs_of_seed seed n =
  (* One cost per arc (the paper's Example 3 remark: with several costs
     per arc the choice goals must carry the cost). *)
  let rng = Rng.create seed in
  let seen = Hashtbl.create 64 in
  List.init (3 * n) (fun i -> (Rng.int rng n, n + Rng.int rng n, (i * 37 mod 499) + 1))
  |> List.filter (fun (x, y, _) ->
         if Hashtbl.mem seen (x, y) then false
         else begin
           Hashtbl.add seen (x, y) ();
           true
         end)
  |> List.sort compare

let test_matching_paper_shape () =
  let arcs = [ (0, 10, 3); (0, 11, 1); (1, 10, 2); (1, 11, 4); (2, 12, 5) ] in
  List.iter
    (fun (name, eng) ->
      let r = Matching.run eng arcs in
      Alcotest.(check bool) (name ^ " maximal") true (Matching.is_maximal_matching arcs r);
      Alcotest.(check int) (name ^ " greedy cost") 8 r.Matching.cost)
    engines

let test_matching_equals_procedural () =
  List.iter
    (fun seed ->
      let arcs = arcs_of_seed seed 8 in
      let expected = Matching.procedural arcs in
      List.iter
        (fun (name, eng) ->
          let r = Matching.run eng arcs in
          Alcotest.(check (list (triple int int int)))
            (Printf.sprintf "%s seed %d" name seed)
            expected.Matching.arcs r.Matching.arcs)
        engines)
    [ 3; 7; 13 ]

let prop_matching_valid =
  QCheck.Test.make ~name:"matching maximal partial permutation" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let arcs = arcs_of_seed seed 10 in
      let r = Matching.run Runner.Staged arcs in
      Matching.is_maximal_matching arcs r)

(* ---------------- greedy TSP ---------------- *)

let test_tsp_agrees_with_procedural () =
  List.iter
    (fun seed ->
      let g = Graph_gen.complete ~seed ~nodes:10 in
      let expected = Tsp.procedural g in
      List.iter
        (fun (name, eng) ->
          let r = Tsp.run eng g in
          Alcotest.(check bool) (name ^ " hamiltonian") true (Tsp.is_hamiltonian_path g r);
          Alcotest.(check (list (triple int int int))) name expected.Tsp.chain r.Tsp.chain)
        engines)
    [ 1; 2; 3 ]

let test_tsp_starts_with_cheapest_arc () =
  let g = Graph_gen.complete ~seed:9 ~nodes:8 in
  let cheapest =
    List.fold_left (fun acc (_, _, c) -> min acc c) max_int g.Graph_gen.edges
  in
  match (Tsp.run Runner.Staged g).Tsp.chain with
  | (_, _, c) :: _ -> Alcotest.(check int) "exit rule picks the least arc" cheapest c
  | [] -> Alcotest.fail "empty chain"

let prop_tsp =
  QCheck.Test.make ~name:"tsp chain = procedural greedy" ~count:15 QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Graph_gen.complete ~seed ~nodes:9 in
      let r = Tsp.run Runner.Staged g in
      Tsp.is_hamiltonian_path g r && r.Tsp.chain = (Tsp.procedural g).Tsp.chain)

(* ---------------- Huffman (Example 6) ---------------- *)

let test_huffman_known_tree () =
  (* Classic: a:5 b:2 c:1 d:1 -> cost = 2 + 4 + 9 = wpl 5*1+2*2+1*3+1*3 = 15? *)
  let letters = [ ("a", 5); ("b", 2); ("c", 1); ("d", 1) ] in
  let optimal = Huffman.procedural_cost letters in
  List.iter
    (fun (name, eng) ->
      let r = Huffman.run eng letters in
      Alcotest.(check int) (name ^ " optimal cost") optimal r.Huffman.internal_cost;
      Alcotest.(check int) (name ^ " merges") 3 r.Huffman.merges)
    engines

let test_huffman_codes_prefix_free () =
  let letters = Text_gen.zipf ~seed:8 ~letters:10 in
  let r = Huffman.run Runner.Staged letters in
  let codes = Huffman.codes r.Huffman.root in
  Alcotest.(check int) "one code per letter" (List.length letters) (List.length codes);
  let bits = List.map snd codes in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            let prefix =
              String.length a <= String.length b && String.sub b 0 (String.length a) = a
            in
            Alcotest.(check bool) "prefix-free" false prefix)
        bits)
    bits

let test_huffman_cost_equals_weighted_code_length () =
  let letters = Text_gen.zipf ~seed:4 ~letters:9 in
  let r = Huffman.run Runner.Staged letters in
  let codes = Huffman.codes r.Huffman.root in
  let wcl =
    List.fold_left
      (fun acc (sym, freq) -> acc + (freq * String.length (List.assoc sym codes)))
      0 letters
  in
  Alcotest.(check int) "internal cost = weighted code length" r.Huffman.internal_cost wcl

let prop_huffman_roundtrip =
  QCheck.Test.make ~name:"huffman encode/decode round-trip" ~count:20
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 8) (int_range 1 30))
              (small_list (int_bound 7)))
    (fun (freqs, message) ->
      let letters = List.mapi (fun i f -> (Printf.sprintf "l%d" i, f)) freqs in
      let n = List.length letters in
      let message = List.map (fun i -> Printf.sprintf "l%d" (i mod n)) message in
      let tree = (Huffman.run Runner.Staged letters).Huffman.root in
      Huffman.decode tree (Huffman.encode tree message) = message
      || (message = [] && Huffman.decode tree "" = []))

let prop_huffman_optimal =
  QCheck.Test.make ~name:"huffman engine cost = two-queue optimum" ~count:15
    QCheck.(list_of_size (QCheck.Gen.int_range 2 9) (int_range 1 40))
    (fun freqs ->
      let letters = List.mapi (fun i f -> (Printf.sprintf "l%d" i, f)) freqs in
      (Huffman.run Runner.Staged letters).Huffman.internal_cost
      = Huffman.procedural_cost letters)

(* ---------------- Dijkstra (extension) ---------------- *)

let test_dijkstra_small_known () =
  let g = { Graph_gen.nodes = 4; edges = [ (0, 1, 1); (1, 2, 1); (0, 2, 5); (2, 3, 2) ] } in
  List.iter
    (fun (name, eng) ->
      Alcotest.(check (list (pair int int))) name
        [ (0, 0); (1, 1); (2, 2); (3, 4) ]
        (Dijkstra.run eng g))
    engines

let prop_dijkstra =
  QCheck.Test.make ~name:"dijkstra = procedural (staged)" ~count:30 QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Graph_gen.random_connected ~seed ~nodes:14 ~extra_edges:25 in
      (* Equal-distance nodes may settle in either order; compare as
         sets of (node, distance). *)
      List.sort compare (Dijkstra.run Runner.Staged g)
      = List.sort compare (Dijkstra.procedural g))

(* ---------------- scheduling (extension) ---------------- *)

let test_scheduling_known () =
  let jobs = [ (0, 0, 3); (1, 2, 5); (2, 4, 7); (3, 1, 2); (4, 6, 8) ] in
  (* Earliest finish: job 3 (f=2), then job 1 (s=2>=2, f=5)? job 1 starts at 2 >= 2 ok,
     then job 2 (s=4 < 5 conflict), job 4 (s=6 >= 5, f=8). *)
  let expected = [ (3, 1, 2); (1, 2, 5); (4, 6, 8) ] in
  List.iter
    (fun (name, eng) ->
      Alcotest.(check (list (triple int int int))) name expected (Scheduling.run eng jobs))
    engines

let prop_scheduling =
  QCheck.Test.make ~name:"scheduling = earliest finish (both engines)" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let jobs = Interval_gen.random ~seed ~jobs:12 ~horizon:80 in
      let expected = Scheduling.procedural jobs in
      Scheduling.run Runner.Reference jobs = expected
      && Scheduling.run Runner.Staged jobs = expected
      && Scheduling.is_valid_schedule ~all:jobs expected)

(* ---------------- shadow analysis keys ---------------- *)

let test_compiled_keys () =
  let keys src = Stage_engine.compiled_keys (Parser.parse_program src) in
  (match keys (Prim.source ~root:0) with
  | [ ("prm", shadow, positions) ] ->
    Alcotest.(check bool) "prim shadows" true shadow;
    Alcotest.(check (list int)) "keyed on the frontier node" [ 1 ] positions
  | _ -> Alcotest.fail "prim keys");
  (match keys Matching.source with
  | [ ("matching", shadow, _) ] ->
    Alcotest.(check bool) "matching must not shadow" false shadow
  | _ -> Alcotest.fail "matching keys");
  (match keys Sorting.source with
  | [ ("sp", shadow, _) ] -> Alcotest.(check bool) "sorting must not shadow" false shadow
  | _ -> Alcotest.fail "sorting keys");
  match keys (Dijkstra.source ~root:0) with
  | [ ("dij", shadow, positions) ] ->
    Alcotest.(check bool) "dijkstra shadows (decrease-key)" true shadow;
    Alcotest.(check (list int)) "keyed on the node" [ 0 ] positions
  | _ -> Alcotest.fail "dijkstra keys"

let test_shadow_off_ablation_still_correct () =
  let g = Graph_gen.random_connected ~seed:12 ~nodes:15 ~extra_edges:25 in
  let db, stats = Stage_engine.run ~shadow:`Off (Prim.program ~root:0 g) in
  let weight =
    Database.facts_of db "prm"
    |> List.filter (fun row -> Value.as_int row.(3) > 0)
    |> List.fold_left (fun acc row -> acc + Value.as_int row.(2)) 0
  in
  Alcotest.(check int) "MST weight with shadowing off" (Graph_gen.mst_weight g) weight;
  Alcotest.(check int) "nothing shadowed" 0 stats.Stage_engine.shadowed

let () =
  Alcotest.run "greedy"
    [ ( "sorting",
        [ Alcotest.test_case "basic" `Quick test_sorting_basic;
          Alcotest.test_case "cost ties" `Quick test_sorting_with_cost_ties;
          Alcotest.test_case "degenerate sizes" `Quick test_sorting_singleton_and_empty;
          QCheck_alcotest.to_alcotest prop_sorting ] );
      ( "prim",
        [ Alcotest.test_case "root guard on triangle" `Quick test_prim_triangle_root_guard;
          Alcotest.test_case "matches MST oracle" `Quick test_prim_matches_oracle;
          Alcotest.test_case "non-zero root" `Quick test_prim_nonzero_root;
          Alcotest.test_case "grid graph" `Quick test_prim_on_grid;
          QCheck_alcotest.to_alcotest prop_prim;
          QCheck_alcotest.to_alcotest prop_mst_with_ties ] );
      ( "kruskal",
        [ Alcotest.test_case "matches MST oracle" `Quick test_kruskal_matches_oracle;
          Alcotest.test_case "cost-ordered selection" `Quick
            test_kruskal_selects_edges_in_cost_order;
          Alcotest.test_case "rank ablation" `Quick test_kruskal_no_rank_ablation_same_tree;
          QCheck_alcotest.to_alcotest prop_kruskal_equals_prim ] );
      ( "matching",
        [ Alcotest.test_case "paper-shape instance" `Quick test_matching_paper_shape;
          Alcotest.test_case "equals procedural" `Quick test_matching_equals_procedural;
          QCheck_alcotest.to_alcotest prop_matching_valid ] );
      ( "tsp",
        [ Alcotest.test_case "agrees with procedural" `Quick test_tsp_agrees_with_procedural;
          Alcotest.test_case "exit rule least arc" `Quick test_tsp_starts_with_cheapest_arc;
          QCheck_alcotest.to_alcotest prop_tsp ] );
      ( "huffman",
        [ Alcotest.test_case "known alphabet" `Quick test_huffman_known_tree;
          Alcotest.test_case "prefix-free codes" `Quick test_huffman_codes_prefix_free;
          Alcotest.test_case "cost = weighted code length" `Quick
            test_huffman_cost_equals_weighted_code_length;
          QCheck_alcotest.to_alcotest prop_huffman_optimal;
          QCheck_alcotest.to_alcotest prop_huffman_roundtrip ] );
      ( "dijkstra",
        [ Alcotest.test_case "known distances" `Quick test_dijkstra_small_known;
          QCheck_alcotest.to_alcotest prop_dijkstra ] );
      ( "scheduling",
        [ Alcotest.test_case "known instance" `Quick test_scheduling_known;
          QCheck_alcotest.to_alcotest prop_scheduling ] );
      ( "stage engine internals",
        [ Alcotest.test_case "congruence keys" `Quick test_compiled_keys;
          Alcotest.test_case "shadow-off ablation" `Quick test_shadow_off_ablation_still_correct ] ) ]
