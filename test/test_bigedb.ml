(* Big-EDB smoke: a 10^4-edge generated corpus loaded through the
   [Relation.add_ints] fast path must render byte-identically to the
   same rows added as boxed values, survive a snapshot round-trip cell
   for cell, and stay inside the bulk-load allocation budget.  Kept at
   10^4 edges so it can run under [runtest]; the million-edge tier
   lives in bench E20. *)

open Gbc

let pp_db db = Format.asprintf "%a" Database.pp db

let load g =
  let db = Database.create () in
  Graph_gen.load_big db g;
  Graph_gen.load_big_nodes db g;
  db

(* What [load] does, one boxed [Value.Int] row at a time. *)
let load_values (g : Graph_gen.big) =
  let db = Database.create () in
  let edge u v c = ignore (Database.add_fact db "g" [| Value.Int u; Value.Int v; Value.Int c |]) in
  for i = 0 to Graph_gen.big_edges g - 1 do
    edge g.big_src.(i) g.big_dst.(i) g.big_cost.(i);
    edge g.big_dst.(i) g.big_src.(i) g.big_cost.(i)
  done;
  for i = 0 to g.big_nodes - 1 do
    ignore (Database.add_fact db "node" [| Value.Int i |])
  done;
  db

let corpora =
  [ ("power-law", Graph_gen.power_law ~seed:42 ~nodes:2_000 ~edges:10_000);
    ("road", Graph_gen.road_network ~seed:7 ~width:64 ~height:64) ]

let live_cells rel =
  Array.sub (Relation.cells rel) 0 (Relation.cardinal rel * Relation.arity rel)

let test_byte_identity () =
  List.iter
    (fun (name, g) ->
      let ints = load g and values = load_values g in
      Alcotest.(check (array int))
        (name ^ ": same cells")
        (live_cells (Database.relation values "g" 3))
        (live_cells (Database.relation ints "g" 3));
      Alcotest.(check string) (name ^ ": same digest") (Database.digest values)
        (Database.digest ints);
      Alcotest.(check string) (name ^ ": byte-identical rendering") (pp_db values) (pp_db ints))
    corpora

let test_snapshot_roundtrip () =
  let g = snd (List.hd corpora) in
  let db = load g in
  let buf = Buffer.create (1 lsl 16) in
  Db_snapshot.write buf db;
  let db', _ = Db_snapshot.read (Buffer.contents buf) 0 in
  Alcotest.(check string) "restored byte-identically" (pp_db db) (pp_db db');
  Alcotest.(check (array int))
    "restored cell for cell, in insertion order"
    (live_cells (Database.relation db "g" 3))
    (live_cells (Database.relation db' "g" 3));
  (* The legacy writer over the same database must agree. *)
  let buf1 = Buffer.create (1 lsl 16) in
  Db_snapshot.write_v1 buf1 db;
  Alcotest.(check string) "v1 stream of the same db restores identically" (pp_db db)
    (pp_db (fst (Db_snapshot.read (Buffer.contents buf1) 0)))

(* The whole point of the fast path: loading must not allocate per
   row.  Budget of 2 minor words per fact (measured ~0.1); boxing each
   row costs ~23, so a regression that re-boxes rows trips this at
   once. *)
let test_alloc_budget () =
  let g = snd (List.hd corpora) in
  Gc.compact ();
  let before = Gc.minor_words () in
  let db = load g in
  let words = Gc.minor_words () -. before in
  let facts = Database.cardinal db in
  let wpf = words /. float_of_int facts in
  if wpf > 2.0 then Alcotest.failf "bulk load allocated %.1f minor words/fact (budget 2.0)" wpf

let test_oracle () =
  (* The columnar Kruskal oracle agrees with the list-based one on a
     corpus both can represent (grid without shortcuts = unique simple
     edges). *)
  let g = Graph_gen.road_network ~seed:7 ~width:20 ~height:20 in
  let w = Graph_gen.big_mst_weight g in
  Alcotest.(check bool) "mst weight positive" true (w > 0);
  let g' = Graph_gen.power_law ~seed:1 ~nodes:100 ~edges:400 in
  Alcotest.(check bool) "power-law mst positive" true (Graph_gen.big_mst_weight g' > 0)

let () =
  Alcotest.run "bigedb"
    [ ( "bigedb",
        [ Alcotest.test_case "add_ints vs add byte-identity" `Quick test_byte_identity;
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "bulk-load allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "mst oracle" `Quick test_oracle ] ) ]
