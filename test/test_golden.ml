(* Golden canonical bytes.

   The canonical printer ([Database.pp]) is the oracle every
   byte-identity test leans on, but those tests compare two renderings
   made by the same build.  This suite pins the bytes themselves: the
   MD5 of the rendering of each shipped program's staged and reference
   models, plus hand-built databases covering string escapes, negative
   integers and nested tuples / compound terms.  The values were
   recorded once and are never regenerated: a refactor of an engine,
   the relation store or the printer must leave them unchanged. *)

open Gbc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load name = Parser.parse_program (read_file ("../programs/" ^ name))
let md5 db = Digest.to_hex (Digest.string (Format.asprintf "%a" Database.pp db))

(* (program, staged MD5, reference MD5) for every non-adversarial
   program under programs/. *)
let programs =
  [ ("bi_st_c.dl", "0a43c82cbacb5eb8738e103c556f1f57",
      "0a43c82cbacb5eb8738e103c556f1f57");
    ("dijkstra.dl", "2f132a20749953a216fca1d48538d178",
      "2f132a20749953a216fca1d48538d178");
    ("example1.dl", "7bfd508d23bf0b09b4b69225f54c4a26",
      "7bfd508d23bf0b09b4b69225f54c4a26");
    ("huffman.dl", "ecca54f33ea65243615696d42925c9c2",
      "ecca54f33ea65243615696d42925c9c2");
    ("kruskal.dl", "10b74ed325b944f916cc844a270b6e14",
      "10b74ed325b944f916cc844a270b6e14");
    ("matching.dl", "ed18efea86a8fa7fcaa00627a227e760",
      "ed18efea86a8fa7fcaa00627a227e760");
    ("prim.dl", "c9663414beb4aa2d890df6f2db64d2c2",
      "c9663414beb4aa2d890df6f2db64d2c2");
    ("scheduling.dl", "8b4baf1d2f79fe30803c02f1cff73568",
      "8b4baf1d2f79fe30803c02f1cff73568");
    ("set_cover.dl", "e599413382c3cabaff94001ed34cb3b8",
      "e599413382c3cabaff94001ed34cb3b8");
    ("sorting.dl", "177afee3a6780ee3c6714953da693dd3",
      "177afee3a6780ee3c6714953da693dd3");
    ("transitive_closure.dl", "08bb24fa3489c5ae1bed26add80c32b4",
      "08bb24fa3489c5ae1bed26add80c32b4");
    ("tsp.dl", "94d51af5256c50c047cfce543462c29d",
      "94d51af5256c50c047cfce543462c29d");
    ("vertex_cover.dl", "eb685e5934fc2353ffa4c6591d6da805",
      "eb685e5934fc2353ffa4c6591d6da805") ]

let test_programs_pinned () =
  let shipped =
    Sys.readdir "../programs" |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".dl"
           && not (String.length f >= 12 && String.sub f 0 12 = "adversarial_"))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "every non-adversarial program is pinned" shipped
    (List.map (fun (f, _, _) -> f) programs);
  List.iter
    (fun (file, staged, reference) ->
      let prog = load file in
      Alcotest.(check string) (file ^ ": staged model") staged
        (md5 (fst (Stage_engine.run prog)));
      Alcotest.(check string) (file ^ ": reference model") reference
        (md5 (fst (Choice_fixpoint.run prog))))
    programs

let db_of facts =
  let db = Database.create () in
  List.iter (fun (pred, row) -> ignore (Database.add_fact db pred (Array.of_list row))) facts;
  db

let i n = Value.Int n

(* Hand cases: values the shipped programs never print. *)
let hand_cases =
  [ ( "string escapes",
      [ ("s", [ Value.str "plain" ]);
        ("s", [ Value.str "quote \" and backslash \\" ]);
        ("s", [ Value.str "tab\tnewline\nend" ]);
        ("s", [ Value.str "" ]);
        ("s", [ Value.sym "plain" ]) ],
      "9a78479791662206164296824414985b" );
    ( "negative ints",
      [ ("n", [ i (-3); i 2 ]);
        ("n", [ i 0; i (-1) ]);
        ("n", [ i min_int; i max_int ]);
        ("n", [ i (-10); i (-10) ]) ],
      "3b6702d09fe86c212638b08d8f9254a1" );
    ( "nested Tup/App",
      [ ("t", [ Value.Tup [ i 1; Value.Tup [ i (-2); Value.sym "a" ] ] ]);
        ("t", [ Value.App ("f", [ Value.App ("g", [ i 1; Value.str "x\"y" ]); Value.Tup [] ]) ]);
        ("t", [ Value.Tup [ Value.App ("t", [ Value.sym "l1"; Value.sym "l2" ]); i 7 ] ]);
        ("t", [ Value.App ("f", [ Value.Tup [ Value.Tup [ i 0 ] ] ]) ]);
        ("u", [ Value.Tup []; Value.App ("h", [ i (-5) ]) ]) ],
      "a39f96486a3d2b34b7230e434b4bb2dc" ) ]

let test_hand_cases () =
  List.iter
    (fun (name, facts, expected) ->
      Alcotest.(check string) name expected (md5 (db_of facts)))
    hand_cases

(* The same values flowing through rule bodies on both engines. *)
let derived_src =
  "p(-3, \"a\\\"b\"). p(4, \"c\\\\d\"). p(-3, \"e\\nf\").\n\
   q(X, Y, (X, f(Y, -1))) :- p(X, Y).\n\
   r(X, g(T)) :- q(X, _, T), X < 0.\n"

let test_derived () =
  let prog = Parser.parse_program derived_src in
  let expected = "e232d6667eab5a3230e9f5c21827add5" in
  Alcotest.(check string) "staged" expected (md5 (fst (Stage_engine.run prog)));
  Alcotest.(check string) "reference" expected (md5 (fst (Choice_fixpoint.run prog)))

(* Tie-heavy staged runs.  Weight and stability checks accept any
   tied candidate; these pin which one the queue pops first (equal
   costs pop in insertion order), recorded once like the rest. *)
let unit_costs (g : Graph_gen.t) =
  { g with Graph_gen.edges = List.map (fun (u, v, _) -> (u, v, 1)) g.Graph_gen.edges }

let tie_cases =
  let ties = Graph_gen.random_connected_ties ~seed:11 ~nodes:60 ~extra_edges:150 in
  let dup_items = List.init 200 (fun k -> (Printf.sprintf "x%d" ((k * 37) mod 200), k mod 7)) in
  let computed =
    List.init 60 (fun k ->
        Printf.sprintf "p(y%d, %d, %d)." k (k mod 5) ((k * 3) mod 4))
    |> String.concat "\n"
  in
  [ ("prim on random_connected_ties", (fun () -> Prim.program ~root:0 ties),
      "c51cc28803fccb1b1a1bc8d8d33716ca" );
    ("kruskal on random_connected_ties", (fun () -> Kruskal.program ties),
      "e2e0e1cb21ae725f0b084e41cd707421" );
    ("dijkstra on random_connected_ties", (fun () -> Dijkstra.program ~root:0 ties),
      "fb2af7d6febd718eff767a482f93e7c6" );
    ("dijkstra on a unit-cost grid",
      (fun () -> Dijkstra.program ~root:0 (unit_costs (Graph_gen.grid ~width:8 ~height:8))),
      "23b85ae27640df5d8d865e88cf1fa324" );
    ("sorting with duplicate costs", (fun () -> Sorting.program dup_items),
      "3e0818b416a2fa7e8c634c0bfb00ef8c" );
    ("sorting on a computed cost",
      (fun () ->
        Parser.parse_program
          (computed ^ "\nsp(nil, 0, 0).\nsp(X, C, I) <- next(I), p(X, C, D), least(C + D, I).\n")),
      "1299ee77b63d89863ff1663d0fbf39f5" ) ]

let test_tie_breaks () =
  List.iter
    (fun (name, prog, expected) ->
      Alcotest.(check string) name expected (md5 (fst (Stage_engine.run (prog ())))))
    tie_cases

(* The printer against an independent reference on random databases:
   every relation's rows decoded, sorted by [Value.compare] and printed
   with [Value.to_string].  Columns mix every kind of value — ints at
   and beyond the inline bound (2^61), symbols, strings, tuples and
   compound terms — and each case interns fresh symbols, which the
   printer meets before any comparison has re-ranked them. *)
let reference_render db =
  let b = Buffer.create 256 in
  let row_compare x y = Value.compare (Value.Tup (Array.to_list x)) (Value.Tup (Array.to_list y)) in
  List.iter
    (fun pred ->
      List.iter
        (fun row ->
          Buffer.add_string b (Value.to_string (Value.App (pred, Array.to_list row)));
          Buffer.add_string b ".\n")
        (List.sort row_compare (Database.facts_of db pred)))
    (List.sort String.compare (Database.preds db));
  Buffer.contents b

let fresh = ref 0

let gen_render_db =
  let open QCheck.Gen in
  let edge = 1 lsl 61 in
  let special =
    [ 0; 1; -1; edge - 1; edge; edge + 1; -edge + 1; -edge; -edge - 1; min_int; max_int;
      min_int + 1; max_int - 1 ]
  in
  let gen_int =
    frequency
      [ (3, oneofl special); (3, int_range (-50) 50); (2, int); (1, map (fun i -> i lor edge) int) ]
  in
  let gen_sym =
    frequency
      [ (3, map Value.sym (oneofl [ "a"; "b"; "nil"; "zeta"; "Ab"; "a0" ]));
        ( 1,
          map
            (fun k ->
              incr fresh;
              Value.sym (Printf.sprintf "f%d_%d" k !fresh))
            (int_bound 99) ) ]
  in
  let leaf =
    frequency
      [ (4, map (fun i -> Value.Int i) gen_int);
        (3, gen_sym);
        (1, map Value.str (oneofl [ ""; "a"; "b\"c"; "tab\t"; "zeta" ])) ]
  in
  let value =
    fix
      (fun self d ->
        if d = 0 then leaf
        else
          frequency
            [ (6, leaf);
              (1, map (fun xs -> Value.Tup xs) (list_size (int_bound 2) (self (d - 1))));
              ( 1,
                map2 (fun f xs -> Value.App (f, xs)) (oneofl [ "f"; "g" ])
                  (list_size (int_range 1 2) (self (d - 1))) ) ])
      2
  in
  let relation i =
    int_bound 3 >>= fun arity ->
    frequency [ (1, return 0); (1, return 1); (3, int_bound 12); (2, int_range 16 120) ]
    >>= fun rows ->
    (* Few distinct values per column, so rows share prefixes and
       every column takes part in the order. *)
    list_repeat arity (list_size (int_range 1 6) value) >>= fun pools ->
    list_repeat rows (flatten_l (List.map oneofl pools)) >|= fun rows ->
    (Printf.sprintf "p%d" i, arity, rows)
  in
  int_bound 4 >>= fun k -> flatten_l (List.init k relation)

let prop_render_matches_reference =
  QCheck.Test.make ~name:"render = sorted facts printed one by one" ~count:300
    (QCheck.make gen_render_db) (fun rels ->
      let db = Database.create () in
      List.iter
        (fun (pred, arity, rows) ->
          ignore (Database.relation db pred arity);
          List.iter (fun row -> ignore (Database.add_fact db pred (Array.of_list row))) rows)
        rels;
      let got = Database.render db in
      String.equal got (reference_render db))

let () =
  Alcotest.run "golden"
    [ ( "canonical bytes",
        [ Alcotest.test_case "every program, staged and reference" `Slow test_programs_pinned;
          Alcotest.test_case "hand cases" `Quick test_hand_cases;
          Alcotest.test_case "derived escapes and terms" `Quick test_derived;
          Alcotest.test_case "staged tie-breaks" `Quick test_tie_breaks ] );
      ("printer oracle", [ QCheck_alcotest.to_alcotest prop_render_matches_reference ]) ]
