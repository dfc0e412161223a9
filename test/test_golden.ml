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

let () =
  Alcotest.run "golden"
    [ ( "canonical bytes",
        [ Alcotest.test_case "every program, staged and reference" `Slow test_programs_pinned;
          Alcotest.test_case "hand cases" `Quick test_hand_cases;
          Alcotest.test_case "derived escapes and terms" `Quick test_derived ] ) ]
