(* Relation storage, indexes, and the database. *)

open Gbc

let row xs = Array.of_list (List.map (fun i -> Value.Int i) xs)

let test_add_dedup () =
  let r = Relation.create "p" 2 in
  Alcotest.(check bool) "first insert" true (Relation.add r (row [ 1; 2 ]));
  Alcotest.(check bool) "duplicate" false (Relation.add r (row [ 1; 2 ]));
  Alcotest.(check bool) "other row" true (Relation.add r (row [ 2; 1 ]));
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r);
  Alcotest.(check bool) "mem" true (Relation.mem r (row [ 1; 2 ]));
  Alcotest.(check bool) "not mem" false (Relation.mem r (row [ 3; 3 ]))

let test_arity_check () =
  let r = Relation.create "p" 2 in
  Alcotest.(check bool) "raises on arity mismatch" true
    (try
       ignore (Relation.add r (row [ 1 ]));
       false
     with Invalid_argument _ -> true)

let test_insertion_order () =
  let r = Relation.create "p" 1 in
  List.iter (fun i -> ignore (Relation.add r (row [ i ]))) [ 5; 3; 9; 1 ];
  let order = List.map (fun a -> Value.as_int a.(0)) (Relation.to_list r) in
  Alcotest.(check (list int)) "insertion order preserved" [ 5; 3; 9; 1 ] order

let test_iter_from () =
  let r = Relation.create "p" 1 in
  List.iter (fun i -> ignore (Relation.add r (row [ i ]))) [ 1; 2; 3; 4 ];
  let acc = ref [] in
  Relation.iter_from r 2 (fun a -> acc := Value.as_int a.(0) :: !acc);
  Alcotest.(check (list int)) "delta window" [ 4; 3 ] !acc

let test_index_lookup () =
  let r = Relation.create "g" 3 in
  for i = 0 to 99 do
    ignore (Relation.add r (row [ i mod 10; i; i * 2 ]))
  done;
  let hits = ref 0 in
  Relation.iter_matching r [| Some (Value.Int 3); None; None |] (fun _ -> incr hits);
  Alcotest.(check int) "matches via index" 10 !hits;
  (* Rows inserted after the index was built must be visible. *)
  ignore (Relation.add r (row [ 3; 1000; 2000 ]));
  hits := 0;
  Relation.iter_matching r [| Some (Value.Int 3); None; None |] (fun _ -> incr hits);
  Alcotest.(check int) "index maintained on insert" 11 !hits

let test_index_multi_column () =
  let r = Relation.create "g" 3 in
  for i = 0 to 49 do
    ignore (Relation.add r (row [ i mod 5; i mod 7; i ]))
  done;
  let hits = ref [] in
  Relation.iter_matching r
    [| Some (Value.Int 2); Some (Value.Int 3); None |]
    (fun a -> hits := Value.as_int a.(2) :: !hits);
  let expected =
    List.filter (fun i -> i mod 5 = 2 && i mod 7 = 3) (List.init 50 Fun.id)
  in
  Alcotest.(check (list int)) "two-column index" expected (List.rev !hits)

let test_full_scan_pattern () =
  let r = Relation.create "p" 2 in
  for i = 0 to 9 do
    ignore (Relation.add r (row [ i; i ]))
  done;
  let hits = ref 0 in
  Relation.iter_matching r [| None; None |] (fun _ -> incr hits);
  Alcotest.(check int) "unbound pattern scans all" 10 !hits

let test_copy_isolation () =
  let r = Relation.create "p" 1 in
  ignore (Relation.add r (row [ 1 ]));
  let r' = Relation.copy r in
  ignore (Relation.add r (row [ 2 ]));
  ignore (Relation.add r' (row [ 3 ]));
  Alcotest.(check int) "original" 2 (Relation.cardinal r);
  Alcotest.(check int) "copy" 2 (Relation.cardinal r');
  Alcotest.(check bool) "copy lacks original's new row" false (Relation.mem r' (row [ 2 ]))

let test_database_basics () =
  let db = Database.create () in
  Alcotest.(check bool) "add" true (Database.add_fact db "p" (row [ 1; 2 ]));
  Alcotest.(check bool) "dup" false (Database.add_fact db "p" (row [ 1; 2 ]));
  Alcotest.(check bool) "mem" true (Database.mem_fact db "p" (row [ 1; 2 ]));
  Alcotest.(check bool) "absent pred" false (Database.mem_fact db "q" (row [ 1 ]));
  Alcotest.(check int) "cardinal" 1 (Database.cardinal db);
  Alcotest.(check bool) "arity clash raises" true
    (try
       ignore (Database.relation db "p" 3);
       false
     with Invalid_argument _ -> true)

let test_database_copy_and_equal () =
  let db = Database.create () in
  ignore (Database.add_fact db "p" (row [ 1 ]));
  ignore (Database.add_fact db "q" (row [ 2; 3 ]));
  let db' = Database.copy db in
  Alcotest.(check bool) "equal after copy" true (Database.equal_on db db' [ "p"; "q" ]);
  ignore (Database.add_fact db' "p" (row [ 9 ]));
  Alcotest.(check bool) "diverges" false (Database.equal_on db db' [ "p" ]);
  Alcotest.(check bool) "other pred still equal" true (Database.equal_on db db' [ "q" ])

let test_load_facts_rejects_rules () =
  let db = Database.create () in
  let prog = Parser.parse_program "p(X) <- q(X)." in
  Alcotest.(check bool) "rejects non-fact" true
    (try
       Database.load_facts db prog;
       false
     with Invalid_argument _ -> true)

let test_pp_stable_output () =
  let db = Database.create () in
  ignore (Database.add_fact db "b" (row [ 2 ]));
  ignore (Database.add_fact db "a" (row [ 9 ]));
  ignore (Database.add_fact db "b" (row [ 1 ]));
  Alcotest.(check string) "sorted rendering" "a(9).\nb(1).\nb(2).\n"
    (Format.asprintf "%a" Database.pp db)

(* ---------------- flat vs boxed equivalence ---------------- *)

let with_threshold t f =
  let saved = Relation.flat_threshold () in
  Relation.set_flat_threshold t;
  Fun.protect ~finally:(fun () -> Relation.set_flat_threshold saved) f

let ints_of_tuple a = Array.to_list (Array.map Value.as_int a)

(* One scripted interleaving of inserts, membership checks, index
   probes, iterations, and copy-on-write forks, replayed on a relation
   pinned boxed (threshold [None]) and one promoted at the first row
   (threshold [Some 1]).  Every observation, including iteration
   order, must be identical. *)
type op =
  | Insert of int * int
  | Insert_ints of int * int
  | Member of int * int
  | Probe of int * int  (** column, key *)
  | Iterate
  | Fork_diverge of int * int
      (** copy, then insert into the original: the copy must not see the
          row (exercises [privatize] on the shared store) *)

let apply_ops ~flat ops =
  with_threshold (if flat then Some 1 else None) (fun () ->
      let r = Relation.create "p" 2 in
      let obs = Buffer.create 256 in
      let log fmt = Printf.ksprintf (fun s -> Buffer.add_string obs (s ^ "\n")) fmt in
      List.iter
        (fun op ->
          match op with
          | Insert (a, b) -> log "ins %b" (Relation.add r (row [ a; b ]))
          | Insert_ints (a, b) -> log "insi %b" (Relation.add_ints r [| a; b |])
          | Member (a, b) -> log "mem %b" (Relation.mem r (row [ a; b ]))
          | Probe (col, key) ->
            let pat = [| None; None |] in
            pat.(col) <- Some (Value.Int key);
            Relation.iter_matching r pat (fun a -> log "hit %d %d" (Value.as_int a.(0)) (Value.as_int a.(1)));
            (* The id-based probe must visit the same rows in the same
               order, and [read] must decode the same cells. *)
            Relation.iter_matching_ids r pat (fun id ->
                log "hid %d %d"
                  (Value.as_int (Relation.read r id 0))
                  (Value.as_int (Relation.read r id 1)))
          | Iterate -> Relation.iter r (fun a -> log "row %d %d" (Value.as_int a.(0)) (Value.as_int a.(1)))
          | Fork_diverge (a, b) ->
            let c = Relation.copy r in
            ignore (Relation.add r (row [ a; b ]));
            log "fork %d %d %b" (Relation.cardinal c) (Relation.cardinal r)
              (Relation.mem c (row [ a; b ])))
        ops;
      (Buffer.contents obs, List.map ints_of_tuple (Relation.to_list r), Relation.is_flat r))

let gen_op =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun a b -> Insert (a, b)) (int_bound 6) (int_bound 6));
        (3, map2 (fun a b -> Insert_ints (a, b)) (int_bound 6) (int_bound 6));
        (2, map2 (fun a b -> Member (a, b)) (int_bound 6) (int_bound 6));
        (2, map2 (fun c k -> Probe (c, k)) (int_bound 1) (int_bound 6));
        (1, return Iterate);
        (1, map2 (fun a b -> Fork_diverge (a + 10, b)) (int_bound 6) (int_bound 6)) ])

let arb_ops = QCheck.make ~print:(fun l -> string_of_int (List.length l)) QCheck.Gen.(list_size (int_bound 40) gen_op)

let prop_flat_boxed_equivalent =
  QCheck.Test.make ~name:"flat and boxed relations are observationally equal" ~count:300
    arb_ops
    (fun ops ->
      let obs_b, rows_b, flat_b = apply_ops ~flat:false ops in
      let obs_f, rows_f, flat_f = apply_ops ~flat:true ops in
      obs_b = obs_f && rows_b = rows_f && (not flat_b)
      && (flat_f || List.length rows_f = 0))

let prop_promote_demote_roundtrip =
  QCheck.Test.make ~name:"promote/demote round-trips preserve rows and order" ~count:200
    QCheck.(small_list (pair (int_bound 8) (int_bound 8)))
    (fun rows ->
      with_threshold (Some 1024) (fun () ->
          let r = Relation.create "p" 2 in
          List.iter (fun (a, b) -> ignore (Relation.add r (row [ a; b ]))) rows;
          let before = List.map ints_of_tuple (Relation.to_list r) in
          let promoted = Relation.promote r in
          let after_p = List.map ints_of_tuple (Relation.to_list r) in
          Relation.demote r;
          let after_d = List.map ints_of_tuple (Relation.to_list r) in
          ignore (Relation.promote r);
          let again = List.map ints_of_tuple (Relation.to_list r) in
          (promoted || rows = [])
          && before = after_p && before = after_d && before = again))

let test_mixed_rows_demote () =
  with_threshold (Some 1) (fun () ->
      let r = Relation.create "p" 2 in
      ignore (Relation.add_ints r [| 1; 2 |]);
      Alcotest.(check bool) "flat after int row" true (Relation.is_flat r);
      ignore (Relation.add r [| Value.str "s"; Value.Int 3 |]);
      Alcotest.(check bool) "demoted by non-encodable row" false (Relation.is_flat r);
      Alcotest.(check int) "both rows kept" 2 (Relation.cardinal r);
      Alcotest.(check bool) "int row survives" true (Relation.mem r (row [ 1; 2 ]));
      Alcotest.(check bool) "promote refuses mixed" false (Relation.promote r))

(* ---------------- snapshot codec ---------------- *)

let db_of_source src =
  let db = Database.create () in
  Database.load_facts db (Parser.parse_program src);
  db

let pp_db db = Format.asprintf "%a" Database.pp db

(* A version 1 stream (the format every release up to the previous one
   wrote) must still restore byte-identically. *)
let test_snapshot_v1_compat () =
  let db = db_of_source "edge(a, b, 3). edge(b, c, 1). label(a, \"x y\"). n(42). n(-7)." in
  let buf = Buffer.create 256 in
  Db_snapshot.write_v1 buf db;
  let db', _ = Db_snapshot.read (Buffer.contents buf) 0 in
  Alcotest.(check string) "v1 restores byte-identically" (pp_db db) (pp_db db')

let test_snapshot_v2_flat_roundtrip () =
  with_threshold (Some 1024) (fun () ->
      let db = db_of_source "mixed(a, 1). mixed(b, 2)." in
      let rel = Database.relation db "big" 3 in
      for i = 0 to 2_000 do
        ignore (Relation.add_ints rel [| i; i * 2; -i |])
      done;
      Alcotest.(check bool) "source is flat" true (Relation.is_flat rel);
      let buf = Buffer.create 256 in
      Db_snapshot.write buf db;
      let db', _ = Db_snapshot.read (Buffer.contents buf) 0 in
      Alcotest.(check string) "v2 restores byte-identically" (pp_db db) (pp_db db');
      Alcotest.(check bool) "restored as flat without re-encoding" true
        (Relation.is_flat (Database.relation db' "big" 3));
      (* The same data through the legacy writer must decode too. *)
      let buf1 = Buffer.create 256 in
      Db_snapshot.write_v1 buf1 db;
      let db1, _ = Db_snapshot.read (Buffer.contents buf1) 0 in
      Alcotest.(check string) "v1 of the same db agrees" (pp_db db) (pp_db db1))

let test_snapshot_rejects_future_version () =
  let buf = Buffer.create 8 in
  Buffer.add_int32_be buf 0x47424332l;
  Buffer.add_uint8 buf 99;
  Alcotest.(check bool) "future version raises Corrupt" true
    (try
       ignore (Db_snapshot.read (Buffer.contents buf) 0);
       false
     with Db_snapshot.Corrupt _ -> true)

let prop_index_agrees_with_scan =
  QCheck.Test.make ~name:"indexed lookup = filtered scan" ~count:200
    QCheck.(pair (small_list (pair (int_bound 5) (int_bound 5))) (pair (int_bound 5) (int_bound 1)))
    (fun (rows, (key, col)) ->
      let r = Relation.create "p" 2 in
      List.iter (fun (a, b) -> ignore (Relation.add r (row [ a; b ]))) rows;
      let pattern = [| None; None |] in
      pattern.(col) <- Some (Value.Int key);
      let indexed = ref [] in
      Relation.iter_matching r pattern (fun a -> indexed := Array.to_list a :: !indexed);
      let scanned = ref [] in
      Relation.iter r (fun a ->
          if Value.equal a.(col) (Value.Int key) then scanned := Array.to_list a :: !scanned);
      List.sort compare !indexed = List.sort compare !scanned)

(* ---------------- removal and ground probes ---------------- *)

(* Field values from a small domain.  [mixed] adds strings, which keep
   a relation boxed; the flat side only ever stores ints and symbols. *)
let gen_value ~mixed =
  QCheck.Gen.(
    frequency
      ([ (4, map (fun i -> Value.Int i) (int_bound 4)); (1, map (fun i -> Value.sym (Printf.sprintf "s%d" i)) (int_bound 2)) ]
      @ if mixed then [ (1, map (fun i -> Value.str (Printf.sprintf "s%d" i)) (int_bound 2)) ] else []))

let gen_row3 ~mixed = QCheck.Gen.(array_size (return 3) (gen_value ~mixed))

let show_rows rows =
  String.concat " "
    (List.map (fun r -> "(" ^ String.concat "," (Array.to_list (Array.map Value.to_string r)) ^ ")") rows)

let row_eq a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* A relation of the given representation holding [rows]. *)
let build ~flat rows =
  with_threshold (if flat then Some 1 else None) (fun () ->
      let r = Relation.create "p" 3 in
      List.iter (fun a -> ignore (Relation.add r a)) rows;
      r)

(* Rows, doomed rows (some present, some not), and the representation. *)
let arb_removal =
  QCheck.make
    ~print:(fun (flat, rows, doomed) ->
      Printf.sprintf "flat=%b rows=%s doomed=%s" flat (show_rows rows) (show_rows doomed))
    QCheck.Gen.(
      bool >>= fun flat ->
      let g = gen_row3 ~mixed:(not flat) in
      triple (return flat) (list_size (int_bound 30) g) (list_size (int_bound 10) g))

let prop_remove_matches_list_model =
  QCheck.Test.make ~name:"remove = list filter (flat and boxed, order kept)" ~count:300
    arb_removal (fun (flat, rows, doomed) ->
      let r = build ~flat rows in
      let before = Relation.to_list r in
      let r' = Relation.remove r doomed in
      let expected = List.filter (fun a -> not (List.exists (row_eq a) doomed)) before in
      let same l1 l2 = List.length l1 = List.length l2 && List.for_all2 row_eq l1 l2 in
      same (Relation.to_list r') expected
      && Relation.cardinal r' = List.length expected
      && same (Relation.to_list r) before
      && Relation.is_flat r' = Relation.is_flat r
      && List.for_all (fun a -> Relation.mem r' a = not (List.exists (row_eq a) doomed)) before
      && List.for_all (fun a -> Relation.mem r a) before)

(* Every probe path, for one mask and key, as a list of ids.  The
   read-only path runs first, so on a fresh relation it sees no index
   (boxed: linear scan; flat: membership set or scan). *)
let probe_paths r mask (key : Value.t array) =
  let w = Array.length key in
  let pattern = Array.mapi (fun i v -> if mask land (1 lsl i) <> 0 then Some v else None) key in
  let collect iter =
    let acc = ref [] in
    iter (fun id -> acc := id :: !acc);
    List.rev !acc
  in
  let slice_ids sl = collect (Relation.slice_iter_ids sl 0 (Relation.slice_len sl)) in
  (* the boxed probe buffer holds exactly one slot per bound column *)
  let bits = List.length (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init w Fun.id)) in
  let cols_ro =
    collect
      (Relation.iter_matching_cols_ro_ids r mask key (Array.make bits Value.unit) (Array.make w 0))
  in
  let plain = collect (Relation.iter_matching_ids r pattern) in
  let cols = collect (Relation.iter_matching_cols_ids r mask key) in
  let sl_cols = slice_ids (Relation.slice_cols r mask key) in
  [ ("iter_matching_cols_ro_ids", cols_ro); ("iter_matching_ids", plain);
    ("iter_matching_cols_ids", cols); ("slice_cols", sl_cols) ]

(* The ids a linear scan finds, in insertion order. *)
let scan_ids r mask (key : Value.t array) =
  List.filteri (fun _ x -> x >= 0)
    (List.mapi
       (fun id a ->
         let ok = ref true in
         Array.iteri (fun i v -> if mask land (1 lsl i) <> 0 && not (Value.equal v a.(i)) then ok := false) key;
         if !ok then id else -1)
       (Relation.to_list r))

let arb_row = QCheck.make ~print:(fun a -> show_rows [ a ]) (gen_row3 ~mixed:false)

let prop_probes_after_remove =
  QCheck.Test.make ~name:"after remove, every probe mask = linear scan; _ro ids = plain ids"
    ~count:300
    QCheck.(pair arb_removal (pair arb_row arb_row))
    (fun ((flat, rows, doomed), (key, extra)) ->
      let r = Relation.remove (build ~flat rows) doomed in
      let check () =
        List.for_all
          (fun mask ->
            let paths = probe_paths r mask key in
            let expected = scan_ids r mask key in
            List.for_all
              (fun (name, ids) ->
                ids = expected
                || QCheck.Test.fail_reportf "mask %d, %s: got [%s], scan [%s]" mask name
                     (String.concat ";" (List.map string_of_int ids))
                     (String.concat ";" (List.map string_of_int expected)))
              paths
            && List.for_all (fun (_, ids) -> ids = expected) (probe_paths r mask key))
          (List.init 8 Fun.id)
      in
      (* and again once indexes exist and a row arrived after removal *)
      check () && (ignore (Relation.add r extra); ignore (Relation.add r key); check ()))

let test_ground_probe_non_encodable () =
  with_threshold (Some 1) (fun () ->
      let r = Relation.create "p" 2 in
      let s = Value.sym "same" in
      ignore (Relation.add r [| Value.Int 1; s |]);
      ignore (Relation.add r [| Value.Int 1; Value.Int 2 |]);
      Alcotest.(check bool) "flat" true (Relation.is_flat r);
      List.iter
        (fun (what, v) ->
          let key = [| Value.Int 1; v |] in
          List.iter
            (fun (name, ids) ->
              Alcotest.(check (list int)) (Printf.sprintf "%s probe via %s" what name) [] ids)
            (probe_paths r 3 key))
        [ ("Str sharing the symbol's text", Value.str "same");
          ("Tup", Value.Tup [ Value.Int 2 ]);
          ("App", Value.App ("f", [ Value.Int 2 ])) ];
      Alcotest.(check bool) "still flat" true (Relation.is_flat r))

let () =
  Alcotest.run "relation"
    [ ( "relation",
        [ Alcotest.test_case "add/mem/dedup" `Quick test_add_dedup;
          Alcotest.test_case "arity check" `Quick test_arity_check;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "iter_from (delta windows)" `Quick test_iter_from;
          Alcotest.test_case "index lookup" `Quick test_index_lookup;
          Alcotest.test_case "multi-column index" `Quick test_index_multi_column;
          Alcotest.test_case "full scan" `Quick test_full_scan_pattern;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolation ] );
      ( "database",
        [ Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "copy and equal_on" `Quick test_database_copy_and_equal;
          Alcotest.test_case "load_facts validation" `Quick test_load_facts_rejects_rules;
          Alcotest.test_case "stable pp" `Quick test_pp_stable_output ] );
      ( "flat",
        [ Alcotest.test_case "mixed rows demote" `Quick test_mixed_rows_demote;
          QCheck_alcotest.to_alcotest prop_flat_boxed_equivalent;
          QCheck_alcotest.to_alcotest prop_promote_demote_roundtrip ] );
      ( "snapshot",
        [ Alcotest.test_case "v1 back-compat" `Quick test_snapshot_v1_compat;
          Alcotest.test_case "v2 flat round-trip" `Quick test_snapshot_v2_flat_roundtrip;
          Alcotest.test_case "future version rejected" `Quick
            test_snapshot_rejects_future_version ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_index_agrees_with_scan ]);
      ( "remove",
        [ QCheck_alcotest.to_alcotest prop_remove_matches_list_model;
          QCheck_alcotest.to_alcotest prop_probes_after_remove;
          Alcotest.test_case "ground probes with non-encodable values" `Quick
            test_ground_probe_non_encodable ] ) ]
