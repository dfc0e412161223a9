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

(* ---------------- the store against a list model ---------------- *)

(* Ints on both sides of the inline cell range, symbols, strings
   sharing a symbol's text, and nested tuples and terms — every kind of
   cell — over a small domain so rows collide. *)
let boundary_ints =
  [ 0; (1 lsl 61) - 1; -((1 lsl 61) - 1); 1 lsl 61; -(1 lsl 61); max_int; min_int ]

let gen_int = QCheck.Gen.(oneof [ oneofl boundary_ints; int_range (-2) 2 ])

let rec gen_value depth =
  QCheck.Gen.(
    frequency
      ([ (4, map (fun i -> Value.Int i) gen_int);
         (1, map (fun i -> Value.sym (Printf.sprintf "s%d" i)) (int_bound 1));
         (1, map (fun i -> Value.str (Printf.sprintf "s%d" i)) (int_bound 1)) ]
      @
      if depth = 0 then []
      else
        [ (1, map (fun xs -> Value.Tup xs) (list_size (int_bound 2) (gen_value (depth - 1))));
          (1, map (fun xs -> Value.App ("f", xs)) (list_size (int_range 1 2) (gen_value (depth - 1))))
        ]))

let show_row a = "(" ^ String.concat "," (Array.to_list (Array.map Value.to_string a)) ^ ")"
let show_rows rows = String.concat " " (List.map show_row rows)
let row_eq a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b
let same l1 l2 = List.length l1 = List.length l2 && List.for_all2 row_eq l1 l2

type op =
  | Add of Value.t array
  | Add_ints of int array
  | Probe of int option * Value.t array
      (** every mask, every probe path, keyed by the stored row at this
          position (modulo the count) or else by the given row *)
  | Iter_from of int  (** and the {!Relation.prefix} at that bound *)
  | Remove of int list * Value.t array
      (** the stored rows at these positions and the given row;
          continue on the survivors *)
  | Range of int * int * int option * Value.t array
      (** {!Relation.iter_range_ids} over the ids [lo, lo + len), every
          mask, keyed like {!Probe} *)
  | Fork of Value.t array * Value.t array
      (** copy; add the first row to the original, the second to the copy *)
  | Readd of int
      (** remove the stored row at this position, then add it back: it
          must come last *)
  | Pre_probe of int option * Value.t array * int
      (** {!Probe} and {!Iter_from} on the handle from before the last
          removal, whatever the newer handle added since *)
  | Remove_most
      (** remove every row but the first: crosses the compaction
          threshold from two rows on *)
  | Fill of int
      (** add this many rows of ints no generator draws: relations big
          enough that a removal marks rows dead in place instead of
          compacting *)
  | Release  (** release the handle from before the last removal *)
  | Keep  (** keep the handle from before the last removal, to the end *)
  | Freeze of bool
      (** keep a copy to the end: of the handle from before the last
          removal, which is then released ([true]), or of the live
          handle, whose store the copy freezes *)
  | Old_probe of int * int option * Value.t array
      (** {!Probe} on a kept handle *)
  | Dup_key of int * int
      (** probe on a column set by the stored row at this position, then
          add a row that agrees with it there and nowhere else *)
  | Retract of bool * int list
      (** as [Ivm] removes: {!Relation.remove_ids} of every stored row
          but the first ([true]) or of those at these positions, the
          source handle released, then {!Relation.compact}, which works
          in place when no other handle reads the store *)

let show_op = function
  | Add a -> "add " ^ show_row a
  | Add_ints a -> "add_ints " ^ show_row (Array.map (fun i -> Value.Int i) a)
  | Probe (Some k, _) -> Printf.sprintf "probe #%d" k
  | Probe (None, a) -> "probe " ^ show_row a
  | Iter_from k -> Printf.sprintf "iter_from %d" k
  | Remove (ks, a) ->
    Printf.sprintf "remove #%s %s" (String.concat ",#" (List.map string_of_int ks)) (show_row a)
  | Range (lo, len, Some k, _) -> Printf.sprintf "range [%d, %d) #%d" lo (lo + len) k
  | Range (lo, len, None, a) -> Printf.sprintf "range [%d, %d) %s" lo (lo + len) (show_row a)
  | Fork (a, b) -> Printf.sprintf "fork %s %s" (show_row a) (show_row b)
  | Readd k -> Printf.sprintf "readd #%d" k
  | Pre_probe (Some k, _, j) -> Printf.sprintf "pre probe #%d, iter_from %d" k j
  | Pre_probe (None, a, j) -> Printf.sprintf "pre probe %s, iter_from %d" (show_row a) j
  | Remove_most -> "remove most"
  | Fill k -> Printf.sprintf "fill %d" k
  | Release -> "release"
  | Keep -> "keep"
  | Freeze pre -> Printf.sprintf "freeze %s" (if pre then "pre" else "live")
  | Old_probe (i, Some k, _) -> Printf.sprintf "old probe %d #%d" i k
  | Old_probe (i, None, a) -> Printf.sprintf "old probe %d %s" i (show_row a)
  | Dup_key (k, m) -> Printf.sprintf "dup key #%d mask %d" k m
  | Retract (true, _) -> "retract most"
  | Retract (false, ks) -> Printf.sprintf "retract #%s" (String.concat ",#" (List.map string_of_int ks))

let gen_ops w =
  let open QCheck.Gen in
  let row = array_size (return w) (gen_value 2) in
  list_size (int_bound 30)
    (frequency
       [ (6, map (fun a -> Add a) row);
         (2, map (fun a -> Add_ints a) (array_size (return w) gen_int));
         (3, map2 (fun k a -> Probe (k, a)) (opt (int_bound 40)) row);
         (1, map (fun k -> Iter_from k) (int_bound 12));
         (2, map2 (fun ks a -> Remove (ks, a)) (list_size (int_bound 4) (int_bound 40)) row);
         (2, map2 (fun (lo, len) (k, a) -> Range (lo, len, k, a))
               (pair (int_bound 12) (int_bound 12)) (pair (opt (int_bound 40)) row));
         (1, map2 (fun a b -> Fork (a, b)) row row);
         (2, map (fun k -> Readd k) (int_bound 40));
         (2, map3 (fun k a j -> Pre_probe (k, a, j)) (opt (int_bound 40)) row (int_bound 12));
         (1, return Remove_most);
         (2, map (fun k -> Fill k) (int_bound 24));
         (2, return Release);
         (1, return Keep);
         (1, map (fun pre -> Freeze pre) bool);
         (2, map3 (fun i k a -> Old_probe (i, k, a)) (int_bound 8) (opt (int_bound 40)) row);
         (2, map2 (fun k m -> Dup_key (k, m)) (int_bound 40) (int_bound 7));
         (3, map2 (fun most ks -> Retract (most, ks)) bool (list_size (int_bound 4) (int_bound 40))) ])

let arb_script =
  QCheck.make
    ~print:(fun (w, ops) ->
      Printf.sprintf "arity %d: %s" w (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(int_bound 3 >>= fun w -> pair (return w) (gen_ops w))

let collect iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.rev !acc

(* The ids of a relation's rows, in order: its live ids below the
   bound.  Removed rows leave gaps. *)
let live_ids r = List.filter (Relation.is_live r) (List.init (Relation.id_bound r) Fun.id)

(* The model's rows whose ids in [r] satisfy [p]. *)
let rows_where r p model =
  let ids = live_ids r in
  List.filteri (fun i _ -> p (List.nth ids i)) model

(* The relation's rows, read every way there is, against the model. *)
let check_rows what r model =
  let by_read =
    List.map (fun id -> Array.init (Relation.arity r) (fun c -> Relation.read r id c)) (live_ids r)
  in
  (same (Relation.to_list r) model && same by_read model
  && Relation.cardinal r = List.length model
  && List.for_all (Relation.mem r) model)
  || QCheck.Test.fail_reportf "%s: rows %s, model %s" what (show_rows (Relation.to_list r))
       (show_rows model)

(* The ids among [ids] whose model rows agree with [key] on [mask]. *)
let matching ids model key mask =
  let agrees a = List.for_all (fun c -> mask land (1 lsl c) = 0 || Value.equal a.(c) key.(c)) in
  List.concat (List.map2 (fun id a -> if agrees a (List.init (Array.length key) Fun.id) then [ id ] else []) ids model)

(* Every probe path for every mask, keyed by [key], against the ids a
   filter over the model finds.  The read-only probe runs first (no
   index yet: a linear scan) and again after the others built one. *)
let check_probes r model key =
  let w = Array.length key in
  let probe = Array.map Relation.Cell.lookup key in
  let ids = live_ids r in
  List.length ids = List.length model
  && List.for_all
    (fun mask ->
      let bound c = mask land (1 lsl c) <> 0 in
      let expected = matching ids model key mask in
      let pattern = Array.mapi (fun c v -> if bound c then Some v else None) key in
      let ro () = collect (Relation.probe_ids_ro r mask probe) in
      let slice () =
        let sl = Relation.slice_cols r mask probe in
        collect (Relation.slice_iter_ids sl 0 (Relation.slice_len sl))
      in
      let rows_of found = List.filteri (fun i _ -> List.mem (List.nth ids i) found) model in
      let paths =
        [ ("probe_ids_ro (scan)", ro ());
          ("iter_matching_ids", collect (Relation.iter_matching_ids r pattern));
          ("probe_ids", collect (Relation.probe_ids r mask probe));
          ("slice_cols", slice ());
          ("probe_ids_ro (index)", ro ()) ]
      in
      List.for_all
        (fun (name, ids) ->
          ids = expected
          || QCheck.Test.fail_reportf "mask %d, %s: got [%s], model [%s]" mask name
               (String.concat ";" (List.map string_of_int ids))
               (String.concat ";" (List.map string_of_int expected)))
        paths
      && same (collect (Relation.iter_matching r pattern)) (rows_of expected))
    (List.init (1 lsl w) Fun.id)

(* The delta scan over ids [lo, hi), for every mask, against the live
   ids in that range whose model rows agree with [key]. *)
let check_range r model lo hi key =
  List.for_all
    (fun mask ->
      let expected = List.filter (fun id -> id >= lo && id < hi) (matching (live_ids r) model key mask) in
      let got = collect (Relation.iter_range_ids r lo hi mask (Array.map Relation.Cell.lookup key)) in
      got = expected
      || QCheck.Test.fail_reportf "range [%d, %d), mask %d: got [%s], model [%s]" lo hi mask
           (String.concat ";" (List.map string_of_int got))
           (String.concat ";" (List.map string_of_int expected)))
    (List.init (1 lsl Array.length key) Fun.id)

let add_model model a = if List.exists (row_eq a) model then (false, model) else (true, model @ [ a ])
let stored model k = List.nth model (k mod List.length model)

let prop_matches_list_model =
  QCheck.Test.make ~name:"relation = list model (every op, value kind and arity)" ~count:400 arb_script
    (fun (w, ops) ->
      let r = ref (Relation.create "p" w) and model = ref [] in
      (* the handle a removal was made from, and its rows; handles kept
         to the end, read after later removals compacted the live one *)
      let pre = ref None and filled = ref 0 and kept = ref [] in
      let keep what h m = kept := !kept @ [ (what, h, m) ] in
      let remove doomed =
        let before = !model in
        let r' = Relation.remove !r doomed in
        model := List.filter (fun a -> not (List.exists (row_eq a) doomed)) before;
        let untouched = check_rows "remove source" !r before in
        pre := Some (!r, before);
        r := r';
        untouched
      in
      let step op =
        match op with
        | Add a ->
          let fresh, m = add_model !model a in
          model := m;
          Relation.add !r a = fresh || QCheck.Test.fail_reportf "add %s" (show_row a)
        | Add_ints ints ->
          let fresh, m = add_model !model (Array.map (fun i -> Value.Int i) ints) in
          model := m;
          Relation.add_ints !r ints = fresh || QCheck.Test.fail_report "add_ints"
        | Probe (k, a) ->
          let key = match (k, !model) with Some k, _ :: _ -> stored !model k | _ -> a in
          check_probes !r !model key && Relation.mem !r key = List.exists (row_eq key) !model
        | Iter_from k ->
          let m = min k (Relation.id_bound !r) in
          same (collect (Relation.iter_from !r k)) (rows_where !r (fun id -> id >= k) !model)
          && check_rows "prefix" (Relation.prefix !r m) (rows_where !r (fun id -> id < m) !model)
        | Remove (ks, a) ->
          remove (a :: (if !model = [] then [] else List.map (stored !model) ks))
        | Range (lo, len, k, a) ->
          let key = match (k, !model) with Some k, _ :: _ -> stored !model k | _ -> a in
          check_range !r !model lo (lo + len) key
        | Fork (a, b) ->
          let c = Relation.copy !r in
          let _, mc = add_model !model b in
          let _, m = add_model !model a in
          ignore (Relation.add !r a);
          ignore (Relation.add c b);
          model := m;
          check_rows "copy" c mc
        | Readd k -> (
          match !model with
          | [] -> true
          | m ->
            let a = stored m k in
            let untouched = remove [ a ] in
            let fresh, m = add_model !model a in
            model := m;
            untouched && fresh && Relation.add !r a
            && (row_eq (List.nth (Relation.to_list !r) (List.length m - 1)) a
               || QCheck.Test.fail_reportf "readd: %s is not last" (show_row a)))
        | Pre_probe (k, a, j) -> (
          match !pre with
          | None -> true
          | Some (p, pm) ->
            let key = match (k, pm) with Some k, _ :: _ -> stored pm k | _ -> a in
            check_rows "pre handle" p pm && check_probes p pm key
            && Relation.mem p key = List.exists (row_eq key) pm
            && (same (collect (Relation.iter_from p j)) (rows_where p (fun id -> id >= j) pm)
               || QCheck.Test.fail_report "pre handle: iter_from"))
        | Fill k ->
          List.for_all
            (fun _ ->
              incr filled;
              let ints = Array.make w (100 + !filled) in
              let fresh, m = add_model !model (Array.map (fun i -> Value.Int i) ints) in
              model := m;
              Relation.add_ints !r ints = fresh || QCheck.Test.fail_report "fill")
            (List.init k Fun.id)
        | Release ->
          Option.iter (fun (p, _) -> Relation.release p) !pre;
          pre := None;
          true
        | Keep ->
          Option.iter (fun (p, pm) -> keep "kept pre handle" p pm) !pre;
          pre := None;
          true
        | Freeze true -> (
          match !pre with
          | None -> true
          | Some (p, pm) ->
            keep "frozen pre handle" (Relation.copy p) pm;
            Relation.release p;
            pre := None;
            true)
        | Freeze false ->
          keep "frozen live handle" (Relation.copy !r) !model;
          true
        | Old_probe (i, k, a) -> (
          match !kept with
          | [] -> true
          | l ->
            let what, h, hm = List.nth l (i mod List.length l) in
            let key = match (k, hm) with Some k, _ :: _ -> stored hm k | _ -> a in
            check_rows what h hm && check_probes h hm key)
        | Dup_key (k, m) -> (
          match !model with
          | [] -> true
          | _ when w < 2 -> true
          | rows ->
            let key = stored rows k and mask = 1 + (m mod ((1 lsl w) - 2)) in
            let probe = Array.map Relation.Cell.lookup key in
            ignore (collect (Relation.probe_ids !r mask probe));
            incr filled;
            let dup = Array.mapi (fun c v -> if mask land (1 lsl c) <> 0 then v else Value.Int (-100 - !filled)) key in
            let fresh, m = add_model !model dup in
            model := m;
            (Relation.add !r dup = fresh || QCheck.Test.fail_report "dup key: add")
            && check_probes !r !model key)
        | Retract (most, ks) -> (
          match !model with
          | [] -> true
          | _ :: rest as m ->
            let doomed = if most then rest else List.map (stored m) ks in
            let set = Relation.Idset.create (Relation.id_bound !r) in
            List.iter (fun a -> match Relation.find !r a with -1 -> () | id -> Relation.Idset.add set id) doomed;
            let r' = Relation.remove_ids !r set in
            Relation.release !r;
            r := Relation.compact r';
            model := List.filter (fun a -> not (List.exists (row_eq a) doomed)) m;
            (not most) || Relation.id_bound !r = 1
            || QCheck.Test.fail_reportf "retract most: %d ids left, not compacted" (Relation.id_bound !r))
        | Remove_most -> (
          match !model with
          | [] -> true
          | _ :: rest ->
            let live = List.length !model - List.length rest in
            let crosses = 8 * (Relation.id_bound !r - live) > live in
            remove rest
            && ((not crosses) || Relation.id_bound !r = live
               || QCheck.Test.fail_reportf "remove most: %d ids for %d rows, not compacted"
                    (Relation.id_bound !r) live))
      in
      List.for_all (fun op -> step op && check_rows (show_op op) !r !model) ops
      && List.for_all (fun (what, h, hm) -> check_rows (what ^ ", at the end") h hm) !kept)

(* ---------------- snapshot codec ---------------- *)

let db_of_source src =
  let db = Database.create () in
  Database.load_facts db (Parser.parse_program src);
  db

let pp_db db = Format.asprintf "%a" Database.pp db

(* Streams written by an older build must keep restoring.  The two
   fixtures under [snapshots/] hold the v2 and the legacy v1 encodings
   of [fixture_db], as written by the build that still kept a boxed
   store beside the flat one and a v1 writer beside the v2 one: [big] went
   out as a repr-1 cell blob, every other relation as repr-0 tagged
   rows.  Both must restore to the pinned rendering and digest, which
   a fresh [fixture_db] must also reproduce. *)
let fixture_db () =
  let db = Database.create () in
  ignore (Database.add_fact db "flag" [||]);
  let big = Database.relation db "big" 1 in
  for i = 0 to 1023 do
    ignore (Relation.add_ints big [| (i * 37 mod 1031) - 500 |])
  done;
  let small = Database.relation db "small" 2 in
  List.iter
    (fun r -> ignore (Relation.add small r))
    [ [| Value.sym "a"; Value.Int 3 |]; [| Value.sym "b"; Value.Int (-1) |];
      [| Value.Int 7; Value.sym "a" |] ];
  let terms = Database.relation db "terms" 3 in
  List.iter
    (fun r -> ignore (Relation.add terms r))
    [ [| Value.str "x y";
         Value.Tup [ Value.Int 1; Value.App ("f", [ Value.sym "a"; Value.Tup [] ]) ];
         Value.Int max_int |];
      [| Value.str ""; Value.App ("g", [ Value.App ("h", [ Value.Int (-2) ]) ]); Value.Int min_int |];
      [| Value.sym "a"; Value.Int (1 lsl 61); Value.Int (-(1 lsl 61)) |];
      [| Value.str "a"; Value.Int (-5); Value.Int ((1 lsl 61) - 1) |] ];
  db

let fixture_pp_md5 = "e683f64781cc6562534342adbc12efed"
let fixture_digest = "mset1:09fccea37308265d554e5695938585b2"

let read_hex path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let hex = String.concat "" (String.split_on_char '\n' text) in
  String.init (String.length hex / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))

let pinned file = fst (Db_snapshot.read (read_hex (Filename.concat "snapshots" file)) 0)

(* A version 1 stream (the format written before cell blobs; a data
   dir may still hold one) must still restore byte-identically.  The
   pinned one holds symbols, strings, terms, wide ints and a nullary
   fact. *)
let test_snapshot_v1_compat () =
  Alcotest.(check string) "v1 restores byte-identically" (pp_db (fixture_db ()))
    (pp_db (pinned "parent_v1.hex"))

let live_cells rel = Array.sub (Relation.cells rel) 0 (Relation.cardinal rel * Relation.arity rel)

let test_snapshot_v2_flat_roundtrip () =
  let db = db_of_source "mixed(a, 1). mixed(b, 2). words(\"x\", t(1))." in
  let rel = Database.relation db "big" 3 in
  for i = 0 to 2_000 do
    ignore (Relation.add_ints rel [| i; i * 2; -i |])
  done;
  let buf = Buffer.create 256 in
  Db_snapshot.write buf db;
  let db', _ = Db_snapshot.read (Buffer.contents buf) 0 in
  Alcotest.(check string) "v2 restores byte-identically" (pp_db db) (pp_db db');
  List.iter
    (fun (p, w) ->
      Alcotest.(check (array int))
        (p ^ " restored cell for cell")
        (live_cells (Database.relation db p w))
        (live_cells (Database.relation db' p w)))
    [ ("big", 3); ("mixed", 2); ("words", 2) ];
  (* The pinned v1 and v2 streams of one database — [big] a cell blob
     in one, tagged rows in the other — restore cell for cell alike. *)
  let v1 = pinned "parent_v1.hex" and v2 = pinned "parent_v2.hex" in
  List.iter
    (fun (p, w) ->
      Alcotest.(check (array int))
        (p ^ ": v1 restores the cells v2 does")
        (live_cells (Database.relation v2 p w))
        (live_cells (Database.relation v1 p w)))
    [ ("flag", 0); ("big", 1); ("small", 2); ("terms", 3) ]

(* A nullary row takes no bytes, so a stream may end right after its
   row count.  The v1 stream is built by hand: no symbols, two
   predicates, [p] with one tagged int row, then [flag] with its row
   count and nothing after it. *)
let test_snapshot_nullary_last () =
  let db = db_of_source "p(1). flag." in
  let v2 = Buffer.create 64 in
  Db_snapshot.write v2 db;
  let v1 = Buffer.create 64 in
  let u32 n = Buffer.add_int32_be v1 (Int32.of_int n) in
  let name s =
    u32 (String.length s);
    Buffer.add_string v1 s
  in
  u32 0;
  u32 2;
  name "p";
  u32 1;
  u32 1;
  Buffer.add_uint8 v1 0;
  Buffer.add_int64_be v1 1L;
  name "flag";
  u32 0;
  u32 1;
  List.iter
    (fun (what, buf) ->
      let s = Buffer.contents buf in
      let db', stop = Db_snapshot.read s 0 in
      Alcotest.(check string) what (pp_db db) (pp_db db');
      Alcotest.(check int) (what ^ ": consumed the whole stream") (String.length s) stop)
    [ ("v2", v2); ("v1", v1) ]

(* A cell blob that decodes to a bad store must be refused, not
   restored: [e] is 1100 rows of 2 cells, written last, so its blob is
   the stream's tail. *)
let corrupt_blob edit =
  let db = Database.create () in
  let e = Database.relation db "e" 2 in
  for i = 0 to 1099 do
    ignore (Relation.add_ints e [| i; i + 1 |])
  done;
  let buf = Buffer.create 4096 in
  Db_snapshot.write buf db;
  let s = Bytes.of_string (Buffer.contents buf) in
  edit s (Bytes.length s - (1100 * 16));
  match Db_snapshot.read (Bytes.to_string s) 0 with
  | exception Db_snapshot.Corrupt _ -> ()
  | db', _ ->
    Alcotest.failf "restored %d facts from a corrupt blob"
      (Relation.cardinal (Database.relation db' "e" 2))

let test_blob_duplicate_row () =
  corrupt_blob (fun s blob -> Bytes.blit s blob s (blob + (1099 * 16)) 16)

let test_blob_wide_int () =
  (* the top two bits of an i64 cell disagree: no 63-bit int *)
  corrupt_blob (fun s blob -> Bytes.set_int64_be s blob 0x4000_0000_0000_0000L);
  (* fits in 63 bits, but -2^61 is outside the inline cell range *)
  corrupt_blob (fun s blob -> Bytes.set_int64_be s blob (Int64.shift_left (-1L) 62))

let test_snapshot_fixtures () =
  let check what db =
    Alcotest.(check string) (what ^ ": rendering") fixture_pp_md5
      (Digest.to_hex (Digest.string (pp_db db)));
    Alcotest.(check string) (what ^ ": digest") fixture_digest (Database.digest db);
    Alcotest.(check int) (what ^ ": facts") 1032 (Database.cardinal db)
  in
  check "fresh database" (fixture_db ());
  List.iter
    (fun file ->
      let s = read_hex (Filename.concat "snapshots" file) in
      let db, stop = Db_snapshot.read s 0 in
      Alcotest.(check int) (file ^ ": consumed the whole stream") (String.length s) stop;
      check file db)
    [ "parent_v2.hex"; "parent_v1.hex" ]

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

let gen_row3 = QCheck.Gen.(array_size (return 3) (gen_value 1))

let build rows =
  let r = Relation.create "p" 3 in
  List.iter (fun a -> ignore (Relation.add r a)) rows;
  r

(* Rows and doomed rows (some present, some not). *)
let arb_removal =
  QCheck.make
    ~print:(fun (rows, doomed) -> Printf.sprintf "rows=%s doomed=%s" (show_rows rows) (show_rows doomed))
    QCheck.Gen.(pair (list_size (int_bound 30) gen_row3) (list_size (int_bound 10) gen_row3))

let prop_remove_matches_list_model =
  QCheck.Test.make ~name:"remove = list filter (flat and boxed, order kept)" ~count:300
    arb_removal (fun (rows, doomed) ->
      let r = build rows in
      let before = Relation.to_list r in
      let r' = Relation.remove r doomed in
      let expected = List.filter (fun a -> not (List.exists (row_eq a) doomed)) before in
      same (Relation.to_list r') expected
      && Relation.cardinal r' = List.length expected
      && same (Relation.to_list r) before
      && List.for_all (fun a -> Relation.mem r' a = not (List.exists (row_eq a) doomed)) before
      && List.for_all (fun a -> Relation.mem r a) before)

let arb_row = QCheck.make ~print:show_row gen_row3

let prop_probes_after_remove =
  QCheck.Test.make ~name:"after remove, every probe mask = linear scan; _ro ids = plain ids"
    ~count:300
    QCheck.(pair arb_removal (pair arb_row arb_row))
    (fun ((rows, doomed), (key, extra)) ->
      let r = Relation.remove (build rows) doomed in
      (* and again once indexes exist and a row arrived after removal *)
      check_probes r (Relation.to_list r) key
      && (ignore (Relation.add r extra);
          ignore (Relation.add r key);
          check_probes r (Relation.to_list r) key))

(* Probing with a value no row holds — a string sharing a stored
   symbol's text, terms never stored — finds nothing on any path; once
   such a row is stored, exactly that row is found. *)
let test_ground_probe_non_encodable () =
  let r = Relation.create "p" 2 in
  ignore (Relation.add r [| Value.Int 1; Value.sym "same" |]);
  ignore (Relation.add r [| Value.Int 1; Value.Int 2 |]);
  let absent =
    [ Value.str "same"; Value.Tup [ Value.Int 2; Value.sym "never stored" ];
      Value.App ("never_stored", [ Value.Int 2 ]) ]
  in
  List.iter
    (fun v ->
      let key = [| Value.Int 1; v |] in
      Alcotest.(check bool) (Value.to_string v ^ " not a member") false (Relation.mem r key);
      Alcotest.(check bool) (Value.to_string v ^ ": every path empty") true
        (check_probes r (Relation.to_list r) key);
      ignore (Relation.add r key);
      Alcotest.(check bool) (Value.to_string v ^ " once stored: found") true
        (check_probes r (Relation.to_list r) key))
    absent;
  Alcotest.(check int) "two rows plus one per stored term" 5 (Relation.cardinal r)

(* [add_ints] and [add] store an int the same way on both sides of the
   inline range: same row read back, same membership, same rendering,
   and each dedups the other's row. *)
let test_add_ints_boundaries () =
  List.iter
    (fun i ->
      let by_ints = Relation.create "p" 1 and by_values = Relation.create "p" 1 in
      Alcotest.(check bool) "add_ints fresh" true (Relation.add_ints by_ints [| i |]);
      Alcotest.(check bool) "add fresh" true (Relation.add by_values [| Value.Int i |]);
      let what = string_of_int i in
      Alcotest.(check int) (what ^ " read back") i (Value.as_int (Relation.read by_ints 0 0));
      Alcotest.(check bool) (what ^ " member") true (Relation.mem by_ints [| Value.Int i |]);
      Alcotest.(check (array int)) (what ^ " same cell") (Relation.cells by_values)
        (Array.sub (Relation.cells by_ints) 0 (Array.length (Relation.cells by_values)));
      let render r = String.concat " " (List.map show_row (Relation.to_list r)) in
      Alcotest.(check string) (what ^ " rendering") (render by_values) (render by_ints);
      Alcotest.(check bool) (what ^ " add dedups add_ints") false
        (Relation.add by_ints [| Value.Int i |]);
      Alcotest.(check bool) (what ^ " add_ints dedups add") false
        (Relation.add_ints by_values [| i |]))
    boundary_ints

(* Row-id access as incremental maintenance uses it: rows copied cell
   for cell between relations ([add_of], and [append_of], whose
   membership entries wait for the next probe), found by their values
   or another relation's row ([find], [find_of]), and removed by id
   ([remove_ids]) with compaction a separate step ([compact]). *)
let test_row_ids () =
  let src = Relation.create "p" 2 in
  List.iter (fun i -> ignore (Relation.add src (row [ i; i * i ]))) (List.init 40 Fun.id);
  Alcotest.(check int) "find" 7 (Relation.find src (row [ 7; 49 ]));
  Alcotest.(check int) "find absent" (-1) (Relation.find src (row [ 7; 48 ]));
  let dst = Relation.create "q" 2 in
  for id = 0 to 19 do
    Relation.append_of dst src (2 * id)
  done;
  Alcotest.(check int) "appended rows" 20 (Relation.cardinal dst);
  let copy = Relation.copy dst in
  Alcotest.(check int) "find_of an appended row" 5 (Relation.find_of dst src 10);
  Alcotest.(check int) "find_of a row never appended" (-1) (Relation.find_of dst src 11);
  Alcotest.(check bool) "add_of dedups an appended row" false (Relation.add_of dst src 4);
  Alcotest.(check bool) "add_of adds a new row" true (Relation.add_of dst src 5);
  Alcotest.(check bool) "a copy taken before the probes hashes its rows too" true
    (Relation.mem copy (row [ 38; 1444 ]) && not (Relation.mem copy (row [ 5; 25 ])));
  Alcotest.(check bool) "arity mismatch" true
    (try
       ignore (Relation.add_of (Relation.create "u" 1) src 0);
       false
     with Invalid_argument _ -> true);
  let set = Relation.Idset.create (Relation.id_bound src) in
  List.iter (Relation.Idset.add set) [ 1; 3; 39 ];
  Relation.Idset.add set 3;
  let kept = Relation.remove_ids src set in
  Alcotest.(check int) "three removed" 37 (Relation.cardinal kept);
  Alcotest.(check int) "ids kept" 40 (Relation.id_bound kept);
  Alcotest.(check int) "no compaction under an eighth" 40 (Relation.id_bound (Relation.compact kept));
  Alcotest.(check int) "old handle intact" 40 (Relation.cardinal src);
  Alcotest.(check (list int)) "members" [ 1; 3; 39 ]
    (let acc = ref [] in
     Relation.Idset.iter set (fun id -> acc := id :: !acc);
     List.rev !acc);
  Relation.Idset.remove set 3;
  Alcotest.(check bool) "Idset.remove" false (Relation.Idset.mem set 3);
  let most = Relation.Idset.create 40 in
  for id = 0 to 29 do
    Relation.Idset.add most id
  done;
  let c = Relation.compact (Relation.remove_ids src most) in
  Alcotest.(check (pair int int)) "compacted: dense ids" (10, 10)
    (Relation.cardinal c, Relation.id_bound c);
  Alcotest.(check int) "compacted rows keep their order" 0 (Relation.find c (row [ 30; 900 ]))

(* Handles that outlive compactions: a pre-removal handle, a prefix and
   frozen copies, read after the live side compacted five times — in a
   copy of a store another handle reads, in place otherwise — and a
   unique-key index, probed, then given a second row under a key. *)
let test_handles_outlive_compactions () =
  let r = ref (Relation.create "p" 2) in
  let add i = ignore (Relation.add !r (row [ i mod 7; i ])) in
  List.iter add (List.init 64 Fun.id);
  List.iter (Relation.ensure_index !r) [ 1; 2 ];
  let before = Relation.to_list !r in
  let probe_rows h mask a b =
    let acc = ref [] in
    Relation.probe_ids h mask [| Relation.Cell.of_int a; Relation.Cell.of_int b |] (fun id ->
        acc := Relation.row_cells h id :: !acc);
    List.rev_map (Array.map (fun c -> Relation.Cell.decode c)) !acc
  in
  let rows = Alcotest.(list (array (testable Value.pp Value.equal))) in
  let frozen = Relation.copy !r and prefix = Relation.prefix !r 32 and pre = !r in
  let first n l = List.filteri (fun i _ -> i < n) l in
  let model = ref before in
  let retract n ~in_place =
    let set = Relation.Idset.create (Relation.id_bound !r) in
    for id = 0 to n - 1 do
      Relation.Idset.add set id
    done;
    let old = !r and cells = Relation.cells !r in
    let r' = Relation.remove_ids old set in
    if old != pre then Relation.release old;
    r := Relation.compact r';
    model := List.filteri (fun i _ -> i >= n) !model;
    Alcotest.(check bool) "compacted in place" in_place (Relation.cells !r == cells);
    Alcotest.(check int) "dense ids" (List.length !model) (Relation.id_bound !r)
  in
  retract 16 ~in_place:false;
  let frozen_live = ref None in
  for round = 1 to 4 do
    let fresh = List.init 16 (fun i -> (1000 * round) + i) in
    List.iter add fresh;
    model := !model @ List.map (fun i -> row [ i mod 7; i ]) fresh;
    (* a copy freezes the live store: the next compaction copies it *)
    if round = 2 then frozen_live := Some (Relation.copy !r, !model);
    retract 20 ~in_place:(round <> 2)
  done;
  Option.iter (fun (c, m) -> Alcotest.check rows "frozen live copy" m (Relation.to_list c)) !frozen_live;
  Alcotest.check rows "live rows" !model (Relation.to_list !r);
  Alcotest.check rows "pre-removal handle" before (Relation.to_list pre);
  Alcotest.check rows "frozen copy" before (Relation.to_list frozen);
  Alcotest.check rows "prefix" (first 32 before) (Relation.to_list prefix);
  let with_key l a = List.filter (fun x -> Value.equal x.(0) (Value.Int a)) l in
  Alcotest.check rows "pre-removal probe" (with_key before 3) (probe_rows pre 1 3 0);
  Alcotest.check rows "live probe" (with_key !model 3) (probe_rows !r 1 3 0);
  Alcotest.check rows "unique key" [ row [ 0; 3003 ] ] (probe_rows !r 2 0 3003);
  ignore (Relation.add !r (row [ 5; 3003 ]));
  Alcotest.check rows "unique key, second row" [ row [ 0; 3003 ]; row [ 5; 3003 ] ] (probe_rows !r 2 0 3003);
  Alcotest.check rows "frozen unique key" [ row [ 0; 63 ] ] (probe_rows frozen 2 0 63);
  (* a handle from before a removal adds a row after the newer handle
     extended its chains: it copies the store up to its own bound *)
  let q = Relation.create "q" 2 in
  List.iter (fun i -> ignore (Relation.add q (row [ i mod 3; i ]))) (List.init 12 Fun.id);
  Relation.ensure_index q 1;
  let set = Relation.Idset.create 12 in
  Relation.Idset.add set 4;
  let q' = Relation.remove_ids q set in
  ignore (Relation.add q' (row [ 0; 12 ]));
  ignore (Relation.add q (row [ 0; 99 ]));
  let with_zero l = List.filter (fun x -> Value.equal x.(0) (Value.Int 0)) l in
  Alcotest.check rows "older handle, own row" (with_zero (Relation.to_list q)) (probe_rows q 1 0 0);
  Alcotest.check rows "older handle's chain" [ row [ 0; 0 ]; row [ 0; 3 ]; row [ 0; 6 ]; row [ 0; 9 ]; row [ 0; 99 ] ]
    (probe_rows q 1 0 0);
  Alcotest.check rows "newer handle's chain" [ row [ 0; 0 ]; row [ 0; 3 ]; row [ 0; 6 ]; row [ 0; 9 ]; row [ 0; 12 ] ]
    (probe_rows q' 1 0 0)

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
          Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
          Alcotest.test_case "row ids: copy, find, remove" `Quick test_row_ids;
          Alcotest.test_case "handles outlive compactions" `Quick test_handles_outlive_compactions ] );
      ( "database",
        [ Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "copy and equal_on" `Quick test_database_copy_and_equal;
          Alcotest.test_case "load_facts validation" `Quick test_load_facts_rejects_rules;
          Alcotest.test_case "stable pp" `Quick test_pp_stable_output ] );
      ( "model",
        [ QCheck_alcotest.to_alcotest prop_matches_list_model;
          Alcotest.test_case "add_ints = add on boundary ints" `Quick test_add_ints_boundaries ] );
      ( "snapshot",
        [ Alcotest.test_case "v1 back-compat" `Quick test_snapshot_v1_compat;
          Alcotest.test_case "v2 flat round-trip" `Quick test_snapshot_v2_flat_roundtrip;
          Alcotest.test_case "future version rejected" `Quick
            test_snapshot_rejects_future_version;
          Alcotest.test_case "older builds' streams restore" `Quick test_snapshot_fixtures;
          Alcotest.test_case "nullary relation last in a stream" `Quick test_snapshot_nullary_last;
          Alcotest.test_case "blob with a duplicate row rejected" `Quick test_blob_duplicate_row;
          Alcotest.test_case "blob with an out-of-range int rejected" `Quick test_blob_wide_int ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_index_agrees_with_scan ]);
      ( "remove",
        [ QCheck_alcotest.to_alcotest prop_remove_matches_list_model;
          QCheck_alcotest.to_alcotest prop_probes_after_remove;
          Alcotest.test_case "ground probes with non-encodable values" `Quick
            test_ground_probe_non_encodable ] ) ]
