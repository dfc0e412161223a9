(* The multiset model digest ([Database.digest]).

   - it depends on the fact set only: not on insertion order, not on
     repeated insertions, not on interner ids (checked across forked
     children that intern different unrelated symbols first);
   - incremental maintenance ([Ivm.apply]) over random assert/retract
     batches lands on the digest of a from-scratch evaluation;
   - the digest a durable session maintains through appends, removals
     and forks equals that of the same facts in fresh relations, after
     every step;
   - it separates values the canonical rendering separates, and more;
   - equal digests coincide with equal canonical renderings on random
     databases;
   - a pinned value catches accidental drift of the encoding. *)

open Gbc

let render db = Format.asprintf "%a" Database.pp db

let db_of facts =
  let db = Database.create () in
  List.iter (fun (pred, row) -> ignore (Database.add_fact db pred row)) facts;
  db

(* ---------------- generators ---------------- *)

(* Rows over a small domain, so facts collide across orders. *)
let gen_inline_value =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Value.Int (i - 4)) (int_bound 8));
        (1, map (fun i -> Value.sym (Printf.sprintf "s%d" i)) (int_bound 3)) ])

let rec gen_value depth =
  QCheck.Gen.(
    if depth = 0 then gen_inline_value
    else
      frequency
        [ (4, gen_inline_value);
          (1, map (fun i -> Value.str (Printf.sprintf "t %d" i)) (int_bound 3));
          (1, map (fun xs -> Value.Tup xs) (list_size (int_bound 2) (gen_value (depth - 1))));
          ( 1,
            map (fun xs -> Value.App ("f", xs))
              (list_size (int_range 1 2) (gen_value (depth - 1))) ) ])

(* [p]/[q] hold ints and symbols; [r] also holds strings and terms. *)
let gen_fact =
  QCheck.Gen.(
    frequency
      [ (3, map (fun row -> ("p", Array.of_list row)) (list_repeat 2 gen_inline_value));
        (2, map (fun v -> ("q", [| v |])) gen_inline_value);
        (1, map (fun row -> ("r", Array.of_list row)) (list_repeat 2 (gen_value 2))) ])

let gen_facts = QCheck.Gen.(list_size (int_bound 40) gen_fact)

let print_facts facts =
  String.concat " "
    (List.map
       (fun (p, row) ->
         Printf.sprintf "%s(%s)." p
           (String.concat ", " (List.map Value.to_string (Array.to_list row))))
       facts)

(* ---------------- order ---------------- *)

let qc_order =
  QCheck.Test.make ~count:200 ~name:"independent of insertion order and repeats"
    (QCheck.make ~print:(fun (f, _) -> print_facts f)
       QCheck.Gen.(gen_facts >>= fun facts -> pair (return facts) (shuffle_l facts)))
    (fun (facts, shuffled) ->
      let d = Database.digest (db_of facts) in
      let d' = Database.digest (db_of (shuffled @ facts)) in
      String.equal d d' || QCheck.Test.fail_reportf "in order %s, shuffled and repeated %s" d d')

(* Equal digests exactly when the canonical renderings are equal. *)
let qc_agrees_with_rendering =
  QCheck.Test.make ~count:300 ~name:"equal digests iff equal canonical renderings"
    (QCheck.make
       ~print:(fun (a, b) -> print_facts a ^ "\n vs \n" ^ print_facts b)
       QCheck.Gen.(
         (* small pools, so the two sets are often equal *)
         let small = list_size (int_bound 3) (map (fun i -> ("p", [| Value.Int i |])) (int_bound 2)) in
         pair small small))
    (fun (a, b) ->
      let da = db_of a and dbb = db_of b in
      Bool.equal
        (String.equal (Database.digest da) (Database.digest dbb))
        (String.equal (render da) (render dbb)))

(* ---------------- interner ids ---------------- *)

(* Build a model over symbols and strings nobody interned yet, in a
   forked child that first interns [noise] unrelated strings, so the
   model's ids differ from child to child.  Reports the digest and the
   id the first model symbol got. *)
let digest_in_child ~noise =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    for i = 1 to noise do
      ignore (Interner.intern (Printf.sprintf "unrelated_%d_%d" noise i))
    done;
    let a = Value.sym "fresh_alpha" in
    let db =
      db_of
        [ ("edge", [| a; Value.sym "fresh_beta" |]);
          ("edge", [| Value.sym "fresh_beta"; Value.Int 3 |]);
          ("label", [| a; Value.str "fresh text" |]);
          ("term", [| Value.App ("node", [ a; Value.Tup [ Value.str "fresh text" ] ]) |]) ]
    in
    let id = match a with Value.Sym id -> id | _ -> -1 in
    let out = Printf.sprintf "%s %d" (Database.digest db) id in
    ignore (Unix.write_substring w out 0 (String.length out));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = input_line ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Scanf.sscanf line "%s %d" (fun d id -> (d, id))

let test_interner_ids () =
  let d0, id0 = digest_in_child ~noise:0 in
  let d1, id1 = digest_in_child ~noise:1 in
  let d2, id2 = digest_in_child ~noise:777 in
  Alcotest.(check bool) "ids shifted" true (id0 <> id1 && id1 <> id2 && id0 <> id2);
  Alcotest.(check string) "noise 1" d0 d1;
  Alcotest.(check string) "noise 777" d0 d2

(* ---------------- incremental maintenance ---------------- *)

let ivm_rules =
  Parser.parse_program
    "tc(X, Y) <- edge(X, Y).\n\
     tc(X, Z) <- tc(X, Y), edge(Y, Z).\n\
     node(X) <- edge(X, Y).\n\
     node(Y) <- edge(X, Y).\n\
     unreach(X, Y) <- node(X), node(Y), not tc(X, Y).\n"

let edge_row (a, b) = ("edge", [| Value.Int a; Value.Int b |])
let edb_of edges = db_of (List.map edge_row edges)
let scratch_model edb = Stage_engine.model ~db:(Database.copy edb) ivm_rules

(* Each batch toggles a few edges: present ones are retracted, absent
   ones asserted (net changes, as the session layer hands them over). *)
let gen_batches =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (list_size (int_range 1 3) (pair (int_bound 5) (int_bound 5))))

let qc_ivm =
  QCheck.Test.make ~count:60 ~name:"Ivm.apply sequences equal the from-scratch digest"
    (QCheck.make gen_batches)
    (fun batches ->
      let present = ref [ (0, 1); (1, 2); (2, 3) ] in
      let edb = edb_of !present in
      let ivm = Ivm.create ivm_rules ~edb ~model:(scratch_model edb) in
      List.iter
        (fun batch ->
          let dels, ins = List.partition (fun e -> List.mem e !present) (List.sort_uniq compare batch) in
          present := ins @ List.filter (fun e -> not (List.mem e dels)) !present;
          match
            Ivm.apply ivm ~inserts:(List.map edge_row ins) ~deletes:(List.map edge_row dels)
          with
          | Ivm.Maintained -> ()
          | Ivm.Fallback _ -> QCheck.Test.fail_report "unexpected fallback")
        batches;
      let got = Ivm.model ivm and fresh = scratch_model (edb_of !present) in
      if not (String.equal (Database.digest got) (Database.digest fresh)) then
        QCheck.Test.fail_reportf "incremental\n%s\nscratch\n%s" (render got) (render fresh);
      String.equal (render got) (render fresh))

(* ---------------- maintained digest ---------------- *)

(* [Database.digest] keeps per-relation sums across calls, so a
   durable session's model, whose [Run] records are each logged with a
   digest, is re-hashed only where it changed.  The oracle is the same
   fact set rebuilt into fresh relations, which carry no sums.  The
   program has a recursive (DRed) stratum, non-recursive counting
   strata over strings, terms and a nullary fact, a negation stratum
   that is recomputed, and a choice stratum: a [pref] change reaches
   it, so the next run falls back and evaluates from scratch. *)

let session_src =
  "edge(1, 2). label(2, \"two\"). item(t(1, (a, \"x\"))). pref(1, 5).\n\
   tc(X, Y) <- edge(X, Y).\n\
   tc(X, Z) <- tc(X, Y), edge(Y, Z).\n\
   tag(X, S) <- edge(X, Y), label(Y, S).\n\
   lit(X) <- on, edge(X, Y).\n\
   wrap(t(X, (Y, S))) <- edge(X, Y), label(Y, S).\n\
   held(V) <- item(V), on.\n\
   open(X) <- lit(X), not tc(X, X).\n\
   pick(X, Y) <- pref(X, Y), choice((X), (Y)).\n"

type op =
  | Assert of string
  | Retract of int  (* the k-th live assert, modulo their number *)
  | Run
  | Query of string
  | Fork of int

let print_op = function
  | Assert f -> "assert " ^ f
  | Retract k -> Printf.sprintf "retract #%d" k
  | Run -> "run"
  | Query q -> "query " ^ q
  | Fork k -> Printf.sprintf "fork %d" k

let gen_op =
  QCheck.Gen.(
    let small = int_bound 5 in
    frequency
      [ (4, map2 (fun a b -> Assert (Printf.sprintf "edge(%d, %d)." a b)) small small);
        (1, map2 (fun a k -> Assert (Printf.sprintf "label(%d, \"s%d\")." a k)) small (int_bound 2));
        ( 1,
          map2
            (fun a k ->
              Assert
                (if k = 0 then Printf.sprintf "item((%d, b))." a
                 else Printf.sprintf "item(t(%d, (a, \"x%d\")))." a k))
            small (int_bound 2) );
        (1, return (Assert "on."));
        (1, map2 (fun a b -> Assert (Printf.sprintf "pref(%d, %d)." a b)) (int_bound 2) small);
        (4, map (fun k -> Retract k) (int_bound 20));
        (4, return Run);
        (1, map (fun p -> Query (p ^ "(X, Y)")) (oneofl [ "tc"; "tag" ]));
        (1, map (fun k -> Fork k) (int_bound 20)) ])

let rebuilt db =
  db_of
    (List.concat_map
       (fun p -> List.map (fun row -> (p, row)) (Database.facts_of db p))
       (Database.preds db))

let check_digest what db =
  let maintained = Database.digest db and oracle = Database.digest (rebuilt db) in
  if not (String.equal maintained oracle) then
    QCheck.Test.fail_reportf "%s: maintained %s, rebuilt %s\n%s" what maintained oracle (render db)

(* Two forks of [model] share its sums, then diverge: one gains a row
   and loses one, the other loses a different one. *)
let check_forks model k =
  let f1 = Database.copy model and f2 = Database.copy model in
  ignore (Database.add_fact f1 "tc" [| Value.Int (100 + k); Value.str "fork" |]);
  let drop db nth =
    List.iter
      (fun p ->
        match Database.find db p with
        | Some r when Relation.cardinal r > 0 ->
          let row = List.nth (Relation.to_list r) (nth mod Relation.cardinal r) in
          Database.set_relation db p (Relation.remove r [ row ])
        | _ -> ())
      (Database.preds db)
  in
  drop f1 k;
  drop f2 (k + 1);
  check_digest "fork 1" f1;
  check_digest "fork 2" f2;
  check_digest "forked model" model

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tmp_counter = ref 0

let with_tmpdir f =
  incr tmp_counter;
  let dir = Printf.sprintf "gbcd_digest_%d_%d.data" (Unix.getpid ()) !tmp_counter in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Maintenance scratch bindings ([$ivm_*]).  Semi-naive deltas are id
   ranges of the live relations and bind nothing. *)
let scratch_pred p =
  match String.index_opt p '$' with
  | None -> false
  | Some i ->
    let rest = String.sub p i (String.length p - i) in
    String.starts_with ~prefix:"$ivm_" rest

(* Play [ops] on a durable session, checking the materialized model
   and the fact base after every step; returns the session. *)
let play ops =
  with_tmpdir (fun dir ->
      let dur =
        match Durable.create ~fsync:Wal.Never ~snapshot_every:8 dir with
        | Ok d -> d
        | Error msg -> failwith msg
      in
      let s = Session.create ~durable:dur ~cache:(Program_cache.create ()) ~id:0 () in
      (match Session.load s session_src with Ok _ -> () | Error (_, m) -> failwith m);
      let live = ref [] in
      let limits = Limits.unlimited and telemetry = Telemetry.none in
      let model () = Option.map (fun m -> Ivm.model m.Session.ivm) s.Session.mat in
      List.iter
        (fun op ->
          (match op with
          | Assert fact -> (
            match Session.assert_facts s fact with
            | Ok _ -> live := fact :: !live
            | Error (_, m) -> failwith m)
          | Retract k -> (
            match !live with
            | [] -> ()
            | l ->
              let fact = List.nth l (k mod List.length l) in
              (match Session.retract_facts s fact with Ok _ -> () | Error (_, m) -> failwith m);
              live := List.filteri (fun i _ -> i <> k mod List.length l) l)
          | Run -> (
            match
              Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits ~telemetry
            with
            | Ok (Limits.Complete db) ->
              if List.exists scratch_pred (Database.preds db) then
                QCheck.Test.fail_reportf "%s left in the model"
                  (List.find scratch_pred (Database.preds db))
            | _ -> failwith "run did not complete")
          | Query text -> (
            match
              Session.query s ~engine:Protocol.Staged ~text ~jobs:1 ~limits ~telemetry
            with
            | Ok _ -> ()
            | Error (_, m) -> failwith m)
          | Fork k -> Option.iter (fun m -> check_forks m k) (model ()));
          Option.iter (check_digest ("model after " ^ print_op op)) (model ());
          Option.iter (check_digest ("fact base after " ^ print_op op)) s.Session.db)
        ops;
      Session.discard s;
      s)

let qc_maintained =
  QCheck.Test.make ~count:150 ~name:"maintained digest equals a rebuilt one after every step"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_op))
    (fun ops ->
      ignore (play ops);
      true)

(* One fixed script through every maintenance path the property draws
   from: incremental inserts and DRed retracts, a fallback to a full
   run, and a fork. *)
let test_maintained_paths () =
  let s =
    play
      [ Run; Assert "edge(2, 3)."; Assert "on."; Assert "label(3, \"s\")."; Run;
        Assert "item((4, b))."; Retract 1; Run; Fork 3; Retract 0; Query "tc(X, Y)";
        Assert "pref(2, 3)."; Run; Assert "edge(3, 1)."; Run; Retract 0; Run ]
  in
  let c = s.Session.counters in
  Alcotest.(check bool) "incremental runs" true (c.Session.runs_incremental >= 3);
  Alcotest.(check bool) "fallbacks" true (c.Session.ivm_fallbacks >= 1)

(* ---------------- separation ---------------- *)

let test_separates () =
  let i n = Value.Int n in
  let one pred row = db_of [ (pred, Array.of_list row) ] in
  let cases =
    [ ("p(1)", one "p" [ i 1 ]);
      ("p(a)", one "p" [ Value.sym "a" ]);
      ("p(\"1\")", one "p" [ Value.str "1" ]);
      ("p(\"a\")", one "p" [ Value.str "a" ]);
      ("p(-1)", one "p" [ i (-1) ]);
      ("q(1)", one "q" [ i 1 ]);
      ("p(1, 2)", one "p" [ i 1; i 2 ]);
      ("p(2, 1)", one "p" [ i 2; i 1 ]);
      ("p((1, 2))", one "p" [ Value.Tup [ i 1; i 2 ] ]);
      ("p(t(1, 2))", one "p" [ Value.App ("t", [ i 1; i 2 ]) ]);
      ("p(u(1, 2))", one "p" [ Value.App ("u", [ i 1; i 2 ]) ]);
      ("p(((1), 2))", one "p" [ Value.Tup [ Value.Tup [ i 1 ]; i 2 ] ]);
      ("p((1, (2)))", one "p" [ Value.Tup [ i 1; Value.Tup [ i 2 ] ] ]);
      ("p(())", one "p" [ Value.unit ]);
      ("p(t(t(1)))", one "p" [ Value.App ("t", [ Value.App ("t", [ i 1 ]) ]) ]);
      ("p(t((1)))", one "p" [ Value.App ("t", [ Value.Tup [ i 1 ] ]) ]);
      ("p(ab)", one "p" [ Value.sym "ab" ]);
      ("p(a, b)", one "p" [ Value.sym "a"; Value.sym "b" ]);
      ("p(1). p(2).", db_of [ ("p", [| i 1 |]); ("p", [| i 2 |]) ]);
      ("p(1). p(3).", db_of [ ("p", [| i 1 |]); ("p", [| i 3 |]) ]);
      ("empty", Database.create ()) ]
  in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (name, db) ->
      let d = Database.digest db in
      (match Hashtbl.find_opt seen d with
       | Some other -> Alcotest.failf "%s and %s share digest %s" name other d
       | None -> ());
      Hashtbl.replace seen d name)
    cases;
  (* an empty relation renders nothing, so it digests to nothing *)
  let db = db_of [ ("p", [| i 1 |]) ] in
  ignore (Database.relation db "never_used" 3);
  Alcotest.(check string) "empty relation is invisible"
    (Database.digest (one "p" [ i 1 ])) (Database.digest db)

(* ---------------- golden vector ---------------- *)

let golden_src =
  "edge(a, b, 3). edge(b, c, -7). edge(c, a, 4611686018427387903).\n\
   label(a, \"first \\\"node\\\"\"). label(b, \"\").\n\
   tree(t(l(1), (x, y), ())).\n\
   nullary.\n"

let test_golden () =
  let db = Stage_engine.model (Parser.parse_program golden_src) in
  Alcotest.(check string) "pinned value" "mset1:3d57494eb05790b223ae0b38227918cb"
    (Database.digest db)

let () =
  Alcotest.run "digest"
    [ ( "digest ids",
        (* first: forking needs a process without other domains *)
        [ Alcotest.test_case "unchanged when ids shift" `Quick test_interner_ids ] );
      ( "digest canonical",
        [ QCheck_alcotest.to_alcotest qc_order;
          QCheck_alcotest.to_alcotest qc_agrees_with_rendering ] );
      ("digest ivm", [ QCheck_alcotest.to_alcotest qc_ivm ]);
      ( "digest maintained",
        [ Alcotest.test_case "every maintenance path" `Quick test_maintained_paths;
          QCheck_alcotest.to_alcotest qc_maintained ] );
      ( "digest separation",
        [ Alcotest.test_case "distinct facts, distinct digests" `Quick test_separates;
          Alcotest.test_case "golden vector" `Quick test_golden ] ) ]
