(* Incremental view maintenance: byte-identity against from-scratch.

   The contract under test (ISSUE PR 6): a session that asserts and
   retracts facts against a materialized model must render exactly the
   bytes a fresh session evaluating the final fact base from scratch
   renders — whether the maintenance path was a semi-naive delta step,
   counting deletion, DRed, a non-monotone recompute, or a
   choice-stratum fallback to full re-evaluation.

   - every exemplar program, both engines: assert a probe fact, run,
     compare against a fresh session; retract it, run, compare against
     the pristine model;
   - retract leaves no stale derived state behind (chosen$i included);
   - QCheck: random interleavings of asserts/retracts/runs over a
     recursive + negation program equal from-scratch evaluation of the
     final EDB, for both engines and jobs 1 and 2;
   - the assert multiset and its counters stay consistent, and refused
     retractions mutate nothing. *)

open Gbc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let exemplars =
  [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl";
    "matching.dl"; "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl";
    "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]

let source name = read_file ("../programs/" ^ name)
let cache = Program_cache.create ()

let mk_session src =
  let s = Session.create ~cache ~id:0 () in
  match Session.load s src with
  | Ok (entry, _) -> (s, entry)
  | Error (_, msg) -> Alcotest.failf "load: %s" msg

let run_bytes ?seed ?(jobs = 1) ?preds ~engine s =
  match
    Session.run s ~engine ~seed ~jobs ~limits:Limits.unlimited ~telemetry:Telemetry.none
  with
  | Ok (Limits.Complete db) -> Session.render_model ?preds db
  | Ok (Limits.Partial _) -> Alcotest.fail "unexpected partial model"
  | Error (_, msg) -> Alcotest.failf "run: %s" msg

let fact_text pred row =
  Printf.sprintf "%s(%s)." pred
    (String.concat ", " (List.map Value.to_string (Array.to_list row)))

let expect_assert s text =
  match Session.assert_facts s text with
  | Ok n -> n
  | Error (_, msg) -> Alcotest.failf "assert: %s" msg

let expect_retract s text =
  match Session.retract_facts s text with
  | Ok n -> n
  | Error (_, msg) -> Alcotest.failf "retract: %s" msg

(* A probe fact shaped like the program's own EDB but absent from it:
   first base row whose values are all ints/symbols, ints shifted by a
   large prime, symbols replaced by a fresh one. *)
let probe_of_base base =
  let rec pick = function
    | [] -> None
    | p :: rest -> (
      match Database.facts_of base p with
      | row :: _
        when Array.for_all
               (function Value.Int _ | Value.Sym _ -> true | _ -> false)
               row ->
        let row' =
          Array.map
            (function
              | Value.Int n -> Value.Int (n + 7919)
              | Value.Sym _ -> Value.sym "zzivmprobe"
              | v -> v)
            row
        in
        Some (p, row')
      | _ -> pick rest)
  in
  pick (Database.preds base)

let engines = [ ("staged", Protocol.Staged, None); ("reference", Protocol.Reference, Some 42) ]

(* ---------------- exemplar sweep ---------------- *)

let test_exemplar_identity () =
  List.iter
    (fun name ->
      let src = source name in
      List.iter
        (fun (ename, engine, seed) ->
          let s, entry = mk_session src in
          match probe_of_base entry.Program_cache.base with
          | None -> Alcotest.failf "%s: no probe-able base fact" name
          | Some (pred, row) ->
            let probe = fact_text pred row in
            let pristine = run_bytes ~engine ?seed s in
            ignore (expect_assert s probe);
            let incr_bytes = run_bytes ~engine ?seed s in
            (* fresh session, same final fact base, from scratch *)
            let fresh, _ = mk_session src in
            ignore (expect_assert fresh probe);
            let scratch_bytes = run_bytes ~engine ?seed fresh in
            Alcotest.(check string)
              (Printf.sprintf "%s/%s: assert matches from-scratch" name ename)
              scratch_bytes incr_bytes;
            let c = s.Session.counters in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: second run was incremental or a counted fallback"
                 name ename)
              true
              (c.Session.runs_incremental + c.Session.ivm_fallbacks >= 1);
            (* retract the probe: byte-identical to the pristine model *)
            ignore (expect_retract s probe);
            let back = run_bytes ~engine ?seed s in
            Alcotest.(check string)
              (Printf.sprintf "%s/%s: retract restores the pristine model" name ename)
              pristine back)
        engines)
    exemplars

(* ---------------- stale derived state after retract ---------------- *)

let choice_src =
  "assign(X, Y) <- task(X), worker(Y), choice((X), (Y)).\n\
   busy(Y) <- assign(X, Y).\n\
   task(1). task(2).\n\
   worker(10). worker(20).\n"

let tc_src =
  "tc(X, Y) <- edge(X, Y).\n\
   tc(X, Z) <- tc(X, Y), edge(Y, Z).\n\
   edge(1, 2). edge(2, 3). edge(3, 4).\n"

let test_no_stale_state () =
  List.iter
    (fun (ename, engine, seed) ->
      List.iter
        (fun (pname, src, probe) ->
          let s, _ = mk_session src in
          let pristine = run_bytes ~engine ?seed s in
          ignore (expect_assert s probe);
          ignore (run_bytes ~engine ?seed s);
          ignore (expect_retract s probe);
          let back = run_bytes ~engine ?seed s in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: no stale derived facts survive retract" pname ename)
            pristine back;
          (* and the model equals a session that never asserted at all *)
          let never, _ = mk_session src in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: equals a never-asserted session" pname ename)
            (run_bytes ~engine ?seed never) back)
        [ ("choice", choice_src, "task(3)."); ("tc", tc_src, "edge(4, 5).") ])
    engines

(* Rendering chosen predicates is canonical too: tc facts derived by an
   incremental step list where a from-scratch run lists them. *)
let test_preds_rendering_canonical () =
  let src = source "transitive_closure.dl" in
  List.iter
    (fun (ename, engine, seed) ->
      let s, _ = mk_session src in
      ignore (run_bytes ~engine ?seed s);
      ignore (expect_assert s "e(0, 1).");
      let maintained = run_bytes ~engine ?seed ~preds:[ "tc" ] s in
      let fresh, _ = mk_session src in
      ignore (expect_assert fresh "e(0, 1).");
      Alcotest.(check string)
        (ename ^ ": --print tc equals a fresh session's")
        (run_bytes ~engine ?seed ~preds:[ "tc" ] fresh)
        maintained)
    engines

(* On a recursive monotone program nothing can reach a choice stratum,
   so assert and retract must both be served by actual maintenance —
   the delta step on insert, DRed on delete — with zero fallbacks. *)
let test_genuinely_incremental () =
  let s, _ = mk_session tc_src in
  ignore (run_bytes ~engine:Protocol.Staged s);
  ignore (expect_assert s "edge(4, 5).");
  ignore (run_bytes ~engine:Protocol.Staged s);
  ignore (expect_retract s "edge(4, 5).");
  ignore (run_bytes ~engine:Protocol.Staged s);
  let c = s.Session.counters in
  Alcotest.(check int) "one full evaluation (the materializing run)" 1 c.Session.runs_full;
  Alcotest.(check int) "two incremental runs" 2 c.Session.runs_incremental;
  Alcotest.(check int) "no fallbacks" 0 c.Session.ivm_fallbacks;
  match s.Session.mat with
  | None -> Alcotest.fail "materialization must survive maintenance"
  | Some m ->
    let st = Ivm.stats m.Session.ivm in
    Alcotest.(check bool) "insert rode the delta step" true (st.Ivm.strata_stepped >= 1);
    Alcotest.(check bool) "retract went through DRed" true (st.Ivm.dred_overdeleted >= 1)

(* ---------------- multiset + counter consistency ---------------- *)

let test_multiset_counters () =
  let s, _ = mk_session tc_src in
  Alcotest.(check int) "batch of two new rows" 2 (expect_assert s "edge(7, 8). edge(8, 9).");
  Alcotest.(check int) "re-assert adds no row" 0 (expect_assert s "edge(7, 8).");
  let c = s.Session.counters in
  Alcotest.(check int) "three occurrences recorded" 3 c.Session.facts_asserted;
  (* a batch that over-retracts is refused atomically *)
  (match Session.retract_facts s "edge(8, 9). edge(8, 9)." with
  | Error (Protocol.Not_retractable, _) -> ()
  | _ -> Alcotest.fail "over-retract must be refused");
  (* a batch naming a program-owned fact is refused too *)
  (match Session.retract_facts s "edge(1, 2)." with
  | Error (Protocol.Not_retractable, _) -> ()
  | _ -> Alcotest.fail "program-owned fact must not be retractable");
  Alcotest.(check int) "refused retracts count nothing" 0 c.Session.facts_retracted;
  Alcotest.(check int) "refused retracts mutate nothing" 3 c.Session.facts_asserted;
  (* one occurrence down: the row stays visible *)
  Alcotest.(check int) "retract one occurrence" 1 (expect_retract s "edge(7, 8).");
  let m1 = run_bytes ~engine:Protocol.Staged s in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "doubly-asserted row survives one retract" true
    (contains m1 "edge(7, 8)");
  Alcotest.(check int) "second retract removes it" 1 (expect_retract s "edge(7, 8).");
  let m2 = run_bytes ~engine:Protocol.Staged s in
  Alcotest.(check bool) "row gone after final retract" false (contains m2 "edge(7, 8)");
  Alcotest.(check int) "retracted occurrences tallied" 2 c.Session.facts_retracted

(* ---------------- random interleavings (QCheck) ---------------- *)

let qc_src =
  "tc(X, Y) <- edge(X, Y).\n\
   tc(X, Z) <- tc(X, Y), edge(Y, Z).\n\
   node(X) <- edge(X, Y).\n\
   node(Y) <- edge(X, Y).\n\
   unreach(X, Y) <- node(X), node(Y), not tc(X, Y).\n\
   edge(0, 1). edge(1, 2).\n"

let base_edges = [ (0, 1); (1, 2) ]

type op = Assert of int * int | Retract of int * int | Run

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (map3
         (fun k a b ->
           match k mod 5 with
           | 0 | 1 -> Assert (a, b)
           | 2 | 3 -> Retract (a, b)
           | _ -> Run)
         (int_range 0 4) (int_range 0 4) (int_range 0 4)))

let edge_text a b = Printf.sprintf "edge(%d, %d)." a b

let replay ?(src = qc_src) ?(fact = edge_text) ~engine ~seed ~jobs ops =
  let s, _ = mk_session src in
  let counts = Hashtbl.create 16 in
  let count k = try Hashtbl.find counts k with Not_found -> 0 in
  List.iter
    (fun op ->
      match op with
      | Assert (a, b) ->
        ignore (expect_assert s (fact a b));
        Hashtbl.replace counts (a, b) (count (a, b) + 1)
      | Retract (a, b) -> (
        let valid = count (a, b) > 0 in
        match Session.retract_facts s (fact a b) with
        | Ok 1 when valid -> Hashtbl.replace counts (a, b) (count (a, b) - 1)
        | Ok n -> QCheck.Test.fail_reportf "retract: unexpected Ok %d (valid=%b)" n valid
        | Error (Protocol.Not_retractable, _) when not valid -> ()
        | Error (_, msg) -> QCheck.Test.fail_reportf "retract: %s (valid=%b)" msg valid)
      | Run -> ignore (run_bytes ~engine ?seed ~jobs s))
    ops;
  let final = run_bytes ~engine ?seed ~jobs s in
  (* a fresh session fed only the surviving occurrences, from scratch *)
  let fresh, _ = mk_session src in
  Hashtbl.iter
    (fun (a, b) n ->
      for _ = 1 to n do
        ignore (expect_assert fresh (fact a b))
      done)
    counts;
  let scratch = run_bytes ~engine ?seed ~jobs fresh in
  if not (String.equal final scratch) then
    QCheck.Test.fail_reportf
      "interleaving diverged from from-scratch (engine=%s jobs=%d)\n-- incremental --\n%s\n-- scratch --\n%s"
      (match engine with Protocol.Staged -> "staged" | Protocol.Reference -> "reference")
      jobs final scratch;
  true

let qc_interleavings =
  QCheck.Test.make ~count:25 ~name:"interleavings equal from-scratch (both engines, jobs 1/2)"
    (QCheck.make gen_ops)
    (fun ops ->
      replay ~engine:Protocol.Staged ~seed:None ~jobs:1 ops
      && replay ~engine:Protocol.Staged ~seed:None ~jobs:2 ops
      && replay ~engine:Protocol.Reference ~seed:(Some 7) ~jobs:1 ops)

(* The same over a two-predicate recursive clique feeding a counting
   stratum, with asserts and retracts of two EDB predicates batched
   into one apply: a clique predicate may lose rows, gain rows, or
   both, in one DRed delete plus insertion step. *)
let clique_src =
  "p(X, Y) <- e(X, Y).\n\
   p(X, Y) <- q(X, Z), e(Z, Y).\n\
   q(X, Y) <- p(X, Y), g(Y).\n\
   r(X, Z) <- p(X, Y), q(Y, Z).\n\
   e(0, 1). g(1).\n"

let clique_fact a b = if a = b then Printf.sprintf "g(%d)." a else Printf.sprintf "e(%d, %d)." a b

let qc_clique_interleavings =
  QCheck.Test.make ~count:25 ~name:"clique interleavings equal from-scratch (both engines)"
    (QCheck.make gen_ops)
    (fun ops ->
      let replay = replay ~src:clique_src ~fact:clique_fact in
      replay ~engine:Protocol.Staged ~seed:None ~jobs:1 ops
      && replay ~engine:Protocol.Reference ~seed:(Some 7) ~jobs:1 ops)

(* base edges are owned by the program, so a generated retract of one
   that was never re-asserted must be refused — make sure the
   generator actually produces that collision at least once. *)
let test_base_edge_refused () =
  let s, _ = mk_session qc_src in
  List.iter
    (fun (a, b) ->
      match Session.retract_facts s (edge_text a b) with
      | Error (Protocol.Not_retractable, _) -> ()
      | _ -> Alcotest.failf "retract of program edge(%d, %d) must be refused" a b)
    base_edges

(* ---------------- DRed regressions ---------------- *)

let ivm_stats s =
  match s.Session.mat with
  | Some m -> Ivm.stats m.Session.ivm
  | None -> Alcotest.fail "materialization must survive maintenance"

let tc_rules = "tc(X, Y) <- edge(X, Y).\ntc(X, Z) <- tc(X, Y), edge(Y, Z).\n"

let edges l = String.concat " " (List.map (fun (a, b) -> edge_text a b) l)

(* [run_bytes] of a fresh session given [src] plus the asserted [facts]. *)
let fresh_bytes ?seed ~engine src facts =
  let s, _ = mk_session src in
  if facts <> "" then ignore (expect_assert s facts);
  run_bytes ~engine ?seed s

let check_no_fallback name s =
  Alcotest.(check int) (name ^ ": no fallbacks") 0 s.Session.counters.Session.ivm_fallbacks

(* (a) The middle edge of a 128-node chain: 64^2 tc facts over-deleted
   through 64 rounds, none re-derivable.  The retract must cost its
   delta — one removal pass, not one rebuild per round — so the minor
   words of retract + maintained run stay within a small multiple of
   (model facts + over-deleted rows): over-deleted rows are ids and
   their copies cells, so this allocates 0.91 words per unit, and the
   budget is 1.5 times that. *)
let test_dred_chain_budget () =
  let n = 128 in
  let mid = n / 2 in
  let src =
    tc_rules
    ^ edges (List.filter (fun (a, _) -> a <> mid) (List.init (n - 1) (fun i -> (i + 1, i + 2))))
  in
  let mid_edge = edge_text mid (mid + 1) in
  let s, _ = mk_session src in
  ignore (expect_assert s mid_edge);
  let model_facts = ((n * (n - 1)) / 2) + (n - 1) in
  ignore (run_bytes ~engine:Protocol.Staged s);
  let w0 = Gc.minor_words () in
  ignore (expect_retract s mid_edge);
  let db =
    match
      Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits:Limits.unlimited
        ~telemetry:Telemetry.none
    with
    | Ok (Limits.Complete db) -> db
    | _ -> Alcotest.fail "maintained run did not complete"
  in
  let words = Gc.minor_words () -. w0 in
  check_no_fallback "chain" s;
  let st = ivm_stats s in
  Alcotest.(check int) "every tc(X <= mid, Y > mid) over-deleted" (mid * (n - mid))
    st.Ivm.dred_overdeleted;
  Alcotest.(check int) "nothing re-derived" 0 st.Ivm.dred_rederived;
  Alcotest.(check int) "each over-deleted row checked once" st.Ivm.dred_overdeleted
    st.Ivm.dred_checked;
  Alcotest.(check int) "an over-delete round per column tc(_, Y > mid), then the empty one"
    (n - mid + 1) st.Ivm.dred_rounds;
  Alcotest.(check string) "byte-identical to a fresh session"
    (fresh_bytes ~engine:Protocol.Staged src "")
    (Session.render_model db);
  let budget = 1.35 *. float_of_int (model_facts + st.Ivm.dred_overdeleted) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f within budget %.0f" words budget)
    true (words <= budget)

(* (b) Over-deleted rows that come back: a chord bypasses the retracted
   edge (tc(1, 4) and tc(1, 5) return through edge(2, 4), the latter
   only in a later re-derive round), and on a cycle everything reachable
   is over-deleted and most of it returns. *)
let test_dred_rederive () =
  List.iter
    (fun (name, program_edges, asserted, retracted) ->
      let src = tc_rules ^ edges program_edges in
      List.iter
        (fun (ename, engine, seed) ->
          let s, _ = mk_session src in
          ignore (expect_assert s (edges asserted));
          ignore (run_bytes ~engine ?seed s);
          ignore (expect_retract s (edges retracted));
          let got = run_bytes ~engine ?seed s in
          let left = List.filter (fun e -> not (List.mem e retracted)) asserted in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: byte-identical to a fresh session" name ename)
            (fresh_bytes ~engine ?seed src (edges left))
            got;
          check_no_fallback name s;
          let st = ivm_stats s in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: some over-deleted rows re-derived (%d of %d)" name ename
               st.Ivm.dred_rederived st.Ivm.dred_overdeleted)
            true
            (st.Ivm.dred_rederived >= 1 && st.Ivm.dred_rederived < st.Ivm.dred_overdeleted))
        engines)
    [ ("chord", [ (1, 2); (3, 4); (4, 5); (2, 4) ], [ (2, 3) ], [ (2, 3) ]);
      ("cycle", [ (1, 2); (3, 4); (4, 1); (4, 5) ], [ (2, 3); (1, 3) ], [ (2, 3) ]) ]

(* (c) One apply that both retracts and asserts, on the two-predicate
   clique {p, q}: retracting e(1, 2) costs p one row and q none, while
   the asserted e(2, 4) adds p(2, 4) and q(2, 4).  The counting
   stratum r already holds a support table (built by the earlier
   retract of e(5, 6)), so it decrements through variants that join
   p's deleted rows with q's pre state: had that state included the
   new q(2, 4), r(1, 4) would lose a derivation it never had and
   vanish. *)
let test_dred_mixed_batch () =
  let src =
    "p(X, Y) <- e(X, Y).\n\
     p(X, Y) <- q(X, Z), e(Z, Y).\n\
     q(X, Y) <- p(X, Y), g(Y).\n\
     r(X, Z) <- p(X, Y), q(Y, Z).\n\
     e(1, 3). e(3, 4). g(4).\n"
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (ename, engine, seed) ->
      let s, _ = mk_session src in
      ignore (expect_assert s "e(1, 2). e(5, 6).");
      ignore (run_bytes ~engine ?seed s);
      ignore (expect_retract s "e(5, 6).");
      let before = run_bytes ~engine ?seed s in
      ignore (expect_assert s "e(2, 4).");
      ignore (expect_retract s "e(1, 2).");
      let got = run_bytes ~engine ?seed s in
      Alcotest.(check string)
        (ename ^ ": mixed batch byte-identical to a fresh session")
        (fresh_bytes ~engine ?seed src "e(2, 4).")
        got;
      check_no_fallback "mixed" s;
      Alcotest.(check int) (ename ^ ": p(5, 6), then p(1, 2) over-deleted") 2
        (ivm_stats s).Ivm.dred_overdeleted;
      List.iter
        (fun (what, row, was, is) ->
          Alcotest.(check (pair bool bool)) (ename ^ ": " ^ what) (was, is)
            (contains before row, contains got row))
        [ ("q grew", "q(2, 4).", false, true); ("q kept its rows", "q(3, 4).", true, true);
          ("p lost p(1, 2)", "p(1, 2).", true, false); ("r(1, 4) survives", "r(1, 4).", true, true) ])
    engines

(* (d) Strata below a DRed clique read its pre and mid states: a
   counting stratum joining tc with itself (its decrement variants
   read tc$ivm_del, tc$ivm_mid and tc$ivm_pre once its support table
   exists, i.e. from the second retract on) and a non-monotone
   stratum recomputed from the repaired tc. *)
let test_dred_downstream () =
  let src =
    tc_rules
    ^ "two(X, Z) <- tc(X, Y), tc(Y, Z).\n\
       node(X) <- edge(X, Y).\n\
       node(Y) <- edge(X, Y).\n\
       unreach(X, Y) <- node(X), node(Y), not tc(X, Y).\n"
    ^ edges [ (1, 2); (3, 4); (5, 6); (2, 4) ]
  in
  List.iter
    (fun (ename, engine, seed) ->
      let s, _ = mk_session src in
      ignore (expect_assert s (edges [ (2, 3); (4, 5); (6, 1) ]));
      ignore (run_bytes ~engine ?seed s);
      List.iter
        (fun (retract, left) ->
          ignore (expect_retract s (edges [ retract ]));
          Alcotest.(check string)
            (Printf.sprintf "%s: after retracting edge%s, byte-identical to a fresh session" ename
               (let a, b = retract in Printf.sprintf "(%d, %d)" a b))
            (fresh_bytes ~engine ?seed src (edges left))
            (run_bytes ~engine ?seed s))
        [ ((6, 1), [ (2, 3); (4, 5) ]); ((2, 3), [ (4, 5) ]); ((4, 5), []) ];
      check_no_fallback "downstream" s;
      Alcotest.(check bool) (ename ^ ": DRed ran") true ((ivm_stats s).Ivm.dred_overdeleted > 0))
    engines

(* (e) serve_update's program: retract, re-assert and retract the
   same edge, with a run after every step and all inside one pending
   batch.  A removed row stays in its relation's store, dead: the
   re-asserted reach rows come back under new ids while the handle the
   removal replaced is still read as the pre state, and the dead rows
   pile up past the compaction threshold.  Throughout, the model must
   render and digest as a from-scratch run of the same facts does. *)
let reach_src =
  "reach(X, Y) <- e(X, Y).\n\
   reach(X, Y) <- e(X, Z), reach(Z, Y).\n\
   e(1, 2). e(2, 3). e(3, 4). e(1, 3). e(5, 6). e(6, 7). e(7, 8). e(6, 8).\n"

let test_retract_reassert () =
  let bridge = "e(4, 5)." in
  List.iter
    (fun (ename, engine, seed) ->
      let model s =
        match
          Session.run s ~engine ~seed ~jobs:1 ~limits:Limits.unlimited ~telemetry:Telemetry.none
        with
        | Ok (Limits.Complete db) -> db
        | _ -> Alcotest.fail "run did not complete"
      in
      let check what s facts =
        let db = model s in
        let fresh, _ = mk_session reach_src in
        if facts <> "" then ignore (expect_assert fresh facts);
        let scratch = model fresh in
        let what = ename ^ ": " ^ what in
        Alcotest.(check string) (what ^ ", rendering") (Session.render_model scratch)
          (Session.render_model db);
        Alcotest.(check string) (what ^ ", digest") (Database.digest scratch) (Database.digest db)
      in
      let s, _ = mk_session reach_src in
      ignore (expect_assert s bridge);
      check "asserted" s bridge;
      for k = 1 to 6 do
        ignore (expect_retract s bridge);
        check (Printf.sprintf "retract %d" k) s "";
        ignore (expect_assert s bridge);
        check (Printf.sprintf "re-assert %d" k) s bridge
      done;
      ignore (expect_retract s bridge);
      check "last retract" s "";
      check_no_fallback ename s;
      Alcotest.(check bool) (ename ^ ": DRed ran") true ((ivm_stats s).Ivm.dred_overdeleted > 0);
      let b, _ = mk_session reach_src in
      ignore (expect_assert b bridge);
      check "batch materialized" b bridge;
      ignore (expect_retract b bridge);
      ignore (expect_assert b bridge);
      ignore (expect_assert b "e(8, 9).");
      ignore (expect_retract b bridge);
      check "retract, re-assert, retract in one batch" b "e(8, 9).";
      ignore (expect_assert b bridge);
      ignore (expect_retract b bridge);
      ignore (expect_assert b bridge);
      check "re-assert, retract, re-assert in one batch" b ("e(8, 9). " ^ bridge);
      check_no_fallback (ename ^ " batch") b)
    engines

(* (f) Semi-naive deltas are id ranges of the live relations: after a
   batch whose retract compacts [e] and [reach] (ids renumbered), the
   insert phase of the same batch, and the next batch's, must read
   their ranges on the compacted stores. *)
let test_range_after_compaction () =
  List.iter
    (fun (ename, engine, seed) ->
      let model s =
        match
          Session.run s ~engine ~seed ~jobs:1 ~limits:Limits.unlimited ~telemetry:Telemetry.none
        with
        | Ok (Limits.Complete db) -> db
        | _ -> Alcotest.fail "run did not complete"
      in
      let facts = ref "" in
      let check what s =
        let db = model s in
        let fresh, _ = mk_session reach_src in
        if !facts <> "" then ignore (expect_assert fresh !facts);
        let scratch = model fresh in
        let what = ename ^ ": " ^ what in
        Alcotest.(check string) (what ^ ", rendering") (Session.render_model scratch)
          (Session.render_model db);
        Alcotest.(check string) (what ^ ", digest") (Database.digest scratch) (Database.digest db);
        db
      in
      let s, _ = mk_session reach_src in
      facts := "e(4, 5). e(8, 9).";
      ignore (expect_assert s !facts);
      ignore (check "asserted" s);
      ignore (expect_retract s "e(4, 5). e(8, 9).");
      facts := "e(4, 6). e(8, 1).";
      ignore (expect_assert s !facts);
      let db = check "retract and assert in one batch" s in
      List.iter
        (fun p ->
          let r = Option.get (Database.find db p) in
          Alcotest.(check bool) (ename ^ ": " ^ p ^ " compacted") true
            (Relation.id_bound r = Relation.cardinal r))
        [ "e"; "reach" ];
      ignore (expect_assert s "e(8, 9). e(9, 10).");
      facts := !facts ^ " e(8, 9). e(9, 10).";
      ignore (check "the next batch's step" s);
      check_no_fallback ename s;
      Alcotest.(check bool) (ename ^ ": DRed ran") true ((ivm_stats s).Ivm.dred_overdeleted > 0))
    engines

(* ---------------- DRed on random graphs (QCheck) ---------------- *)

(* One [Ivm.apply] straight on a materialized model: a random graph of
   6-12 nodes (a ring, so every node is on a cycle, plus chords) loses
   1-4 of its edges and gains 0-3 new ones in the same batch.  The
   model must render as a from-scratch run of the final edges, and
   DRed's counts must add up: every over-deleted row is either
   re-derived or removed, where the rows removed are the apply's net
   deletions less the retracted edges themselves. *)
type dred_case = { nodes : int; edges : (int * int) list; gone : (int * int) list; added : (int * int) list }

let gen_dred_case =
  QCheck.Gen.(
    int_range 6 12 >>= fun n ->
    list_size (int_range 0 n) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun chords ->
    let edges = List.sort_uniq compare (List.init n (fun i -> (i, (i + 1) mod n)) @ chords) in
    shuffle_l edges >>= fun shuffled ->
    int_range 1 4 >>= fun k ->
    list_size (int_range 0 3) (pair (int_bound (n - 1)) (int_bound (n - 1))) >|= fun fresh ->
    { nodes = n; edges;
      gone = List.filteri (fun i _ -> i < k) shuffled;
      added = List.sort_uniq compare (List.filter (fun e -> not (List.mem e edges)) fresh) })

let print_dred_case c =
  let show l = String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) l) in
  Printf.sprintf "nodes %d\nedges %s\nretract %s\nassert %s" c.nodes (show c.edges) (show c.gone)
    (show c.added)

(* [rules] over the edge predicate [e]; [extra] adds the facts the
   program needs beside the edges. *)
let dred_random ~rules ~e ~extra c =
  let program = Parser.parse_program rules in
  let edb_of edges =
    let db = Database.create () in
    List.iter (fun (a, b) -> ignore (Database.add_fact db e [| Value.Int a; Value.Int b |])) edges;
    List.iter (fun (p, row) -> ignore (Database.add_fact db p row)) (extra c);
    db
  in
  let scratch edb = Stage_engine.model ~db:(Database.copy edb) program in
  let edb = edb_of c.edges in
  let ivm = Ivm.create program ~edb ~model:(scratch edb) in
  let st = Ivm.stats ivm in
  let row (a, b) = (e, [| Value.Int a; Value.Int b |]) in
  (match Ivm.apply ivm ~inserts:(List.map row c.added) ~deletes:(List.map row c.gone) with
  | Ivm.Maintained -> ()
  | Ivm.Fallback msg -> QCheck.Test.fail_reportf "fallback: %s" msg);
  let final = List.filter (fun x -> not (List.mem x c.gone)) c.edges @ c.added in
  let got = Database.render (Ivm.model ivm) and want = Database.render (scratch (edb_of final)) in
  if not (String.equal got want) then
    QCheck.Test.fail_reportf "maintained\n%s\nfrom scratch\n%s" got want;
  let removed = st.Ivm.rows_deleted - List.length c.gone in
  if st.Ivm.dred_rederived + removed <> st.Ivm.dred_overdeleted then
    QCheck.Test.fail_reportf "re-derived %d + removed %d <> over-deleted %d" st.Ivm.dred_rederived
      removed st.Ivm.dred_overdeleted;
  if st.Ivm.dred_checked < st.Ivm.dred_overdeleted then
    QCheck.Test.fail_reportf "checked %d of %d over-deleted rows" st.Ivm.dred_checked
      st.Ivm.dred_overdeleted;
  true

let qc_dred_random =
  QCheck.Test.make ~count:200 ~name:"DRed on random graphs equals from-scratch (tc, p/q clique)"
    (QCheck.make ~print:print_dred_case gen_dred_case)
    (fun c ->
      dred_random ~rules:tc_rules ~e:"edge" ~extra:(fun _ -> []) c
      && dred_random
           ~rules:"p(X, Y) <- e(X, Y).\np(X, Y) <- q(X, Z), e(Z, Y).\nq(X, Y) <- p(X, Y), g(Y).\n"
           ~e:"e"
           ~extra:(fun c -> List.filter_map (fun v -> if v mod 3 <> 2 then Some ("g", [| Value.Int v |]) else None)
                              (List.init c.nodes Fun.id))
           c)

let () =
  Alcotest.run "ivm"
    [ ( "byte-identity",
        [ Alcotest.test_case "13 exemplars, assert+retract, both engines" `Slow
            test_exemplar_identity ] );
      ( "retract hygiene",
        [ Alcotest.test_case "no stale derived state" `Quick test_no_stale_state;
          Alcotest.test_case "program-owned facts refused" `Quick test_base_edge_refused;
          Alcotest.test_case "chosen predicates render canonically" `Quick
            test_preds_rendering_canonical ] );
      ( "multiset",
        [ Alcotest.test_case "occurrences and counters" `Quick test_multiset_counters ] );
      ( "maintenance path",
        [ Alcotest.test_case "monotone changes never fall back" `Quick
            test_genuinely_incremental ] );
      ( "dred",
        [ Alcotest.test_case "mid-chain retract costs its delta" `Quick test_dred_chain_budget;
          Alcotest.test_case "over-deleted rows re-derived (chord, cycle)" `Quick
            test_dred_rederive;
          Alcotest.test_case "mixed batch, a clique predicate losing nothing" `Quick
            test_dred_mixed_batch;
          Alcotest.test_case "downstream counting and recompute" `Quick test_dred_downstream;
          Alcotest.test_case "retract, re-assert, retract (reach)" `Quick test_retract_reassert;
          Alcotest.test_case "delta ranges after a compaction (reach)" `Quick
            test_range_after_compaction ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest qc_interleavings;
          QCheck_alcotest.to_alcotest qc_clique_interleavings;
          QCheck_alcotest.to_alcotest qc_dred_random ] ) ]
