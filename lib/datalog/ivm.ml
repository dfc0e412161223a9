(* Incremental view maintenance over a materialized model.

   A session that has run its program to a complete model holds the
   fixpoint of the rules over its fact base.  When the client then
   asserts or retracts a handful of EDB facts, re-running the whole
   fixpoint charges the entire database for a one-row change; this
   module instead repairs the materialized model in place, stratum by
   stratum in topological order:

   - {e insertions} ride the existing semi-naive machinery: every
     stratum keeps its [Seminaive] watermarks at the rows its output
     already accounts for ([?marks]), so a step publishes only the
     newly asserted rows (and whatever lower strata just derived) as
     deltas and fires only the delta variants;

   - {e deletions} in a non-recursive stratum use counting: a support
     count per derived fact (EDB presence counts one, every derivation
     counts one), decremented by the "lost derivation" joins over the
     deleted rows, with a fact disappearing exactly when its support
     reaches zero;

   - {e deletions} in a recursive stratum use DRed (delete and
     re-derive): over-delete everything reachable from the deleted
     rows through the clique's rules, then restore the rows that are
     still EDB-backed or re-derivable from what survived;

   - a deletion costs the rows it touches: DRed's fixpoint marks rows
     instead of removing them round by round, then one [Relation.remove]
     per relation that loses rows marks them dead in place, so no
     survivor is copied and no index rebuilt.  The handle a removal
     replaces is kept as the pre state the deletion joins read, and a
     relation that only gained rows is read below its old id bound
     ([Relation.prefix]) — no snapshot is copied;

   - a stratum with negation, extrema or aggregates is {e recomputed}
     from its (updated) inputs with the same [Seminaive.eval_clique]
     the engines use, and its output diff keeps propagating;

   - a change that can reach a {e choice} stratum falls back: the
     caller discards the materialization and re-runs the engine, so
     nondeterministic strata are never "repaired" into a model no
     engine run could have produced.  The fallback is counted.

   Throughout, correctness is judged against from-scratch evaluation
   of the final fact base: after a [Maintained] apply the model is
   fact-for-fact identical to what the engine would produce (the
   canonical sorted rendering is byte-identical; per-relation insertion
   order may differ, e.g. a DRed-restored row re-enters at the end). *)

open Ast

let del_suffix = "$ivm_del"
let pre_suffix = "$ivm_pre"
let mid_suffix = "$ivm_mid"
let fr_suffix = "$ivm_fr"

type kind = Monotone | Nonmonotone | Choice

type stratum = {
  s_preds : string list;
  s_rules : Ast.rule list;
  s_kind : kind;
  s_recursive : bool;
  s_reads : string list;  (* every body predicate, deduplicated *)
  (* Support counts for the counting deletion path (non-recursive
     monotone strata only).  [None] = not initialized or invalidated;
     rebuilt lazily by the next deletion that reaches the stratum. *)
  mutable s_supports : int Relation.Row_tbl.t option;
}

type stats = {
  mutable applies : int;  (* maintained applies *)
  mutable fallbacks : int;  (* applies refused (choice stratum reachable) *)
  mutable rows_inserted : int;  (* net rows added to the model *)
  mutable rows_deleted : int;  (* net rows removed from the model *)
  mutable strata_stepped : int;  (* delta-maintained stratum visits *)
  mutable strata_recomputed : int;  (* non-monotone recomputations *)
  mutable dred_overdeleted : int;
  mutable dred_rederived : int;
}

type t = {
  strata : stratum array;
  idb : (string, unit) Hashtbl.t;
  edb : Database.t;  (* the fact base the model is the fixpoint of *)
  model : Database.t;
  stats : stats;
}

type outcome = Maintained | Fallback of string

exception Fall of string

let model t = t.model
let stats t = t.stats

let create program ~edb ~model =
  let rules = List.filter (fun r -> not (Ast.is_fact r)) program in
  let dg = Depgraph.make rules in
  let idb = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace idb p ()) (Depgraph.idb dg);
  let strata =
    List.map
      (fun clique ->
        let srules = Depgraph.rules_of_clique dg clique in
        let kind =
          if List.exists (fun r -> Ast.has_choice r || Ast.has_next r) srules then Choice
          else if
            List.exists
              (fun r ->
                Ast.has_extrema r || Ast.has_agg r
                || List.exists (function Neg _ -> true | _ -> false) r.body)
              srules
          then Nonmonotone
          else Monotone
        in
        { s_preds = clique;
          s_rules = srules;
          s_kind = kind;
          s_recursive = Depgraph.is_recursive dg clique;
          s_reads = List.sort_uniq String.compare (List.concat_map Ast.body_preds srules);
          s_supports = None })
      (Depgraph.cliques dg)
  in
  { strata = Array.of_list strata;
    idb;
    edb = Database.copy edb;
    model;
    stats =
      { applies = 0; fallbacks = 0; rows_inserted = 0; rows_deleted = 0;
        strata_stepped = 0; strata_recomputed = 0; dred_overdeleted = 0;
        dred_rederived = 0 } }

(* Conservative predicate-level reachability: would a change to any of
   [preds] (transitively) affect a choice stratum?  Checked before the
   model is touched, so a refused apply leaves the materialization
   intact and the caller can simply re-run the engine. *)
let reaches_choice t preds =
  let changed = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace changed p ()) preds;
  let hit = ref false in
  Array.iter
    (fun s ->
      let affected =
        List.exists (Hashtbl.mem changed) s.s_reads
        || List.exists (Hashtbl.mem changed) s.s_preds
      in
      if affected then begin
        if s.s_kind = Choice then hit := true;
        List.iter (fun p -> Hashtbl.replace changed p ()) s.s_preds
      end)
    t.strata;
  !hit

(* A rule body's closure chain plus the head row's evaluators over its
   environment.  Chains are built per apply: one costs about a
   microsecond to build, so nothing is cached across applies. *)
let head_chain body (head : Ast.atom) =
  let cbody = Eval.compile_body body in
  let chain = Compile.of_body cbody in
  (chain, Compile.compile_row chain (Eval.compile_terms cbody head.args))

let run_chain limits db (chain, head) k =
  let env = Compile.env chain in
  Compile.run chain db (fun () ->
      Limits.poll limits;
      k (Compile.eval_row env head))

let row_tbl_of rows =
  let tbl = Relation.Row_tbl.create (max 4 (List.length rows)) in
  List.iter (fun r -> Relation.Row_tbl.replace tbl r ()) rows;
  tbl

let group changes =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (p, row) ->
      match Hashtbl.find_opt tbl p with
      | Some l -> l := row :: !l
      | None ->
        Hashtbl.replace tbl p (ref [ row ]);
        order := p :: !order)
    changes;
  List.rev_map (fun p -> (p, List.rev !(Hashtbl.find tbl p))) !order

let apply ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited)
    ?(pool = Par.sequential) t ~inserts ~deletes =
  let changed_preds =
    List.sort_uniq String.compare (List.map fst inserts @ List.map fst deletes)
  in
  if reaches_choice t changed_preds then begin
    t.stats.fallbacks <- t.stats.fallbacks + 1;
    Fallback "change reaches a choice stratum"
  end
  else begin
    try
      Telemetry.span telemetry "ivm:apply" (fun () ->
          let stats = t.stats in
          let model = t.model in

          (* ---- per-apply bookkeeping ---------------------------- *)

          (* Pre-apply state of every relation that loses rows: the
             deletion joins must read the state the model was derived
             from.  Removal never changes a handle, it installs a new
             one ([replace]) on the same store, so the replaced handle,
             indexes included, IS the pre state — no snapshot is ever
             copied.  Within one apply a relation loses rows before it
             gains any; relations that only gain rows use [pre_view]
             below. *)
          let pre : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
          let replace p old fresh =
            if not (Hashtbl.mem pre p) then Hashtbl.replace pre p old;
            Database.set_relation model p fresh
          in
          (* Net rows removed from the model so far, per predicate. *)
          let deleted : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
          (* Rows at ids >= base_card are "new since this apply
             started" — exactly what downstream strata must see as
             their insertion deltas ([Seminaive] marks).  A removal
             resets the mark to the result's id bound; a recomputed
             stratum resets it to 0 (conservatively republishing the
             whole relation). *)
          let base_card : (string, int) Hashtbl.t = Hashtbl.create 32 in
          List.iter
            (fun p ->
              match Database.find model p with
              | Some r -> Hashtbl.replace base_card p (Relation.id_bound r)
              | None -> ())
            (Database.preds model);
          let mark p = try Hashtbl.find base_card p with Not_found -> 0 in
          let has_inserts p =
            match Database.find model p with
            | None -> false
            | Some r -> Relation.id_bound r > mark p
          in
          let has_deletes p = Hashtbl.mem deleted p in
          (* Exact pre-apply view of a predicate that gained rows but
             never lost any: rows only append within such an apply, so
             the handle bounded at the watermark IS the pre state.
             Built on demand — only when deletion machinery actually
             joins against an insert-dirtied predicate — for the rows
             added since; unlike a [Relation.copy] snapshot it never
             freezes the live relation's store. *)
          let pre_view_memo : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
          let pre_view p =
            match Hashtbl.find_opt pre p with
            | Some r -> r
            | None -> (
              match Hashtbl.find_opt pre_view_memo p with
              | Some r -> r
              | None ->
                let r =
                  match Database.find model p with
                  | None -> Relation.create p 0
                  | Some rel ->
                    let m = mark p in
                    if m >= Relation.id_bound rel then rel else Relation.prefix rel m
                in
                Hashtbl.replace pre_view_memo p r;
                r)
          in
          let note_deleted p rows =
            match rows with
            | [] -> ()
            | first :: _ ->
              let rel =
                match Hashtbl.find_opt deleted p with
                | Some r -> r
                | None ->
                  let r = Relation.create (p ^ del_suffix) (Array.length first) in
                  Hashtbl.replace deleted p r;
                  r
              in
              List.iter (fun row -> ignore (Relation.add rel row)) rows
          in
          (* Remove [rows] from [p]'s model relation, keeping the
             survivors' order; returns the rows actually removed
             (deduplicated). *)
          let remove_rows p rows =
            let seen = Relation.Row_tbl.create 16 in
            let present =
              List.filter
                (fun row ->
                  Database.mem_fact model p row
                  && not (Relation.Row_tbl.mem seen row)
                  && (Relation.Row_tbl.replace seen row (); true))
                rows
            in
            match present with
            | [] -> []
            | _ ->
              let rel = Option.get (Database.find model p) in
              let fresh = Relation.remove rel present in
              replace p rel fresh;
              Hashtbl.replace base_card p (Relation.id_bound fresh);
              note_deleted p present;
              stats.rows_deleted <- stats.rows_deleted + List.length present;
              present
          in
          (* S_old minus the deleted rows, memoized per predicate (a
             predicate's deletions are final once its stratum has been
             processed, and only lower strata are ever read). *)
          let mid_memo : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
          let mid_rel p =
            match Hashtbl.find_opt mid_memo p with
            | Some r -> r
            | None ->
              let r =
                match (Hashtbl.find_opt pre p, Hashtbl.find_opt deleted p) with
                | Some pr, Some del -> Relation.remove pr (Relation.to_list del)
                | Some pr, None -> pr
                | None, _ -> (
                  match Database.find model p with
                  | Some r -> r
                  | None -> Relation.create p 0)
              in
              Hashtbl.replace mid_memo p r;
              r
          in
          let with_rels bindings f =
            Fun.protect
              ~finally:(fun () ->
                List.iter (fun (n, _) -> Database.remove_relation model n) bindings)
              (fun () ->
                List.iter (fun (n, r) -> Database.set_relation model n r) bindings;
                f ())
          in

          (* ---- phase 0: the fact base -------------------------- *)

          let del_groups = group deletes and ins_groups = group inserts in
          List.iter
            (fun (p, rows) ->
              match Database.find t.edb p with
              | None -> ()
              | Some rel -> Database.set_relation t.edb p (Relation.remove rel rows))
            del_groups;
          List.iter
            (fun (p, rows) ->
              List.iter (fun row -> ignore (Database.add_fact t.edb p row)) rows)
            ins_groups;

          (* EDB changes to predicates that rules also derive are
             deferred to the owning stratum (support counts and delta
             publication need the stratum context); pure-EDB
             predicates are patched directly. *)
          let edb_ins : (string, Value.t array list) Hashtbl.t = Hashtbl.create 8
          and edb_del : (string, Value.t array list) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (p, rows) ->
              if Hashtbl.mem t.idb p then Hashtbl.replace edb_del p rows
              else ignore (remove_rows p rows))
            del_groups;
          List.iter
            (fun (p, rows) ->
              if Hashtbl.mem t.idb p then Hashtbl.replace edb_ins p rows
              else
                List.iter
                  (fun row ->
                    if Database.add_fact model p row then
                      stats.rows_inserted <- stats.rows_inserted + 1)
                  rows)
            ins_groups;
          let edb_ins_of p =
            match Hashtbl.find_opt edb_ins p with Some r -> r | None -> []
          and edb_del_of p =
            match Hashtbl.find_opt edb_del p with Some r -> r | None -> []
          in

          (* ---- deletion machinery ------------------------------ *)

          (* Variants counting the lost derivations of [rule]: one per
             positive occurrence of a deleted predicate, reading that
             occurrence from the deleted rows, earlier deleted-pred
             occurrences from S_old minus the deletions, later ones
             (and every merely insert-dirtied predicate) from S_old —
             each lost derivation is counted exactly once, at its
             first deleted occurrence. *)
          let deletion_variants ~is_deleted ~is_dirty rule =
            let n_del =
              List.length
                (List.filter (function Pos a -> is_deleted a.pred | _ -> false) rule.body)
            in
            List.init n_del (fun i ->
                let occ = ref (-1) in
                let delta = ref None in
                let rest =
                  List.filter_map
                    (fun lit ->
                      match lit with
                      | Pos a when is_deleted a.pred ->
                        incr occ;
                        if !occ = i then begin
                          delta := Some (Pos { a with pred = a.pred ^ del_suffix });
                          None
                        end
                        else if !occ < i then
                          Some (Pos { a with pred = a.pred ^ mid_suffix })
                        else Some (Pos { a with pred = a.pred ^ pre_suffix })
                      | Pos a when is_dirty a.pred ->
                        Some (Pos { a with pred = a.pred ^ pre_suffix })
                      | lit -> Some lit)
                    rule.body
                in
                (* The delta occurrence goes first: smallest relation,
                   and an empty delta costs O(1). *)
                let body =
                  match !delta with Some d -> d :: rest | None -> assert false
                in
                head_chain body rule.head)
          in
          let bindings_for reads =
            List.concat_map
              (fun p ->
                let b = ref [] in
                (match Hashtbl.find_opt deleted p with
                | Some d ->
                  b := (p ^ del_suffix, d) :: (p ^ mid_suffix, mid_rel p) :: !b
                | None -> ());
                (match Hashtbl.find_opt pre p with
                | Some pr -> b := (p ^ pre_suffix, pr) :: !b
                | None ->
                  if has_inserts p then b := (p ^ pre_suffix, pre_view p) :: !b);
                !b)
              reads
          in

          (* Counting deletion for a non-recursive monotone stratum
             (a single head predicate the body never mentions).
             Returns [true] when the support table was (re)built this
             visit — such a table already accounts for the final lower
             state, so the following insertion step keeps it valid. *)
          let counting_delete s =
            let p = List.hd s.s_preds in
            let bump tbl row n =
              let prev = try Relation.Row_tbl.find tbl row with Not_found -> 0 in
              Relation.Row_tbl.replace tbl row (prev + n)
            in
            match s.s_supports with
            | Some tbl ->
              (* Exact decrement against the state the counts reflect. *)
              let dec = Relation.Row_tbl.create 64 in
              List.iter (fun row -> bump dec row 1) (edb_del_of p);
              let is_deleted q = Hashtbl.mem deleted q in
              let is_dirty q =
                (not (is_deleted q)) && (Hashtbl.mem pre q || has_inserts q)
              in
              with_rels (bindings_for s.s_reads) (fun () ->
                  List.iter
                    (fun rule ->
                      List.iter
                        (fun v -> run_chain limits model v (fun row -> bump dec row 1))
                        (deletion_variants ~is_deleted ~is_dirty rule))
                    s.s_rules);
              let doomed = ref [] in
              Relation.Row_tbl.iter
                (fun row n ->
                  let cur = try Relation.Row_tbl.find tbl row with Not_found -> 0 in
                  let left = cur - n in
                  if left <= 0 then begin
                    Relation.Row_tbl.remove tbl row;
                    if Database.mem_fact model p row then doomed := row :: !doomed
                  end
                  else Relation.Row_tbl.replace tbl row left)
                dec;
              ignore (remove_rows p !doomed);
              false
            | None ->
              (* Recount from scratch against the already-final lower
                 state: rows at zero support disappear; rows counted
                 but not yet present arrive with the insertion step. *)
              let tbl = Relation.Row_tbl.create 256 in
              (match Database.find t.edb p with
              | Some r -> Relation.iter r (fun row -> bump tbl row 1)
              | None -> ());
              List.iter
                (fun rule ->
                  run_chain limits model (head_chain rule.body rule.head) (fun row ->
                      bump tbl row 1))
                s.s_rules;
              let doomed = ref [] in
              (match Database.find model p with
              | Some rel ->
                Relation.iter rel (fun row ->
                    if not (Relation.Row_tbl.mem tbl row) then doomed := row :: !doomed)
              | None -> ());
              ignore (remove_rows p (List.rev !doomed));
              s.s_supports <- Some tbl;
              true
          in

          (* DRed for a recursive monotone clique: over-delete
             everything reachable from the deleted rows through the
             clique's rules (judged over the pre state), then restore
             what is still EDB-backed or re-derivable from the
             survivors.  The over-delete fixpoint reads the clique only
             through [$ivm_pre] and [$ivm_fr] and rejects rows already
             over-deleted, so the live relations stay untouched — they
             are the pre state, bound with their indexes — until one
             removal pass per predicate after the fixpoint. *)
          let dred_delete s =
            let clique = s.s_preds in
            let in_clique p = List.mem p clique in
            let is_front q = in_clique q || Hashtbl.mem deleted q in
            let is_pre q = is_front q || Hashtbl.mem pre q || has_inserts q in
            let front_preds = List.filter is_front s.s_reads in
            let front_preds =
              List.sort_uniq String.compare (front_preds @ clique)
            in
            (* Over-deleted rows per clique pred. *)
            let over : (string, Relation.Row_tbl.key list ref) Hashtbl.t =
              Hashtbl.create 4
            in
            let over_tbl : (string, unit Relation.Row_tbl.t) Hashtbl.t =
              Hashtbl.create 4
            in
            let is_over p row =
              match Hashtbl.find_opt over_tbl p with
              | Some tb -> Relation.Row_tbl.mem tb row
              | None -> false
            in
            let mark_over p row =
              (match Hashtbl.find_opt over p with
              | Some l -> l := row :: !l
              | None -> Hashtbl.replace over p (ref [ row ]));
              (match Hashtbl.find_opt over_tbl p with
              | Some tb -> Relation.Row_tbl.replace tb row ()
              | None ->
                let tb = Relation.Row_tbl.create 64 in
                Relation.Row_tbl.replace tb row ();
                Hashtbl.replace over_tbl p tb)
            in
            (* One variant per positive occurrence of a frontier-able
               predicate; every other occurrence of a dirty predicate
               reads the pre state (over-approximation is fine — the
               re-derive phase restores any overshoot). *)
            let variants =
              List.concat_map
                (fun rule ->
                  let n =
                    List.length
                      (List.filter
                         (function Pos a -> is_front a.pred | _ -> false)
                         rule.body)
                  in
                  List.init n (fun i ->
                      let occ = ref (-1) in
                      let delta = ref None in
                      let rest =
                        List.filter_map
                          (fun lit ->
                            match lit with
                            | Pos a when is_front a.pred ->
                              incr occ;
                              if !occ = i then begin
                                delta :=
                                  Some (Pos { a with pred = a.pred ^ fr_suffix });
                                None
                              end
                              else Some (Pos { a with pred = a.pred ^ pre_suffix })
                            | Pos a when is_pre a.pred ->
                              Some (Pos { a with pred = a.pred ^ pre_suffix })
                            | lit -> Some lit)
                          rule.body
                      in
                      let body =
                        match !delta with Some d -> d :: rest | None -> assert false
                      in
                      (rule.head.pred, head_chain body rule.head)))
                s.s_rules
            in
            let pre_of p =
              match Hashtbl.find_opt pre p with
              | Some r -> Some r
              | None ->
                if has_inserts p then Some (pre_view p) else Database.find model p
            in
            let static_bindings =
              List.filter_map
                (fun p ->
                  match pre_of p with
                  | Some r -> Some (p ^ pre_suffix, r)
                  | None -> None)
                (List.sort_uniq String.compare
                   (List.filter is_pre (s.s_reads @ clique)))
            in
            let arity_of p =
              match Database.find model p with
              | Some r -> Relation.arity r
              | None -> (
                match Database.find t.edb p with
                | Some r -> Relation.arity r
                | None -> 0)
            in
            let fr_names = List.map (fun p -> (p, p ^ fr_suffix)) front_preds in
            with_rels static_bindings (fun () ->
                Fun.protect
                  ~finally:(fun () ->
                    List.iter
                      (fun (_, n) -> Database.remove_relation model n)
                      fr_names)
                  (fun () ->
                    (* Seed: external deletions from lower strata, plus
                       this clique's own retracted EDB rows. *)
                    let frontier : (string, Relation.Row_tbl.key list) Hashtbl.t =
                      Hashtbl.create 4
                    in
                    List.iter
                      (fun q ->
                        if not (in_clique q) then
                          match Hashtbl.find_opt deleted q with
                          | Some d -> Hashtbl.replace frontier q (Relation.to_list d)
                          | None -> ())
                      front_preds;
                    List.iter
                      (fun p ->
                        let rows =
                          List.filter
                            (fun row -> Database.mem_fact model p row)
                            (edb_del_of p)
                        in
                        if rows <> [] then begin
                          List.iter (mark_over p) rows;
                          Hashtbl.replace frontier p rows
                        end)
                      clique;
                    (* Over-delete to fixpoint. *)
                    while Hashtbl.length frontier > 0 do
                      Limits.poll limits;
                      List.iter
                        (fun (p, n) ->
                          let rel = Relation.create n (arity_of p) in
                          (match Hashtbl.find_opt frontier p with
                          | Some rows ->
                            List.iter (fun row -> ignore (Relation.add rel row)) rows
                          | None -> ());
                          Database.set_relation model n rel)
                        fr_names;
                      let next : (string, Relation.Row_tbl.key list ref) Hashtbl.t =
                        Hashtbl.create 4
                      in
                      List.iter
                        (fun (hp, v) ->
                          run_chain limits model v (fun row ->
                              if
                                Database.mem_fact model hp row
                                && not (is_over hp row)
                              then begin
                                mark_over hp row;
                                match Hashtbl.find_opt next hp with
                                | Some l -> l := row :: !l
                                | None -> Hashtbl.replace next hp (ref [ row ])
                              end))
                        variants;
                      Hashtbl.reset frontier;
                      Hashtbl.iter (fun p l -> Hashtbl.replace frontier p !l) next
                    done));
            Hashtbl.iter
              (fun p l ->
                match Database.find model p with
                | Some rel -> replace p rel (Relation.remove rel !l)
                | None -> ())
              over;
            (* Re-derive: restore over-deleted rows that are still
               EDB-backed or have a derivation over the surviving (and
               already-updated lower) state.  A probe only asks whether
               some derivation exists, so its positive literals may join
               in any order: most bound arguments first, the smaller
               relation on a tie.  On [tc(X, Z) <- tc(X, Y), edge(Y, Z)]
               that walks edge's one-row bucket and ends in a ground tc
               lookup instead of scanning every tc(X, _).  Comparisons
               and negations still go wherever [Eval.compile_body] finds
               them ready; computed arguments keep the written order. *)
            let probe_order bound body =
              let simple = function
                | Pos a -> List.for_all (function Var _ | Cst _ -> true | _ -> false) a.args
                | _ -> true
              in
              let score bound = function
                | Pos a ->
                  let is_bound = function Var v -> List.mem v bound | _ -> true in
                  ( -List.length (List.filter is_bound a.args),
                    match Database.find model a.pred with
                    | Some r -> Relation.cardinal r
                    | None -> 0 )
                | _ -> (0, max_int)
              in
              let rec go bound = function
                | [] -> []
                | first :: _ as lits ->
                  let better b l = if score bound l < score bound b then l else b in
                  let best = List.fold_left better first lits in
                  best :: go (Ast.literal_vars best @ bound) (List.filter (( != ) best) lits)
              in
              if List.for_all simple body then go bound body else body
            in
            let checkers =
              Array.of_list
              @@ List.map
                (fun rule ->
                  let bindable =
                    List.for_all
                      (function Var _ | Cst _ -> true | _ -> false)
                      rule.head.args
                  in
                  if bindable then begin
                    let head_vars =
                      List.sort_uniq compare
                        (List.concat_map Ast.term_vars rule.head.args)
                    in
                    let cbody =
                      Eval.compile_body ~extra_bound:head_vars (probe_order head_vars rule.body)
                    in
                    let chain =
                      Compile.of_body ~bound:(List.map (Eval.slot cbody) head_vars) cbody
                    in
                    let bind =
                      Compile.compile_binder ~bound:[] (Eval.compile_terms cbody rule.head.args)
                    in
                    `Probe (rule.head.pred, chain, bind)
                  end
                  else `Enumerate (rule.head.pred, head_chain rule.body rule.head))
                s.s_rules
            in
            let overdeleted = ref 0 and rederived = ref 0 in
            let remaining : (string, unit Relation.Row_tbl.t) Hashtbl.t =
              Hashtbl.create 4
            in
            Hashtbl.iter
              (fun p l ->
                overdeleted := !overdeleted + List.length !l;
                Hashtbl.replace remaining p (row_tbl_of !l))
              over;
            let restore p row tb =
              ignore (Database.add_fact model p row);
              Relation.Row_tbl.remove tb row;
              incr rederived
            in
            let progress = ref true in
            while !progress do
              progress := false;
              Limits.poll limits;
              (* Heads of computed-argument rules, re-enumerated once
                 per round (rare: monotone heads are almost always
                 plain variables).  Stale within a round is fine — the
                 outer loop repeats until no restore makes progress. *)
              let enum_heads =
                Array.map
                  (fun checker ->
                    match checker with
                    | `Probe _ -> None
                    | `Enumerate (_, v) ->
                      let tb = Relation.Row_tbl.create 64 in
                      run_chain limits model v (fun row -> Relation.Row_tbl.replace tb row ());
                      Some tb)
                  checkers
              in
              let derivable p row =
                let ok = ref false in
                Array.iteri
                  (fun i checker ->
                    if not !ok then
                      match checker with
                      | `Probe (hp, chain, bind) ->
                        if String.equal hp p then begin
                          if
                            Compile.bind bind (Compile.env chain) row
                            && (try
                                  Compile.run chain model (fun () -> raise Exit);
                                  false
                                with Exit -> true)
                          then ok := true
                        end
                      | `Enumerate (hp, _) -> (
                        if String.equal hp p then
                          match enum_heads.(i) with
                          | Some tb -> if Relation.Row_tbl.mem tb row then ok := true
                          | None -> ()))
                  checkers;
                !ok
              in
              Hashtbl.iter
                (fun p tb ->
                  let rows = Relation.Row_tbl.fold (fun row () acc -> row :: acc) tb [] in
                  List.iter
                    (fun row ->
                      if Relation.Row_tbl.mem tb row then
                        if Database.mem_fact t.edb p row || derivable p row then begin
                          restore p row tb;
                          progress := true
                        end)
                    rows)
                remaining
            done;
            stats.dred_overdeleted <- stats.dred_overdeleted + !overdeleted;
            stats.dred_rederived <- stats.dred_rederived + !rederived;
            Hashtbl.iter
              (fun p tb ->
                let gone = Relation.Row_tbl.fold (fun row () acc -> row :: acc) tb [] in
                note_deleted p gone;
                stats.rows_deleted <- stats.rows_deleted + List.length gone)
              remaining;
            (* The restored rows were never absent from the stratum's
               point of view: mark them (and the survivors) as already
               seen, so only genuinely new rows flow downstream. *)
            List.iter
              (fun p ->
                match Database.find model p with
                | Some r -> Hashtbl.replace base_card p (Relation.id_bound r)
                | None -> ())
              clique
          in

          (* Semi-naive insertion step: the stratum's watermarks start
             at everything its output already accounts for, so the
             first publication is exactly the externally appended rows
             (lower-stratum insertions, freshly asserted EDB rows). *)
          let insert_phase s ~fresh_supports =
            let own_edb =
              List.exists (fun p -> edb_ins_of p <> []) s.s_preds
            in
            let any_delta = List.exists has_inserts s.s_reads || own_edb in
            if any_delta then begin
              List.iter
                (fun p ->
                  match edb_ins_of p with
                  | [] -> ()
                  | rows ->
                    List.iter
                      (fun row ->
                        if Database.add_fact model p row then
                          stats.rows_inserted <- stats.rows_inserted + 1)
                      rows)
                s.s_preds;
              let before =
                List.map
                  (fun p ->
                    ( p,
                      match Database.find model p with
                      | Some r -> Relation.cardinal r
                      | None -> 0 ))
                  s.s_preds
              in
              let inc =
                Seminaive.make ~telemetry ~limits ~pool ~marks:mark model
                  ~clique:s.s_preds s.s_rules
              in
              Seminaive.step inc;
              List.iter
                (fun (p, c) ->
                  match Database.find model p with
                  | Some r ->
                    stats.rows_inserted <-
                      stats.rows_inserted + (Relation.cardinal r - c)
                  | None -> ())
                before;
              stats.strata_stepped <- stats.strata_stepped + 1;
              if not fresh_supports then s.s_supports <- None
            end
          in

          (* Non-monotone stratum: recompute from the updated inputs
             with the same machinery the engines use, then diff. *)
          let recompute s =
            List.iter
              (fun p ->
                match Database.find model p with
                | None -> ()
                | Some r ->
                  let fresh = Relation.create p (Relation.arity r) in
                  (match Database.find t.edb p with
                  | Some er ->
                    Relation.iter er (fun row -> ignore (Relation.add fresh row))
                  | None -> ());
                  replace p r fresh)
              s.s_preds;
            Seminaive.eval_clique ~telemetry ~limits ~pool model ~clique:s.s_preds
              s.s_rules;
            List.iter
              (fun p ->
                match (Hashtbl.find_opt pre p, Database.find model p) with
                | Some old, Some now ->
                  let gone = ref [] in
                  Relation.iter old (fun row ->
                      if not (Relation.mem now row) then gone := row :: !gone);
                  let gone = List.rev !gone in
                  note_deleted p gone;
                  stats.rows_deleted <- stats.rows_deleted + List.length gone;
                  Relation.iter now (fun row ->
                      if not (Relation.mem old row) then
                        stats.rows_inserted <- stats.rows_inserted + 1);
                  Hashtbl.replace base_card p 0
                | _ -> ())
              s.s_preds;
            s.s_supports <- None;
            stats.strata_recomputed <- stats.strata_recomputed + 1
          in

          (* ---- the stratum sweep ------------------------------- *)

          Array.iter
            (fun s ->
              let reads_changed =
                List.exists (fun q -> has_inserts q || has_deletes q) s.s_reads
              in
              let own_edb_change =
                List.exists
                  (fun p -> edb_ins_of p <> [] || edb_del_of p <> [])
                  s.s_preds
              in
              if reads_changed || own_edb_change then begin
                match s.s_kind with
                | Choice -> raise (Fall "choice stratum affected")
                | Nonmonotone -> recompute s
                | Monotone ->
                  let have_del =
                    List.exists has_deletes s.s_reads
                    || List.exists (fun p -> edb_del_of p <> []) s.s_preds
                  in
                  let fresh_supports = ref false in
                  if have_del then
                    if s.s_recursive then dred_delete s
                    else fresh_supports := counting_delete s;
                  insert_phase s ~fresh_supports:!fresh_supports
              end)
            t.strata;
          stats.applies <- stats.applies + 1);
      Maintained
    with Fall msg ->
      t.stats.fallbacks <- t.stats.fallbacks + 1;
      Fallback msg
  end
