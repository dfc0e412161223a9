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
     still EDB-backed or re-derivable from what survived.  It works on
     row ids of the pre handles: the over-deleted rows are a bitset
     per predicate, each round's frontier is the id range the previous
     round appended to an over-delete relation (cells copied, nothing
     decoded), and the re-derive checks each over-deleted id once,
     re-checking only the rows a restore can support;

   - a deletion costs the rows it touches: DRed's fixpoint marks rows
     instead of removing them round by round, then one
     [Relation.remove_ids] per relation that loses rows marks them dead
     in place, so no survivor is copied and no index rebuilt.  The
     handle a removal replaces is kept as the pre state the deletion
     joins read, and a relation that only gained rows is read below
     its old id bound ([Relation.prefix]) — no snapshot is copied.
     Once the apply ends, those handles are released and each relation
     whose dead rows pass an eighth of its live ones is compacted in
     its own arrays ([Relation.compact]); a single removal past that
     share compacts at once, into a copy.  The deleted rows a lower
     stratum's joins read are copied out only when some stratum reads
     them;

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
  s_eval : (Seminaive.prepared, exn) result;
      (* the stratum's rules, prepared once for the insert phase and
         the recomputation; a choice stratum, never evaluated here,
         keeps an error *)
  (* Support counts for the counting deletion path (non-recursive
     monotone strata only).  [None] = not initialized or invalidated;
     rebuilt lazily by the next deletion that reaches the stratum. *)
  mutable s_supports : int Relation.Cells_tbl.t option;
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
  mutable dred_rounds : int;  (* over-delete rounds *)
  mutable dred_checked : int;  (* re-derive checks made *)
}

(* One clique predicate under DRed.  Ids are those of its pre handle. *)
type dred_pred = {
  dp_pred : string;
  dp_pre : Relation.t;
  mutable dp_live : Relation.t;  (* after the removal: restores append here *)
  dp_edb : Relation.t option;  (* its updated fact base rows *)
  dp_fr : Relation.t;  (* the over-deleted rows, in the order they were found *)
  dp_over : Relation.Idset.t;
  dp_back : Relation.Idset.t;  (* restored *)
  dp_queued : Relation.Idset.t;  (* queued for the next re-derive pass *)
  dp_derived : Relation.Idset.t;  (* over-deleted heads an [Enumerate] check found *)
  mutable dp_count : int;  (* over-deleted *)
  mutable dp_back_count : int;  (* restored *)
  mutable dp_lo : int;  (* the frontier: ids [dp_lo, dp_hi) of [dp_fr], *)
  mutable dp_hi : int;  (* then of [dp_live] while re-deriving *)
  mutable dp_checks : rederive_check list;  (* the rules deriving it *)
}

and rederive_check =
  | Probe of Compile.t * Compile.binder  (* the body, head slots bound by the binder *)
  | Enumerate of Compile.t * Compile.row * int array * bool
      (* the body's heads, into the buffer; [true]: the body reads no
         clique predicate *)

(* Where a delta variant's range scan reads: the rows a clique
   predicate appended, or a lower stratum's deleted rows. *)
type dred_source = Clique of dred_pred | Lower of Relation.t

type dred_variant = {
  dv_chain : Compile.t;
  dv_head : Compile.row;
  dv_buf : int array;
  dv_into : dred_pred;
  dv_src : dred_source;
}

(* The strata of a program, as {!create} finds them.  Shared by the
   materializations of every session a program cache serves, so never
   mutated: each materialization copies the strata, and only the copies'
   support counts change. *)
type prepared = { p_strata : stratum array; p_idb : (string, unit) Hashtbl.t }

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

let prepare program =
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
          s_eval =
            (if kind = Choice then Error (Fall "choice stratum affected")
             else try Ok (Seminaive.prepare ~clique srules) with e -> Error e);
          s_supports = None })
      (Depgraph.cliques dg)
  in
  { p_strata = Array.of_list strata; p_idb = idb }

let materialize p ~edb ~model =
  { strata = Array.map (fun s -> { s with s_supports = None }) p.p_strata;
    idb = p.p_idb;
    edb = Database.copy edb;
    model;
    stats =
      { applies = 0; fallbacks = 0; rows_inserted = 0; rows_deleted = 0;
        strata_stepped = 0; strata_recomputed = 0; dred_overdeleted = 0;
        dred_rederived = 0; dred_rounds = 0; dred_checked = 0 } }

let create program ~edb ~model = materialize (prepare program) ~edb ~model

(* A stratum's prepared rules, or the error preparing them raised. *)
let prepared s = match s.s_eval with Ok p -> p | Error e -> raise e

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

(* A rule body's closure chain plus the head row's cells over its
   environment.  Chains are built per apply: one costs about a
   microsecond to build, so nothing is cached across applies. *)
let head_chain body (head : Ast.atom) =
  let cbody = Eval.compile_body body in
  let plan = Compile.plan cbody in
  (Compile.instance plan, Compile.compile_row plan (Eval.compile_terms cbody head.args))

(* [k] on the head's cells, fresh per solution. *)
let run_chain limits db (chain, head) k =
  let env = Compile.env chain in
  Compile.run chain db (fun () ->
      Limits.poll limits;
      k (Compile.row_cells head env))

(* The cells a fact of the client's has, for a lookup: a value no row
   holds gets a cell no row holds. *)
let lookup_cells row = Array.map Relation.Cell.lookup row

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
          (* The handles this apply replaced or made: read until it ends,
             then released, so that no other handle reads a store the
             compactions at the end squeeze in place. *)
          let retired = ref [] in
          let retire r =
            retired := r :: !retired;
            r
          in
          (* A removal of [n] rows that alone leaves more dead rows than
             an eighth of the live ones compacts at once (in a copy,
             as the replaced handle still reads the store), so the rest
             of the apply probes tables sized for the survivors: E17's
             retract, which halves [tc], runs ~10% faster at n = 1024
             than when it compacts in place at the end, its re-derive
             probes a quarter faster.  Smaller removals add up and are
             compacted at the end, in place. *)
          let shed r n = if 8 * n > Relation.cardinal r then Relation.compact r else r in
          let replace p old fresh =
            if not (Hashtbl.mem pre p) then Hashtbl.replace pre p old;
            ignore (retire old);
            Database.set_relation model p fresh
          in
          (* Net rows removed from the model so far, per predicate. *)
          let deleted : (string, Relation.t Lazy.t) Hashtbl.t = Hashtbl.create 8 in
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
                    if m >= Relation.id_bound rel then rel else retire (Relation.prefix rel m)
                in
                Hashtbl.replace pre_view_memo p r;
                r)
          in
          (* [n] rows, the ids of [src] that [iter] names, left [p]:
             copied onto [p]'s deleted rows when a later stratum first
             reads them, which in a model nothing reads below the
             clique is never. *)
          let note_deleted p src n iter =
            if n > 0 then begin
              let prev = Hashtbl.find_opt deleted p in
              Hashtbl.replace deleted p
                (lazy
                  (let rel =
                     match prev with
                     | Some l -> Lazy.force l
                     | None -> Relation.create (p ^ del_suffix) (Relation.arity src)
                   in
                   iter (fun id -> ignore (Relation.add_of rel src id));
                   rel));
              stats.rows_deleted <- stats.rows_deleted + n
            end
          in
          (* Remove the rows with the cells [rows] from [p]'s model
             relation, keeping the survivors' order; rows it does not
             hold are ignored. *)
          let remove_rows p rows =
            match Database.find model p with
            | None -> ()
            | Some rel ->
              let set = Relation.Idset.create (Relation.id_bound rel) and n = ref 0 in
              List.iter
                (fun row ->
                  match if Array.length row = Relation.arity rel then Relation.find_cells rel row else -1 with
                  | -1 -> ()
                  | id ->
                    if not (Relation.Idset.mem set id) then begin
                      Relation.Idset.add set id;
                      incr n
                    end)
                rows;
              if !n > 0 then begin
                let fresh = shed (Relation.remove_ids rel set) !n in
                replace p rel fresh;
                Hashtbl.replace base_card p (Relation.id_bound fresh);
                note_deleted p rel !n (Relation.Idset.iter set)
              end
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
                | Some pr, Some (lazy del) ->
                  let set = Relation.Idset.create (Relation.id_bound pr) in
                  for id = 0 to Relation.id_bound del - 1 do
                    match Relation.find_of pr del id with
                    | -1 -> ()
                    | j -> Relation.Idset.add set j
                  done;
                  retire (Relation.remove_ids pr set)
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
              else remove_rows p (List.map lookup_cells rows))
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
                | Some (lazy d) ->
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
              let prev = try Relation.Cells_tbl.find tbl row with Not_found -> 0 in
              Relation.Cells_tbl.replace tbl row (prev + n)
            in
            match s.s_supports with
            | Some tbl ->
              (* Exact decrement against the state the counts reflect. *)
              let dec = Relation.Cells_tbl.create 64 in
              List.iter (fun row -> bump dec (lookup_cells row) 1) (edb_del_of p);
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
              Relation.Cells_tbl.iter
                (fun row n ->
                  let cur = try Relation.Cells_tbl.find tbl row with Not_found -> 0 in
                  let left = cur - n in
                  if left <= 0 then begin
                    Relation.Cells_tbl.remove tbl row;
                    doomed := row :: !doomed
                  end
                  else Relation.Cells_tbl.replace tbl row left)
                dec;
              remove_rows p !doomed;
              false
            | None ->
              (* Recount from scratch against the already-final lower
                 state: rows at zero support disappear; rows counted
                 but not yet present arrive with the insertion step. *)
              let tbl = Relation.Cells_tbl.create 256 in
              let live_rows r f =
                for id = 0 to Relation.id_bound r - 1 do
                  if Relation.is_live r id then f (Relation.row_cells r id)
                done
              in
              (match Database.find t.edb p with
              | Some r -> live_rows r (fun row -> bump tbl row 1)
              | None -> ());
              List.iter
                (fun rule ->
                  run_chain limits model (head_chain rule.body rule.head) (fun row ->
                      bump tbl row 1))
                s.s_rules;
              let doomed = ref [] in
              (match Database.find model p with
              | Some rel ->
                live_rows rel (fun row ->
                    if not (Relation.Cells_tbl.mem tbl row) then doomed := row :: !doomed)
              | None -> ());
              remove_rows p (List.rev !doomed);
              s.s_supports <- Some tbl;
              true
          in

          (* DRed for a recursive monotone clique, on row ids of the
             pre handles.  Nothing is removed until the over-delete
             fixpoint is done, so the clique's live handles are its pre
             state throughout it.

             - Over-delete: a round joins its frontier with the pre
               state and marks every derived head, found in its pre
               handle by its cells, in a bitset of over-deleted ids.  A
               newly marked row is copied, cell for cell, onto the
               predicate's append-only [$ivm_fr] relation, so the next
               round's frontier is the id range this round appended,
               read by range-scan delta variants.
             - Removal: one [Relation.remove_ids] of each bitset, then
               [Relation.compact].
             - Re-derive: every over-deleted id is checked once against
               the survivors (and the already-updated lower strata):
               still EDB-backed, or some rule body holds with the head
               bound from its pre row.  A restored row is appended to
               the live relation, and the delta variants run over the
               ids a pass restored re-queue the over-deleted rows whose
               derivation can use them; nothing else is checked again. *)
          let dred_delete s =
            let clique = s.s_preds in
            let in_clique p = List.mem p clique in
            let is_front q = in_clique q || Hashtbl.mem deleted q in
            let is_pre q = is_front q || Hashtbl.mem pre q || has_inserts q in
            let dps =
              List.filter_map
                (fun p ->
                  Option.map
                    (fun r ->
                      let n = Relation.id_bound r in
                      { dp_pred = p; dp_pre = r; dp_live = r;
                        dp_edb = Database.find t.edb p;
                        dp_fr = Relation.create (p ^ fr_suffix) (Relation.arity r);
                        dp_over = Relation.Idset.create n; dp_back = Relation.Idset.create n;
                        dp_queued = Relation.Idset.create n; dp_derived = Relation.Idset.create n;
                        dp_count = 0; dp_back_count = 0; dp_lo = 0; dp_hi = 0; dp_checks = [] })
                    (Database.find model p))
                clique
            in
            let dp_of p = List.find_opt (fun dp -> String.equal dp.dp_pred p) dps in
            let over dp id =
              if not (Relation.Idset.mem dp.dp_over id) then begin
                Relation.Idset.add dp.dp_over id;
                Relation.append_of dp.dp_fr dp.dp_pre id;
                dp.dp_count <- dp.dp_count + 1
              end
            in
            (* The delta variants of every rule with a head to mark:
               one per positive occurrence of a [front] predicate,
               read from [source] as a range scan. *)
            let variants ~front ~rename_front ~rename ~source =
              List.concat_map
                (fun rule ->
                  match dp_of rule.head.pred with
                  | None -> []
                  | Some into ->
                    List.concat
                      (List.mapi
                         (fun i lit ->
                           match lit with
                           | Pos a when front a.pred -> (
                             match source a.pred with
                             | None -> []
                             | Some src ->
                               let rest =
                                 List.filteri (fun j _ -> j <> i) rule.body
                                 |> List.map (function
                                      | Pos b -> Pos { b with pred = rename b.pred }
                                      | lit -> lit)
                               in
                               let cbody =
                                 Eval.compile_body (Pos { a with pred = rename_front a.pred } :: rest)
                               in
                               let plan = Compile.plan ~range:true cbody in
                               [ { dv_chain = Compile.instance plan;
                                   dv_head =
                                     Compile.compile_row plan
                                       (Eval.compile_terms cbody rule.head.args);
                                   dv_buf = Array.make (List.length rule.head.args) 0;
                                   dv_into = into; dv_src = src } ])
                           | _ -> [])
                         rule.body))
                s.s_rules
            in
            (* [f] on the pre id of each head [v] derives over ids
               [lo, hi) of its source. *)
            let run_variant v lo hi f =
              if hi > lo then begin
                let env = Compile.env v.dv_chain in
                Compile.run_range v.dv_chain ~ro:false lo hi (fun () ->
                    Limits.poll limits;
                    Compile.write_row v.dv_head env v.dv_buf 0;
                    match Relation.find_cells v.dv_into.dp_pre v.dv_buf with
                    | -1 -> ()
                    | id -> f id)
              end
            in
            let checked = ref 0 and rounds = ref 0 in

            Telemetry.span telemetry "ivm:overdelete" (fun () ->
                let ovs =
                  variants ~front:is_front
                    ~rename_front:(fun p -> p ^ fr_suffix)
                    ~rename:(fun p -> if is_pre p then p ^ pre_suffix else p)
                    ~source:(fun q ->
                      match dp_of q with
                      | Some dp -> Some (Clique dp)
                      | None ->
                        if in_clique q then None
                        else Some (Lower (Lazy.force (Hashtbl.find deleted q))))
                in
                let pre_of p =
                  match Hashtbl.find_opt pre p with
                  | Some r -> Some r
                  | None -> if has_inserts p then Some (pre_view p) else Database.find model p
                in
                let bindings =
                  List.filter_map
                    (fun p -> Option.map (fun r -> (p ^ pre_suffix, r)) (pre_of p))
                    (List.sort_uniq String.compare (List.filter is_pre (s.s_reads @ clique)))
                  @ List.map (fun dp -> (dp.dp_pred ^ fr_suffix, dp.dp_fr)) dps
                  @ List.filter_map
                      (fun q ->
                        if in_clique q then None
                        else
                          Option.map
                            (fun d -> (q ^ fr_suffix, Lazy.force d))
                            (Hashtbl.find_opt deleted q))
                      (List.sort_uniq String.compare s.s_reads)
                in
                with_rels bindings (fun () ->
                    List.iter (fun v -> Compile.resolve v.dv_chain model) ovs;
                    (* Seed: this clique's own retracted EDB rows; the
                       lower strata's deletions are the first round's
                       [Lower] frontier. *)
                    List.iter
                      (fun dp ->
                        List.iter
                          (fun row ->
                            match Relation.find dp.dp_pre row with
                            | -1 -> ()
                            | id -> over dp id)
                          (edb_del_of dp.dp_pred);
                        dp.dp_hi <- Relation.id_bound dp.dp_fr)
                      dps;
                    let first = ref true in
                    while !first || List.exists (fun dp -> dp.dp_hi > dp.dp_lo) dps do
                      Limits.poll limits;
                      incr rounds;
                      List.iter
                        (fun v ->
                          let lo, hi =
                            match v.dv_src with
                            | Clique dp -> (dp.dp_lo, dp.dp_hi)
                            | Lower r -> if !first then (0, Relation.id_bound r) else (0, 0)
                          in
                          run_variant v lo hi (over v.dv_into))
                        ovs;
                      first := false;
                      List.iter
                        (fun dp ->
                          dp.dp_lo <- dp.dp_hi;
                          dp.dp_hi <- Relation.id_bound dp.dp_fr)
                        dps
                    done));

            Telemetry.span telemetry "ivm:remove" (fun () ->
                List.iter
                  (fun dp ->
                    if dp.dp_count > 0 then begin
                      dp.dp_live <- shed (Relation.remove_ids dp.dp_pre dp.dp_over) dp.dp_count;
                      replace dp.dp_pred dp.dp_pre dp.dp_live
                    end)
                  dps);

            (* A probe only asks whether some derivation exists, so its
               positive literals may join in any order: most bound
               arguments first, the smaller relation on a tie.  On
               [tc(X, Z) <- tc(X, Y), edge(Y, Z)] that walks edge's
               one-row bucket and ends in a ground tc lookup instead of
               scanning every tc(X, _).  Comparisons and negations
               still go wherever [Eval.compile_body] finds them ready;
               computed arguments keep the written order. *)
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
            Telemetry.span telemetry "ivm:rederive" (fun () ->
                (* Every check reads the model as it stands: resolved
                   once, since a restore appends to the same handles. *)
                List.iter
                  (fun rule ->
                    match dp_of rule.head.pred with
                    | None -> ()
                    | Some dp ->
                      let positive = List.filter_map (function Pos a -> Some a.pred | _ -> None) rule.body in
                      let by_enumeration () =
                        let cbody = Eval.compile_body rule.body in
                        let plan = Compile.plan cbody in
                        Enumerate
                          ( Compile.instance plan,
                            Compile.compile_row plan (Eval.compile_terms cbody rule.head.args),
                            Array.make (List.length rule.head.args) 0,
                            not (List.exists in_clique positive) )
                      in
                      let check =
                        if
                          not
                            (List.for_all
                               (function Var _ | Cst _ -> true | _ -> false)
                               rule.head.args)
                        then
                          (* A computed head (rare: monotone heads are
                             almost always plain variables). *)
                          by_enumeration ()
                        else if
                          (* A rule over one lower relation smaller than
                             the rows to check: scanning it once beats a
                             probe per row. *)
                          match positive with
                          | [ q ] when not (in_clique q) -> (
                            match Database.find model q with
                            | Some r -> Relation.cardinal r < dp.dp_count
                            | None -> true)
                          | _ -> false
                        then by_enumeration ()
                        else begin
                          let head_vars =
                            List.sort_uniq compare (List.concat_map Ast.term_vars rule.head.args)
                          in
                          let cbody =
                            Eval.compile_body ~extra_bound:head_vars
                              (probe_order head_vars rule.body)
                          in
                          let chain =
                            Compile.of_body ~bound:(List.map (Eval.slot cbody) head_vars) cbody
                          in
                          Probe
                            ( chain,
                              Compile.compile_binder ~bound:[]
                                (Eval.compile_terms cbody rule.head.args) )
                        end
                      in
                      (match check with
                      | Probe (chain, _) | Enumerate (chain, _, _, _) -> Compile.resolve chain model);
                      dp.dp_checks <- check :: dp.dp_checks)
                  s.s_rules;
                (* The over-deleted heads of every enumerated rule, over
                   the model as it stands: they only grow, and those of a
                   rule that reads no clique predicate never change. *)
                let first = ref true in
                let enumerate () =
                  List.iter
                    (fun dp ->
                      List.iter
                        (function
                          | Probe _ -> ()
                          | Enumerate (_, _, _, true) when not !first -> ()
                          | Enumerate (chain, head, buf, _) ->
                            let env = Compile.env chain in
                            Compile.run_resolved chain (fun () ->
                                Limits.poll limits;
                                Compile.write_row head env buf 0;
                                match Relation.find_cells dp.dp_pre buf with
                                | -1 -> ()
                                | id -> Relation.Idset.add dp.dp_derived id))
                        dp.dp_checks)
                    dps;
                  first := false
                in
                let rec derivable dp id = function
                  | [] -> false
                  | Probe (chain, bind) :: rest ->
                    (Compile.bind_id bind (Compile.env chain) dp.dp_pre id
                    && try
                         Compile.run_resolved chain (fun () -> raise Exit);
                         false
                       with Exit -> true)
                    || derivable dp id rest
                  | Enumerate _ :: rest -> Relation.Idset.mem dp.dp_derived id || derivable dp id rest
                in
                let check dp id =
                  Limits.poll limits;
                  incr checked;
                  if
                    (match dp.dp_edb with
                    | Some e -> Relation.find_of e dp.dp_pre id >= 0
                    | None -> false)
                    || derivable dp id dp.dp_checks
                  then begin
                    ignore (Relation.add_of dp.dp_live dp.dp_pre id);
                    Relation.Idset.add dp.dp_back id;
                    dp.dp_back_count <- dp.dp_back_count + 1
                  end
                in
                let rqs =
                  variants ~front:in_clique ~rename_front:Fun.id ~rename:Fun.id
                    ~source:(fun q -> Option.map (fun dp -> Clique dp) (dp_of q))
                in
                List.iter (fun v -> Compile.resolve v.dv_chain model) rqs;
                (* One pass: [visit] checks rows; then the variants over
                   what it restored queue the rows to check next. *)
                let rec pass visit =
                  enumerate ();
                  List.iter (fun dp -> dp.dp_lo <- Relation.id_bound dp.dp_live) dps;
                  visit ();
                  List.iter (fun dp -> dp.dp_hi <- Relation.id_bound dp.dp_live) dps;
                  let queue = ref [] in
                  List.iter
                    (fun v ->
                      let src = match v.dv_src with Clique dp -> dp | Lower _ -> assert false in
                      let dp = v.dv_into in
                      run_variant v src.dp_lo src.dp_hi (fun id ->
                          if
                            Relation.Idset.mem dp.dp_over id
                            && (not (Relation.Idset.mem dp.dp_back id))
                            && not (Relation.Idset.mem dp.dp_queued id)
                          then begin
                            Relation.Idset.add dp.dp_queued id;
                            queue := (dp, id) :: !queue
                          end))
                    rqs;
                  match !queue with
                  | [] -> ()
                  | queued ->
                    pass (fun () ->
                        List.iter
                          (fun (dp, id) ->
                            Relation.Idset.remove dp.dp_queued id;
                            if not (Relation.Idset.mem dp.dp_back id) then check dp id)
                          (List.rev queued))
                in
                pass (fun () -> List.iter (fun dp -> Relation.Idset.iter dp.dp_over (check dp)) dps));
            List.iter
              (fun dp ->
                stats.dred_overdeleted <- stats.dred_overdeleted + dp.dp_count;
                stats.dred_rederived <- stats.dred_rederived + dp.dp_back_count)
              dps;
            stats.dred_checked <- stats.dred_checked + !checked;
            stats.dred_rounds <- stats.dred_rounds + !rounds;
            List.iter
              (fun dp ->
                note_deleted dp.dp_pred dp.dp_pre (dp.dp_count - dp.dp_back_count) (fun f ->
                    Relation.Idset.iter dp.dp_over (fun id ->
                        if not (Relation.Idset.mem dp.dp_back id) then f id)))
              dps;
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
                Seminaive.instantiate ~telemetry ~limits ~pool ~marks:mark model (prepared s)
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
                    for id = 0 to Relation.id_bound er - 1 do
                      if Relation.is_live er id then ignore (Relation.add_of fresh er id)
                    done
                  | None -> ());
                  replace p r fresh)
              s.s_preds;
            Seminaive.step (Seminaive.instantiate ~telemetry ~limits ~pool model (prepared s));
            List.iter
              (fun p ->
                match (Hashtbl.find_opt pre p, Database.find model p) with
                | Some old, Some now ->
                  (* [b]'s live ids whose rows [a] lacks *)
                  let missing a b f =
                    for id = 0 to Relation.id_bound b - 1 do
                      if Relation.is_live b id && Relation.find_of a b id < 0 then f id
                    done
                  in
                  let gone = Relation.Idset.create (Relation.id_bound old) and n = ref 0 in
                  missing now old (fun id ->
                      Relation.Idset.add gone id;
                      incr n);
                  note_deleted p old !n (Relation.Idset.iter gone);
                  missing old now (fun _ -> stats.rows_inserted <- stats.rows_inserted + 1);
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
          List.iter Relation.release !retired;
          (* Compact once the handles that shared the stores are
             released, so that a compaction works in place. *)
          Hashtbl.iter
            (fun p _ ->
              Option.iter (fun r -> Database.set_relation model p (Relation.compact r)) (Database.find model p))
            pre;
          stats.applies <- stats.applies + 1);
      Maintained
    with Fall msg ->
      t.stats.fallbacks <- t.stats.fallbacks + 1;
      Fallback msg
  end
