open Ast

let delta_suffix = "$delta"

(* ------------------------------------------------------------------ *)
(* Extrema rules                                                       *)
(* ------------------------------------------------------------------ *)

type extremum = { minimize : bool; key : Ast.term; cost : Ast.term }

let extrema_of rule =
  List.filter_map
    (function
      | Least (c, ks) -> Some { minimize = true; key = Cmp ("", ks); cost = c }
      | Most (c, ks) -> Some { minimize = false; key = Cmp ("", ks); cost = c }
      | _ -> None)
    rule.body

let flat_body rule =
  List.filter (function Least _ | Most _ | Agg _ -> false | _ -> true) rule.body

let eval_extrema_rule ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited) db rule =
  let extrema = extrema_of rule in
  let body = Eval.compile_body (flat_body rule) in
  let chain = Compile.of_body body in
  let value t = Compile.compile_value chain (Eval.compile_term body t) in
  let c_head = Compile.compile_row chain (Eval.compile_terms body rule.head.args) in
  let c_ext = Array.of_list (List.map (fun e -> (value e.key, value e.cost)) extrema) in
  let c_min = Array.of_list (List.map (fun e -> e.minimize) extrema) in
  let env = Compile.env chain in
  (* Solution: head row + per-extremum (key, cost). *)
  let solutions = ref [] in
  Compile.run chain db (fun () ->
      Limits.poll limits;
      let head = Compile.eval_row env c_head in
      let kcs = Array.map (fun (k, c) -> (k env, c env)) c_ext in
      solutions := (head, kcs) :: !solutions);
  let solutions = List.rev !solutions in
  (* Optimum per key, per extremum. *)
  let bests = Array.map (fun _ -> Value.Tbl.create 16) c_ext in
  List.iter
    (fun (_, kcs) ->
      Array.iteri
        (fun i (k, c) ->
          let tbl = bests.(i) in
          match Value.Tbl.find_opt tbl k with
          | None -> Value.Tbl.replace tbl k c
          | Some best ->
            let better = if c_min.(i) then Value.compare c best < 0 else Value.compare c best > 0 in
            if better then Value.Tbl.replace tbl k c)
        kcs)
    solutions;
  let added = ref 0 in
  List.iter
    (fun (head, kcs) ->
      let optimal = ref true in
      Array.iteri
        (fun i (k, c) ->
          if Value.compare (Value.Tbl.find bests.(i) k) c <> 0 then optimal := false)
        kcs;
      if !optimal && Database.add_fact db rule.head.pred head then incr added)
    solutions;
  Telemetry.add_derived telemetry (Telemetry.rule_label rule) !added;
  Limits.tick_derived limits !added;
  !added > 0

(* ------------------------------------------------------------------ *)
(* Aggregate rules                                                     *)
(* ------------------------------------------------------------------ *)

(* One [count]/[sum] goal per rule: group the flat-body solutions by
   the (evaluated) keys, aggregate the distinct counted values of each
   group, bind the output variable and emit the heads. *)
let eval_agg_rule ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited) db rule =
  let op, out, counted, keys =
    match List.filter_map (function Agg (o, v, c, k) -> Some (o, v, c, k) | _ -> None) rule.body with
    | [ x ] -> x
    | [] -> invalid_arg "Seminaive.eval_agg_rule: no aggregate goal"
    | _ -> invalid_arg ("Seminaive: at most one aggregate per rule: " ^ Pretty.rule_to_string rule)
  in
  if Ast.has_extrema rule then
    invalid_arg ("Seminaive: aggregate mixed with extremum: " ^ Pretty.rule_to_string rule);
  let key_term = Cmp ("", keys) in
  let body = Eval.compile_body (flat_body rule) in
  let chain = Compile.of_body body in
  let value t = Compile.compile_value chain (Eval.compile_term body t) in
  let c_key = value key_term in
  let c_counted = value counted in
  (* Head arguments: the output variable passes through ([None]),
     everything else must be determined by the group (evaluated per
     solution, first solution of the group wins — sound when head vars
     are key vars, which the programs we accept satisfy). *)
  let c_head =
    List.map
      (fun t ->
        match t with
        | Var v when String.equal v out -> None
        | t -> Some (value t))
      rule.head.args
  in
  let env = Compile.env chain in
  let head_parts = Value.Tbl.create 16 in
  let groups = Value.Tbl.create 16 in
  Compile.run chain db (fun () ->
      Limits.poll limits;
      let key = c_key env in
      let v = c_counted env in
      (match Value.Tbl.find_opt groups key with
      | Some set -> set := Value.Set.add v !set
      | None -> Value.Tbl.add groups key (ref (Value.Set.singleton v)));
      if not (Value.Tbl.mem head_parts key) then begin
        let partial = List.map (Option.map (fun p -> p env)) c_head in
        Value.Tbl.add head_parts key partial
      end);
  let added = ref 0 in
  Value.Tbl.iter
    (fun key set ->
      let aggregate =
        match op with
        | Count -> Value.Int (Value.Set.cardinal !set)
        | Sum ->
          Value.Int
            (Value.Set.fold (fun v acc -> acc + Value.as_int v) !set 0)
      in
      let row =
        Array.of_list
          (List.map
             (function Some v -> v | None -> aggregate)
             (Value.Tbl.find head_parts key))
      in
      if Database.add_fact db rule.head.pred row then incr added)
    groups;
  Telemetry.add_derived telemetry (Telemetry.rule_label rule) !added;
  Limits.tick_derived limits !added;
  !added > 0

(* ------------------------------------------------------------------ *)
(* Rule checks                                                         *)
(* ------------------------------------------------------------------ *)

let check_clique_rule ~allow_clique_negation clique rule =
  List.iter
    (fun lit ->
      match lit with
      | Neg a when List.mem a.pred clique && not allow_clique_negation ->
        invalid_arg
          ("Seminaive: negation of clique predicate " ^ a.pred ^ " in "
          ^ Pretty.rule_to_string rule)
      | Choice _ | Next _ ->
        invalid_arg ("Seminaive: choice/next goal in " ^ Pretty.rule_to_string rule)
      | _ -> ())
    rule.body;
  if (Ast.has_extrema rule || Ast.has_agg rule) && not allow_clique_negation then
    List.iter
      (fun p ->
        if List.mem p clique then
          invalid_arg
            ("Seminaive: extremum or aggregate over recursive predicate in "
            ^ Pretty.rule_to_string rule))
      (body_preds rule)

(* ------------------------------------------------------------------ *)
(* Incremental semi-naive saturation                                   *)
(* ------------------------------------------------------------------ *)

type variant = {
  v_label : string;
  v_head : Ast.atom;
  v_chain : Compile.t;
  v_cprogs : Compile.value_prog array;  (* head row over the chain's env *)
  (* Per-shard chain clones for the data-parallel fire path, grown
     lazily and reused across steps. *)
  mutable v_cscratch : Compile.t array;
}

(* Delta variants of a rule: one per positive occurrence of a tracked
   predicate, reading that occurrence from [pred$delta]. *)
let variants_of_rule tracked (rule : Ast.rule) =
  let occurrences =
    List.filter (function Pos a -> List.mem a.pred tracked | _ -> false) rule.body
  in
  let make i =
    let occurrence = ref (-1) in
    let delta = ref None in
    let rest =
      List.filter_map
        (fun lit ->
          match lit with
          | Pos a when List.mem a.pred tracked ->
            incr occurrence;
            if !occurrence = i then begin
              delta := Some (Pos { a with pred = a.pred ^ delta_suffix });
              None
            end
            else Some lit
          | lit -> Some lit)
        rule.body
    in
    (* The delta occurrence goes first: it is the smallest relation, so
       the join planner makes it the outer loop and a variant whose
       delta is empty costs O(1). *)
    let body = match !delta with Some d -> d :: rest | None -> assert false in
    let v_body = Eval.compile_body body in
    let v_chain = Compile.of_body v_body in
    let v_cprogs = Compile.compile_row v_chain (Eval.compile_terms v_body rule.head.args) in
    { v_label = Telemetry.rule_label rule; v_head = rule.head; v_chain; v_cprogs;
      v_cscratch = [||] }
  in
  List.init (List.length occurrences) make

type incremental = {
  db : Database.t;
  tracked : string list;
  variants : variant list;
  extrema_rules : Ast.rule list;
  watermarks : (string, int) Hashtbl.t;
  tele : Telemetry.t;
  limits : Limits.t;
  pool : Par.t;
  clique_label : string;
}

let make ?(allow_clique_negation = false) ?(telemetry = Telemetry.none)
    ?(limits = Limits.unlimited) ?(pool = Par.sequential) ?(marks = fun _ -> 0) db ~clique
    program =
  let rules =
    List.filter (fun r -> (not (Ast.is_fact r)) && List.mem (head_pred r) clique) program
  in
  List.iter (check_clique_rule ~allow_clique_negation clique) rules;
  (* Head relations must exist even when no rule ever fires. *)
  List.iter
    (fun (r : Ast.rule) ->
      ignore (Database.relation db r.head.pred (List.length r.head.args)))
    rules;
  let agg_rules, rest = List.partition Ast.has_agg rules in
  let extrema_rules, plain = List.partition Ast.has_extrema rest in
  (* Aggregate rules are evaluated by the same group-then-emit schedule
     as extrema rules. *)
  let extrema_rules = extrema_rules @ agg_rules in
  (* Track every positive body predicate: the first step then seeds
     from the full relations, later steps only from what is new —
     including facts added externally between steps. *)
  let tracked =
    List.sort_uniq String.compare
      (clique
      @ List.concat_map
          (fun r -> List.map (fun a -> a.pred) (positive_body_atoms r))
          (plain @ extrema_rules))
  in
  let variants = List.concat_map (variants_of_rule tracked) plain in
  (* Initial watermark per tracked predicate: 0 replays the whole
     relation on the first step (the seed evaluation); a caller doing
     incremental view maintenance passes [marks] pointing at the rows
     its materialized output already accounts for, so the first step
     publishes only what appeared since (clamped — a relation can have
     shrunk through retraction since the mark was taken). *)
  let watermarks = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let m = max 0 (marks p) in
      let m =
        match Database.find db p with
        | None -> 0
        | Some rel -> min m (Relation.id_bound rel)
      in
      Hashtbl.replace watermarks p m)
    tracked;
  { db; tracked; variants; extrema_rules; watermarks; tele = telemetry; limits;
    pool; clique_label = String.concat "," clique }

let publish_deltas t =
  List.fold_left
    (fun any p ->
      match Database.find t.db p with
      | None -> any
      | Some rel ->
        let from = Hashtbl.find t.watermarks p in
        let count = Relation.id_bound rel in
        Hashtbl.replace t.watermarks p count;
        let delta =
          if count = from then None
          else begin
            let delta = Relation.create (p ^ delta_suffix) (Relation.arity rel) in
            (* bulk copy: rows of one relation are already distinct, and
               a flat source becomes a flat delta via one cell blit *)
            Relation.append_from delta rel from;
            Some delta
          end
        in
        match delta with
        | Some delta when Relation.cardinal delta > 0 ->
          Database.set_relation t.db (p ^ delta_suffix) delta;
          Telemetry.add_delta t.tele p (Relation.cardinal delta);
          true
        | _ ->
          (* Empty delta: drop the previous step's relation instead of
             installing an empty one — scans of an absent relation
             enumerate nothing, exactly like an empty one, and most
             predicates go quiet well before the fixpoint. *)
          Database.remove_relation t.db (p ^ delta_suffix);
          any)
    false t.tracked

(* Minimum delta rows before a fire is worth fanning out to the pool.
   Kept small so that modest workloads still exercise the parallel
   machinery when [--jobs] asks for it. *)
let par_threshold = 4

let cscratch_for variant shards =
  if Array.length variant.v_cscratch < shards then begin
    let old = variant.v_cscratch in
    variant.v_cscratch <-
      Array.init shards (fun i ->
          if i < Array.length old then old.(i) else Compile.clone variant.v_chain)
  end;
  variant.v_cscratch

(* Fire one delta variant.  When the delta slice is large enough and
   the pool has several domains, the first scan (the delta occurrence)
   is sliced into contiguous ranges, each enumerated read-only by a
   private chain clone into a prepend-built list.  The sequential path
   inserts in reverse enumeration order (prepend then fold), so the
   merge walks shards from last to first, each list front-to-back —
   the database insertion order is byte-identical to sequential. *)
let fire ?(pool = Par.sequential) tele limits db variant =
  let chain = variant.v_chain in
  let parallel_slice =
    if Par.size pool > 1 && Compile.shardable chain then
      match Compile.shard_scan chain db with
      | Some slice when Relation.slice_len slice >= par_threshold -> Some slice
      | _ -> None
    else None
  in
  let added =
    match parallel_slice with
    | Some slice ->
      let n = Relation.slice_len slice in
      let shards = Par.nshards pool n in
      Compile.prepare_indexes chain db;
      let scratch = cscratch_for variant shards in
      let accs = Array.make shards [] in
      Par.run pool ~shards (fun s ->
          let ch = scratch.(s) in
          let cenv = Compile.env ch in
          let lo, hi = Par.bounds ~shards n s in
          let acc = ref [] in
          Compile.run_slice ch db slice lo hi (fun () ->
              Limits.poll limits;
              acc := Compile.eval_row cenv variant.v_cprogs :: !acc);
          accs.(s) <- !acc);
      let added = ref 0 in
      Telemetry.span tele "par:merge" (fun () ->
          for s = shards - 1 downto 0 do
            List.iter
              (fun row -> if Database.add_fact db variant.v_head.pred row then incr added)
              accs.(s)
          done);
      Telemetry.add_par tele ~shards ~rows:n;
      !added
    | None ->
      let cenv = Compile.env chain in
      let additions = ref [] in
      Compile.run chain db (fun () ->
          Limits.poll limits;
          additions := Compile.eval_row cenv variant.v_cprogs :: !additions);
      List.fold_left
        (fun n row -> if Database.add_fact db variant.v_head.pred row then n + 1 else n)
        0 !additions
  in
  Telemetry.add_derived tele variant.v_label added;
  Limits.tick_derived limits added;
  added > 0

let step t =
  (* The delta relations are scratch state: drop them even when a
     governor aborts the loop, so a Partial database never leaks
     [pred$delta] relations. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> Database.remove_relation t.db (p ^ delta_suffix)) t.tracked)
    (fun () ->
      let progressed = ref (publish_deltas t) in
      while !progressed do
        Limits.tick_step t.limits;
        Telemetry.iteration t.tele t.clique_label;
        List.iter (fun v -> ignore (fire ~pool:t.pool t.tele t.limits t.db v)) t.variants;
        List.iter
          (fun r ->
            ignore
              (if Ast.has_agg r then eval_agg_rule ~telemetry:t.tele ~limits:t.limits t.db r
               else eval_extrema_rule ~telemetry:t.tele ~limits:t.limits t.db r))
          t.extrema_rules;
        progressed := publish_deltas t
      done)

let eval_clique ?allow_clique_negation ?telemetry ?limits ?pool db ~clique program =
  step (make ?allow_clique_negation ?telemetry ?limits ?pool db ~clique program)
