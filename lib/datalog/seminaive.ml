open Ast

(* ------------------------------------------------------------------ *)
(* Extrema and aggregate rules                                         *)
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

(* A tracked predicate — every clique predicate, so every head, and
   every positive body predicate: its relation, bound once per step
   ([Some] for a head: [make] creates it); the id bound published so
   far; and this round's delta, the ids [d_lo, d_hi) of the live
   relation that appeared since the previous round (an empty range
   when they hold no live row). *)
type delta = {
  d_pred : string;
  mutable d_rel : Relation.t option;
  mutable d_mark : int;
  mutable d_lo : int;
  mutable d_hi : int;
}

(* A rule whose heads need all of its body's solutions first — an
   extremum or an aggregate — compiled once, re-run on every round that
   made progress.  [g_run] returns the facts it added. *)
type gather = { g_label : string; g_chain : Compile.t; g_run : unit -> int }

let extrema_rule limits head rule =
  let extrema = extrema_of rule in
  let body = Eval.compile_body (flat_body rule) in
  let chain = Compile.of_body body in
  let value t = Compile.compile_value chain (Eval.compile_term body t) in
  let c_head = Compile.compile_row chain (Eval.compile_terms body rule.head.args) in
  let c_ext = Array.of_list (List.map (fun e -> (value e.key, value e.cost)) extrema) in
  let c_min = Array.of_list (List.map (fun e -> e.minimize) extrema) in
  let env = Compile.env chain in
  let run () =
    (* Solution: head row + per-extremum (key, cost). *)
    let solutions = ref [] in
    Compile.run_resolved chain (fun () ->
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
    let rel = Option.get head.d_rel and added = ref 0 in
    List.iter
      (fun (row, kcs) ->
        let optimal = ref true in
        Array.iteri
          (fun i (k, c) ->
            if Value.compare (Value.Tbl.find bests.(i) k) c <> 0 then optimal := false)
          kcs;
        if !optimal && Relation.add rel row then incr added)
      solutions;
    !added
  in
  { g_label = Telemetry.rule_label rule; g_chain = chain; g_run = run }

(* One [count]/[sum] goal per rule: group the flat-body solutions by
   the (evaluated) keys, aggregate the distinct counted values of each
   group, bind the output variable and emit the heads. *)
let agg_rule limits head rule =
  let op, out, counted, keys =
    match List.filter_map (function Agg (o, v, c, k) -> Some (o, v, c, k) | _ -> None) rule.body with
    | [ x ] -> x
    | [] -> invalid_arg "Seminaive.agg_rule: no aggregate goal"
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
  let run () =
    let head_parts = Value.Tbl.create 16 in
    let groups = Value.Tbl.create 16 in
    Compile.run_resolved chain (fun () ->
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
    let rel = Option.get head.d_rel and added = ref 0 in
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
        if Relation.add rel row then incr added)
      groups;
    !added
  in
  { g_label = Telemetry.rule_label rule; g_chain = chain; g_run = run }

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
  v_head : delta;
  v_delta : delta;
  v_chain : Compile.t;  (* the delta occurrence is its range scan *)
  v_cprogs : Compile.value_prog array;  (* head row over the chain's env *)
  (* Per-shard chain clones for the data-parallel fire path, grown
     lazily and reused across steps. *)
  mutable v_cscratch : Compile.t array;
}

(* The delta variant of [rule] that reads its [i]th body literal, [a],
   from the delta [d].  That occurrence goes first: the planner keeps
   positive scans in written order, so it is the first scan of the plan
   — the range scan — and the outer loop of every join. *)
let variant head d (rule : Ast.rule) i a =
  let body = Eval.compile_body (Pos a :: List.filteri (fun j _ -> j <> i) rule.body) in
  assert (Array.find_map (function Eval.SScan sc -> Some sc.Eval.sc_pred | _ -> None) body.steps
          = Some a.pred);
  let v_chain = Compile.of_body ~range:true body in
  { v_label = Telemetry.rule_label rule; v_head = head; v_delta = d; v_chain;
    v_cprogs = Compile.compile_row v_chain (Eval.compile_terms body rule.head.args);
    v_cscratch = [||] }

type incremental = {
  db : Database.t;
  deltas : delta array;
  variants : variant array;
  gathers : gather array;
  tele : Telemetry.t;
  limits : Limits.t;
  pool : Par.t;
  clique_label : string;
  mutable bound_at : int;  (* [Database.bindings] when last resolved *)
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
    (fun (r : Ast.rule) -> ignore (Database.relation db r.head.pred (List.length r.head.args)))
    rules;
  let agg_rules, rest = List.partition Ast.has_agg rules in
  let extrema_rules, plain = List.partition Ast.has_extrema rest in
  (* Track every positive body predicate: the first step then seeds
     from the full relations, later steps only from what is new —
     including facts added externally between steps. *)
  let tracked =
    List.sort_uniq String.compare
      (clique
      @ List.concat_map
          (fun r -> List.map (fun a -> a.pred) (positive_body_atoms r))
          (plain @ extrema_rules @ agg_rules))
  in
  (* Initial watermark per tracked predicate: 0 replays the whole
     relation on the first step (the seed evaluation); a caller doing
     incremental view maintenance passes [marks] pointing at the rows
     its materialized output already accounts for, so the first step
     publishes only what appeared since (clamped — a relation can have
     shrunk through retraction since the mark was taken). *)
  let deltas =
    List.map
      (fun p ->
        let mark =
          match Database.find db p with
          | None -> 0
          | Some rel -> min (max 0 (marks p)) (Relation.id_bound rel)
        in
        { d_pred = p; d_rel = None; d_mark = mark; d_lo = 0; d_hi = 0 })
      tracked
  in
  let delta_of p = List.find (fun d -> String.equal d.d_pred p) deltas in
  (* One delta variant per positive body literal: all are tracked. *)
  let variants =
    List.concat_map
      (fun (r : Ast.rule) ->
        List.concat
          (List.mapi
             (fun i lit ->
               match lit with
               | Pos a -> [ variant (delta_of r.head.pred) (delta_of a.pred) r i a ]
               | _ -> [])
             r.body))
      plain
  in
  (* Aggregate rules are evaluated by the same group-then-emit schedule
     as extrema rules, after them. *)
  let gathers =
    List.map (fun (r : Ast.rule) -> extrema_rule limits (delta_of r.head.pred) r) extrema_rules
    @ List.map (fun (r : Ast.rule) -> agg_rule limits (delta_of r.head.pred) r) agg_rules
  in
  { db; deltas = Array.of_list deltas; variants = Array.of_list variants;
    gathers = Array.of_list gathers; tele = telemetry; limits; pool;
    clique_label = String.concat "," clique; bound_at = -1 }

(* Bind every relation the step reads or writes.  A step only adds rows
   to relations already bound, so the bindings hold until it returns,
   and past it until a caller binds a name anew — [Ivm] installs the
   result of a removal, for one — which {!Database.bindings} tells. *)
let resolve t =
  if Database.bindings t.db <> t.bound_at then begin
    Array.iter (fun d -> d.d_rel <- Database.find t.db d.d_pred) t.deltas;
    Array.iter (fun v -> Compile.resolve v.v_chain t.db) t.variants;
    Array.iter (fun g -> Compile.resolve g.g_chain t.db) t.gathers;
    t.bound_at <- Database.bindings t.db
  end

let live_between rel lo hi =
  if Relation.cardinal rel = Relation.id_bound rel then max 0 (hi - lo)
  else begin
    let n = ref 0 in
    for id = lo to hi - 1 do
      if Relation.is_live rel id then incr n
    done;
    !n
  end

(* Make [d] the ids appended since the previous round; true when they
   hold a live row. *)
let publish_delta tele d =
  let lo = d.d_mark in
  let hi = match d.d_rel with Some rel -> Relation.id_bound rel | None -> lo in
  let rows = match d.d_rel with Some rel -> live_between rel lo hi | None -> 0 in
  d.d_mark <- hi;
  d.d_lo <- (if rows > 0 then lo else hi);
  d.d_hi <- hi;
  Telemetry.add_delta tele d.d_pred rows;
  rows > 0

(* Open the next round; true when some delta is not empty. *)
let publish t =
  let any = ref false in
  for i = 0 to Array.length t.deltas - 1 do
    if publish_delta t.tele t.deltas.(i) then any := true
  done;
  !any

(* Minimum delta ids before a fire is worth fanning out to the pool.
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

(* The head rows of [v] over the ids [lo, hi) of its delta, in reverse
   enumeration order, read through the chain [ch]. *)
let collect t v ch ~ro lo hi =
  let cenv = Compile.env ch and acc = ref [] in
  Compile.run_range ch ~ro lo hi (fun () ->
      Limits.poll t.limits;
      acc := Compile.eval_row cenv v.v_cprogs :: !acc);
  !acc

let rec add_all rel n = function
  | [] -> n
  | row :: rest -> add_all rel (if Relation.add rel row then n + 1 else n) rest

(* The data-parallel fire: the [n] ids of the delta are cut into
   contiguous ranges, each enumerated read-only by a private chain
   clone.  The range scan is the chain's outer loop, so the shards'
   lists in shard order hold the sequential enumeration, and inserting
   them from the last to the first, each front to back, replays the
   sequential path's insertion order exactly. *)
let fire_sharded t v rel n =
  let d = v.v_delta in
  let shards = Par.nshards t.pool n in
  Compile.prepare_indexes v.v_chain t.db;
  let scratch = cscratch_for v shards in
  for s = 0 to shards - 1 do
    Compile.resolve scratch.(s) t.db
  done;
  let accs = Array.make shards [] in
  Par.run t.pool ~shards (fun s ->
      let lo, hi = Par.bounds ~shards n s in
      accs.(s) <- collect t v scratch.(s) ~ro:true (d.d_lo + lo) (d.d_lo + hi));
  let added = ref 0 in
  Telemetry.span t.tele "par:merge" (fun () ->
      for s = shards - 1 downto 0 do
        added := add_all rel !added accs.(s)
      done);
  Telemetry.add_par t.tele ~shards ~rows:n;
  !added

(* Fire one delta variant; an empty delta costs one comparison.  Rows
   are collected before any is inserted, so no scan sees the rows its
   own fire adds. *)
let fire t v =
  let d = v.v_delta in
  let n = d.d_hi - d.d_lo in
  if n > 0 then begin
    let rel = Option.get v.v_head.d_rel in
    let added =
      if Par.size t.pool > 1 && n >= par_threshold then fire_sharded t v rel n
      else add_all rel 0 (collect t v v.v_chain ~ro:false d.d_lo d.d_hi)
    in
    Telemetry.add_derived t.tele v.v_label added;
    Limits.tick_derived t.limits added
  end

let gather t g =
  let added = g.g_run () in
  Telemetry.add_derived t.tele g.g_label added;
  Limits.tick_derived t.limits added

(* Nothing is created, installed or removed here, so a governor that
   aborts the loop leaves only the rows derived so far. *)
let step t =
  resolve t;
  let progressed = ref (publish t) in
  while !progressed do
    Limits.tick_step t.limits;
    Telemetry.iteration t.tele t.clique_label;
    for i = 0 to Array.length t.variants - 1 do
      fire t t.variants.(i)
    done;
    for i = 0 to Array.length t.gathers - 1 do
      gather t t.gathers.(i)
    done;
    progressed := publish t
  done

let eval_clique ?allow_clique_negation ?telemetry ?limits ?pool db ~clique program =
  step (make ?allow_clique_negation ?telemetry ?limits ?pool db ~clique program)
