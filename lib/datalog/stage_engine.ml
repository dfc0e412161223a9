open Ast
module EC = Engine_core
module Rql = Gbc_ordered.Rql

exception Not_compilable of string

type stats = {
  gamma_steps : int;
  inserted : int;
  shadowed : int;
  stale : int;
  invalid_pops : int;
  max_queue : int;
}

type shadow_mode = [ `Auto | `Off ]

(* ------------------------------------------------------------------ *)
(* Bound facts (local, rule-level)                                     *)
(* ------------------------------------------------------------------ *)

(* Pairs (a, b) with a > b provable from one comparison/equation goal,
   plus (a, b) pin pairs from a = b + 1 (used for newer-wins). *)
let gt_pairs (r : Ast.rule) =
  List.filter_map
    (fun lit ->
      match lit with
      | Rel (Lt, Var a, Var b) -> Some (b, a, false)
      | Rel (Gt, Var a, Var b) -> Some (a, b, false)
      | Rel (Eq, Var a, Binop (Add, Var b, Cst (Value.Int 1)))
      | Rel (Eq, Binop (Add, Var b, Cst (Value.Int 1)), Var a) -> Some (a, b, true)
      | _ -> None)
    r.body

(* ------------------------------------------------------------------ *)
(* Shadow-safety analysis                                              *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

let tvars ts = SS.of_list (List.concat_map term_vars ts)

(* See DESIGN.md: an argument set D may be dropped from the congruence
   key iff its variables are FD-determined by the remaining key and
   every FD's left-hand side stays inside the key; additionally all
   non-stage source variables (the cost included) must lie in the FD
   closure of the key, so that within a class the cheapest fact is
   always an acceptable representative. *)
let shadow_analysis ~svars ~stagevars ~costvars ~fds =
  let k0 = SS.diff (SS.diff svars stagevars) costvars in
  let lhs_of (l, _) = tvars l and rhs_of (_, r) = tvars r in
  let all_lhs = List.fold_left (fun acc fd -> SS.union acc (lhs_of fd)) SS.empty fds in
  let rec drop d =
    let candidate =
      SS.choose_opt
        (SS.filter
           (fun v ->
             (not (SS.mem v d))
             && (not (SS.mem v all_lhs))
             && List.exists (fun fd -> SS.mem v (rhs_of fd)) fds
             && List.for_all
                  (fun fd ->
                    (not (SS.mem v (rhs_of fd)))
                    || SS.subset (lhs_of fd) (SS.remove v (SS.diff k0 d)))
                  fds)
           k0)
    in
    match candidate with None -> d | Some v -> drop (SS.add v d)
  in
  let d = drop SS.empty in
  let key = SS.diff k0 d in
  let closure =
    let rec go s =
      let s' =
        List.fold_left
          (fun s fd -> if SS.subset (lhs_of fd) s then SS.union s (rhs_of fd) else s)
          s fds
      in
      if SS.equal s s' then s else go s'
    in
    go key
  in
  let safe =
    List.for_all (fun fd -> SS.subset (lhs_of fd) key) fds
    && SS.subset (SS.diff svars stagevars) closure
  in
  (safe, key)

(* ------------------------------------------------------------------ *)
(* Next rules                                                          *)
(* ------------------------------------------------------------------ *)

type srule = {
  cr : EC.crule;
  source : atom;
  minimize : bool;  (* meaningful when has_extremum *)
  has_extremum : bool;
  key_positions : int list;
  stage_positions : int list;
  shadow : bool;
  newer_wins : bool;
  stage_slot : int;
  (* The residual body's closure chain and the evaluators the
     pop-validate loop runs per candidate row, resolved against it once
     at compile time. *)
  chain : Compile.t;
  bind : Compile.binder;  (* source argument terms against a source row *)
  out : Compile.value_prog array;  (* chosen$i tuple *)
  head_row : Compile.value_prog array;
  fds : (Compile.value_prog list * Compile.value_prog list) list;
  fd_cols : (int * int array * Value.t array * int array) array option;
  (* When every projection of every choice FD is a plain chosen-row
     column ([VPos]), the FD state needs no tables at all: per FD the
     left-column bitmask, the left columns, a reusable full-arity probe
     key and the right columns, checked against the chosen relation's
     own indexes. *)
  cost_pos : int option;
  (* Source argument position holding the extremum cost when the cost
     term is that argument's plain variable — the queue then reads
     costs straight out of the row's cells, no memo. *)
  cost_of : (Relation.t -> int -> Value.t) option;
  (* Otherwise: the cost of a source row, given by id, evaluated from a
     private environment the row is bound into. *)
}

(* Index-backed FD compatibility: the chosen relation's rows are
   pairwise FD-consistent (every add went through this check), so a
   candidate is compatible iff every stored row agreeing with it on an
   FD's left columns also agrees on the right columns.  Probes reuse
   the relation's column indexes — no projection tuples, no replay. *)
exception Fd_conflict

let compatible_cols rel fds (cand : Value.t array) =
  try
    Array.iter
      (fun (mask, lcols, key, rcols) ->
        for j = 0 to Array.length lcols - 1 do
          let c = lcols.(j) in
          key.(c) <- cand.(c)
        done;
        Relation.iter_matching_cols rel mask key (fun row ->
            for j = 0 to Array.length rcols - 1 do
              let c = rcols.(j) in
              if not (Value.equal row.(c) cand.(c)) then raise Fd_conflict
            done))
      fds;
    true
  with Fd_conflict -> false

let compile_srule (cr : EC.crule) (r : Ast.rule) =
  let fail msg = raise (Not_compilable (msg ^ ": " ^ Pretty.rule_to_string r)) in
  let stage_var =
    match cr.EC.stage with Some (v, _) -> v | None -> assert false
  in
  (match cr.EC.extrema with
  | [] | [ _ ] -> ()
  | _ -> fail "more than one extremum in a next rule");
  let minimize, cost, has_extremum =
    match cr.EC.extrema with
    | [] -> (true, None, false)
    | [ e ] -> (e.EC.minimize, Some e.EC.cost, true)
    | _ -> assert false
  in
  if not (List.for_all (fun v -> List.mem v cr.EC.vars) (atom_vars r.head)) then
    fail "head not determined by the choice variables";
  let positives = positive_body_atoms r in
  let cost_vars = match cost with None -> [] | Some t -> term_vars t in
  let source =
    match
      List.find_opt
        (fun a -> List.for_all (fun v -> List.mem v (atom_vars a)) cost_vars)
        positives
    with
    | Some a -> a
    | None -> fail "no positive body atom binds the extremum cost"
  in
  (* Residual: the flat body minus the first occurrence of the source. *)
  let removed = ref false in
  let residual_literals =
    List.filter
      (fun lit ->
        match lit with
        | Pos a when (not !removed) && a == source ->
          removed := true;
          false
        | Next _ | Choice _ | Least _ | Most _ -> false
        | _ -> true)
      r.body
  in
  let extra_bound = stage_var :: atom_vars source in
  let residual =
    try Eval.compile_body ~extra_bound residual_literals
    with Eval.Unsafe msg -> fail ("unsafe residual: " ^ msg)
  in
  let pairs = gt_pairs r in
  let is_stage_term = function
    | Var j ->
      List.exists (fun (a, b, _) -> String.equal a stage_var && String.equal b j) pairs
    | _ -> false
  in
  let stage_positions =
    List.mapi (fun i t -> (i, t)) source.args
    |> List.filter_map (fun (i, t) -> if is_stage_term t then Some i else None)
  in
  let newer_wins =
    List.exists
      (fun (a, b, pin) ->
        pin && String.equal a stage_var
        && List.exists
             (fun pos ->
               match List.nth source.args pos with
               | Var j -> String.equal j b
               | _ -> false)
             stage_positions)
      pairs
  in
  let stagevars =
    SS.of_list
      (List.filter_map
         (fun pos -> match List.nth source.args pos with Var j -> Some j | _ -> None)
         stage_positions)
  in
  let safe, key =
    shadow_analysis ~svars:(SS.of_list (atom_vars source)) ~stagevars
      ~costvars:(SS.of_list cost_vars) ~fds:(choice_fds r)
  in
  let shadow = safe && has_extremum in
  let key_positions =
    List.mapi (fun i t -> (i, t)) source.args
    |> List.filter_map (fun (i, t) ->
           if List.mem i stage_positions then None
           else
             let vs = term_vars t in
             if vs = [] then Some i
             else if List.exists (fun v -> SS.mem v key) vs then Some i
             else None)
  in
  let compile_t t =
    try Eval.compile_term residual t
    with Eval.Unsafe msg -> fail ("unsafe residual: " ^ msg)
  in
  let stage_slot = Eval.slot residual stage_var in
  let src_pats = Array.of_list (List.map compile_t source.args) in
  let chain =
    Compile.of_body
      ~bound:(List.sort_uniq compare (List.map (Eval.slot residual) extra_bound))
      residual
  in
  let value t = Compile.compile_value chain (compile_t t) in
  let fd_cols =
    let arity = List.length cr.EC.vars in
    let cols vs =
      List.fold_right
        (fun v acc -> match (v, acc) with EC.VPos i, Some l -> Some (i :: l) | _ -> None)
        vs (Some [])
    in
    let conv (l, rr) =
      match (cols l, cols rr) with
      | Some ls, Some rs ->
        Some
          ( List.fold_left (fun m c -> m lor (1 lsl c)) 0 ls,
            Array.of_list ls,
            Array.make (max 1 arity) Value.unit,
            Array.of_list rs )
      | _ -> None
    in
    let rec go acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | fd :: rest -> ( match conv fd with Some c -> go (c :: acc) rest | None -> None)
    in
    go [] cr.EC.v_fds
  in
  let cost_pos =
    match cost with
    | Some (Var v) ->
      let rec find i = function
        | [] -> None
        | Var w :: _ when String.equal w v -> Some i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 source.args
    | _ -> None
  in
  let cost_of =
    match (cost, cost_pos) with
    | None, _ | _, Some _ -> None
    | Some c, None ->
      let env = Array.make (max 1 (Eval.nvars residual)) Value.unit in
      let bind = Compile.compile_binder ~bound:[] src_pats in
      let cost = value c in
      Some
        (fun rel id ->
          if Compile.bind_id bind env rel id then cost env
          else invalid_arg "Stage_engine: source row does not match its own atom")
  in
  { cr; source; minimize; has_extremum; key_positions; stage_positions; shadow;
    newer_wins; stage_slot; chain;
    bind = Compile.compile_binder ~bound:[ stage_slot ] src_pats;
    out = Array.of_list (List.map value cr.EC.out_terms);
    head_row = Array.of_list (List.map value cr.EC.head.args);
    fds = List.map (fun (l, rr) -> (List.map value l, List.map value rr)) cr.EC.fds;
    fd_cols; cost_pos; cost_of }

(* ------------------------------------------------------------------ *)
(* Clique evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* The unset slot of a cost memo: no computed cost is this block. *)
let no_cost = Value.Str (-1)

(* [Rql] holds source row ids: an engine run only appends rows, which
   never move, so an id names its row for the whole run, and ids
   follow insertion order. *)
type staged = {
  sr : srule;
  rql : (int, int array) Rql.t;  (* keyed by the congruence columns' cells *)
  mutable src_mark : int;
  src_rel : Relation.t;
  fire : unit -> int;  (* pop-validate-fire: the stage fired at, or -1 *)
}

exception Fired of Value.t array * Value.t array (* chosen row, head row *)

(* Pop-validate-fire loop for one staged rule.  The closures are
   preallocated here rather than per fire, relations are resolved once
   per call rather than per candidate, the stage slot is written once
   per stage (the binder and the chain both treat it as bound), and FD
   checks go through {!compatible_cols} when the FDs are plain column
   projections. *)
let make_fire ~telemetry ~limits db (sr : srule) ~rql ~src_rel ~(fd : EC.fd_state) ~tracker
    ~head_rel =
  let cenv = Compile.env sr.chain in
  let rc = Telemetry.rule telemetry sr.cr.EC.label in
  let kont =
    match sr.fd_cols with
    | Some fds ->
      fun () ->
        let chosen_row = Compile.eval_row cenv sr.out in
        if (not (Relation.mem fd.EC.rel chosen_row)) && compatible_cols fd.EC.rel fds chosen_row
        then raise (Fired (chosen_row, Compile.eval_row cenv sr.head_row))
    | None ->
      fun () ->
        let chosen_row = Compile.eval_row cenv sr.out in
        if not (Relation.mem fd.EC.rel chosen_row) then begin
          let projections =
            List.map
              (fun (l, r) ->
                ( Value.Tup (List.map (fun p -> p cenv) l),
                  Value.Tup (List.map (fun p -> p cenv) r) ))
              sr.fds
          in
          if EC.compatible fd projections then
            raise (Fired (chosen_row, Compile.eval_row cenv sr.head_row))
        end
  in
  let valid id =
    (* Every popped source fact is a candidate the engine examines. *)
    Limits.tick_candidates limits 1;
    (match rc with
    | Some rc -> rc.Telemetry.candidates <- rc.Telemetry.candidates + 1
    | None -> ());
    if not (Compile.bind_id sr.bind cenv src_rel id) then false
    else begin
      match Compile.run_resolved sr.chain kont with
      | () -> false
      | exception Fired (chosen_row, head_row) ->
        ignore (Relation.add fd.EC.rel chosen_row);
        Limits.tick_derived limits 1;
        if Relation.add head_rel head_row then Limits.tick_derived limits 1;
        true
    end
  in
  fun () ->
    if Option.is_none sr.fd_cols then EC.replay_chosen fd;
    let stage = EC.current_stage db tracker + 1 in
    Compile.set_slot sr.chain sr.stage_slot (Value.Int stage);
    Compile.resolve sr.chain db;
    match Rql.retrieve_least rql ~valid with Some _ -> stage | None -> -1

let eval_choice_clique ~shadow_mode ~telemetry ~limits ~pool db crules flat_rules gamma =
  let exits, nexts = List.partition (fun ((cr : EC.crule), _) -> cr.EC.stage = None) crules in
  let srules = List.map (fun (cr, r) -> compile_srule cr r) nexts in
  let flat =
    flat_rules @ List.map (fun (cr, r) -> EC.positive_rule cr r) exits
  in
  let sub_cliques = Depgraph.cliques (Depgraph.make flat) in
  let saturators =
    try
      List.map
        (fun sub ->
          Seminaive.make ~allow_clique_negation:true ~telemetry ~limits ~pool db ~clique:sub flat)
        sub_cliques
    with Invalid_argument msg | Eval.Unsafe msg -> raise (Not_compilable msg)
  in
  let saturate () =
    try List.iter Seminaive.step saturators
    with Invalid_argument msg | Eval.Unsafe msg -> raise (Not_compilable msg)
  in
  let exit_states = List.map (fun (cr, _) -> EC.make_fd_state db cr) exits in
  let staged =
    List.map
      (fun sr ->
        (* Relation creation order (source, head, chosen$) is part of
           the canonical output; keep it. *)
        let src_rel = Database.relation db sr.source.pred (List.length sr.source.args) in
        let w = Relation.arity src_rel in
        let key_cols = Array.of_list sr.key_positions in
        let key_of id =
          let cells = Relation.cells src_rel in
          let key = Array.make (Array.length key_cols) 0 in
          for i = 0 to Array.length key_cols - 1 do
            key.(i) <- cells.((id * w) + key_cols.(i))
          done;
          key
        in
        (* Cost order of two source rows: read straight off their cells
           when the cost is a plain source argument, else evaluated once
           per row and memoized by id. *)
        let sign = if sr.minimize then 1 else -1 in
        let cost_cmp =
          match (sr.cost_pos, sr.cost_of) with
          | _ when not sr.has_extremum -> fun _ _ -> 0
          | Some p, _ ->
            fun a b ->
              let cells = Relation.cells src_rel in
              let ca = Array.unsafe_get cells ((a * w) + p)
              and cb = Array.unsafe_get cells ((b * w) + p) in
              if Relation.Cell.is_int ca && Relation.Cell.is_int cb then sign * Int.compare ca cb
              else sign * Value.compare (Relation.Cell.decode ca) (Relation.Cell.decode cb)
          | None, None -> fun _ _ -> 0
          | None, Some cost_of ->
            let memo = ref [||] in
            let cost id =
              let m = !memo in
              if id < Array.length m && m.(id) != no_cost then m.(id)
              else begin
                let c = cost_of src_rel id in
                if id >= Array.length m then begin
                  let bigger = Array.make (max (id + 1) (2 * Array.length m)) no_cost in
                  Array.blit m 0 bigger 0 (Array.length m);
                  memo := bigger
                end;
                !memo.(id) <- c;
                c
              end
            in
            fun a b -> sign * Value.compare (cost a) (cost b)
        in
        let stage_of id =
          match sr.stage_positions with
          | [] -> 0
          | p :: _ -> ( match Relation.read src_rel id p with Value.Int i -> i | _ -> 0)
        in
        let shadow = match shadow_mode with `Auto -> sr.shadow | `Off -> false in
        let rql =
          Rql.create ~shadow ~newer_wins:sr.newer_wins ~key:key_of ~cost_cmp ~stage:stage_of ()
        in
        let tracker =
          let pos = match sr.cr.EC.stage with Some (_, p) -> p | None -> assert false in
          ignore (Database.relation db sr.cr.EC.head.pred (List.length sr.cr.EC.head.args));
          { EC.pred = sr.cr.EC.head.pred; pos; mark = 0; maxv = 0 }
        in
        let head_rel =
          Database.relation db sr.cr.EC.head.pred (List.length sr.cr.EC.head.args)
        in
        let fd = EC.make_fd_state db sr.cr in
        { sr; rql; src_mark = 0; src_rel;
          fire = make_fire ~telemetry ~limits db sr ~rql ~src_rel ~fd ~tracker ~head_rel })
      srules
  in
  (* New source rows enter the queue as the live ids past the mark. *)
  let sync () =
    List.iter
      (fun st ->
        let n = Relation.id_bound st.src_rel in
        let all_live = Relation.cardinal st.src_rel = n in
        for id = st.src_mark to n - 1 do
          if all_live || Relation.is_live st.src_rel id then Rql.insert st.rql id
        done;
        st.src_mark <- n)
      staged
  in
  let examined = ref 0 in
  let fire_exit () =
    let rec try_exits i = function
      | [] -> false
      | st :: rest -> (
        match EC.collect_candidates ~idx:i ~limits ~pool db telemetry st None examined with
        | [] -> try_exits (i + 1) rest
        | cand :: _ ->
          EC.fire ~telemetry ~limits db cand;
          incr gamma;
          true)
    in
    try_exits 0 exit_states
  in
  (* Pop-validate-fire for one staged rule; returns true if fired. *)
  let fire_staged st =
    let stage = st.fire () in
    if stage >= 0 then begin
      incr gamma;
      if Telemetry.enabled telemetry then Telemetry.fired telemetry ~stage st.sr.cr.EC.label;
      true
    end
    else false
  in
  saturate ();
  let rec loop () =
    Limits.tick_step limits;
    if fire_exit () then begin
      saturate ();
      loop ()
    end
    else begin
      sync ();
      let rec try_staged = function
        | [] -> false
        | st :: rest -> if fire_staged st then true else try_staged rest
      in
      if try_staged staged then begin
        saturate ();
        loop ()
      end
    end
  in
  loop ();
  if Telemetry.enabled telemetry then
    List.iter (fun st -> Telemetry.queue telemetry st.sr.cr.EC.label (Rql.stats st.rql)) staged;
  List.map (fun st -> Rql.stats st.rql) staged

(* ------------------------------------------------------------------ *)
(* Program driver                                                      *)
(* ------------------------------------------------------------------ *)

let plan_cliques rules =
  let counter = ref 0 in
  let tagged =
    List.map
      (fun r ->
        if EC.is_choice_rule r then begin
          let i = !counter in
          incr counter;
          `Choice (EC.compile_crule i r, r)
        end
        else `Flat r)
      rules
  in
  let graph = Depgraph.make (Rewrite.expand_next rules) in
  List.map
    (fun clique ->
      let crules_in =
        List.filter_map
          (function
            | `Choice ((cr : EC.crule), r) when List.mem cr.EC.head.pred clique -> Some (cr, r)
            | _ -> None)
          tagged
      in
      let flat_in =
        List.filter_map
          (function `Flat r when List.mem (head_pred r) clique -> Some r | _ -> None)
          tagged
      in
      (clique, crules_in, flat_in))
    (Depgraph.cliques graph)

let run_governed ?(shadow = `Auto) ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited)
    ?(jobs = 1) ?plan ?db program =
  let pool = Par.get jobs in
  let db = match db with Some db -> db | None -> Database.create () in
  let gamma = ref 0 in
  let rql_stats = ref [] in
  let stats () =
    let sum f = List.fold_left (fun acc (s : Rql.stats) -> acc + f s) 0 !rql_stats in
    let maxq =
      List.fold_left (fun acc (s : Rql.stats) -> max acc s.Rql.max_queue) 0 !rql_stats
    in
    { gamma_steps = !gamma;
      inserted = sum (fun s -> s.Rql.inserted);
      shadowed = sum (fun s -> s.Rql.shadowed);
      stale = sum (fun s -> s.Rql.stale);
      invalid_pops = sum (fun s -> s.Rql.invalid);
      max_queue = maxq }
  in
  Limits.govern ~telemetry limits
    ~partial:(fun () -> (db, stats ()))
    (fun () ->
      (* Reorderable rule bodies are cost-planned first.  The gate
         makes this a no-op on any program with choice / next rules,
         so [compile_srule]'s source-atom selection always sees the
         source order. *)
      let program =
        match plan with
        | Some p -> Plan.program p
        | None -> Plan.program (Plan.analyze ~telemetry ~db program)
      in
      let facts, rules = List.partition Ast.is_fact program in
      Database.load_facts db facts;
      List.iteri
        (fun i (clique, crules_in, flat_in) ->
          let label = Printf.sprintf "stratum %d: %s" i (String.concat "," clique) in
          Limits.set_active limits label;
          Telemetry.stratum telemetry label;
          Telemetry.span telemetry label (fun () ->
              if crules_in = [] then begin
                try Seminaive.eval_clique ~telemetry ~limits ~pool db ~clique rules
                with Invalid_argument msg | Eval.Unsafe msg -> raise (Not_compilable msg)
              end
              else
                rql_stats :=
                  eval_choice_clique ~shadow_mode:shadow ~telemetry ~limits ~pool db crules_in
                    flat_in gamma
                  @ !rql_stats))
        (plan_cliques rules);
      (db, stats ()))

let run ?shadow ?telemetry ?limits ?jobs ?plan ?db program =
  match run_governed ?shadow ?telemetry ?limits ?jobs ?plan ?db program with
  | Limits.Complete x -> x
  | Limits.Partial (_, d) -> raise (Limits.Exhausted d.Limits.violated)

let model ?db program = fst (run ?db program)

let compiled_keys program =
  let _, rules = List.partition Ast.is_fact program in
  List.concat_map
    (fun (_, crules_in, _) ->
      List.filter_map
        (fun ((cr : EC.crule), r) ->
          if cr.EC.stage = None then None
          else
            let sr = compile_srule cr r in
            Some (cr.EC.head.pred, sr.shadow, sr.key_positions))
        crules_in)
    (plan_cliques rules)
