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
     at compile time.  Every execution runs its own instance of the
     chain's plan. *)
  plan : Compile.plan;
  bind : Compile.binder;  (* source argument terms against a source row *)
  out : Compile.row;  (* chosen$i row *)
  head_row : Compile.row;
  fds : (Compile.value_prog list * Compile.value_prog list) list;
  fd_cols : (int * int array * int array) array option;
  (* When every projection of every choice FD is a plain chosen-row
     column ([VPos]), the FD state needs no tables at all: per FD the
     left-column bitmask, the left columns and the right columns,
     checked against the chosen relation's own indexes. *)
  cost_pos : int option;
  (* Source argument position holding the extremum cost when the cost
     term is that argument's plain variable — the queue then reads
     costs straight out of the row's cells, no memo. *)
  cost_of : (Compile.binder * Compile.value_prog * int) option;
  (* Otherwise: the cost of a source row, bound into an environment of
     the given width and evaluated there. *)
}

(* Index-backed FD compatibility: the chosen relation's rows are
   pairwise FD-consistent (every add went through this check), so a
   candidate is compatible iff every stored row agreeing with it on an
   FD's left columns also agrees on the right columns.  Probes reuse
   the relation's column indexes — no projection tuples, no replay. *)
exception Fd_conflict

(* Per FD, the probe of the chosen relation [rel] for the candidate row
   in [cand]: the left-column bitmask and columns, the cell key, and the
   visitor that fails on a stored row disagreeing on a right column.
   Built once per execution of a rule, so a check allocates nothing. *)
let fd_probes rel (cand : int array) fds =
  Array.map
    (fun (mask, lcols, rcols) ->
      let key = Array.make (Relation.arity rel) 0 in
      let visit id =
        let cells = Relation.cells rel and off = id * Relation.arity rel in
        for j = 0 to Array.length rcols - 1 do
          let c = rcols.(j) in
          if cells.(off + c) <> cand.(c) then raise Fd_conflict
        done
      in
      (mask, lcols, key, visit))
    fds

let rec compatible_from rel (cand : int array) probes i =
  i = Array.length probes
  ||
  let mask, lcols, key, visit = probes.(i) in
  for j = 0 to Array.length lcols - 1 do
    let c = lcols.(j) in
    key.(c) <- cand.(c)
  done;
  Relation.probe_ids rel mask key visit;
  compatible_from rel cand probes (i + 1)

let compatible_cols rel cand probes = try compatible_from rel cand probes 0 with Fd_conflict -> false

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
  let plan =
    Compile.plan
      ~bound:(List.sort_uniq compare (List.map (Eval.slot residual) extra_bound))
      residual
  in
  let value t = Compile.compile_value plan (compile_t t) in
  let fd_cols =
    let cols vs =
      List.fold_right
        (fun v acc -> match (v, acc) with EC.VPos i, Some l -> Some (i :: l) | _ -> None)
        vs (Some [])
    in
    let conv (l, rr) =
      match (cols l, cols rr) with
      | Some ls, Some rs ->
        Some
          (List.fold_left (fun m c -> m lor (1 lsl c)) 0 ls, Array.of_list ls, Array.of_list rs)
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
      Some (Compile.compile_binder ~bound:[] src_pats, value c, max 1 (Eval.nvars residual))
  in
  { cr; source; minimize; has_extremum; key_positions; stage_positions; shadow;
    newer_wins; stage_slot; plan;
    bind = Compile.compile_binder ~bound:[ stage_slot ] src_pats;
    out = Compile.compile_row plan (Array.of_list (List.map compile_t cr.EC.out_terms));
    head_row = Compile.compile_row plan (Array.of_list (List.map compile_t cr.EC.head.args));
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
  rql : Rql.t;  (* keyed by the congruence columns' cells *)
  mutable src_mark : int;
  src_rel : Relation.t;
  src_cells : int array ref;
      (* [src_rel]'s cells as of the last [sync]: they hold every row
         the queue holds *)
  fire : unit -> int;  (* pop-validate-fire: the stage fired at, or -1 *)
}

exception Fired

(* Pop-validate-fire loop for one staged rule.  The closures and the
   chosen and head row buffers are preallocated here rather than per
   fire, relations are resolved once per call rather than per
   candidate, the stage slot is written once per stage (the binder and
   the chain both treat it as bound), and FD checks go through
   {!compatible_cols} when the FDs are plain column projections.  A
   solution that fires leaves its chosen and head cells in the
   buffers. *)
let make_fire ~telemetry ~limits db (sr : srule) ~chain ~rql ~src_rel ~(fd : EC.fd_state) ~tracker
    ~head_rel =
  let cenv = Compile.env chain in
  let rc = Telemetry.rule telemetry sr.cr.EC.label in
  let chosen = Array.make (Compile.row_width sr.out) 0 in
  let head = Array.make (Compile.row_width sr.head_row) 0 in
  let fired () =
    Compile.write_row sr.head_row cenv head 0;
    raise Fired
  in
  let kont =
    match sr.fd_cols with
    | Some fds ->
      let probes = fd_probes fd.EC.rel chosen fds in
      fun () ->
        Compile.write_row sr.out cenv chosen 0;
        if Relation.find_cells fd.EC.rel chosen < 0 && compatible_cols fd.EC.rel chosen probes then
          fired ()
    | None ->
      fun () ->
        Compile.write_row sr.out cenv chosen 0;
        if Relation.find_cells fd.EC.rel chosen < 0 then begin
          let projections =
            List.map
              (fun (l, r) ->
                ( Value.Tup (List.map (fun p -> p cenv) l),
                  Value.Tup (List.map (fun p -> p cenv) r) ))
              sr.fds
          in
          if EC.compatible fd projections then fired ()
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
      match Compile.run_resolved chain kont with
      | () -> false
      | exception Fired ->
        ignore (Relation.add_cells fd.EC.rel chosen 0);
        Limits.tick_derived limits 1;
        if Relation.add_cells head_rel head 0 then Limits.tick_derived limits 1;
        true
    end
  in
  fun () ->
    if Option.is_none sr.fd_cols then EC.replay_chosen fd;
    let stage = EC.current_stage db tracker + 1 in
    Compile.set_slot chain sr.stage_slot (Relation.Cell.of_int stage);
    Compile.resolve chain db;
    match Rql.retrieve_least rql ~valid with Some _ -> stage | None -> -1

(* A choice clique as {!prepare} compiles it: the exit rules (whose
   chains every execution clones), the next rules, and the flat rules
   plus the exits' positive rules, prepared per sub-clique. *)
type choice_clique = { exits : EC.crule list; srules : srule list; subs : Seminaive.prepared list }

let not_compilable f =
  try f () with Invalid_argument msg | Eval.Unsafe msg -> raise (Not_compilable msg)

let prepare_choice crules flat_rules =
  let exits, nexts = List.partition (fun ((cr : EC.crule), _) -> cr.EC.stage = None) crules in
  let srules = List.map (fun (cr, r) -> compile_srule cr r) nexts in
  let flat = flat_rules @ List.map (fun (cr, r) -> EC.positive_rule cr r) exits in
  let subs =
    not_compilable (fun () ->
        List.map
          (fun sub -> Seminaive.prepare ~allow_clique_negation:true ~clique:sub flat)
          (Depgraph.cliques (Depgraph.make flat)))
  in
  { exits = List.map fst exits; srules; subs }

let eval_choice_clique ~shadow_mode ~telemetry ~limits ~pool db c gamma =
  let saturators =
    not_compilable (fun () -> List.map (Seminaive.instantiate ~telemetry ~limits ~pool db) c.subs)
  in
  (* Per gamma step: a [try], not [not_compilable], allocates no closure. *)
  let saturate () =
    try List.iter Seminaive.step saturators
    with Invalid_argument msg | Eval.Unsafe msg -> raise (Not_compilable msg)
  in
  let exit_states = List.map (EC.make_fd_state db) c.exits in
  let staged =
    List.map
      (fun sr ->
        (* Relation creation order (source, head, chosen$) is part of
           the canonical output; keep it. *)
        let src_rel = Database.relation db sr.source.pred (List.length sr.source.args) in
        let w = Relation.arity src_rel in
        let key_cols = Array.of_list sr.key_positions in
        let src_cells = ref (Relation.cells src_rel) in
        let key id i = Array.unsafe_get !src_cells ((id * w) + key_cols.(i)) in
        (* Cost order of two source rows: read straight off their cells
           when the cost is a plain source argument, else evaluated once
           per row and memoized by id. *)
        let sign = if sr.minimize then 1 else -1 in
        let cost_cmp =
          match (sr.cost_pos, sr.cost_of) with
          | _ when not sr.has_extremum -> fun _ _ -> 0
          | Some p, _ ->
            fun a b ->
              let cells = !src_cells in
              let ca = Array.unsafe_get cells ((a * w) + p)
              and cb = Array.unsafe_get cells ((b * w) + p) in
              (* two inline ints, the common case, compare as cells *)
              if (ca lor cb) land 1 = 0 then sign * Int.compare ca cb
              else sign * Value.compare (Relation.Cell.decode ca) (Relation.Cell.decode cb)
          | None, None -> fun _ _ -> 0
          | None, Some (bind, cost, width) ->
            let env = Array.make width 0 in
            let cost_of rel id =
              if Compile.bind_id bind env rel id then cost env
              else invalid_arg "Stage_engine: source row does not match its own atom"
            in
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
          | p :: _ ->
            let c = !src_cells.((id * w) + p) in
            if Relation.Cell.is_int c then c asr 1
            else ( match Relation.Cell.decode c with Value.Int i -> i | _ -> 0)
        in
        let shadow = match shadow_mode with `Auto -> sr.shadow | `Off -> false in
        let rql =
          Rql.create ~shadow ~newer_wins:sr.newer_wins ~width:(Array.length key_cols) ~key ~cost_cmp
            ~stage:stage_of ()
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
        let chain = Compile.instance sr.plan in
        { sr; rql; src_mark = 0; src_rel; src_cells;
          fire = make_fire ~telemetry ~limits db sr ~chain ~rql ~src_rel ~fd ~tracker ~head_rel })
      c.srules
  in
  (* New source rows enter the queue as the live ids past the mark. *)
  let sync () =
    List.iter
      (fun st ->
        let n = Relation.id_bound st.src_rel in
        let all_live = Relation.cardinal st.src_rel = n in
        st.src_cells := Relation.cells st.src_rel;
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

(* A stratum as {!prepare} leaves it.  Preparing never raises: a
   clique outside the compiled class keeps its error, raised when an
   execution reaches the stratum — after the strata before it ran, as
   if it were compiled on the spot. *)
type clique = Flat of Seminaive.prepared | Choice_clique of choice_clique
type stratum = { label : string; clique : (clique, exn) result }

type prepared = {
  facts : Ast.program;
  strata : (stratum list, exn) result;  (* an error: the choice rules do not compile *)
}

let caught f = match f () with x -> Ok x | exception e -> Error e

let prepare program =
  let facts, rules = List.partition Ast.is_fact program in
  let stratum i (preds, crules_in, flat_in) =
    { label = Printf.sprintf "stratum %d: %s" i (String.concat "," preds);
      clique =
        caught (fun () ->
            if crules_in = [] then
              Flat (not_compilable (fun () -> Seminaive.prepare ~clique:preds rules))
            else Choice_clique (prepare_choice crules_in flat_in)) }
  in
  { facts; strata = caught (fun () -> List.mapi stratum (plan_cliques rules)) }

(* Load the facts, then evaluate stratum by stratum. *)
let execute_in ~shadow ~telemetry ~limits ~pool ~gamma ~rql_stats db p =
  Database.load_facts db p.facts;
  let strata = match p.strata with Ok strata -> strata | Error e -> raise e in
  List.iter
    (fun st ->
      Limits.set_active limits st.label;
      Telemetry.stratum telemetry st.label;
      Telemetry.span telemetry st.label (fun () ->
          match st.clique with
          | Error e -> raise e
          | Ok (Flat sp) ->
            not_compilable (fun () ->
                Seminaive.step (Seminaive.instantiate ~telemetry ~limits ~pool db sp))
          | Ok (Choice_clique c) ->
            rql_stats :=
              eval_choice_clique ~shadow_mode:shadow ~telemetry ~limits ~pool db c gamma
              @ !rql_stats))
    strata

(* Execute what [prepared] returns for the database, under the
   governor. *)
let governed ~shadow ~telemetry ~limits ~jobs ?db prepared =
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
      execute_in ~shadow ~telemetry ~limits ~pool ~gamma ~rql_stats db (prepared db);
      (db, stats ()))

let execute ?(shadow = `Auto) ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited)
    ?(jobs = 1) ?db p =
  governed ~shadow ~telemetry ~limits ~jobs ?db (fun _ -> p)

let run_governed ?(shadow = `Auto) ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited)
    ?(jobs = 1) ?plan ?db program =
  governed ~shadow ~telemetry ~limits ~jobs ?db (fun db ->
      (* Reorderable rule bodies are cost-planned first.  The gate
         makes this a no-op on any program with choice / next rules,
         so [compile_srule]'s source-atom selection always sees the
         source order. *)
      let program =
        match plan with
        | Some p -> Plan.program p
        | None -> Plan.program (Plan.analyze ~telemetry ~db program)
      in
      Telemetry.span telemetry "prepare" (fun () -> prepare program))

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
