open Ast

type policy = First | Random of int
type stats = { gamma_steps : int; candidates_examined : int }

exception Unsupported of string

(* ------------------------------------------------------------------ *)
(* Choice rules                                                        *)
(* ------------------------------------------------------------------ *)

type extremum = { minimize : bool; key : term; cost : term }

(* Choice-goal terms resolved against the V layout of chosen$i rows:
   variables become row positions, so FD replay does no per-row name
   lookup. *)
type vterm =
  | VPos of int
  | VCst of Value.t
  | VCmp of string * vterm list
  | VBinop of binop * vterm * vterm

(* The body's closure chain plus the V / FD / extrema evaluators over
   its environment, resolved once at compile time.  Immutable: every
   {!fd_state} runs its own instance of the plan. *)
type cbody = {
  plan : Compile.plan;
  c_out : Compile.row;  (* the chosen$ridx row's cells *)
  c_fds : (Compile.value_prog list * Compile.value_prog list) list;
  c_ext : (Compile.value_prog * Compile.value_prog) array;
}

type crule = {
  ridx : int;  (* index of chosen$ridx, matching Rewrite.expand_choice *)
  label : string;  (* telemetry row of the original rule *)
  head : atom;
  vars : string list;  (* V: argument layout of chosen$ridx *)
  out_terms : term list;
  fds : (term list * term list) list;
  extrema : extremum list;
  stage : (string * int) option;  (* next rules: stage var and head position *)
  stage_slot : int;  (* environment slot of the stage variable, or -1 *)
  c_min : bool array;  (* minimize flag per extremum *)
  v_fds : (vterm list * vterm list) list;  (* [fds] against the V layout *)
  body : cbody;
}

let is_choice_rule r = has_next r || has_choice r

let stage_of_rule (r : Ast.rule) =
  match List.find_map (function Next v -> Some v | _ -> None) r.body with
  | None -> None
  | Some v ->
    let rec find i = function
      | [] ->
        raise
          (Unsupported
             (Printf.sprintf "stage variable %s of '%s' does not appear in the head" v
                (Pretty.rule_to_string r)))
      | Var x :: _ when String.equal x v -> i
      | _ :: rest -> find (i + 1) rest
    in
    Some (v, find 0 r.head.args)

let flat_literals (r : Ast.rule) =
  List.filter
    (function
      | Next _ | Choice _ | Least _ | Most _ -> false
      | Agg _ ->
        raise
          (Unsupported
             ("aggregate goal in a choice rule: " ^ Pretty.rule_to_string r))
      | Pos _ | Neg _ | Rel _ -> true)
    r.body

let extrema_of (r : Ast.rule) =
  List.filter_map
    (function
      | Least (c, ks) -> Some { minimize = true; key = Cmp ("", ks); cost = c }
      | Most (c, ks) -> Some { minimize = false; key = Cmp ("", ks); cost = c }
      | _ -> None)
    r.body

let rec compile_vterm vars = function
  | Var v ->
    let rec idx i = function
      | [] -> invalid_arg ("choice variable not in V: " ^ v)
      | x :: _ when String.equal x v -> i
      | _ :: rest -> idx (i + 1) rest
    in
    VPos (idx 0 vars)
  | Cst v -> VCst v
  | Cmp (f, args) -> VCmp (f, List.map (compile_vterm vars) args)
  | Binop (op, a, b) -> VBinop (op, compile_vterm vars a, compile_vterm vars b)

let compile_crule ridx (r : Ast.rule) =
  let stage = stage_of_rule r in
  let fds =
    match stage with
    | None -> choice_fds r
    | Some (v, pos) ->
      let w = List.filteri (fun i _ -> i <> pos) r.head.args in
      [ ([ Var v ], w); (w, [ Var v ]) ] @ choice_fds r
  in
  let vars = Rewrite.choice_vars fds in
  let extra_bound = match stage with Some (v, _) -> [ v ] | None -> [] in
  let unsafe msg =
    raise (Unsupported (Printf.sprintf "unsafe rule '%s': %s" (Pretty.rule_to_string r) msg))
  in
  let cbody =
    try Eval.compile_body ~extra_bound (flat_literals r) with Eval.Unsafe msg -> unsafe msg
  in
  let out_terms = List.map (fun v -> Var v) vars in
  let extrema = extrema_of r in
  let stage_slot = match stage with Some (v, _) -> Eval.slot cbody v | None -> -1 in
  let plan = Compile.plan ~bound:(if stage_slot < 0 then [] else [ stage_slot ]) cbody in
  let value t =
    Compile.compile_value plan (try Eval.compile_term cbody t with Eval.Unsafe msg -> unsafe msg)
  in
  { ridx; label = Telemetry.rule_label r; head = r.head; vars; out_terms;
    fds; extrema; stage; stage_slot;
    c_min = Array.of_list (List.map (fun e -> e.minimize) extrema);
    v_fds = List.map (fun (l, rr) -> (List.map (compile_vterm vars) l, List.map (compile_vterm vars) rr)) fds;
    body =
      { plan;
        c_out =
          Compile.compile_row plan
            (try Eval.compile_terms cbody out_terms with Eval.Unsafe msg -> unsafe msg);
        c_fds = List.map (fun (l, rr) -> (List.map value l, List.map value rr)) fds;
        c_ext = Array.of_list (List.map (fun e -> (value e.key, value e.cost)) extrema) } }

(* The rewritten positive rule: head <- flat body, chosen$i(V).  The
   extrema are dropped when the head is fully determined by V (always
   the case for next rules), mirroring the paper's remark that the
   upper least "only recomputes the one in the lower rule". *)
let positive_rule cr (r : Ast.rule) =
  let chosen_atom = atom (Rewrite.chosen_pred cr.ridx) cr.out_terms in
  let head_determined =
    List.for_all (fun v -> List.mem v cr.vars) (atom_vars r.head)
  in
  let keep_extrema = if head_determined then [] else List.filter
      (function Least _ | Most _ -> true | _ -> false) r.body
  in
  { head = r.head; body = flat_literals r @ keep_extrema @ [ Pos chosen_atom ] }

(* ------------------------------------------------------------------ *)
(* FD bookkeeping                                                      *)
(* ------------------------------------------------------------------ *)

(* Evaluate a resolved choice-goal term against a chosen$i row. *)
let rec vterm_value row = function
  | VPos i -> row.(i)
  | VCst v -> v
  | VCmp ("", args) -> Value.Tup (List.map (vterm_value row) args)
  | VCmp (f, args) -> Value.App (f, List.map (vterm_value row) args)
  | VBinop (op, a, b) -> (
    (* Shares the overflow-checked arithmetic of rule bodies. *)
    try Eval.apply_binop op (vterm_value row a) (vterm_value row b)
    with Eval.Unsafe msg -> raise (Unsupported (msg ^ " in choice goal")))

(* A choice rule in one execution. *)
type fd_state = {
  cr : crule;
  rel : Relation.t;  (* chosen$ridx, lives in the database *)
  tables : Value.t Value.Tbl.t list;  (* per FD: L-projection -> R-projection *)
  mutable mark : int;  (* replay watermark on [rel] *)
  chain : Compile.t Lazy.t;  (* the body, built when candidates are first collected *)
  mutable scratch : Compile.t array;
      (* per-shard chain clones for data-parallel candidate collection,
         grown lazily *)
}

let fd_projections row (l, r) =
  (Value.Tup (List.map (vterm_value row) l), Value.Tup (List.map (vterm_value row) r))

let make_fd_state db cr =
  let rel = Database.relation db (Rewrite.chosen_pred cr.ridx) (List.length cr.vars) in
  { cr; rel; tables = List.map (fun _ -> Value.Tbl.create 64) cr.fds; mark = 0;
    chain = lazy (Compile.instance cr.body.plan); scratch = [||] }

let replay_chosen st =
  Relation.iter_from st.rel st.mark (fun row ->
      List.iter2
        (fun fd tbl ->
          let l, r = fd_projections row fd in
          Value.Tbl.replace tbl l r)
        st.cr.v_fds st.tables);
  st.mark <- Relation.id_bound st.rel

(* FD-compatibility of a solution (projections computed from the
   environment, so non-V constants inside choice goals work too). *)
let compatible st projections =
  List.for_all2
    (fun tbl (l, r) ->
      match Value.Tbl.find_opt tbl l with None -> true | Some r' -> Value.equal r r')
    st.tables projections

(* ------------------------------------------------------------------ *)
(* Stage tracking                                                      *)
(* ------------------------------------------------------------------ *)

type tracker = { pred : string; pos : int; mutable mark : int; mutable maxv : int }

let current_stage db tr =
  (match Database.find db tr.pred with
  | None -> ()
  | Some rel ->
    let w = Relation.arity rel and n = Relation.id_bound rel in
    let cells = Relation.cells rel in
    for id = tr.mark to n - 1 do
      if Relation.is_live rel id then begin
        let c = cells.((id * w) + tr.pos) in
        let i =
          if Relation.Cell.is_int c then c asr 1
          else
            match Relation.Cell.decode c with
            | Value.Int i -> i
            | v ->
              raise
                (Unsupported
                   (Printf.sprintf "non-integer stage value %s in %s" (Value.to_string v) tr.pred))
        in
        if i > tr.maxv then tr.maxv <- i
      end
    done;
    tr.mark <- n);
  tr.maxv

(* ------------------------------------------------------------------ *)
(* Candidate collection                                                *)
(* ------------------------------------------------------------------ *)

type candidate = {
  c_st : fd_state;
  c_idx : int;  (* stable index of [c_st] in its clique's fd_states *)
  c_row : int array;  (* the new chosen$i row's cells *)
}

(* Minimum slice length before candidate collection fans out.  Low on
   purpose: the gamma step dominates the engines' running time, so even
   small slices are worth sharding, and the exemplar suites then cover
   the parallel path at [--jobs] > 1. *)
let par_threshold = 2

(* One enumerated solution, read out of a chain's environment: the
   chosen$i row when it is new to this collection and FD-compatible,
   with its (key, cost) per extremum.  [seen] only ever holds
   compatible rows, so every occurrence of an incompatible row is
   checked and counted. *)
let visit_solution cr st seen cenv ~rejected k =
  let b = cr.body in
  let row = Compile.row_cells b.c_out cenv in
  if not (Relation.Cells_tbl.mem seen row) then begin
    let projections =
      List.map
        (fun (l, r) ->
          (Value.Tup (List.map (fun p -> p cenv) l), Value.Tup (List.map (fun p -> p cenv) r)))
        b.c_fds
    in
    if compatible st projections then begin
      Relation.Cells_tbl.add seen row ();
      k row (Array.map (fun (key, cost) -> (key cenv, cost cenv)) b.c_ext)
    end
    else rejected ()
  end

(* Data-parallel candidate enumeration.  Each shard runs its slice of
   the first scan read-only on a private chain clone, deduplicates
   locally and keeps only FD-compatible solutions ([st.tables] is
   frozen for the whole region — replay happened before).  The V / FD
   / extrema programs are shared: they take the environment as an
   argument, so a clone's private env plugs straight in.  Shards touch
   no relation state beyond the read-only probes; whether a row is
   already chosen is decided by the sequential merge. *)
let collect_parallel pool limits st db slice =
  let cr = st.cr and chain = Lazy.force st.chain in
  let n = Relation.slice_len slice in
  let shards = Par.nshards pool n in
  Compile.prepare_indexes chain db;
  if Array.length st.scratch < shards then begin
    let old = st.scratch in
    st.scratch <-
      Array.init shards (fun i -> if i < Array.length old then old.(i) else Compile.clone chain)
  end;
  let scratch = st.scratch in
  let stage = if cr.stage_slot >= 0 then Some (Compile.env chain).(cr.stage_slot) else None in
  let results = Array.make shards ([], 0, 0) in
  Par.run pool ~shards (fun s ->
      let ch = scratch.(s) in
      Option.iter (Compile.set_slot ch cr.stage_slot) stage;
      let cenv = Compile.env ch in
      let lo, hi = Par.bounds ~shards n s in
      let seen = Relation.Cells_tbl.create 64 in
      let acc = ref [] and ex = ref 0 and rej = ref 0 in
      Compile.run_slice ch db slice lo hi (fun () ->
          incr ex;
          Limits.tick_candidates limits 1;
          visit_solution cr st seen cenv
            ~rejected:(fun () -> incr rej)
            (fun row kcs -> acc := (row, kcs) :: !acc));
      results.(s) <- (List.rev !acc, !ex, !rej));
  (results, shards, n)

let collect_candidates ?(idx = 0) ?(limits = Limits.unlimited) ?(pool = Par.sequential) db tele
    st tracker examined =
  let cr = st.cr and chain = Lazy.force st.chain in
  replay_chosen st;
  let rc = Telemetry.rule tele cr.label in
  (match cr.stage, tracker with
  | Some _, Some tr ->
    Compile.set_slot chain cr.stage_slot (Relation.Cell.of_int (current_stage db tr + 1))
  | None, None -> ()
  | _ -> assert false);
  (* Shards in slice order with a global first-occurrence dedup: the
     merged list reproduces the sequential solution order exactly.  The
     membership test against chosen$i runs here, sequentially: it may
     bring the relation's membership set up to date. *)
  let merge_shards (results, shards, rows) =
    let gseen = Relation.Cells_tbl.create 64 in
    let merged = ref [] in
    Telemetry.span tele "par:merge" (fun () ->
        Array.iter
          (fun (sols, ex, rej) ->
            examined := !examined + ex;
            (match rc with
            | Some rc ->
              rc.Telemetry.candidates <- rc.Telemetry.candidates + ex;
              rc.Telemetry.fd_rejections <- rc.Telemetry.fd_rejections + rej
            | None -> ());
            List.iter
              (fun (row, kcs) ->
                if not (Relation.Cells_tbl.mem gseen row) then begin
                  Relation.Cells_tbl.add gseen row ();
                  merged := (row, Relation.find_cells st.rel row >= 0, kcs) :: !merged
                end)
              sols)
          results);
    Telemetry.add_par tele ~shards ~rows;
    List.rev !merged
  in
  (* All FD-compatible solutions, existing chosen rows included: the
     existing rows act as witnesses that suppress costlier candidates
     (cf. the bi_st_c example), while only new rows are candidates. *)
  let solutions =
    let parallel_slice =
      if Par.size pool > 1 && Compile.shardable chain then
        match Compile.shard_scan chain db with
        | Some slice when Relation.slice_len slice >= par_threshold -> Some slice
        | _ -> None
      else None
    in
    match parallel_slice with
    | Some slice -> merge_shards (collect_parallel pool limits st db slice)
    | None ->
      let cenv = Compile.env chain in
      let seen = Relation.Cells_tbl.create 64 in
      let solutions = ref [] in
      let rejected () =
        match rc with
        | Some rc -> rc.Telemetry.fd_rejections <- rc.Telemetry.fd_rejections + 1
        | None -> ()
      in
      Compile.run chain db (fun () ->
          incr examined;
          Limits.tick_candidates limits 1;
          (match rc with Some rc -> rc.Telemetry.candidates <- rc.Telemetry.candidates + 1 | None -> ());
          visit_solution cr st seen cenv ~rejected (fun row kcs ->
              solutions := (row, Relation.find_cells st.rel row >= 0, kcs) :: !solutions));
      List.rev !solutions
  in
  (* Optimum per key for each extremum, over all compatible solutions. *)
  let bests = Array.map (fun _ -> Value.Tbl.create 16) cr.body.c_ext in
  List.iter
    (fun (_, _, kcs) ->
      Array.iteri
        (fun i (k, c) ->
          let tbl = bests.(i) in
          match Value.Tbl.find_opt tbl k with
          | None -> Value.Tbl.replace tbl k c
          | Some best ->
            let better =
              if cr.c_min.(i) then Value.compare c best < 0 else Value.compare c best > 0
            in
            if better then Value.Tbl.replace tbl k c)
        kcs)
    solutions;
  List.filter_map
    (fun (row, existing, kcs) ->
      let optimal = ref true in
      Array.iteri
        (fun i (k, c) ->
          if Value.compare (Value.Tbl.find bests.(i) k) c <> 0 then optimal := false)
        kcs;
      if !optimal && not existing then Some { c_st = st; c_idx = idx; c_row = row } else None)
    solutions

(* ------------------------------------------------------------------ *)
(* Clique evaluation                                                   *)
(* ------------------------------------------------------------------ *)

type clique_plan = {
  crules : (crule * Ast.rule) list;  (* compiled choice rules with originals *)
  flat : Ast.program;  (* flat rules + rewritten positive rules *)
  sub_cliques : string list list;  (* stratified sub-structure of [flat] *)
}

let make_plan crules_in flat_rules =
  let positives = List.map (fun (cr, r) -> positive_rule cr r) crules_in in
  let flat = flat_rules @ positives in
  let sub_graph = Depgraph.make flat in
  { crules = crules_in; flat; sub_cliques = Depgraph.cliques sub_graph }

let wrap_invalid f = try f () with Invalid_argument msg -> raise (Unsupported msg)

type clique_state = {
  plan : clique_plan;
  fd_states : fd_state list;
  trackers : tracker option list;  (* aligned with fd_states *)
  saturators : Seminaive.incremental list;  (* one per flat sub-clique *)
  pool : Par.t;
}

let saturate_flat state =
  wrap_invalid (fun () -> List.iter Seminaive.step state.saturators)

let make_state ?telemetry ?limits ?(pool = Par.sequential) db plan =
  let saturators =
    wrap_invalid (fun () ->
        List.map
          (fun sub ->
            Seminaive.make ~allow_clique_negation:true ?telemetry ?limits ~pool db
              ~clique:sub plan.flat)
          plan.sub_cliques)
  in
  let fd_states = List.map (fun (cr, _) -> make_fd_state db cr) plan.crules in
  let trackers =
    List.map
      (fun (cr, _) ->
        match cr.stage with
        | None -> None
        | Some (_, pos) ->
          ignore (Database.relation db cr.head.pred (List.length cr.head.args));
          Some { pred = cr.head.pred; pos; mark = 0; maxv = 0 })
      plan.crules
  in
  { plan; fd_states; trackers; saturators; pool }

let all_candidates ?limits db tele state examined =
  List.concat
    (List.mapi
       (fun i (st, tr) ->
         collect_candidates ~idx:i ?limits ~pool:state.pool db tele st tr examined)
       (List.combine state.fd_states state.trackers))

let fire ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited) db cand =
  ignore (Relation.add_cells cand.c_st.rel cand.c_row 0);
  Limits.tick_derived limits 1;
  Telemetry.fired telemetry cand.c_st.cr.label;
  ignore db

let eval_choice_clique ~policy ~telemetry ~limits ?pool db plan stats_steps
    stats_examined =
  let state = make_state ~telemetry ~limits ?pool db plan in
  let rng =
    match policy with First -> None | Random seed -> Some (Random.State.make [| seed |])
  in
  saturate_flat state;
  let rec loop () =
    let cands = all_candidates ~limits db telemetry state stats_examined in
    match cands with
    | [] -> ()
    | _ ->
      let cand =
        match rng with
        | None -> List.hd cands
        | Some st -> List.nth cands (Random.State.int st (List.length cands))
      in
      Limits.tick_step limits;
      fire ~telemetry ~limits db cand;
      incr stats_steps;
      saturate_flat state;
      loop ()
  in
  loop ();
  (* Final stage values: the trackers are fresh — the loop only ends
     after a candidate collection, which replays every head relation. *)
  if Telemetry.enabled telemetry then
    List.iter2
      (fun st tr ->
        match tr with
        | Some tr -> Telemetry.set_last_stage telemetry st.cr.label tr.maxv
        | None -> ())
      state.fd_states state.trackers

(* ------------------------------------------------------------------ *)
(* Program driver                                                      *)
(* ------------------------------------------------------------------ *)

type program_plan = {
  facts : Ast.program;
  cliques : [ `Plain of string list | `Choice of clique_plan ] list;
}

let plan_program program =
  let facts, rules = List.partition Ast.is_fact program in
  (* Number the choice rules exactly as Rewrite.expand_choice does on
     the next-expanded program: program order among choice rules. *)
  let counter = ref 0 in
  let tagged =
    List.map
      (fun r ->
        if is_choice_rule r then begin
          let i = !counter in
          incr counter;
          `Choice (compile_crule i r, r)
        end
        else `Flat r)
      rules
  in
  let graph = Depgraph.make (Rewrite.expand_next rules) in
  let cliques =
    List.map
      (fun clique ->
        let crules_in =
          List.filter_map
            (function
              | `Choice ((cr : crule), r) when List.mem cr.head.pred clique -> Some (cr, r)
              | _ -> None)
            tagged
        in
        let flat_in =
          List.filter_map
            (function
              | `Flat r when List.mem (head_pred r) clique -> Some r
              | _ -> None)
            tagged
        in
        if crules_in = [] then `Plain clique else `Choice (make_plan crules_in flat_in))
      (Depgraph.cliques graph)
  in
  { facts; cliques }

let clique_preds = function
  | `Plain preds -> preds
  | `Choice cplan -> List.map (fun ((cr : crule), _) -> cr.head.pred) cplan.crules

let stratum_label i clique =
  Printf.sprintf "stratum %d: %s" i (String.concat "," (clique_preds clique))

let run_governed ?(policy = First) ?(telemetry = Telemetry.none) ?(limits = Limits.unlimited)
    ?(jobs = 1) ?plan ?db program =
  let pool = Par.get jobs in
  let db = match db with Some db -> db | None -> Database.create () in
  let steps = ref 0 and examined = ref 0 in
  let stats () = { gamma_steps = !steps; candidates_examined = !examined } in
  Limits.govern ~telemetry limits
    ~partial:(fun () -> (db, stats ()))
    (fun () ->
      (* Reorderable rule bodies are cost-planned first; the chains are
         then built from the planned bodies, so plan dumps, runs and
         [gbc plan] all agree. *)
      let program =
        match plan with
        | Some p -> Plan.program p
        | None -> Plan.program (Plan.analyze ~telemetry ~db program)
      in
      let pplan = plan_program program in
      Database.load_facts db pplan.facts;
      List.iteri
        (fun i clique ->
          let label = stratum_label i clique in
          Limits.set_active limits label;
          Telemetry.stratum telemetry label;
          Telemetry.span telemetry label (fun () ->
              match clique with
              | `Plain preds ->
                wrap_invalid (fun () ->
                    try
                      Seminaive.eval_clique ~telemetry ~limits ~pool db ~clique:preds
                        (List.filter (fun r -> not (Ast.is_fact r)) program)
                    with Eval.Unsafe msg -> raise (Unsupported msg))
              | `Choice cplan ->
                eval_choice_clique ~policy ~telemetry ~limits ~pool db cplan steps
                  examined))
        pplan.cliques;
      (db, stats ()))

(* The ungoverned entry points re-raise: callers that pass a governor
   and want the partial database use [run_governed]. *)
let run ?policy ?telemetry ?limits ?jobs ?plan ?db program =
  match run_governed ?policy ?telemetry ?limits ?jobs ?plan ?db program with
  | Limits.Complete x -> x
  | Limits.Partial (_, d) -> raise (Limits.Exhausted d.Limits.violated)

let model ?policy ?db program = fst (run ?policy ?db program)

(* ------------------------------------------------------------------ *)
(* Enumeration of all choice models                                    *)
(* ------------------------------------------------------------------ *)

(* Depth-first exploration of the gamma choices shared by [enumerate]
   and [find].  Intermediate states are deduplicated by signature —
   different firing orders converge on the same database, so without
   the memo the search would pay once per permutation. *)
let explore ?(max_models = 10_000) ?(limits = Limits.unlimited) ?db ~accept program =
  let base = match db with Some db -> Database.copy db | None -> Database.create () in
  Limits.check_now limits;
  let plan = plan_program program in
  Database.load_facts base plan.facts;
  let examined = ref 0 in
  let rules = List.filter (fun r -> not (Ast.is_fact r)) program in
  let eval_plain preds db =
    wrap_invalid (fun () -> Seminaive.eval_clique ~limits db ~clique:preds rules);
    [ db ]
  in
  let signature db = Database.render db in
  let found = ref [] in
  let nfound = ref 0 in
  let explore_choice cplan db =
    let visited = Hashtbl.create 64 in
    let leaves = ref [] in
    let rec go db state =
      match all_candidates ~limits db Telemetry.none state examined with
      | [] -> leaves := db :: !leaves
      | cands ->
        List.iter
          (fun cand ->
            let db' = Database.copy db in
            let state' = make_state ~limits db' cplan in
            (* The candidate's fd_state belongs to the parent branch;
               rebind it by its stable index in the rebuilt state. *)
            let cand' = { cand with c_st = List.nth state'.fd_states cand.c_idx } in
            Limits.tick_step limits;
            fire ~limits db' cand';
            saturate_flat state';
            let s = signature db' in
            if not (Hashtbl.mem visited s) then begin
              Hashtbl.add visited s ();
              go db' state'
            end)
          cands
    in
    let state = make_state ~limits db cplan in
    saturate_flat state;
    go db state;
    List.rev !leaves
  in
  let module Done = struct
    exception Done
  end in
  (try
     let dbs =
       List.fold_left
         (fun dbs clique ->
           match clique with
           | `Plain preds -> List.concat_map (eval_plain preds) dbs
           | `Choice cplan -> List.concat_map (explore_choice cplan) dbs)
         [ base ] plan.cliques
     in
     let seen = Hashtbl.create 64 in
     List.iter
       (fun db ->
         let s = signature db in
         if not (Hashtbl.mem seen s) then begin
           Hashtbl.add seen s ();
           if accept db then begin
             found := db :: !found;
             incr nfound;
             if !nfound >= max_models then raise Done.Done
           end
         end)
       dbs
   with Done.Done -> ());
  List.rev !found

let enumerate ?max_models ?limits ?db program =
  explore ?max_models ?limits ?db ~accept:(fun _ -> true) program

let find ?limits ?db ~accept program =
  match explore ~max_models:1 ?limits ?db ~accept program with [] -> None | db :: _ -> Some db
