(* Cost-based join planning: every engine run executes planned bodies.

   The planner estimates, for every rule, how many rows each positive
   atom would enumerate if scanned at a given point, and greedily
   orders the atoms cheapest-first.  Estimates are seeded from whatever
   is at hand at program-load time: relation cardinalities and
   per-column distinct counts from the base database when facts are
   loaded, telemetry delta totals from a previous run of the same
   program (the daemon's program cache re-plans on cache misses only),
   and a flat default otherwise.

   Reordering changes the enumeration order of solutions, which is
   invisible for plain Horn programs (set semantics; the canonical
   printer sorts) but would change which candidate a choice rule fires
   first and how RQL breaks ties.  So reordering is gated on
   {!reorderable}: every rule body must be flat ([Pos]/[Neg]/[Rel]
   literals only).  For anything with choice / extrema / aggregates /
   next goals the plan is annotation-only — the engines keep the source
   order and the model is preserved by construction. *)

open Ast

type lit_cost = {
  lp_lit : literal;
  lp_index : int;  (** position in the original body *)
  lp_card : float;  (** estimated cardinality of the scanned relation *)
  lp_cost : float;  (** estimated rows enumerated per outer binding *)
}

type rule_plan = {
  rp_rule : rule;
  rp_label : string;
  rp_body : literal list;  (** the planned body order *)
  rp_lits : lit_cost list;  (** positive atoms, in planned order *)
  rp_reordered : bool;  (** the planned order differs from the source *)
}

type t = { rules : rule_plan list; reorderable : bool }

let flat_rule r =
  List.for_all (function Pos _ | Neg _ | Rel _ -> true | _ -> false) r.body

let reorderable prog = List.for_all flat_rule prog

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let default_card = 64.0

type pred_stats = { card : float; distinct : float array option }

(* Per-column distinct counts of a materialized relation.  O(rows ×
   arity) once per predicate at plan time — load-time work, amortized
   by the program cache.  [Relation.distinct_counts] runs over raw
   cells, so statistics over a bulk-loaded million-row EDB cost
   integer hashing, not [Value] boxing. *)
let column_stats rel =
  Array.map (fun n -> float_of_int (max 1 n)) (Relation.distinct_counts rel)

let pred_stats ?telemetry ?db ~facts pred =
  let from_db =
    match db with
    | None -> None
    | Some db -> (
      match Database.find db pred with
      | Some rel when Relation.cardinal rel > 0 ->
        Some { card = float_of_int (Relation.cardinal rel); distinct = Some (column_stats rel) }
      | _ -> None)
  in
  let from_telemetry () =
    match telemetry with
    | None -> None
    | Some tele -> (
      match Telemetry.delta_tuples tele pred with
      | Some n when n > 0 -> Some { card = float_of_int n; distinct = None }
      | _ -> None)
  in
  (* Fallbacks in decreasing fidelity: materialized rows, delta totals
     from a previous run, the program's own fact count (the engines
     plan before loading facts, so this is what seeds EDB predicates),
     then the flat default. *)
  match from_db with
  | Some s -> s
  | None -> (
    match from_telemetry () with
    | Some s -> s
    | None -> (
      match Hashtbl.find_opt facts pred with
      | Some n when n > 0 -> { card = float_of_int n; distinct = None }
      | _ -> { card = default_card; distinct = None }))

(* Selectivity of one bound argument position: one over the column's
   distinct count when measured, [1/sqrt(card)] otherwise (the classic
   no-statistics guess). *)
let column_selectivity stats c =
  match stats.distinct with
  | Some d when c < Array.length d -> 1.0 /. d.(c)
  | _ -> 1.0 /. sqrt (Float.max 1.0 stats.card)

module SSet = Set.Make (String)

let term_bound bound t = List.for_all (fun v -> SSet.mem v bound) (term_vars t)

(* Estimated rows one scan of [a] enumerates, given [bound] variables:
   cardinality discounted by the selectivity of every argument position
   that the probe can pin (constants, bound variables, fully-bound
   compound terms). *)
let atom_cost stats bound a =
  let sel = ref 1.0 in
  List.iteri
    (fun c arg ->
      let pinned =
        match arg with
        | Cst _ -> true
        | Var "_" -> false
        | Var v -> SSet.mem v bound
        | Cmp _ | Binop _ -> term_bound bound arg
      in
      if pinned then sel := !sel *. column_selectivity stats c)
    a.args;
  Float.max 1.0 (stats.card *. !sel)

(* ------------------------------------------------------------------ *)
(* Per-rule planning                                                   *)
(* ------------------------------------------------------------------ *)

let plan_rule ?telemetry ?db ~facts ~reorder r =
  let atoms, rest =
    List.partition (fun (_, l) -> match l with Pos _ -> true | _ -> false)
      (List.mapi (fun i l -> (i, l)) r.body)
  in
  if atoms = [] then
    (* Facts and scan-free rules have no join to plan.  [analyze] maps
       over every clause, so for fact-heavy programs this path must stay
       cheap: in particular no label rendering — [Pretty] goes through
       [Format] and would cost more per fact than evaluating it. *)
    { rp_rule = r; rp_label = ""; rp_body = r.body; rp_lits = []; rp_reordered = false }
  else begin
    let label = Telemetry.rule_label r in
    let stats_cache = Hashtbl.create 8 in
    let stats_of pred =
      match Hashtbl.find_opt stats_cache pred with
      | Some s -> s
      | None ->
        let s = pred_stats ?telemetry ?db ~facts pred in
        Hashtbl.add stats_cache pred s;
        s
    in
    let order =
      if reorder then begin
        (* Greedy: repeatedly take the cheapest atom under the current
           bound set.  Ties break on source position, so equal-cost
           plans keep the author's order. *)
        let bound = ref SSet.empty in
        let remaining = ref atoms in
        let out = ref [] in
        while !remaining <> [] do
          let best =
            List.fold_left
              (fun best (i, l) ->
                let a = match l with Pos a -> a | _ -> assert false in
                let c = atom_cost (stats_of a.pred) !bound a in
                match best with
                | Some (_, _, bc) when bc <= c -> best
                | _ -> Some (i, l, c))
              None !remaining
          in
          match best with
          | None -> assert false
          | Some (i, l, c) ->
            remaining := List.filter (fun (j, _) -> j <> i) !remaining;
            out := (i, l, c) :: !out;
            let a = match l with Pos a -> a | _ -> assert false in
            bound := List.fold_left (fun acc v -> SSet.add v acc) !bound (atom_vars a)
        done;
        List.rev !out
      end
      else begin
        (* Annotation-only: cost the atoms in their source order. *)
        let bound = ref SSet.empty in
        List.map
          (fun (i, l) ->
            let a = match l with Pos a -> a | _ -> assert false in
            let c = atom_cost (stats_of a.pred) !bound a in
            bound := List.fold_left (fun acc v -> SSet.add v acc) !bound (atom_vars a);
            (i, l, c))
          atoms
      end
    in
    let lits =
      List.map
        (fun (i, l, c) ->
          let a = match l with Pos a -> a | _ -> assert false in
          { lp_lit = l; lp_index = i; lp_card = (stats_of a.pred).card; lp_cost = c })
        order
    in
    let reordered = reorder && List.exists2 (fun (i, _) (j, _, _) -> i <> j) atoms order in
    let body =
      if reordered then
        (* Planned atoms first, then the filters and negations in their
           source order — the body compiler re-plans filters anyway
           (ready filters always fire before the next scan), so only
           the relative scan order matters. *)
        List.map (fun (_, l, _) -> l) order @ List.map snd rest
      else r.body
    in
    { rp_rule = r; rp_label = label; rp_body = body; rp_lits = lits; rp_reordered = reordered }
  end

let analyze ?telemetry ?db prog =
  let ok = reorderable prog in
  let facts = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if is_fact r then
        let p = r.head.pred in
        Hashtbl.replace facts p (1 + Option.value ~default:0 (Hashtbl.find_opt facts p)))
    prog;
  { rules = List.map (plan_rule ?telemetry ?db ~facts ~reorder:ok) prog; reorderable = ok }

(* The program with every rule's body in planned order (the input
   program unchanged when reordering is gated off). *)
let program t = List.map (fun rp -> { rp.rp_rule with body = rp.rp_body }) t.rules

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let lit_to_string l = Format.asprintf "%a" Pretty.pp_literal l

let pp ppf t =
  Format.fprintf ppf "join planner: reordering %s@,"
    (if t.reorderable then "enabled (flat program)" else "disabled (order-sensitive goals)");
  List.iter
    (fun rp ->
      if rp.rp_lits <> [] then begin
        Format.fprintf ppf "@,%s%s@," rp.rp_label
          (if rp.rp_reordered then "   [reordered]" else "");
        List.iteri
          (fun k lc ->
            Format.fprintf ppf "  %d. %-40s card=%-10.0f est=%.1f@," (k + 1)
              (lit_to_string lc.lp_lit) lc.lp_card lc.lp_cost)
          rp.rp_lits
      end)
    t.rules

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"reorderable\": %b, \"rules\": [" t.reorderable);
  (* Facts and scan-free clauses carry no plan; [pp] skips them too. *)
  List.iteri
    (fun i rp ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"rule\": \"%s\", \"reordered\": %b, \"joins\": ["
           (escape rp.rp_label) rp.rp_reordered);
      List.iteri
        (fun k lc ->
          if k > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf
               "{\"literal\": \"%s\", \"source_position\": %d, \"card\": %.1f, \"cost\": %.1f}"
               (escape (lit_to_string lc.lp_lit)) lc.lp_index lc.lp_card lc.lp_cost))
        rp.rp_lits;
      Buffer.add_string b "]}")
    (List.filter (fun rp -> rp.rp_lits <> []) t.rules);
  Buffer.add_string b "]}";
  Buffer.contents b
