open Ast

type node = {
  pred : string;
  row : Value.t array;
  reason : reason;
  children : node list;
}

and reason =
  | Extensional
  | Rule of Ast.rule
  | Selected of Ast.rule
  | Chosen
  | Assumed

let flat_part rule =
  List.filter (function Pos _ | Neg _ | Rel _ -> true | _ -> false) rule.body

let is_selection rule =
  has_choice rule || has_next rule || has_extrema rule || has_agg rule

let chosen_prefix = "chosen$"

let is_chosen pred =
  String.length pred > String.length chosen_prefix
  && String.sub pred 0 (String.length chosen_prefix) = chosen_prefix

(* One satisfying assignment of [rule]'s flat body with the head
   unified against [row]; returns the positive subgoal instances. *)
let body_instance db rule row =
  let eqs =
    List.map2 (fun t v -> Rel (Eq, t, Ast.value_to_term v)) rule.head.args (Array.to_list row)
  in
  match Eval.compile_body (flat_part rule @ eqs) with
  | exception Eval.Unsafe _ -> None
  | body ->
    let positives = positive_body_atoms rule in
    let outs = List.map (fun (a : Ast.atom) -> Cmp ("", a.args)) positives in
    (match Compile.solutions body db outs with
    | [] -> None
    | sol :: _ ->
      Some
        (List.map2
           (fun (a : Ast.atom) out ->
             match out with
             | Value.Tup vs -> (a.pred, Array.of_list vs)
             | v -> (a.pred, [| v |]))
           positives sol))

let fact ?(max_depth = 64) program db pred row =
  let program_facts = Database.create () in
  Database.load_facts program_facts (List.filter Ast.is_fact program);
  let rules =
    List.filter (fun r -> not (Ast.is_fact r)) program
  in
  let rec explain depth path pred row =
    if not (Database.mem_fact db pred row) then None
    else if Database.mem_fact program_facts pred row then
      Some { pred; row; reason = Extensional; children = [] }
    else if is_chosen pred then Some { pred; row; reason = Chosen; children = [] }
    else if depth = 0 then Some { pred; row; reason = Assumed; children = [] }
    else if List.mem (pred, row) path then None (* no circular justification *)
    else begin
      let path = (pred, row) :: path in
      let try_rule r =
        if head_pred r <> pred || List.length r.head.args <> Array.length row then None
        else
          match body_instance db r row with
          | None -> None
          | Some subgoals ->
            let children =
              List.map
                (fun (p, sub_row) ->
                  match explain (depth - 1) path p sub_row with
                  | Some node -> Some node
                  | None -> None)
                subgoals
            in
            if List.for_all Option.is_some children then
              Some
                { pred; row;
                  reason = (if is_selection r then Selected r else Rule r);
                  children = List.filter_map Fun.id children }
            else None
      in
      List.find_map try_rule rules
    end
  in
  match explain max_depth [] pred row with
  | Some node -> Some node
  | None ->
    (* In the model but not re-derivable within the budget (e.g. an
       extensional fact of a preloaded database). *)
    if Database.mem_fact db pred row then
      Some { pred; row; reason = Assumed; children = [] }
    else None

let reason_label = function
  | Extensional -> "fact"
  | Rule r -> "by  " ^ Pretty.rule_to_string r
  | Selected r -> "selected by  " ^ Pretty.rule_to_string r
  | Chosen -> "gamma step (chosen)"
  | Assumed -> "in the model"

let pp fmt node =
  let rec go indent node =
    Format.fprintf fmt "%s%s   [%s]@." indent
      (Database.fact_to_string node.pred node.row)
      (reason_label node.reason);
    List.iter (go (indent ^ "  ")) node.children
  in
  go "" node
