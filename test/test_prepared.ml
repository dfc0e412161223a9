(* One prepared program, many executions.

   The program cache prepares a program once ([Stage_engine.prepare],
   [Ivm.prepare]) and every session executes that one immutable value,
   on whichever worker domain serves it.  Two domains here run every
   exemplar 200 times each, alternating Run and Query, against one
   shared cache entry per program.  Every served model must render
   byte-identically to a single-shot [Stage_engine.run] of the source
   and be a stable model; every answer set must be the one read off
   that model; and every run's per-rule telemetry — labels included,
   which are computed once at preparation — must equal the one-shot run
   over the same plan and fact base.  A chain instance shared between
   two executions, or a label left unset, fails here. *)

open Gbc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let exemplars =
  [ "example1.dl"; "bi_st_c.dl"; "sorting.dl"; "prim.dl"; "kruskal.dl";
    "matching.dl"; "huffman.dl"; "tsp.dl"; "dijkstra.dl"; "scheduling.dl";
    "vertex_cover.dl"; "set_cover.dl"; "transitive_closure.dl" ]

type expected = {
  name : string;
  source : string;
  program : Ast.program;
  model : string;  (* single-shot rendering *)
  goal : string;  (* the first rule's head, all variables *)
  answers : string list;  (* sorted *)
  counters : (string * Telemetry.rule_counters) list;
      (* one-shot run over the cache entry's plan and fact base *)
}

let goal_of program =
  let head = (List.find (fun r -> not (Ast.is_fact r)) program).Ast.head in
  Printf.sprintf "%s(%s)" head.Ast.pred
    (String.concat ", " (List.mapi (fun i _ -> Printf.sprintf "V%d" i) head.Ast.args))

(* Labels are computed once, at preparation, and each must name a rule:
   one of the program's, or its rewriting with a [chosen$] atom, which
   keeps the head.  The one-shot comparison alone would not tell a
   label left unset: both sides read the same prepared labels. *)
let names_a_rule program =
  let heads =
    List.filter_map
      (fun r -> if Ast.is_fact r then None else Some (Format.asprintf "%a <- " Pretty.pp_atom r.Ast.head))
      program
  in
  fun (label, _) -> List.exists (fun prefix -> String.starts_with ~prefix label) heads

let answers_in db goal =
  let atom =
    match (Parser.parse_rule ("goal <- " ^ goal)).Ast.body with
    | [ Ast.Pos a ] -> a
    | _ -> assert false
  in
  let vars = Ast.atom_vars atom in
  Compile.solutions (Eval.compile_body [ Ast.Pos atom ]) db (List.map (fun v -> Ast.Var v) vars)
  |> List.map (Database.answer_to_string vars)
  |> List.sort compare

let expect cache name =
  let source = read_file ("../programs/" ^ name) in
  let program = Parser.parse_program source in
  let model, _ = Stage_engine.run program in
  let goal = goal_of program in
  let entry, _ = Result.get_ok (Program_cache.find_or_compile cache source) in
  let telemetry = Telemetry.create () in
  ignore
    (Stage_engine.run ~telemetry ~plan:entry.Program_cache.plan
       ~db:(Database.copy entry.Program_cache.base) entry.Program_cache.rules);
  { name; source; program; model = Database.render model; goal; answers = answers_in model goal;
    counters = Telemetry.rules telemetry }

(* One domain's share: [rounds] passes over the exemplars on its own
   session, Run on even passes and Query on odd ones, every model of the
   first pass also checked for stability.  Failures are collected,
   not raised, so the other domain runs to the end.  Each request runs
   under a budget far above what it needs, so an execution corrupted
   by another (one looping on a shared chain, say) ends as a partial
   outcome, a failure, instead of hanging the suite. *)
let serve cache exps ~rounds ~domain =
  let s = Session.create ~cache ~id:domain () in
  let failures = ref [] in
  let fail e fmt = Printf.ksprintf (fun m -> failures := (e.name ^ ": " ^ m) :: !failures) fmt in
  for round = 0 to rounds - 1 do
    List.iter
      (fun e ->
        match Session.load s e.source with
        | Error (_, m) -> fail e "load: %s" m
        | Ok (_, _) ->
          let telemetry = Telemetry.create () in
          let limits = Limits.create ~timeout_s:30.0 ~max_facts:1_000_000 () in
          let run () = Session.run s ~engine:Protocol.Staged ~seed:None ~jobs:1 ~limits ~telemetry in
          if round mod 2 = 0 then begin
            match run () with
            | Ok (Limits.Complete db) ->
              if Database.render db <> e.model then fail e "round %d: model differs" round;
              (* Stability is defined without aggregates only. *)
              if round = 0 && (not (List.exists Ast.has_agg e.program))
                 && not (Stable.is_stable e.program db)
              then fail e "round %d: model not stable" round
            | Ok (Limits.Partial _) -> fail e "round %d: partial run" round
            | Error (_, m) -> fail e "round %d: run: %s" round m
          end
          else begin
            match
              Session.query s ~engine:Protocol.Staged ~text:e.goal ~jobs:1 ~limits ~telemetry
            with
            | Ok (true, _, rows) ->
              if List.sort compare rows <> e.answers then fail e "round %d: answers differ" round
            | Ok (false, _, _) -> fail e "round %d: partial query" round
            | Error (_, m) -> fail e "round %d: query: %s" round m
          end;
          let counters = Telemetry.rules telemetry in
          if counters <> e.counters then fail e "round %d: per-rule telemetry differs" round;
          if not (List.for_all (names_a_rule e.program) counters) then
            fail e "round %d: a telemetry row names no rule" round)
      exps
  done;
  List.rev !failures

let test_two_domains () =
  let cache = Program_cache.create () in
  let exps = List.map (expect cache) exemplars in
  let workers =
    List.init 2 (fun d -> Domain.spawn (fun () -> serve cache exps ~rounds:200 ~domain:d))
  in
  let failures = List.concat_map Domain.join workers in
  let stats = Program_cache.stats cache in
  Alcotest.(check int) "one entry per program, compiled once" (List.length exemplars)
    stats.Program_cache.programs_compiled;
  match failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%d failures, first: %s" (List.length failures) f

let () =
  Alcotest.run "prepared"
    [ ( "shared",
        [ Alcotest.test_case "2 domains x 13 exemplars x 200, one entry each" `Quick
            test_two_domains ] ) ]
