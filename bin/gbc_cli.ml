(* gbc — command-line front end: run choice programs, inspect the
   compile-time stage analysis, print rewritings, enumerate models,
   check stability, and run the built-in greedy demos.

   Exit codes: 0 on success, 2 on a structured diagnostic (syntax
   error, unsupported program, unreadable file, ...), 3 when a resource
   budget was exhausted and only a partial model was printed.  Usage
   errors keep cmdliner's defaults. *)

open Gbc
open Cmdliner

let err_exit = 2
let partial_exit = 3

(* Every user-facing failure is classified into Gbc_error and rendered
   as one line on stderr — no raw exception backtraces. *)
let handle f =
  match Gbc_error.protect f with
  | Ok () -> ()
  | Error e ->
    Format.eprintf "gbc: %s@." (Gbc_error.to_string e);
    exit err_exit

(* [-] reads the program from stdin, as in `gbc run -`. *)
let read_file path =
  if String.equal path "-" then In_channel.input_all stdin
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  end

(* Raises Sys_error / Lexer.Error / Parser.Error; callers run under
   [handle] (or classify explicitly, as the repl's :load does). *)
let parse_file path = Parser.parse_program (read_file path)

let nowhere = { Lexer.line = 0; col = 0 }

let print_model ?preds db =
  match preds with
  | None -> Format.printf "%a@?" Database.pp db
  | Some preds ->
    List.iter
      (fun pred ->
        List.iter
          (fun row ->
            Format.printf "%s(%s).@." pred
              (String.concat ", " (List.map Value.to_string (Array.to_list row))))
          (Database.facts_of db pred))
      preds

(* ---------------- common options ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Program file, or $(b,-) for stdin.")

let engine_conv = Arg.enum [ ("reference", `Reference); ("staged", `Staged) ]

let engine_arg =
  Arg.(value & opt engine_conv `Staged & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Evaluation engine: $(b,reference) (Choice Fixpoint) or $(b,staged) (Section-6 priority queues).")

let preds_arg =
  Arg.(value & opt (some (list string)) None & info [ "print" ] ~docv:"PREDS"
         ~doc:"Comma-separated predicates to print (default: whole model).")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
         ~doc:"Random gamma policy with this seed (reference engine only).")

(* ---------------- resource budgets ---------------- *)

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
         ~doc:"Wall-clock budget in seconds; on exhaustion the partial model is printed and the exit code is 3.")

let max_facts_arg =
  Arg.(value & opt (some int) None & info [ "max-facts" ] ~docv:"N"
         ~doc:"Stop after more than N facts have been derived (loaded facts are not counted).")

let max_steps_arg =
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
         ~doc:"Stop after more than N fixpoint iterations / gamma firings.")

let max_candidates_arg =
  Arg.(value & opt (some int) None & info [ "max-candidates" ] ~docv:"N"
         ~doc:"Stop after more than N choice-candidate examinations.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Evaluation domains for data-parallel saturation (default 1: sequential).  \
               The model is byte-identical at any value.")

let limits_of ?timeout_s ?max_facts ?max_steps ?max_candidates () =
  match (timeout_s, max_facts, max_steps, max_candidates) with
  | None, None, None, None -> Limits.unlimited
  | _ -> Limits.create ?timeout_s ?max_facts ?max_steps ?max_candidates ()

let map_outcome f = function
  | Limits.Complete x -> Limits.Complete (f x)
  | Limits.Partial (x, d) -> Limits.Partial (f x, d)

(* Evaluate with telemetry and a governor threaded through the chosen
   engine; the outcome carries just the database. *)
let evaluate_with ?(jobs = 1) ?db ~telemetry ~limits ~engine ~seed prog =
  match (engine, seed) with
  | `Reference, Some s ->
    map_outcome fst
      (Choice_fixpoint.run_governed ~policy:(Random s) ~telemetry ~limits ~jobs ?db prog)
  | `Reference, None ->
    map_outcome fst (Choice_fixpoint.run_governed ~telemetry ~limits ~jobs ?db prog)
  | `Staged, _ -> map_outcome fst (Stage_engine.run_governed ~telemetry ~limits ~jobs ?db prog)

(* A fact base written by `gbc load` — decoded with the snapshot codec,
   so relations of ints and symbols come back from their cell blobs. *)
let read_db path =
  match Db_snapshot.read (read_file path) 0 with
  | db, _ -> db
  | exception Db_snapshot.Corrupt msg ->
    Format.eprintf "gbc: %s: corrupt fact base: %s@." path msg;
    exit err_exit

let db_arg =
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE"
         ~doc:"Seed the evaluation with a bulk-loaded fact base written by $(b,gbc load); \
               the program's own facts are added on top.")

(* ---------------- run ---------------- *)

let run_cmd =
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Collect engine telemetry and print the per-rule counter table to stderr.")
  in
  let run file engine preds seed stats jobs db timeout_s max_facts max_steps max_candidates =
    handle (fun () ->
        let prog = parse_file file in
        let db = Option.map read_db db in
        let telemetry = if stats then Telemetry.create () else Telemetry.none in
        let limits = limits_of ?timeout_s ?max_facts ?max_steps ?max_candidates () in
        match
          evaluate_with ~jobs:(max 1 jobs) ?db ~telemetry ~limits ~engine ~seed prog
        with
        | Limits.Complete db ->
          print_model ?preds db;
          if stats then Format.eprintf "%a@?" Telemetry.pp telemetry
        | Limits.Partial (db, d) ->
          print_model ?preds db;
          Format.eprintf "gbc: %a" Limits.pp_diagnostics d;
          Format.eprintf "gbc: the model above is partial@.";
          if stats then Format.eprintf "%a@?" Telemetry.pp telemetry;
          exit partial_exit)
  in
  let doc =
    "Evaluate a choice program and print one stable model.  $(b,--jobs) shards \
     flat-rule saturation across that many OCaml domains (same model, byte for byte).  \
     With a budget ($(b,--timeout), $(b,--max-facts), $(b,--max-steps), \
     $(b,--max-candidates)) exhaustion prints the partial model, a diagnostic on \
     stderr, and exits with code 3."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ file_arg $ engine_arg $ preds_arg $ seed_arg $ stats_arg $ jobs_arg
          $ db_arg $ timeout_arg $ max_facts_arg $ max_steps_arg $ max_candidates_arg)

(* ---------------- load ---------------- *)

(* Bulk-load a fact base and write it as a snapshot file for
   `gbc run --db`.  Generated corpora go through the columnar
   generators and [Relation.add_ints], so the facts land in relation
   cells and the snapshot writes them as raw cell blobs — loading a
   million-edge graph never boxes a value. *)
let load_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output fact-base file.")
  in
  let gen_arg =
    Arg.(value & opt (some (enum [ ("power-law", `Power); ("road", `Road) ])) None
         & info [ "gen" ] ~docv:"KIND"
             ~doc:"Generate a graph corpus instead of reading $(i,FACTS): $(b,power-law) \
                   (hub-heavy connected multigraph) or $(b,road) (grid plus ~1% shortcuts).  \
                   Edges load as $(b,g(u, v, cost)), nodes as $(b,node(i)).")
  in
  let nodes_arg =
    Arg.(value & opt int 100_000 & info [ "nodes" ] ~docv:"N"
           ~doc:"Node count for $(b,--gen power-law).")
  in
  let edges_arg =
    Arg.(value & opt int 1_000_000 & info [ "edges" ] ~docv:"M"
           ~doc:"Edge count for $(b,--gen power-law).")
  in
  let width_arg =
    Arg.(value & opt int 1000 & info [ "width" ] ~docv:"W" ~doc:"Grid width for $(b,--gen road).")
  in
  let height_arg =
    Arg.(value & opt int 1000 & info [ "height" ] ~docv:"H"
           ~doc:"Grid height for $(b,--gen road).")
  in
  let gseed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")
  in
  let pred_arg =
    Arg.(value & opt string "g" & info [ "pred" ] ~docv:"NAME" ~doc:"Edge predicate name.")
  in
  let directed_arg =
    Arg.(value & flag & info [ "directed" ]
           ~doc:"Load each generated edge once instead of in both orientations.")
  in
  let facts_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FACTS"
           ~doc:"Fact file (surface syntax, or $(b,-) for stdin) when no $(b,--gen) is given.")
  in
  let run out gen nodes edges width height seed pred directed facts_file =
    handle (fun () ->
        let t0 = Unix.gettimeofday () in
        let db = Database.create () in
        (match (gen, facts_file) with
        | Some `Power, _ ->
          let g = Graph_gen.power_law ~seed ~nodes ~edges in
          Graph_gen.load_big ~pred ~directed db g;
          Graph_gen.load_big_nodes db g
        | Some `Road, _ ->
          let g = Graph_gen.road_network ~seed ~width ~height in
          Graph_gen.load_big ~pred ~directed db g;
          Graph_gen.load_big_nodes db g
        | None, Some file ->
          let prog = parse_file file in
          List.iter
            (fun c ->
              if not (Ast.is_fact c) then begin
                Format.eprintf "gbc: %s: only ground facts can be bulk-loaded@." file;
                exit err_exit
              end)
            prog;
          Database.load_facts db prog
        | None, None ->
          Format.eprintf "gbc: nothing to load: give a FACTS file or --gen@.";
          exit err_exit);
        let nfacts =
          List.fold_left
            (fun acc p -> acc + Relation.cardinal (Option.get (Database.find db p)))
            0 (Database.preds db)
        in
        let buf = Buffer.create (1 lsl 20) in
        Db_snapshot.write buf db;
        let data = Buffer.contents buf in
        let oc = open_out_bin out in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data);
        Format.printf "loaded %d fact(s) into %d predicate(s); wrote %d bytes to %s in %.2fs@."
          nfacts
          (List.length (Database.preds db))
          (String.length data) out
          (Unix.gettimeofday () -. t0))
  in
  let doc =
    "Bulk-load a fact base — from a fact file or a generated graph corpus — and write it \
     as a snapshot for $(b,gbc run --db).  Generated corpora use the columnar fast path \
     end to end: facts land in relation cells without boxing and the snapshot stores \
     them as raw cell blobs, so the later restore decodes no value either."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(const run $ out_arg $ gen_arg $ nodes_arg $ edges_arg $ width_arg $ height_arg
          $ gseed_arg $ pred_arg $ directed_arg $ facts_arg)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the counter snapshot as JSON instead of the table.")
  in
  let run file engine seed json =
    handle (fun () ->
        let prog = parse_file file in
        let telemetry = Telemetry.create () in
        let _db =
          Telemetry.span telemetry "total" (fun () ->
              Limits.value
                (evaluate_with ~telemetry ~limits:Limits.unlimited ~engine ~seed prog))
        in
        if json then print_string (Telemetry.to_json telemetry)
        else Format.printf "%a@?" Telemetry.pp telemetry)
  in
  let doc =
    "Evaluate a choice program with telemetry enabled and print the per-rule \
     counters (derivations, candidates, FD rejections, queue statistics), delta \
     sizes, per-stratum spans and totals."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ file_arg $ engine_arg $ seed_arg $ json_arg)

(* ---------------- check ---------------- *)

let check_cmd =
  let run file =
    handle (fun () ->
        let report = Stage.analyze (parse_file file) in
        Format.printf "%a@?" Stage.pp_report report)
  in
  let doc = "Compile-time analysis: cliques, stage arguments, stage-stratification." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ file_arg)

(* `analyze` is `check` under the name the daemon docs use; both read
   from stdin with [-]. *)
let analyze_cmd =
  let run file =
    handle (fun () ->
        let report = Stage.analyze (parse_file file) in
        Format.printf "%a@?" Stage.pp_report report)
  in
  let doc = "Alias of $(b,check): cliques, stage arguments, stage-stratification." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file_arg)

(* ---------------- plan ---------------- *)

let plan_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the plan as JSON instead of the table.")
  in
  let run file json =
    handle (fun () ->
        let prog = parse_file file in
        (* Materialize the program's own facts so the planner sees real
           cardinalities and per-column distinct counts — the same
           statistics a run (and the daemon's program cache) plans
           against. *)
        let db = Database.create () in
        Database.load_facts db (List.filter Ast.is_fact prog);
        let plan = Plan.analyze ~db prog in
        if json then print_string (Plan.to_json plan)
        else Format.printf "@[<v>%a@]@?" Plan.pp plan)
  in
  let doc =
    "Print the cost-based join plan evaluation executes: per rule, \
     the planned scan order with estimated cardinalities and per-binding costs, and \
     whether reordering is enabled (flat programs) or gated off (choice / extrema / \
     next programs keep their source order)."
  in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ file_arg $ json_arg)

(* ---------------- rewrite ---------------- *)

let rewrite_cmd =
  let run file =
    handle (fun () ->
        Format.printf "%a@." Pretty.pp_program (Rewrite.expand_all (parse_file file)))
  in
  let doc = "Print the first-order rewriting (next, choice, extrema expanded to negation)." in
  Cmd.v (Cmd.info "rewrite" ~doc) Term.(const run $ file_arg)

(* ---------------- models ---------------- *)

let models_cmd =
  let max_arg =
    Arg.(value & opt int 100 & info [ "max" ] ~docv:"N" ~doc:"Stop after N distinct models.")
  in
  let run file preds max_models =
    handle (fun () ->
        let models = Choice_fixpoint.enumerate ~max_models (parse_file file) in
        Format.printf "%d model(s)@." (List.length models);
        List.iteri
          (fun i db ->
            Format.printf "--- model %d ---@." (i + 1);
            print_model ?preds db)
          models)
  in
  let doc = "Enumerate all choice models (small programs only)." in
  Cmd.v (Cmd.info "models" ~doc) Term.(const run $ file_arg $ preds_arg $ max_arg)

(* ---------------- stable ---------------- *)

let stable_cmd =
  let run file engine =
    handle (fun () ->
        let prog = parse_file file in
        let db =
          match engine with
          | `Reference -> Choice_fixpoint.model prog
          | `Staged -> Stage_engine.model prog
        in
        let ok = Stable.is_stable prog db in
        Format.printf "stable: %b@." ok;
        if not ok then begin
          Format.eprintf "gbc: produced model is not stable@.";
          exit err_exit
        end)
  in
  let doc = "Evaluate and verify the result against the Gelfond-Lifschitz reduct (Theorem 1)." in
  Cmd.v (Cmd.info "stable" ~doc) Term.(const run $ file_arg $ engine_arg)

(* ---------------- wellfounded ---------------- *)

let wellfounded_cmd =
  let run file =
    handle (fun () ->
        let prog = parse_file file in
        match Wellfounded.compute (Rewrite.expand_all prog) with
        | t ->
          Format.printf "total: %b@." (Wellfounded.is_total t);
          let undef = Wellfounded.undefined t in
          Format.printf "%d undefined atom(s)@." (List.length undef);
          List.iter
            (fun (pred, row) ->
              Format.printf "  undefined: %s(%s)@." pred
                (String.concat ", " (List.map Value.to_string (Array.to_list row))))
            undef
        | exception Invalid_argument msg ->
          Format.eprintf "gbc: %s@." msg;
          exit err_exit)
  in
  let doc =
    "Well-founded model of the rewritten program (choices show up as undefined atoms)."
  in
  Cmd.v (Cmd.info "wellfounded" ~doc) Term.(const run $ file_arg)

(* ---------------- query ---------------- *)

let parse_goal text =
  match Parser.parse_rule ("query_goal <- " ^ text) with
  | { Ast.body = [ Ast.Pos a ]; _ } -> a
  | _ -> raise (Parser.Error ("expected a single positive atom", nowhere))

let query_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ATOM"
           ~doc:"Query atom, e.g. 'prm(X, Y, C, _)'.")
  in
  let magic_flag =
    Arg.(value & flag & info [ "magic" ]
           ~doc:"Use the magic-set rewriting (positive programs only).")
  in
  let run file engine q magic =
    handle (fun () ->
        let prog = parse_file file in
        let goal = parse_goal q in
        let vars = Ast.atom_vars goal in
        let print_rows rows =
          List.iter
            (fun row ->
              Format.printf "%s@."
                (String.concat ", "
                   (List.map2
                      (fun v x -> v ^ " = " ^ Value.to_string x)
                      vars row)))
            rows;
          Format.printf "%d answer(s)@." (List.length rows)
        in
        try
          if magic then begin
            let var_positions =
              List.mapi (fun i t -> (i, t)) goal.Ast.args
              |> List.filter_map (fun (i, t) ->
                     match t with Ast.Var _ -> Some i | _ -> None)
            in
            let rows = Magic.answers ~query:goal prog in
            print_rows
              (List.map (fun row -> List.map (fun i -> row.(i)) var_positions) rows)
          end
          else begin
            let db =
              match engine with
              | `Reference -> Choice_fixpoint.model prog
              | `Staged -> Stage_engine.model prog
            in
            let body = Eval.compile_body [ Ast.Pos goal ] in
            let outs = List.map (fun v -> Ast.Var v) vars in
            print_rows (Compile.solutions body db outs)
          end
        with Invalid_argument msg ->
          Format.eprintf "gbc: %s@." msg;
          exit err_exit)
  in
  let doc = "Evaluate the program, then answer a query atom against the model." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ file_arg $ engine_arg $ query_arg $ magic_flag)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let atom_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FACT"
           ~doc:"Ground fact to explain, e.g. 'prm(0, 3, 5, 2)'.")
  in
  let run file engine text =
    handle (fun () ->
        let prog = parse_file file in
        let goal = parse_goal text in
        try
          let row = Array.of_list (List.map Ast.term_to_value goal.Ast.args) in
          let db =
            match engine with
            | `Reference -> Choice_fixpoint.model prog
            | `Staged -> Stage_engine.model prog
          in
          match Explain.fact prog db goal.Ast.pred row with
          | Some node -> Format.printf "%a@?" Explain.pp node
          | None -> Format.printf "not in the model@."
        with Invalid_argument msg ->
          Format.eprintf "gbc: %s@." msg;
          exit err_exit)
  in
  let doc = "Evaluate the program and print a derivation of a ground fact." in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ file_arg $ engine_arg $ atom_arg)

(* ---------------- repl ---------------- *)

let repl_cmd =
  let run () =
    (* Ctrl-C at the prompt raises Sys.Break (caught by the loop);
       during evaluation the handler is swapped for one that only sets
       the cancellation token, so the engines stop at the next poll and
       the session survives with the program intact. *)
    Sys.catch_break true;
    let cancel = ref false in
    let with_interrupt f =
      cancel := false;
      let previous =
        Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> cancel := true))
      in
      Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint previous) f
    in
    let program = ref [] in
    let jobs = ref 1 in
    let errors = ref 0 in
    let print_err msg =
      incr errors;
      Format.eprintf "error: %s@." msg
    in
    let evaluate () =
      let limits = Limits.create ~cancel () in
      let unwrap = function
        | Limits.Complete (db, _) -> Ok db
        | Limits.Partial ((_ : Database.t * _), d) ->
          Error ("query interrupted (" ^ Limits.violation_to_string d.Limits.violated ^ ")")
      in
      with_interrupt (fun () ->
          match Stage_engine.run_governed ~limits ~jobs:!jobs !program with
          | outcome -> unwrap outcome
          | exception Stage_engine.Not_compilable _ -> (
            match Choice_fixpoint.run_governed ~limits ~jobs:!jobs !program with
            | outcome -> unwrap outcome
            | exception Choice_fixpoint.Unsupported msg -> Error msg)
          | exception Choice_fixpoint.Unsupported msg -> Error msg)
    in
    let answer_query text =
      match Parser.parse_rule ("query_goal <- " ^ text) with
      | exception Parser.Error (msg, _) -> print_err msg
      | { Ast.body = [ Ast.Pos goal ]; _ } -> (
        match evaluate () with
        | Error msg -> print_err msg
        | Ok db ->
          let body = Eval.compile_body [ Ast.Pos goal ] in
          let vars = Ast.atom_vars goal in
          let rows = Compile.solutions body db (List.map (fun v -> Ast.Var v) vars) in
          if vars = [] then Format.printf "%b@." (rows <> [])
          else begin
            List.iter
              (fun row ->
                Format.printf "%s@."
                  (String.concat ", "
                     (List.map2 (fun v x -> v ^ " = " ^ Value.to_string x) vars row)))
              rows;
            Format.printf "%d answer(s)@." (List.length rows)
          end)
      | _ -> print_err "queries take a single positive atom"
    in
    let handle_command line =
      match String.split_on_char ' ' (String.trim line) with
      | [ ":quit" ] | [ ":q" ] -> raise Exit
      | [ ":clear" ] ->
        program := [];
        Format.printf "cleared@."
      | [ ":list" ] -> Format.printf "%a@." Pretty.pp_program !program
      | [ ":check" ] -> Format.printf "%a@?" Stage.pp_report (Stage.analyze !program)
      | [ ":model" ] -> (
        match evaluate () with
        | Ok db -> Format.printf "%a@?" Database.pp db
        | Error msg -> print_err msg)
      | [ ":models" ] -> (
        try
          let models = Choice_fixpoint.enumerate ~max_models:50 !program in
          Format.printf "%d model(s)@." (List.length models)
        with Choice_fixpoint.Unsupported msg -> print_err msg)
      | [ ":stable" ] -> (
        match evaluate () with
        | Ok db -> (
          try Format.printf "stable: %b@." (Stable.is_stable !program db)
          with Invalid_argument msg -> print_err msg)
        | Error msg -> print_err msg)
      | [ ":jobs" ] -> Format.printf "jobs: %d@." !jobs
      | [ ":jobs"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
          jobs := n;
          Format.printf "jobs: %d@." n
        | _ -> print_err "usage: :jobs N  (N >= 1)")
      | [ ":load"; path ] -> (
        match Gbc_error.protect (fun () -> parse_file path) with
        | Ok prog ->
          program := !program @ prog;
          Format.printf "loaded %d clause(s)@." (List.length prog)
        | Error e -> print_err (Gbc_error.to_string e))
      | [ ":help" ] | [ ":h" ] ->
        Format.printf
          "clauses end with '.'; queries start with '?-'.@.commands: :model :models :check \
           :stable :list :load FILE :jobs N :clear :quit@.Ctrl-C interrupts a running query \
           (the session and the program survive).@."
      | _ -> print_err ("unknown command: " ^ line)
    in
    Format.printf "gbc repl — :help for commands, :quit to leave@.";
    let buffer = Buffer.create 256 in
    (try
       while true do
         try
           Format.printf "%s @?" (if Buffer.length buffer = 0 then "gbc>" else "...>");
           let line = try input_line stdin with End_of_file -> raise Exit in
           let trimmed = String.trim line in
           if Buffer.length buffer = 0 && String.length trimmed > 0 && trimmed.[0] = ':' then
             handle_command trimmed
           else if String.length trimmed >= 2 && String.sub trimmed 0 2 = "?-" then begin
             let q = String.trim (String.sub trimmed 2 (String.length trimmed - 2)) in
             let q =
               if String.length q > 0 && q.[String.length q - 1] = '.' then
                 String.sub q 0 (String.length q - 1)
               else q
             in
             answer_query q
           end
           else begin
             Buffer.add_string buffer line;
             Buffer.add_char buffer '\n';
             if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '.' then begin
               let text = Buffer.contents buffer in
               Buffer.clear buffer;
               match Parser.parse_program text with
               | clauses -> program := !program @ clauses
               | exception Parser.Error (msg, _) -> print_err msg
             end
           end
         with Sys.Break ->
           Buffer.clear buffer;
           Format.printf "@.interrupted@."
       done
     with Exit -> ());
    if !errors = 0 then Ok ()
    else Error (`Msg (Printf.sprintf "%d error(s) during the session" !errors))
  in
  let doc = "Interactive session: enter clauses, ask '?-' queries, inspect analyses." in
  Cmd.v (Cmd.info "repl" ~doc) Term.(term_result (const run $ const ()))

(* ---------------- demo ---------------- *)

let demo_cmd =
  let algo_arg =
    let algos =
      [ ("prim", `Prim); ("kruskal", `Kruskal); ("sort", `Sort); ("matching", `Matching);
        ("tsp", `Tsp); ("huffman", `Huffman); ("dijkstra", `Dijkstra); ("scheduling", `Sched);
        ("vcover", `Vcover); ("setcover", `Setcover) ]
    in
    Arg.(required & pos 0 (some (enum algos)) None & info [] ~docv:"ALGO"
           ~doc:"One of: prim, kruskal, sort, matching, tsp, huffman, dijkstra, scheduling, vcover, setcover.")
  in
  let size_arg =
    Arg.(value & opt int 64 & info [ "size" ] ~docv:"N" ~doc:"Workload size (nodes/items).")
  in
  let dseed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")
  in
  let run algo size seed engine =
    let eng = match engine with `Reference -> Runner.Reference | `Staged -> Runner.Staged in
    let time f =
      let t0 = Sys.time () in
      let r = f () in
      (r, Sys.time () -. t0)
    in
    (match algo with
       | `Prim ->
         let g = Graph_gen.random_connected ~seed ~nodes:size ~extra_edges:(4 * size) in
         let r, dt = time (fun () -> Prim.run eng g) in
         Format.printf "prim: %d edges, weight %d (MST oracle %d), %.3fs@."
           (List.length r.Prim.edges) r.Prim.weight (Graph_gen.mst_weight g) dt
       | `Kruskal ->
         let g = Graph_gen.random_connected ~seed ~nodes:size ~extra_edges:(4 * size) in
         let r, dt = time (fun () -> Kruskal.run eng g) in
         Format.printf "kruskal: %d edges, weight %d (MST oracle %d), %.3fs@."
           (List.length r.Kruskal.edges) r.Kruskal.weight (Graph_gen.mst_weight g) dt
       | `Sort ->
         let rng = Rng.create seed in
         let items = List.init size (fun i -> (Printf.sprintf "x%d" i, Rng.int rng 100_000)) in
         let r, dt = time (fun () -> Sorting.run eng items) in
         Format.printf "sort: %d items, sorted %b, %.3fs@." (List.length r)
           (Sorting.is_sorted_permutation ~input:items r) dt
       | `Matching ->
         let rng = Rng.create seed in
         let arcs =
           List.init (4 * size) (fun i ->
               (Rng.int rng size, size + Rng.int rng size, (i * 7919 mod 104729) + 1))
           |> List.sort_uniq compare
         in
         let r, dt = time (fun () -> Matching.run eng arcs) in
         Format.printf "matching: %d arcs selected, cost %d, %.3fs@."
           (List.length r.Matching.arcs) r.Matching.cost dt
       | `Tsp ->
         let g = Graph_gen.complete ~seed ~nodes:size in
         let r, dt = time (fun () -> Tsp.run eng g) in
         Format.printf "tsp: chain of %d arcs, cost %d (procedural %d), %.3fs@."
           (List.length r.Tsp.chain) r.Tsp.cost (Tsp.procedural g).Tsp.cost dt
       | `Huffman ->
         let letters = Text_gen.zipf ~seed ~letters:size in
         let r, dt = time (fun () -> Huffman.run eng letters) in
         Format.printf "huffman: %d merges, cost %d (optimal %d), %.3fs@." r.Huffman.merges
           r.Huffman.internal_cost (Huffman.procedural_cost letters) dt
       | `Dijkstra ->
         let g = Graph_gen.random_connected ~seed ~nodes:size ~extra_edges:(4 * size) in
         let r, dt = time (fun () -> Dijkstra.run eng g) in
         Format.printf "dijkstra: %d nodes settled, %.3fs@." (List.length r) dt
       | `Sched ->
         let jobs = Interval_gen.random ~seed ~jobs:size ~horizon:(20 * size) in
         let r, dt = time (fun () -> Scheduling.run eng jobs) in
         Format.printf "scheduling: %d jobs selected of %d, %.3fs@." (List.length r) size dt
       | `Vcover ->
         let g = Graph_gen.random_connected ~seed ~nodes:size ~extra_edges:(2 * size) in
         let r, dt = time (fun () -> Vertex_cover.run eng g) in
         Format.printf "vertex cover: %d nodes cover %d edges (valid %b), %.3fs@."
           (List.length r.Vertex_cover.cover)
           (List.length g.Graph_gen.edges)
           (Vertex_cover.is_cover g r) dt
       | `Setcover ->
         let sets = Set_cover.random_instance ~seed ~sets:size ~universe:(4 * size) in
         let r, dt = time (fun () -> Set_cover.run eng sets) in
         Format.printf "set cover: %d sets cover %d/%d elements, %.3fs@." (List.length r)
           (Set_cover.coverage sets r) (Set_cover.coverable sets) dt);
    Ok ()
  in
  let doc = "Run a built-in greedy demo on a generated workload." in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(term_result (const run $ algo_arg $ size_arg $ dseed_arg $ engine_arg))

(* ---------------- serve ---------------- *)

let serve_cmd =
  Cmd.v (Cmd.info "serve" ~doc:Daemon_cli.serve_doc) Daemon_cli.serve_term

(* ---------------- router ---------------- *)

let router_cmd =
  Cmd.v (Cmd.info "router" ~doc:Router_cli.router_doc) Router_cli.router_term

(* ---------------- client ---------------- *)

(* A one-shot client for a running gbcd: connect, (optionally) load a
   program, perform one request, print the response, exit.  Exit codes
   mirror the local commands: 2 on a structured error frame, 3 when
   the server returned a partial model. *)

let chost_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let cport_arg =
  Arg.(value & opt int 7411 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Server TCP port.")

let cunix_arg =
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH"
         ~doc:"Connect over a Unix-domain socket instead of TCP.")

let ctimeout_arg =
  Arg.(value & opt (some float) None & info [ "connect-timeout" ] ~docv:"SEC"
         ~doc:"Give up on a connect attempt after SEC seconds.")

let cretries_arg =
  Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N"
         ~doc:"Reconnect attempts (exponential backoff with jitter) before giving up; \
               a broken connection replays the request exactly-once.")

(* All client commands go through the resilient layer: reconnect with
   backoff, re-attach to the session, replay the interrupted request
   (mutations stamped with client-unique ids, so exactly-once). *)
let with_client ?deadline ?connect_timeout ?(retries = 5) host port unix_path f =
  let endpoint =
    match unix_path with
    | Some path -> Client.Uds path
    | None -> Client.Tcp { host; port }
  in
  let r = Client.resilient ?connect_timeout ?deadline ~retries endpoint in
  Fun.protect ~finally:(fun () -> Client.resilient_close r) (fun () ->
      try f r with
      | Client.Protocol_error msg ->
        Format.eprintf "gbc: protocol error: %s@." msg;
        exit err_exit
      | Client.Timeout ->
        Format.eprintf "gbc: deadline exceeded: the server did not answer in time@.";
        exit err_exit
      | Client.Session_lost msg ->
        Format.eprintf "gbc: session lost: %s@." msg;
        exit err_exit
      | Unix.Unix_error (e, _, _) ->
        Format.eprintf "gbc: cannot reach the server: %s@." (Unix.error_message e);
        exit err_exit)

let crpc = Client.resilient_rpc

let print_response = function
  | Protocol.Pong -> Format.printf "pong@."
  | Protocol.Bye -> Format.printf "bye (server draining)@."
  | Protocol.Loaded { clauses; cache_hit; digest; stage_stratified } ->
    Format.printf "loaded %d clause(s), digest %s, cache %s, stage-stratified %b@." clauses
      digest
      (if cache_hit then "hit" else "miss")
      stage_stratified
  | Protocol.Asserted { added } -> Format.printf "asserted %d new fact(s)@." added
  | Protocol.Retracted { removed } -> Format.printf "retracted %d fact(s)@." removed
  | Protocol.Model { complete; text; diagnostic } ->
    print_string text;
    if not complete then begin
      Option.iter (fun d -> Format.eprintf "gbc: %s@?" d) diagnostic;
      Format.eprintf "gbc: the model above is partial@.";
      exit partial_exit
    end
  | Protocol.Model_set { total; models } ->
    Format.printf "%d model(s)@." total;
    List.iteri
      (fun i m ->
        Format.printf "--- model %d ---@." (i + 1);
        print_string m)
      models
  | Protocol.Answers { complete; vars = _; rows } ->
    List.iter (fun r -> Format.printf "%s@." r) rows;
    Format.printf "%d answer(s)@." (List.length rows);
    if not complete then begin
      Format.eprintf "gbc: answers computed against a partial model@.";
      exit partial_exit
    end
  | Protocol.Attached { id } -> Format.printf "attached to session %d@." id
  | Protocol.Welcome { version } -> Format.printf "welcome, protocol v%d@." version
  | Protocol.Stats_json json -> Format.printf "%s@." json
  | Protocol.Error { code; message } ->
    Format.eprintf "gbc: %s: %s@." (Protocol.error_code_to_string code) message;
    exit err_exit

let load_or_die c file =
  match crpc c (Protocol.Load (read_file file)) with
  | Protocol.Loaded _ as r -> r
  | Protocol.Error _ as r ->
    print_response r;
    assert false
  | r -> r

let budget_of ?timeout_s ?max_facts ?max_steps ?max_candidates ?jobs () =
  { Protocol.timeout_ms = Option.map (fun s -> int_of_float (s *. 1000.0)) timeout_s;
    max_facts;
    max_steps;
    max_candidates;
    jobs }

(* The client's --jobs is a request; the server clamps it to its own
   --max-jobs, so omitted means "whatever the server's default is"
   (sequential). *)
let cjobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Request N evaluation domains; the server grants at most its $(b,--max-jobs).")

let wire_engine = function `Staged -> Protocol.Staged | `Reference -> Protocol.Reference

let client_ping_cmd =
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Fail (exit code 2) unless the pong arrives within SEC seconds — \
                 distinguishes a hung daemon from a healthy one.")
  in
  let run host port unix ctimeout retries deadline =
    with_client ?deadline ?connect_timeout:ctimeout ~retries host port unix (fun c ->
        print_response (crpc c Protocol.Ping))
  in
  Cmd.v (Cmd.info "ping" ~doc:"Round-trip a ping frame.")
    Term.(const run $ chost_arg $ cport_arg $ cunix_arg $ ctimeout_arg $ cretries_arg
          $ deadline_arg)

let client_run_cmd =
  let facts_arg =
    Arg.(value & opt (some string) None & info [ "assert" ] ~docv:"FACTS"
           ~doc:"Ground facts (surface syntax) asserted into the session before running.")
  in
  let run host port unix ctimeout retries file engine preds seed facts jobs timeout_s
      max_facts max_steps max_candidates =
    with_client ?connect_timeout:ctimeout ~retries host port unix (fun c ->
        ignore (load_or_die c file);
        Option.iter
          (fun fs ->
            match crpc c (Protocol.Assert_facts { text = fs; id = None }) with
            | Protocol.Asserted _ -> ()
            | r -> print_response r)
          facts;
        print_response
          (crpc c
             (Protocol.Run
                { engine = wire_engine engine;
                  seed;
                  preds;
                  budget = budget_of ?timeout_s ?max_facts ?max_steps ?max_candidates ?jobs () })))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Load FILE (or stdin with $(b,-)) into a server session and print one stable model.")
    Term.(const run $ chost_arg $ cport_arg $ cunix_arg $ ctimeout_arg $ cretries_arg
          $ file_arg $ engine_arg $ preds_arg $ seed_arg $ facts_arg $ cjobs_arg $ timeout_arg
          $ max_facts_arg $ max_steps_arg $ max_candidates_arg)

let client_models_cmd =
  let max_arg =
    Arg.(value & opt int 100 & info [ "max" ] ~docv:"N" ~doc:"Stop after N distinct models.")
  in
  let run host port unix ctimeout retries file preds max_models =
    with_client ?connect_timeout:ctimeout ~retries host port unix (fun c ->
        ignore (load_or_die c file);
        print_response (crpc c (Protocol.Enumerate { max_models; preds })))
  in
  Cmd.v (Cmd.info "models" ~doc:"Enumerate the choice models of FILE on the server.")
    Term.(const run $ chost_arg $ cport_arg $ cunix_arg $ ctimeout_arg $ cretries_arg
          $ file_arg $ preds_arg $ max_arg)

let client_query_cmd =
  let atom_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ATOM"
           ~doc:"Query atom, e.g. 'prm(X, Y, C, _)'.")
  in
  let run host port unix ctimeout retries file engine text jobs timeout_s max_facts max_steps
      max_candidates =
    with_client ?connect_timeout:ctimeout ~retries host port unix (fun c ->
        ignore (load_or_die c file);
        print_response
          (crpc c
             (Protocol.Query
                { engine = wire_engine engine;
                  text;
                  budget = budget_of ?timeout_s ?max_facts ?max_steps ?max_candidates ?jobs () })))
  in
  Cmd.v (Cmd.info "query" ~doc:"Load FILE on the server and answer one query atom.")
    Term.(const run $ chost_arg $ cport_arg $ cunix_arg $ ctimeout_arg $ cretries_arg
          $ file_arg $ engine_arg $ atom_arg $ cjobs_arg $ timeout_arg $ max_facts_arg
          $ max_steps_arg $ max_candidates_arg)

let client_stats_cmd =
  let run host port unix ctimeout retries =
    with_client ?connect_timeout:ctimeout ~retries host port unix (fun c ->
        print_response (crpc c Protocol.Stats))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print the server's aggregated telemetry as JSON.")
    Term.(const run $ chost_arg $ cport_arg $ cunix_arg $ ctimeout_arg $ cretries_arg)

let client_shutdown_cmd =
  let run host port unix ctimeout retries =
    with_client ?connect_timeout:ctimeout ~retries host port unix (fun c ->
        print_response (crpc c Protocol.Shutdown))
  in
  Cmd.v (Cmd.info "shutdown" ~doc:"Ask the server to drain and exit gracefully.")
    Term.(const run $ chost_arg $ cport_arg $ cunix_arg $ ctimeout_arg $ cretries_arg)

let client_cmd =
  let doc = "Talk to a running gbcd (see $(b,gbc serve))." in
  Cmd.group (Cmd.info "client" ~doc)
    [ client_ping_cmd; client_run_cmd; client_models_cmd; client_query_cmd;
      client_stats_cmd; client_shutdown_cmd ]

let () =
  let doc = "Greedy by Choice: Datalog with choice, least/most and next (PODS'92)." in
  let info = Cmd.info "gbc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; load_cmd; profile_cmd; check_cmd; analyze_cmd; plan_cmd; rewrite_cmd; models_cmd; stable_cmd;
            wellfounded_cmd; query_cmd; explain_cmd; repl_cmd; demo_cmd; serve_cmd; router_cmd;
            client_cmd ]))
