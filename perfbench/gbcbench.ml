(* The benchmark's measuring program.  perfbench/run.py builds it and
   calls it once per run:

     gbcbench.exe --workload W --seed N --seconds S --trace 0|1
                  --gbcd EXE --router EXE --programs DIR --run-dir DIR

   The last line of standard output is the run's result; the line
   before it records seed, revision, nproc, daemon flags and per-metric
   sample counts. *)

open Common

let usage () =
  prerr_endline
    "usage: gbcbench.exe --workload batch_greedy|serve_mix|serve_update --seed N --seconds S \
     --trace 0|1 --gbcd EXE --router EXE --programs DIR --run-dir DIR [--rev REV] [--smoke] \
     [--corrupt]";
  exit 2

let parse argv =
  let args =
    ref
      { workload = ""; seed = 1; seconds = 10.0; trace = false; smoke = false; corrupt = false;
        gbcd = ""; router = ""; programs = "programs"; run_dir = ".bench_run"; rev = "unknown" }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> args := { !args with workload = v }; go rest
    | "--seed" :: v :: rest -> args := { !args with seed = int_of v }; go rest
    | "--seconds" :: v :: rest ->
      args := { !args with seconds = (match float_of_string_opt v with Some f -> f | None -> usage ()) };
      go rest
    | "--trace" :: v :: rest -> args := { !args with trace = int_of v <> 0 }; go rest
    | "--gbcd" :: v :: rest -> args := { !args with gbcd = v }; go rest
    | "--router" :: v :: rest -> args := { !args with router = v }; go rest
    | "--programs" :: v :: rest -> args := { !args with programs = v }; go rest
    | "--run-dir" :: v :: rest -> args := { !args with run_dir = v }; go rest
    | "--rev" :: v :: rest -> args := { !args with rev = v }; go rest
    | "--smoke" :: rest -> args := { !args with smoke = true }; go rest
    | "--corrupt" :: rest -> args := { !args with corrupt = true }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  !args

let () =
  let args = parse Sys.argv in
  let run =
    match args.workload with
    | "batch_greedy" -> Batch_greedy.run
    | "serve_mix" -> Serve_mix.run
    | "serve_update" -> Serve_update.run
    | _ -> usage ()
  in
  mkdir_p args.run_dir;
  print_result args (run args)
