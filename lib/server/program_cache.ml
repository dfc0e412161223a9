(* The compiled-program cache: parse + stage-analysis + EDB load happen
   once per distinct program text, keyed by source digest.

   An entry is immutable after construction: the parse, the partition
   into rules and facts, the stage report, and a frozen base database
   holding the program's ground facts.  Sessions never mutate the base
   — they take [Database.copy] snapshots (copy-on-write at the
   relation level), so serving an entry to any number of concurrent
   sessions costs one O(#relations) copy per session, not a re-parse
   and re-load.

   Publication safety: entries are only ever handed out from under
   [lock], and an entry is fully built before insertion, so a worker
   domain that receives one also observes all of its contents.  Two
   domains racing to compile the same new text both build an entry;
   the second insert discards its own and adopts the winner's, keeping
   the digest -> entry mapping unique. *)

module Ast = Gbc_datalog.Ast
module Database = Gbc_datalog.Database
module Parser = Gbc_datalog.Parser
module Stage = Gbc_datalog.Stage
module Plan = Gbc_datalog.Plan
module Gbc_error = Gbc_datalog.Gbc_error

type entry = {
  digest : string;  (* hex MD5 of the source text *)
  source_bytes : int;
  program : Ast.program;
  rules : Ast.program;  (* non-fact clauses *)
  base : Database.t;  (* the program's ground facts; frozen *)
  report : Stage.report;
  plan : Plan.t;  (* cost plan against [base]; feeds every session run *)
  compile_ms : float;  (* wall time of this entry's compilation *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  programs_compiled : int;
  compile_ms_total : float;
}

type t = {
  capacity : int;
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable lru : string list;  (* most recently used first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable programs_compiled : int;
  mutable compile_ms_total : float;
}

let create ?(capacity = 64) () =
  { capacity = max 1 capacity;
    lock = Mutex.create ();
    table = Hashtbl.create 32;
    lru = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    programs_compiled = 0;
    compile_ms_total = 0.0 }

let digest_hex source = Digest.to_hex (Digest.string source)

let compile ~digest source =
  let t0 = Unix.gettimeofday () in
  let program = Parser.parse_program source in
  let facts, rules = List.partition Ast.is_fact program in
  let base = Database.create () in
  Database.load_facts base facts;
  let report = Stage.analyze program in
  (* Plan over the non-fact clauses only — sessions evaluate [rules]
     against a copy of [base], so the plan's program must match; the
     base database supplies the cardinality statistics the fact
     clauses would otherwise seed. *)
  let plan = Plan.analyze ~db:base rules in
  { digest; source_bytes = String.length source; program; rules; base; report; plan;
    compile_ms = (Unix.gettimeofday () -. t0) *. 1000.0 }

let touch t digest = t.lru <- digest :: List.filter (fun d -> not (String.equal d digest)) t.lru

let evict_over_capacity t =
  while List.length t.lru > t.capacity do
    match List.rev t.lru with
    | oldest :: _ ->
      Hashtbl.remove t.table oldest;
      t.lru <- List.filter (fun d -> not (String.equal d oldest)) t.lru;
      t.evictions <- t.evictions + 1
    | [] -> ()
  done

let find_or_compile t source =
  let digest = digest_hex source in
  let cached =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table digest with
        | Some e ->
          t.hits <- t.hits + 1;
          touch t digest;
          Some e
        | None -> None)
  in
  match cached with
  | Some e -> Ok (e, true)
  | None -> (
    (* Compile outside the lock: a slow parse must not serialize every
       other session's loads. *)
    match Gbc_error.protect (fun () -> compile ~digest source) with
    | Error e ->
      Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1);
      Error e
    | Ok entry ->
      Ok
        (Mutex.protect t.lock (fun () ->
             t.misses <- t.misses + 1;
             (* Counted even on a lost race: the compilation work (and
                its wall time) really happened in this process. *)
             t.programs_compiled <- t.programs_compiled + 1;
             t.compile_ms_total <- t.compile_ms_total +. entry.compile_ms;
             match Hashtbl.find_opt t.table digest with
             | Some winner ->
               (* lost a compile race; the mapping stays unique *)
               touch t digest;
               (winner, true)
             | None ->
               Hashtbl.replace t.table digest entry;
               touch t digest;
               evict_over_capacity t;
               (entry, false))))

let stats t =
  Mutex.protect t.lock (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        entries = Hashtbl.length t.table;
        programs_compiled = t.programs_compiled;
        compile_ms_total = t.compile_ms_total })
