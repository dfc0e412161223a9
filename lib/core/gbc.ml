(** Greedy by Choice — public facade.

    One module to open: re-exports the Datalog substrate (values, AST,
    parser, analyses, engines), the ordered structures of Section 6,
    the workload generators, and the greedy-algorithm suite of
    Section 5.  See README.md for a tour and DESIGN.md for the mapping
    from the paper to the code. *)

(* Datalog substrate *)
module Interner = Gbc_datalog.Interner
module Value = Gbc_datalog.Value
module Ast = Gbc_datalog.Ast
module Lexer = Gbc_datalog.Lexer
module Parser = Gbc_datalog.Parser
module Pretty = Gbc_datalog.Pretty
module Relation = Gbc_datalog.Relation
module Database = Gbc_datalog.Database
module Eval = Gbc_datalog.Eval
module Plan = Gbc_datalog.Plan
module Compile = Gbc_datalog.Compile
module Depgraph = Gbc_datalog.Depgraph
module Stage = Gbc_datalog.Stage
module Rewrite = Gbc_datalog.Rewrite
module Naive = Gbc_datalog.Naive
module Seminaive = Gbc_datalog.Seminaive
module Ivm = Gbc_datalog.Ivm
module Telemetry = Gbc_datalog.Telemetry
module Limits = Gbc_datalog.Limits
module Par = Gbc_datalog.Par
module Gbc_error = Gbc_datalog.Gbc_error
module Choice_fixpoint = Gbc_datalog.Choice_fixpoint
module Stage_engine = Gbc_datalog.Stage_engine
module Stable = Gbc_datalog.Stable
module Wellfounded = Gbc_datalog.Wellfounded
module Transform = Gbc_datalog.Transform
module Magic = Gbc_datalog.Magic
module Explain = Gbc_datalog.Explain

(* Query-serving daemon (gbcd) *)
module Protocol = Gbc_server.Protocol
module Program_cache = Gbc_server.Program_cache
module Session = Gbc_server.Session
module Server = Gbc_server.Server
module Client = Gbc_server.Client
module Router = Gbc_server.Router

(* Durability substrate (WAL + snapshots) *)
module Checksum = Gbc_datalog.Checksum
module Db_snapshot = Gbc_datalog.Db_snapshot
module Wal = Gbc_server.Wal
module Durable = Gbc_server.Durable

(* Ordered structures (Section 6) *)
module Binary_heap = Gbc_ordered.Binary_heap
module Union_find = Gbc_ordered.Union_find
module Rql = Gbc_ordered.Rql

(* Workloads *)
module Rng = Gbc_workload.Rng
module Graph_gen = Gbc_workload.Graph_gen
module Text_gen = Gbc_workload.Text_gen
module Interval_gen = Gbc_workload.Interval_gen

(* Greedy algorithms (Section 5 + extensions) *)
module Runner = Gbc_greedy.Runner
module Sorting = Gbc_greedy.Sorting
module Prim = Gbc_greedy.Prim
module Kruskal = Gbc_greedy.Kruskal
module Matching = Gbc_greedy.Matching
module Tsp = Gbc_greedy.Tsp
module Huffman = Gbc_greedy.Huffman
module Dijkstra = Gbc_greedy.Dijkstra
module Scheduling = Gbc_greedy.Scheduling
module Vertex_cover = Gbc_greedy.Vertex_cover
module Set_cover = Gbc_greedy.Set_cover
module Assignment = Gbc_greedy.Assignment
module Matroid = Gbc_greedy.Matroid
