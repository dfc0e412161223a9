(** Random graph workloads for the benchmarks and tests.

    Nodes are integers [0 .. n-1]; edge costs are positive integers.
    Generators marked "unique" assign pairwise-distinct costs so that
    the greedy programs have a single stable model and engine-equality
    tests can compare models exactly. *)

type t = {
  nodes : int;
  edges : (int * int * int) list;  (** (u, v, cost), u < v, stored once *)
}

val random_connected : seed:int -> nodes:int -> extra_edges:int -> t
(** A connected graph: a random spanning tree plus [extra_edges]
    distinct random chords, all with pairwise-distinct costs (giving
    the greedy programs a unique stable model). *)

val random_connected_ties : seed:int -> nodes:int -> extra_edges:int -> t
(** Same topology generator, but small costs drawn with replacement:
    ties abound, exercising the engines' deterministic tie-breaking. *)

val complete : seed:int -> nodes:int -> t
(** Complete graph on random integer points (approximately Euclidean
    costs, made unique by a per-edge offset). *)

val grid : width:int -> height:int -> t
(** Grid graph with unique deterministic costs. *)

val mst_weight : t -> int
(** Weight of a minimum spanning tree (Kruskal on sorted edges) —
    the test oracle. *)

val to_facts : ?pred:string -> ?directed:bool -> t -> Gbc_datalog.Ast.program
(** Edge facts [g(u, v, c)].  With [directed:false] (default) each
    edge appears in both orientations, as the paper stores undirected
    graphs. *)

val node_facts : ?pred:string -> t -> Gbc_datalog.Ast.program
(** [node(i)] facts. *)

(** {2 The big-EDB tier}

    Columnar graphs for the 10^6-10^7-edge corpus: three parallel int
    arrays instead of a triple list, generated in O(edges) and loaded
    straight into relation cells with {!load_big} — no [Value] boxing
    anywhere on the path. *)

type big = {
  big_nodes : int;
  big_src : int array;
  big_dst : int array;
  big_cost : int array;  (** pairwise distinct (single stable model) *)
}

val big_edges : big -> int

val power_law : seed:int -> nodes:int -> edges:int -> big
(** Connected multigraph with a heavy-tailed degree distribution: a
    spanning tree attaching each node to a skewed earlier one, then
    skewed random chords (low node ids become hubs).  Costs are a
    shuffled block of [1..edges]. *)

val road_network : seed:int -> width:int -> height:int -> big
(** A [width x height] 4-neighbour grid plus ~1% random long shortcuts
    — the planar-plus-highways shape of road graphs.  Unique costs. *)

val big_mst_weight : big -> int
(** Kruskal over the columns — the test oracle for the big tier. *)

val load_big : ?pred:string -> ?directed:bool -> Gbc_datalog.Database.t -> big -> unit
(** Load edge facts [pred(u, v, c)] through the relation bulk-load fast
    path ([Relation.add_ints]); with [directed:false] (default) each
    edge is loaded in both orientations. *)

val load_big_nodes : ?pred:string -> Gbc_datalog.Database.t -> big -> unit
(** Load [pred(i)] for every node, same fast path. *)
