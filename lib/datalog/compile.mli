(** Ahead-of-time compilation of planned rule bodies into closure
    chains — the rule-body executor of every engine, of incremental
    maintenance ({!Ivm}) and of the query paths.

    A chain executes exactly the steps of its {!Eval.body}, in the
    same order, enumerating rows in insertion order — the order the
    engines' deterministic tie-breaking relies on, and the order of the
    reference executor {!Eval.run}.  The environment holds one
    {!Relation} cell per variable: per tuple, a binding is a cell copied
    out of the row, a repeated variable an int compare, row obligations
    are statically-resolved opcodes, probes carry a static mask and a
    key of cells that goes to {!Relation.probe_ids} as it is, heads are
    written as cells, and relations are resolved once per execution
    instead of once per enclosing solution.  Cells are decoded only
    where a value's meaning is needed: order comparisons and arithmetic
    on cells that are not inline ints, compound terms, and the value
    programs below.

    A chain owns mutable buffers: never share one instance across
    concurrent executors.  Shards take {!clone}s and run read-only via
    {!run_slice} or [run_range ~ro:true] after the coordinator called
    {!prepare_indexes}. *)

type env = int array
(** One cell per variable slot (see {!Relation.Cell}). *)

type plan
(** What a chain is built from: the planned body's steps, the [bound]
    slots, the [range] flag and the slots bound at the body's end —
    none of the buffers and closures a chain holds.  Immutable: the
    prepared programs of {!Seminaive.prepare} and
    {!Stage_engine.prepare} keep plans, and every execution builds its
    own chains from them. *)

val plan : ?bound:int list -> ?range:bool -> Eval.body -> plan
(** The plan of a planned body.  [bound] lists the environment slots
    the caller promises to set before every {!run} — the slots of the
    body's [extra_bound] variables.  The static analysis is exact only
    under that promise.

    With [range], the body's first positive scan is a {e range scan}:
    the delta occurrence of a semi-naive variant, which the planner
    places after any filter that is ready before it, so not
    necessarily first.  It enumerates only the live ids of the range
    given to {!run_range}, in id order, through
    {!Relation.iter_range_ids}: masked columns (constants, variables a
    filter bound) are compared as cells and no index is built.  A range
    lists the same rows in the same order as a relation holding just
    those rows would. *)

type t

val instance : plan -> t
(** A chain of the plan: a private environment, buffers and resolved
    relations. *)

val of_body : ?bound:int list -> ?range:bool -> Eval.body -> t
(** [instance] of [plan]. *)

val clone : t -> t
(** A fresh instance of the same plan, for one shard. *)

val env : t -> env

val set_slot : t -> int -> int -> unit
(** [set_slot t slot cell]: bind a [bound] slot before a run. *)

val run : t -> Database.t -> (unit -> unit) -> unit
(** [run t db k] calls [k] once per satisfying assignment, with the
    bindings readable in [env t] (valid only during the callback).
    Any [bound] slots must already be set. *)

val resolve : t -> Database.t -> unit
(** Re-resolve the chain's scanned relations against [db].  {!run}
    does this implicitly; hot loops that execute the same chain many
    times between database mutations can resolve once and use
    {!run_resolved} per execution instead. *)

val run_resolved : t -> (unit -> unit) -> unit
(** Like {!run} but reuses the relations from the last {!resolve} (or
    {!run}) — the caller promises the database's relation map has not
    changed since.  Allocation-free apart from the chain's own work. *)

val run_range : t -> ro:bool -> int -> int -> (unit -> unit) -> unit
(** [run_range t ~ro lo hi k]: {!run_resolved} with the range scan
    reading the ids [lo, hi).  With [ro], every probe is read-only: for
    a shard's private {!clone}, resolved before the parallel region,
    after the coordinator called {!prepare_indexes}.
    @raise Invalid_argument if [t] was compiled without [range]. *)

val shardable : t -> bool
val prepare_indexes : t -> Database.t -> unit

val shard_scan : t -> Database.t -> Relation.slice option
(** Resolve and probe the first scan, returning the slice of matching
    rows ([None] when the relation does not exist).  Sequential — may
    build the probed index. *)

val run_slice : t -> Database.t -> Relation.slice -> int -> int -> (unit -> unit) -> unit
(** Like {!run} but the first scan's rows are drawn from the slice
    range [lo, hi) and all probes are read-only.  [t] must be a
    private {!clone} of the calling shard. *)

(** {2 Engine-side programs over a chain's environment}

    The engines evaluate heads, costs, keys and FD projections per
    solution.  These compile the corresponding {!Eval.cterm}s against
    the plan's end-of-body bound set into direct evaluators over the
    environment: to a cell, for what goes into a relation, or to a
    decoded value, for what is compared or tabled as a value.  They
    take the environment as an argument, so they serve every
    {!instance} of the plan. *)

type cell_prog = env -> int
type value_prog = env -> Value.t

val compile_cell : plan -> Eval.cterm -> cell_prog
(** A value the body computes enters the term table when it needs a
    cell there. *)

val compile_value : plan -> Eval.cterm -> value_prog

type row
(** A head: one cell program per argument, a plain variable copying
    its slot. *)

val compile_row : plan -> Eval.cterm array -> row
val row_width : row -> int

val write_row : row -> env -> int array -> int -> unit
(** [write_row r env dst off]: the row's cells into [dst] at [off]. *)

val row_cells : row -> env -> int array
(** The row's cells in a fresh array. *)

(** Rows of one width gathered into one growable cell array, kept
    across uses: what a semi-naive fire collects before it inserts. *)
type rows

val rows_create : int -> rows
val clear_rows : rows -> unit
val emit : rows -> row -> env -> unit

val add_rows_rev : Relation.t -> rows -> int
(** Add the gathered rows to the relation, the last gathered first,
    through {!Relation.add_cells}, and empty the buffer; returns how
    many were new. *)

type binder

val compile_binder : bound:int list -> Eval.cterm array -> binder
(** Match compiled argument terms against a ground row, binding slots
    that are unbound given that exactly [bound] is set at bind time.
    No arithmetic inversion: a partially bound arithmetic term never
    matches. *)

val bind_id : binder -> env -> Relation.t -> int -> bool
(** [bind_id b env rel id]: match against the cells of row [id] of
    [rel] — nothing is decoded unless a pattern is compound. *)

val solutions : Eval.body -> Database.t -> Ast.term list -> Value.t list list
(** [solutions body db outs]: run [body] (compiled with no
    [extra_bound] variables) once and return the values of [outs] per
    solution, in enumeration order — the query and explanation paths,
    where the cells are decoded.
    @raise Eval.Unsafe when an output term is unbound. *)
