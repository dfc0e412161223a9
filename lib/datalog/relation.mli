(** Append-only relation storage with on-demand hash indexes.

    Rows are kept in insertion order (engines rely on this for
    deterministic tie-breaking), membership is a hash set, and an index
    is built lazily for every distinct bound-column pattern that a query
    uses.  Indexes are maintained incrementally on insertion, so any
    lookup after the first is expected [O(1 + matches)].

    Relations only grow — the semantics never retracts a fact — which is
    what makes the watermark-based semi-naive deltas ({!cardinal} +
    {!iter_from}) sound, and what lets {!copy} share the frozen prefix
    copy-on-write instead of re-hashing every row.

    {b Two physical representations} live behind this interface.  Rows
    whose fields are all [Value.Int]/[Value.Sym] (every ground EDB row
    since interning) can be stored {e flat}: one growable int array of
    [arity * count] cells, with membership and index buckets probing
    directly into it — no per-row tuple, no per-field box.  A relation
    starts boxed and promotes automatically once it holds
    {!flat_threshold} all-int rows; a later non-encodable row demotes it
    back.  Promotion is invisible: iteration order, dedup and probe
    semantics are identical in both representations, which the
    byte-identity of canonical models depends on.  Flat relations decode
    cells through shared-value caches, so scans allocate (almost)
    nothing; the id-based accessors below avoid even the per-row tuple
    for hot paths that only read a few fields. *)

type tuple = Value.t array

module Row_key : Hashtbl.HashedType with type t = tuple
(** Structural equality and deep hash over whole rows. *)

module Row_tbl : Hashtbl.S with type key = tuple
(** Hash tables keyed by rows — use this instead of a polymorphic
    [Hashtbl] so keys hash via {!Value.hash} (never truncated). *)

type t

val create : string -> int -> t
(** [create name arity]. *)

val name : t -> string
val arity : t -> int
val cardinal : t -> int

val add : t -> tuple -> bool
(** [add r row] returns [true] if the row was new.
    @raise Invalid_argument on arity mismatch. *)

val add_ints : t -> int array -> bool
(** [add_ints r ints]: add the row [Int ints.(0), ..., Int ints.(n-1)]
    without boxing any field — the bulk-loader fast path.  The first row
    of an empty relation switches it to the flat representation
    immediately (when flat storage is enabled), bypassing the promotion
    threshold.  Same dedup/return semantics as {!add}.
    @raise Invalid_argument on arity mismatch. *)

val mem : t -> tuple -> bool

val iter : t -> (tuple -> unit) -> unit
(** All rows, in insertion order. *)

val iter_from : t -> int -> (tuple -> unit) -> unit
(** [iter_from r k f] applies [f] to rows [k, k+1, ...] in insertion
    order — the semi-naive delta between two watermarks. *)

val remove : t -> tuple list -> t
(** [remove r rows]: a fresh relation holding the rows of [r] that are
    not in [rows], in their original insertion order and [r]'s
    representation.  This is how incremental view maintenance retracts:
    relations themselves are append-only, so deletion rebuilds the
    survivors and installs the result with [Database.set_relation].
    [r] itself is left untouched, indexes included, so it can serve as
    the pre-removal state.  Rows of [rows] absent from [r] are ignored.
    One pass over [r]: a flat store locates the doomed rows through its
    membership set and copies the survivors' cells in runs, decoding
    nothing; a boxed one matches rows against a [Row_tbl].  The
    result's indexes are rebuilt lazily on the next probe. *)

val append_from : t -> t -> int -> unit
(** [append_from dst src from]: bulk-copy rows [from, cardinal src) of
    [src] into [dst], which must be empty — the semi-naive delta
    publisher.  Rows of one relation are already distinct, so no
    membership probes are paid on the way in; a flat source is copied as
    one cell blit.
    @raise Invalid_argument if [dst] is non-empty or arities differ. *)

(** {2 Id-based access}

    Row ids are insertion positions: row [0] is the oldest, ids are
    dense in [0, cardinal) and stable forever (relations only grow).
    The [_ids] iterators enumerate exactly the same ids, in exactly the
    same order, as their tuple-yielding counterparts — but without
    materializing a tuple per row, which on flat relations is the
    difference between one array load per field and an allocation per
    row.  Pair them with {!read}. *)

val read : t -> int -> int -> Value.t
(** [read r id col]: field [col] of row [id].  No bounds checks beyond
    the store's own; callers pass ids obtained from the [_ids]
    iterators.  Allocation-free on boxed relations and on flat cells
    that hit the decode cache. *)

val iter_ids : t -> (int -> unit) -> unit
(** Ids [0, cardinal) in order; the bound is read once. *)

val iter_matching_ids : t -> Value.t option array -> (int -> unit) -> unit
(** Id-yielding {!iter_matching}: same index use, same order, same
    snapshot semantics. *)

val iter_matching_cols_ids : t -> int -> Value.t array -> (int -> unit) -> unit
(** Id-yielding {!iter_matching_cols}. *)

val iter_matching_cols_ro_ids :
  t -> int -> Value.t array -> Value.t array -> int array -> (int -> unit) -> unit
(** [iter_matching_cols_ro_ids r mask key probe iprobe f]: like
    {!iter_matching_cols_ids} but safe for concurrent readers — never
    builds or mutates an index, and probes only with the caller-owned
    scratch buffers: [probe] needs as many slots as [mask] has bits
    (boxed probes), [iprobe] needs [arity r] slots (flat probes).
    Falls back to a filtered linear scan when no index exists for
    [mask] — same rows, same insertion order, just slower; call
    {!ensure_index} from the (sequential) coordinator first. *)

val iter_matching : t -> Value.t option array -> (tuple -> unit) -> unit
(** [iter_matching r pattern f]: rows agreeing with every [Some v]
    position of [pattern], in insertion order.  Uses (and if needed
    builds) the index for the pattern's bound-column set — except that a
    fully-bound probe of a flat relation is answered from the membership
    set, which already maps a row to its id, so no full-width index is
    ever built for it (this holds for every probe and slice below, the
    read-only variant and {!ensure_index} included).  The pattern
    is consumed before [f] is first called, so callers may reuse a
    scratch pattern buffer across calls.  Rows inserted by [f] itself
    are not visited. *)

val iter_matching_cols : t -> int -> Value.t array -> (tuple -> unit) -> unit
(** [iter_matching_cols r mask key f]: rows agreeing with [key] on every
    column of the bitmask [mask], in insertion order.  [key] is a
    full-arity buffer whose positions outside [mask] are ignored — the
    closure chains' allocation-free replacement for building an option
    pattern.  Index choice and snapshot semantics are those of
    {!iter_matching}, so the row sequence is identical. *)

val ensure_index : t -> int -> unit
(** [ensure_index r mask] builds (if absent) the index for the
    bound-column bitmask [mask], so subsequent
    {!iter_matching_cols_ro_ids} probes with that mask hit it.  Must be called outside any parallel
    region — it mutates the relation's index table. *)

(** {2 Slices — sharded enumeration}

    A slice freezes the row set matching a probe so a domain pool can
    enumerate disjoint contiguous ranges of it concurrently.  Built by
    the sequential coordinator ({!slice_cols} may create an index);
    shards then call {!slice_iter_ids} on their own ranges, which
    touches nothing mutable.  Rows appended after the slice was taken
    are not visited. *)

type slice

val slice_cols : t -> int -> Value.t array -> slice
(** The rows agreeing with [key] on every column of [mask], in
    insertion order: the whole relation when [mask] is [0], an index
    bucket otherwise. *)

val slice_len : slice -> int

val slice_rel : slice -> t
(** The relation the slice was taken from — pair with {!slice_iter_ids}
    and {!read}. *)

val slice_iter_ids : slice -> int -> int -> (int -> unit) -> unit
(** [slice_iter_ids sl lo hi f]: the ids of rows [lo, hi) of the
    slice, in order. *)

val fold : t -> init:'a -> f:('a -> tuple -> 'a) -> 'a
val to_list : t -> tuple list

val copy : t -> t
(** An independent snapshot: further [add]s to either side are invisible
    to the other.  O(1) — the row store and membership set are shared
    until one side next mutates (stored rows themselves never change). *)

(** {2 Flat representation control and raw access} *)

val is_flat : t -> bool

val set_flat_threshold : int option -> unit
(** Override the promotion threshold for this process: [Some n] promotes
    all-int relations at [n] rows, [None] disables flat storage for
    relations not already flat.  Initialized from the [GBC_FLAT]
    environment variable ("off"/"0" disables, an integer overrides the
    default of 1024).  Intended for tests and benchmarks. *)

val flat_threshold : unit -> int option

val promote : t -> bool
(** Force promotion now (threshold ignored); returns whether the
    relation is flat afterwards (false if it holds non-encodable rows,
    is nullary, or flat storage is disabled). *)

val demote : t -> unit
(** Force the boxed representation (no-op if already boxed). *)

val distinct_counts : t -> int array
(** Per-column distinct-value counts — planner statistics.  O(cells) on
    flat relations with no boxing. *)

(** {2 Snapshot codec support}

    A flat relation's store is an array of cells: [i lsl 1] encodes
    [Int i], [(id lsl 1) lor 1] encodes [Sym id].  The codec writes the
    store as one blob and rewrites sym ids through the snapshot's local
    symbol table using the helpers below. *)

val flat_cells : t -> int array option
(** The live cell store of a flat relation (length may exceed
    [cardinal * arity]; only the first [cardinal * arity] cells are
    meaningful).  [None] for boxed relations.  Callers must not mutate
    the array. *)

val of_flat_cells : string -> int -> int array -> int -> t
(** [of_flat_cells name arity cells count]: rebuild a flat relation from
    a decoded cell blob, taking ownership of [cells].  Rows must already
    be distinct (membership is rebuilt, not checked).
    @raise Invalid_argument if [arity <= 0] or [cells] is too short. *)

val cell_is_sym : int -> bool
val cell_sym : int -> int
val sym_cell : int -> int
val int_cell : int -> int
