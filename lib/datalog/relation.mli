(** Relation storage with on-demand hash indexes and removal in place.

    Rows are kept in insertion order (engines rely on this for
    deterministic tie-breaking).  Membership and every index are one
    kind of open-addressing table of row ids: membership is the index on
    every column, and an index is built lazily for every distinct
    bound-column pattern that a query uses.  A key one row holds costs
    its slot only; the rows of a key several rows hold are chained in
    insertion order.  Indexes are maintained incrementally on
    insertion, so any lookup after the first is expected
    [O(1 + matches)].

    {b Handles.}  A relation is a handle on a row store: the store, an
    id bound and a set of dead rows.  A row gets the next id when it is
    added and keeps it: stored rows never change or move, which is what
    makes the watermark-based semi-naive deltas ({!id_bound} +
    {!iter_range_ids}) sound.  {!remove} marks rows dead in a new handle on
    the same store — no survivor is copied, re-hashed or re-indexed —
    and leaves the old handle reading exactly the rows it had.  One
    handle, the newest, appends to a store in place; any other copies
    the store before it first adds a row, as both sides of a {!copy}
    do.  Once dead rows would exceed an eighth of the live ones,
    {!remove} compacts the survivors, so scans stay within 1.125 times
    the live rows: in the store's own arrays when no other handle reads
    them, else into a copy.

    {b One representation.}  A row is [arity] {e cells} — one int per
    field — stored with every other row in one growable int array of
    [arity * count] cells.  A cell is

    - [i lsl 1] for [Int i] with [|i| < 2^61];
    - [(id lsl 2) lor 1] for [Sym id];
    - [(k lsl 2) lor 3] for every other value — [Str], [Tup], [App] and
      wider ints — where [k] is the value's id in a global hash-consing
      table of terms.

    Every value has exactly one cell, so membership, indexes and
    distinct counts work on raw ints and agree with {!Value.equal}.
    The term table is shared by every domain and lives as long as the
    process, like {!Interner}: inserts and lookups run under its mutex,
    decoding reads it lock-free behind an atomic frontier.  Probing with
    a value no row holds never grows it.  Scans decode cells through
    shared-value caches and the term table, so they allocate (almost)
    nothing beyond the row tuple; the id-based accessors below avoid
    even that for hot paths that only read a few fields. *)

(** Cells: what the snapshot codec, the digest and the printer read,
    and what the compiled rule bodies ({!Compile}) bind, probe and
    write. *)
module Cell : sig
  val inline : int -> bool
  (** [inline i]: [|i| < 2^61], so [Int i] is the cell [i lsl 1]. *)

  val encode : Value.t -> int
  (** The value's cell, entering it into the term table if it is not
      there yet. *)

  val lookup : Value.t -> int
  (** The value's cell if it has one, else a cell no row holds: for
      probes, which never grow the term table. *)

  val of_int : int -> int
  (** [encode (Int i)], boxing nothing when [i] is inline. *)

  val decode : int -> Value.t

  val is_int : int -> bool
  (** The cell holds an inline [Int]; its payload is [c asr 1]. *)

  val is_sym : int -> bool
  (** The cell holds a [Sym]; its interner id is {!sym_id}. *)

  val is_term : int -> bool
  (** The cell holds a term-table value: a [Str], [Tup], [App] or wide
      [Int]; {!decode} reads it without allocating. *)

  val sym_id : int -> int
  val of_sym : int -> int
end

type tuple = Value.t array

module Row_key : Hashtbl.HashedType with type t = tuple
(** Structural equality and deep hash over whole rows. *)

module Row_tbl : Hashtbl.S with type key = tuple
(** Hash tables keyed by rows — use this instead of a polymorphic
    [Hashtbl] so keys hash via {!Value.hash} (never truncated). *)

module Cells_tbl : Hashtbl.S with type key = int array
(** Hash tables keyed by rows of cells. *)

type t

val create : string -> int -> t
(** [create name arity]. *)

val arity : t -> int

val cardinal : t -> int
(** The live rows. *)

val id_bound : t -> int
(** One past the newest id: every id below it is live or dead, and
    rows added later get ids at or above it — the watermark for
    {!iter_from}.  Equal to {!cardinal} exactly when no row is dead. *)

val is_live : t -> int -> bool
(** [is_live r id]: [id] is below {!id_bound} and not removed.  Callers
    reading {!cells} skip the ids this refuses; on a relation with no
    dead rows ([cardinal r = id_bound r]) none needs asking. *)

val add : t -> tuple -> bool
(** [add r row] returns [true] if the row was new.
    @raise Invalid_argument on arity mismatch. *)

val add_ints : t -> int array -> bool
(** [add_ints r ints]: add the row [Int ints.(0), ..., Int ints.(n-1)]
    without boxing any inline field — the bulk-loader fast path.  Same
    dedup/return semantics as {!add}, for every int.
    @raise Invalid_argument on arity mismatch. *)

val mem : t -> tuple -> bool

val find : t -> tuple -> int
(** The id of the live row [row], or [-1].  The key is encoded into
    the handle's own scratch buffer: not for concurrent readers of one
    handle. *)

val find_cells : t -> int array -> int
(** [find_cells r probe]: the id of the live row whose cells are the
    [arity r] cells of [probe], or [-1].  Reads nothing but the probe,
    so callers may pass their own buffer. *)

val add_cells : t -> int array -> int -> bool
(** [add_cells r src off]: {!add} of the row whose cells are
    [src.(off) .. src.(off + arity r - 1)], copied through the handle's
    scratch row: nothing is encoded. *)

val blit_cells : int array -> int -> int array -> int -> int -> unit
(** [Array.blit] for int arrays, without the write barrier the runtime's
    blit runs into a major-heap array. *)

val row_cells : t -> int -> int array
(** [row_cells r id]: a fresh copy of row [id]'s cells. *)

val find_of : t -> t -> int -> int
(** [find_of r src id]: {!find} for row [id] of [src], compared cell
    by cell — nothing is decoded.  Same scratch caveat.
    @raise Invalid_argument when the arities differ. *)

val add_of : t -> t -> int -> bool
(** [add_of r src id]: {!add} of row [id] of [src], its cells copied:
    nothing is decoded or re-encoded.
    @raise Invalid_argument when the arities differ. *)

val append_of : t -> t -> int -> unit
(** [append_of r src id]: {!add_of} without the duplicate check, for a
    caller that knows [r] lacks the row.  Its membership entry is made
    when [r] is next probed, added to or copied, so a relation filled
    this way and only scanned never hashes its rows. *)

val iter : t -> (tuple -> unit) -> unit
(** All live rows, in insertion order. *)

val iter_from : t -> int -> (tuple -> unit) -> unit
(** [iter_from r k f] applies [f] to the live rows with ids [k, k+1,
    ...] below {!id_bound}, in insertion order — the rows appended
    since the watermark [k]. *)

(** Sets of row ids, one bit per id below the bound they were created
    for: the over-deleted rows of incremental maintenance, and the
    argument of {!remove_ids}. *)
module Idset : sig
  type t

  val create : int -> t
  (** [create n]: the empty set over ids [0, n). *)

  val mem : t -> int -> bool
  (** False for every id at or past the bound. *)

  val add : t -> int -> unit
  (** @raise Invalid_argument for an id past the bound's byte. *)

  val remove : t -> int -> unit

  val iter : t -> (int -> unit) -> unit
  (** The members in ascending order. *)
end

val remove_ids : t -> Idset.t -> t
(** [remove_ids r set]: a new handle holding the rows of [r] whose ids
    are not in [set], in their original insertion order.  This is how
    incremental view maintenance retracts: the caller installs the
    result with [Database.set_relation].  Ids of [set] that [r] does
    not hold live are ignored.

    The result shares [r]'s store, indexes included: the removed rows
    are only marked dead in its own bitmap, so the cost is a scan of
    [set] plus a copy of that bitmap, one bit per id.  [r] stays the
    exact pre-removal state — its rows, probes and {!iter_from} do not
    change when the result later grows — and the result takes over
    appending to the store in place.  A row added back gets a new id,
    so it enumerates last, as a fresh insert would.

    When [r] has a {!digest_cache}, the result inherits it, with the
    removed rows below its watermark queued in [removed]. *)

val compact : t -> t
(** [compact r]: [r] itself while its dead rows are at most an eighth
    of its live ones; otherwise a handle holding the same rows in the
    same order with dense ids, so that scans stay within 1.125 times
    the live rows, and [r] is {!release}d.  When [r] owns its store and
    no other handle reads it, this happens in the store's own arrays
    and allocates only the new handle: the survivors' cells are copied
    down and the membership set and indexes renumbered where they are
    (ids map monotonely, so no row is re-hashed and chains keep their
    order).  Otherwise the survivors go into a copy, its indexes
    renumbered and its membership set hashed anew, and the arrays other
    handles read stay as they are.
    Callers holding ids or watermarks of [r] must not apply them to
    the result; {!id_bound} of the result tells both cases apart for a
    watermark ([Ivm] resets its watermarks to it after every removal).
    A {!digest_cache} moves along, its watermark lowered to the
    survivors below it. *)

val release : t -> unit
(** [release r]: the caller reads [r] no more.  [r] reads as empty
    from then on.  Once every handle on a store but its owner is
    released, {!compact} of the owner works in the store's own arrays;
    a handle never released keeps them, and its rows, as they are. *)

val remove : t -> tuple list -> t
(** [remove r rows]: {!compact} of {!remove_ids} of the ids [rows] have
    in [r]; rows absent from [r] are ignored.  [r] keeps its rows, so a
    compaction here works in a copy. *)

val prefix : t -> int -> t
(** [prefix r m]: a read-only handle on the rows of [r] with ids below
    [m] — the state [r] had when its {!id_bound} was [m], provided it
    lost no row since.  Shares [r]'s store and indexes; costs the rows
    added since [m].
    @raise Invalid_argument unless [0 <= m <= id_bound r]. *)

(** {2 Id-based access}

    Row ids are insertion positions: row [0] is the oldest, ids below
    {!id_bound} are live or dead, and an id names the same row for as
    long as a relation is not compacted (a compacting {!remove}
    renumbers them).  The [_ids] iterators enumerate exactly the live ids, in
    exactly the same order, as their tuple-yielding counterparts — but
    without materializing a tuple per row: one array load per field
    instead of an allocation per row.  Pair them with {!read}. *)

val read : t -> int -> int -> Value.t
(** [read r id col]: field [col] of row [id].  No bounds checks beyond
    the store's own; callers pass ids obtained from the [_ids]
    iterators.  Allocation-free on terms and on ints and symbols that
    hit the decode cache. *)

val iter_matching_ids : t -> Value.t option array -> (int -> unit) -> unit
(** Id-yielding {!iter_matching}: same index use, same order, same
    snapshot semantics. *)

val probe_ids : t -> int -> int array -> (int -> unit) -> unit
(** [probe_ids r mask probe f]: the live ids whose rows agree with the
    cells of [probe] on every column of the bitmask [mask], in
    insertion order.  [probe] is a full-arity cell buffer whose
    positions outside [mask] are ignored — the closure chains' probe
    keys go in as they are, encoded once when they were computed.
    Index choice and snapshot semantics are those of {!iter_matching},
    so the row sequence is identical. *)

val probe_ids_ro : t -> int -> int array -> (int -> unit) -> unit
(** Like {!probe_ids} but safe for concurrent readers — never builds or
    mutates an index.  Falls back to a filtered linear scan when no
    index exists for [mask] — same rows, same insertion order, just
    slower; call {!ensure_index} from the (sequential) coordinator
    first. *)

val iter_matching : t -> Value.t option array -> (tuple -> unit) -> unit
(** [iter_matching r pattern f]: rows agreeing with every [Some v]
    position of [pattern], in insertion order.  Uses (and if needed
    builds) the index for the pattern's bound-column set — except that a
    fully-bound probe is answered from the membership set, which already
    maps a row to its id, so no full-width index is ever built for it
    (this holds for every probe and slice below, the read-only variant
    and {!ensure_index} included).  The pattern
    is consumed before [f] is first called, so callers may reuse a
    scratch pattern buffer across calls.  Rows inserted by [f] itself
    are not visited. *)

val ensure_index : t -> int -> unit
(** [ensure_index r mask] builds (if absent) the index for the
    bound-column bitmask [mask], so subsequent
    {!probe_ids_ro} probes with that mask hit it.  Must be called outside any parallel
    region — it mutates the relation's index table. *)

val iter_range_ids : t -> int -> int -> int -> int array -> (int -> unit) -> unit
(** [iter_range_ids r lo hi mask probe f]: the live ids in [lo, hi)
    (clipped to {!id_bound}) whose rows agree with the cells of [probe]
    on every column of [mask], in id order — the delta occurrence of a
    semi-naive variant, between two watermarks.  Masked columns are
    compared cell by cell: no index is read or built, so it is safe for
    concurrent readers. *)

(** {2 Slices — sharded enumeration}

    A slice freezes the row set matching a probe so a domain pool can
    enumerate disjoint contiguous ranges of it concurrently.  Built by
    the sequential coordinator ({!slice_cols} may create an index);
    shards then call {!slice_iter_ids} on their own ranges, which
    touches nothing mutable.  Rows appended after the slice was taken
    are not visited.  The slice of a whole relation is its id range:
    its positions are ids, and dead ones are skipped. *)

type slice

val slice_cols : t -> int -> int array -> slice
(** The rows agreeing with the cells of [probe] on every column of
    [mask], in insertion order: the whole relation when [mask] is [0],
    an index bucket otherwise. *)

val slice_len : slice -> int
(** The positions the slice spans: its rows, or for a whole relation
    its {!id_bound}. *)

val slice_iter_ids : slice -> int -> int -> (int -> unit) -> unit
(** [slice_iter_ids sl lo hi f]: the live ids at positions [lo, hi)
    of the slice, in order. *)

val to_list : t -> tuple list

val copy : t -> t
(** An independent snapshot: further [add]s to either side are invisible
    to the other.  O(1) — the row store and membership set are shared,
    frozen, until one side next adds a row and copies them (stored rows
    themselves never change), and so is the {!digest_cache}, which
    covers only that shared prefix.  A frozen store is never written,
    so handles on it may be read from other domains. *)

val distinct_counts : t -> int array
(** Per-column distinct-value counts over the live rows — planner
    statistics.  O(cells) with no boxing. *)

(** {2 Raw cells}

    The snapshot codec, the digest, the printer and the staged engine's
    queue read the cell store directly, and the codec rebuilds it, in
    the encoding described at the top. *)

val cells : t -> int array
(** The cell store: row [id] at [id * arity].  Only the rows below
    {!id_bound} that {!is_live} accepts belong to the relation (the
    array may be longer, and may hold rows of newer handles past the
    bound).  Callers must not mutate the array. *)

val has_terms : t -> bool
(** Some cell of a live row holds a term-table value: a [Str], [Tup],
    [App] or wide [Int]. *)

val of_cells : string -> int -> int array -> int -> t
(** [of_cells name arity cells count]: rebuild a relation from a
    decoded cell blob, taking ownership of [cells].  Membership is
    rebuilt, indexes stay lazy.
    @raise Invalid_argument if [cells] is too short or holds a
    duplicate row. *)

(** {2 Digest cache}

    [Database.digest] keeps its running sums here, so a relation that
    only grew, or lost rows through {!remove}, is re-hashed at the
    cost of that change.  Nothing else reads or writes it; a fresh
    relation, or a {!prefix}, has none. *)

type digest_cache = {
  key_a : int;
  key_b : int;  (** the head lanes (predicate, arity) the sums were computed under *)
  sum_a : int;
  sum_b : int;  (** lane sums over the live rows with ids below [mark] *)
  mark : int;
  removed : int array list;
      (** cells of rows removed below [mark] since, each array a run of
          whole rows, not yet subtracted *)
}

val digest_cache : t -> digest_cache option
val set_digest_cache : t -> digest_cache -> unit
