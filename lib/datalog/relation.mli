(** Relation storage with on-demand hash indexes and removal in place.

    Rows are kept in insertion order (engines rely on this for
    deterministic tie-breaking), membership is a hash set, and an index
    is built lazily for every distinct bound-column pattern that a query
    uses.  Indexes are maintained incrementally on insertion, so any
    lookup after the first is expected [O(1 + matches)].

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
    {!remove} compacts the survivors into a fresh store instead, so
    scans stay within 1.125 times the live rows.

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

(** Cell inspection for the snapshot codec, the digest, the printer
    and the staged engine's queue. *)
module Cell : sig
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

val iter : t -> (tuple -> unit) -> unit
(** All live rows, in insertion order. *)

val iter_from : t -> int -> (tuple -> unit) -> unit
(** [iter_from r k f] applies [f] to the live rows with ids [k, k+1,
    ...] below {!id_bound}, in insertion order — the rows appended
    since the watermark [k]. *)

val remove : t -> tuple list -> t
(** [remove r rows]: a new handle holding the rows of [r] that are not
    in [rows], in their original insertion order.  This is how
    incremental view maintenance retracts: the caller installs the
    result with [Database.set_relation].  Rows of [rows] absent from
    [r] are ignored.

    The result shares [r]'s store, indexes included: the removed rows
    are only marked dead in its own bitmap, so the cost is the removed
    rows plus a copy of that bitmap, one bit per id.  [r] stays the
    exact pre-removal state — its rows, probes and {!iter_from} do not
    change when the result later grows — and the result takes over
    appending to the store in place.  A row added back gets a new id,
    so it enumerates last, as a fresh insert would.

    When the dead rows would exceed an eighth of the live ones, the
    survivors are compacted into a fresh store instead, in one pass
    over [r]: their cells are copied in runs, decoding nothing, and
    index chains are renumbered, not rebuilt.  Ids are then dense again, so callers holding ids or
    watermarks of [r] must not apply them to the result; {!id_bound}
    of the result tells both cases apart for a watermark ([Ivm] resets
    its watermarks to it after every removal).

    When [r] has a {!digest_cache}, the result inherits it: the removed
    rows below its watermark queue their cells in [removed], and a
    compaction lowers the watermark to the survivors below it. *)

val prefix : t -> int -> t
(** [prefix r m]: a read-only handle on the rows of [r] with ids below
    [m] — the state [r] had when its {!id_bound} was [m], provided it
    lost no row since.  Shares [r]'s store and indexes; costs the rows
    added since [m].
    @raise Invalid_argument unless [0 <= m <= id_bound r]. *)

(** {2 Id-based access}

    Row ids are insertion positions: row [0] is the oldest, ids below
    {!id_bound} are live or dead, and an id names the same row for as
    long as a relation keeps its store (a compacting {!remove} starts a
    new one).  The [_ids] iterators enumerate exactly the live ids, in
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

val iter_matching_cols_ids : t -> int -> Value.t array -> (int -> unit) -> unit
(** Id-yielding {!iter_matching_cols}. *)

val iter_matching_cols_ro_ids : t -> int -> Value.t array -> int array -> (int -> unit) -> unit
(** [iter_matching_cols_ro_ids r mask key probe f]: like
    {!iter_matching_cols_ids} but safe for concurrent readers — never
    builds or mutates an index, and encodes the key into the
    caller-owned [probe] buffer, which needs [arity r] slots.  Falls
    back to a filtered linear scan when no index exists for [mask] —
    same rows, same insertion order, just slower; call {!ensure_index}
    from the (sequential) coordinator first. *)

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

val iter_range_ids : t -> int -> int -> int -> Value.t array -> int array -> (int -> unit) -> unit
(** [iter_range_ids r lo hi mask key probe f]: the live ids in [lo,
    hi) (clipped to {!id_bound}) whose rows agree with [key] on every
    column of [mask], in id order — the delta occurrence of a
    semi-naive variant, between two watermarks.  Masked columns are
    compared cell by cell: no index is read or built, and the key is
    encoded into the caller-owned [probe] ([arity r] slots), so it is
    safe for concurrent readers. *)

(** {2 Slices — sharded enumeration}

    A slice freezes the row set matching a probe so a domain pool can
    enumerate disjoint contiguous ranges of it concurrently.  Built by
    the sequential coordinator ({!slice_cols} may create an index);
    shards then call {!slice_iter_ids} on their own ranges, which
    touches nothing mutable.  Rows appended after the slice was taken
    are not visited.  The slice of a whole relation is its id range:
    its positions are ids, and dead ones are skipped. *)

type slice

val slice_cols : t -> int -> Value.t array -> slice
(** The rows agreeing with [key] on every column of [mask], in
    insertion order: the whole relation when [mask] is [0], an index
    bucket otherwise. *)

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
