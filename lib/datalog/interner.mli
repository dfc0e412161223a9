(** Global hash-consing of symbol and string payloads.

    [Value.Sym] and [Value.Str] carry ids into this table rather than
    strings, making symbol equality and hashing integer operations.
    [compare_ids] preserves [String.compare] order through a lazily
    rebuilt rank table, so [least]/[most] tie-breaks and [Value.Set]
    orders are unchanged by interning.

    The table is domain-safe: insertions are serialized behind a
    mutex, while {!resolve} and {!compare_ids} stay lock-free (ids are
    published through an atomic frontier).  The worker domains of the
    gbcd server intern and resolve concurrently through this one
    table. *)

val intern : string -> int
(** The id of [s], allocating one on first sight.  Total and
    idempotent: [intern s = intern s], and [resolve (intern s) = s]. *)

val resolve : int -> string
(** The string behind an id.
    @raise Invalid_argument on an id never returned by {!intern}. *)

val canonical : string -> string
(** [resolve (intern s)]: the shared first-interned copy of [s]. *)

val compare_ids : int -> int -> int
(** Agrees with [String.compare (resolve a) (resolve b)], but costs
    two array reads once the rank table covers both ids.  Rebuilding
    the table is O(n log n) amortized over the interns since the last
    comparison against a fresh id. *)

val ranks : int -> int array
(** [ranks n]: the rank table behind {!compare_ids}, first rebuilt if
    it does not yet cover every id below [n].  For ids [a, b < n],
    [(ranks n).(a) < (ranks n).(b)] iff
    [String.compare (resolve a) (resolve b) < 0]; entries are distinct
    ranks, so equal ranks mean equal ids.  The array is shared and
    must not be mutated; a later rebuild replaces it, never changes it.
    @raise Invalid_argument if [n] exceeds {!size}. *)

val size : unit -> int
(** Number of distinct strings interned so far. *)
