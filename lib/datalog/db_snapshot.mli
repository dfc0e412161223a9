(** Binary serialization of databases for the durability layer.

    A snapshot is self-contained: interner ids are {e not} stable
    across process restarts, so every [Sym]/[Str] payload is written
    through a local string table embedded in the snapshot and
    re-interned on load.  Rows are written per relation in insertion
    order, so a round trip preserves arities, per-relation order and —
    therefore — the canonical [Database.pp] rendering byte-for-byte.

    The current stream format (version 2, magic ["GBC2"]) writes every
    relation of ints and symbols as one raw cell blob — restoring a
    bulk-loaded database is a blob decode plus a membership rehash per
    relation instead of a value decode per field.  Version 1 streams
    (no magic, every relation as tagged value rows) are no longer
    written but are still decoded, since a data dir may hold one.

    The codec checksums nothing: callers (lib/server/durable.ml) wrap
    the emitted bytes in their own magic/version/CRC envelope.
    Multiple snapshots can be concatenated; {!read} returns the offset
    just past the one it consumed. *)

exception Corrupt of string
(** Raised by {!read} on any malformation — truncation, impossible
    counts, unknown value tags, out-of-range local symbol ids, ints
    that do not fit in 63 bits, and cell blobs with an out-of-range
    int cell or a duplicate row.  Never raised after reading past the
    snapshot's own bytes. *)

val write : Buffer.t -> Database.t -> unit
(** Append the (version 2) snapshot encoding of a database. *)

val read : string -> int -> Database.t * int
(** [read s pos] decodes one snapshot starting at [pos], returning the
    database and the offset just past it.
    @raise Corrupt on malformed input. *)
