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
(** Append the (version 2) snapshot encoding of a database: the
    encoding is {!put} to a {!counter}, then to a {!filler} over bytes
    of the size counted, which are appended. *)

(** {2 Images written once}

    A caller framing snapshots in an image of its own (the durability
    layer) writes the image at its exact size: every part is first put
    to a {!counter}, then to a {!filler} over bytes of the size
    counted.  Nothing is buffered twice. *)

type out

val counter : unit -> out
(** Counts what is put to it and writes nothing; a cell blob is
    counted from its table's size, without walking it. *)

val filler : Bytes.t -> out
(** Writes what is put to it into the bytes, from offset 0 on. *)

val written : out -> int
(** Bytes put so far. *)

val w_u8 : out -> int -> unit
val w_u32 : out -> int -> unit
val w_i64 : out -> int -> unit

val w_str : out -> string -> unit
(** A [u32] length, then the bytes. *)

type table = {
  name : string;
  arity : int;
  rows : int;
  blob : bool;  (** no term cells: the rows travel as one cell blob *)
  cells : (int -> unit) -> unit;  (** every cell, row after row ([blob] only) *)
  values : (Value.t -> unit) -> unit;  (** every field, row after row *)
}
(** One relation's contents, as the encoding reads them.  Written as
    a database holding the tables, in order, would be; a table
    need not be backed by a {!Relation}. *)

type stream
(** Tables with their local symbol table found. *)

val stream : table list -> stream
val of_database : Database.t -> stream

val put : out -> stream -> unit
(** The (version 2) snapshot encoding. *)

val read : string -> int -> Database.t * int
(** [read s pos] decodes one snapshot starting at [pos], returning the
    database and the offset just past it.
    @raise Corrupt on malformed input. *)
