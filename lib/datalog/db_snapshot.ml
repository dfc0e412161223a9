(* Database <-> bytes, with a local symbol table.

   Two stream formats share the decoder.  Version 2 (current) is
   framed:

     u32 magic          0x47424332 "GBC2"
     u8  version        2
     u32 nsyms                      local symbol table
     nsyms x (u32 len, bytes)       local id 0, 1, ... in order
     u32 npreds
     per predicate:
       u32 len, bytes               name
       u32 arity
       u32 nrows
       u8  repr                     0 tagged rows, 1 cell blob
       repr 0: nrows x arity x value          rows in insertion order
       repr 1: (nrows * arity) x i64 cell     raw cells

     value := u8 tag
       0  Int  i64
       1  Sym  u32 local id
       2  Str  u32 local id
       3  Tup  u32 count, values
       4  App  (u32 len, bytes) name, u32 count, values

   A relation whose fields are all ints and symbols is dumped as one
   run of i64 cells — no per value tag bytes, and the reader rebuilds
   the relation from the blob plus a membership rehash instead of
   row-at-a-time inserts.  Blob cells are [i lsl 1] for ints and
   [(local lsl 1) lor 1] for symbols, with symbol ids rewritten through
   the local table on both sides; the reader re-encodes them as
   in-memory cells ([Relation.Cell]).  Relations holding strings or terms, and nullary
   ones, are written as repr-0 rows.

   Version 1 streams (everything before the magic existed) start
   directly at the [u32 nsyms] field and encode every relation with
   repr-0 rows and no repr byte.  Nothing writes them any more, but a
   data dir may still hold one, so the reader keeps decoding them.  It
   keys on the leading u32: the magic value as an nsyms count would
   promise a ~1.2 G-entry symbol table, which the count plausibility
   check rejects for any stream small enough to be ambiguous.

   The global interner allocates ids in first-sight order, which is a
   property of the process, not of the data — hence the local table:
   the writer maps global ids to dense local ones, the reader interns
   the strings back and maps local ids to whatever the current process
   says. *)

exception Corrupt of string

let magic = 0x47424332 (* "GBC2" *)
let version = 2

(* ---------------- writing ---------------- *)

(* Where an encoding goes: written in place into bytes from [pos] on.
   Filling [Bytes.empty] writes nothing and only counts, which is how
   an image finds its exact size before it is written once. *)
type out = { bytes : Bytes.t; mutable pos : int }

let counter () = { bytes = Bytes.empty; pos = 0 }
let filler bytes = { bytes; pos = 0 }
let written o = o.pos
let counting o = Bytes.length o.bytes = 0

(* Move past [n] bytes, returning where they start, or -1 when they are
   only counted. *)
let[@inline] reserve o n =
  let p = o.pos in
  o.pos <- p + n;
  if counting o then -1 else p

let w_u8 o n =
  let p = reserve o 1 in
  if p >= 0 then Bytes.set_uint8 o.bytes p (n land 0xff)

let w_u32 o n =
  let p = reserve o 4 in
  if p >= 0 then Bytes.set_int32_be o.bytes p (Int32.of_int n)

let w_i64 o n =
  let p = reserve o 8 in
  if p >= 0 then Bytes.set_int64_be o.bytes p (Int64.of_int n)

let w_str o s =
  w_u32 o (String.length s);
  let p = reserve o (String.length s) in
  if p >= 0 then Bytes.blit_string s 0 o.bytes p (String.length s)

type enc = {
  locals : (int, int) Hashtbl.t;  (* global interner id -> local id *)
  mutable syms_rev : string list;
  mutable nsyms : int;
}

let local enc gid =
  match Hashtbl.find_opt enc.locals gid with
  | Some l -> l
  | None ->
    let l = enc.nsyms in
    Hashtbl.add enc.locals gid l;
    enc.syms_rev <- Interner.resolve gid :: enc.syms_rev;
    enc.nsyms <- l + 1;
    l

let rec w_value enc b = function
  | Value.Int i ->
    w_u8 b 0;
    w_i64 b i
  | Value.Sym id ->
    w_u8 b 1;
    w_u32 b (local enc id)
  | Value.Str id ->
    w_u8 b 2;
    w_u32 b (local enc id)
  | Value.Tup xs ->
    w_u8 b 3;
    w_u32 b (List.length xs);
    List.iter (w_value enc b) xs
  | Value.App (f, xs) ->
    w_u8 b 4;
    w_str b f;
    w_u32 b (List.length xs);
    List.iter (w_value enc b) xs

(* The live cells of [rel], in order. *)
let iter_cells rel f =
  let cells = Relation.cells rel and w = Relation.arity rel and n = Relation.id_bound rel in
  if Relation.cardinal rel = n then
    for i = 0 to (n * w) - 1 do
      f (Array.unsafe_get cells i)
    done
  else
    for id = 0 to n - 1 do
      if Relation.is_live rel id then
        for i = id * w to (id * w) + w - 1 do
          f (Array.unsafe_get cells i)
        done
    done

(* A relation with no term cells travels as one blob of i64 cells: int
   cells in their in-memory encoding, sym cells re-encoded as
   [(local lsl 1) lor 1].  Nullary relations keep tagged rows, which
   every reader accepts. *)
let w_cell enc b c =
  if Relation.Cell.is_sym c then w_i64 b ((local enc (Relation.Cell.sym_id c) lsl 1) lor 1)
  else w_i64 b c

let rec value_syms enc = function
  | Value.Int _ -> ()
  | Value.Sym id | Value.Str id -> ignore (local enc id)
  | Value.Tup xs | Value.App (_, xs) -> List.iter (value_syms enc) xs

type table = {
  name : string;
  arity : int;
  rows : int;
  blob : bool;
  cells : (int -> unit) -> unit;
  values : (Value.t -> unit) -> unit;
}

let of_relation name rel =
  { name; arity = Relation.arity rel; rows = Relation.cardinal rel;
    blob = Relation.arity rel > 0 && not (Relation.has_terms rel);
    cells = iter_cells rel;
    values = (fun f -> Relation.iter rel (Array.iter f)) }

let tables db =
  List.map (fun pred -> of_relation pred (Option.get (Database.find db pred))) (Database.preds db)

type stream = { enc : enc; tbls : table list }

(* The symbol table precedes the rows that fill it: a first pass meets
   every symbol in the order the rows are then written in. *)
let stream tbls =
  let enc = { locals = Hashtbl.create 64; syms_rev = []; nsyms = 0 } in
  List.iter
    (fun t ->
      if t.blob then t.cells (fun c -> if Relation.Cell.is_sym c then ignore (local enc (Relation.Cell.sym_id c)))
      else t.values (value_syms enc))
    tbls;
  { enc; tbls }

let of_database db = stream (tables db)

let put o { enc; tbls } =
  w_u32 o magic;
  w_u8 o version;
  w_u32 o enc.nsyms;
  List.iter (fun s -> w_str o s) (List.rev enc.syms_rev);
  w_u32 o (List.length tbls);
  List.iter
    (fun t ->
      w_str o t.name;
      w_u32 o t.arity;
      w_u32 o t.rows;
      if t.blob then begin
        w_u8 o 1;
        (* a blob's size is known: a counter skips the walk *)
        if counting o then o.pos <- o.pos + (8 * t.arity * t.rows) else t.cells (w_cell enc o)
      end
      else begin
        w_u8 o 0;
        t.values (w_value enc o)
      end)
    tbls

let write buf db =
  let s = of_database db in
  let size = counter () in
  put size s;
  let image = Bytes.create (written size) in
  put (filler image) s;
  Buffer.add_bytes buf image

(* ---------------- reading ---------------- *)

type reader = { src : string; mutable pos : int }

let need rd n what =
  if n < 0 || rd.pos + n > String.length rd.src then
    raise (Corrupt (Printf.sprintf "truncated %s at offset %d" what rd.pos))

let r_u8 rd what =
  need rd 1 what;
  let v = Char.code rd.src.[rd.pos] in
  rd.pos <- rd.pos + 1;
  v

let r_u32 rd what =
  need rd 4 what;
  let v = Int32.to_int (String.get_int32_be rd.src rd.pos) in
  rd.pos <- rd.pos + 4;
  if v < 0 then raise (Corrupt (Printf.sprintf "negative count in %s" what));
  v

(* Every int this codec writes fits in 63 bits: the top two bits of
   the i64 agree.  Anything else is corrupt, not an int to truncate.
   The caller has checked that 8 bytes are there. *)
let int_at src pos what =
  let top = Char.code (String.unsafe_get src pos) lsr 6 in
  if top = 1 || top = 2 then
    raise (Corrupt (Printf.sprintf "%s out of range at offset %d" what pos));
  Int64.to_int (String.get_int64_be src pos)

let r_i64 rd what =
  need rd 8 what;
  let v = int_at rd.src rd.pos what in
  rd.pos <- rd.pos + 8;
  v

(* a count of n promises at least n further bytes; reject impossible
   counts before allocating *)
let r_count rd what =
  let n = r_u32 rd what in
  if n > String.length rd.src - rd.pos then
    raise (Corrupt (Printf.sprintf "impossible count %d in %s" n what));
  n

let r_str rd what =
  let n = r_count rd what in
  let s = String.sub rd.src rd.pos n in
  rd.pos <- rd.pos + n;
  s

let rec r_value syms rd =
  match r_u8 rd "value" with
  | 0 -> Value.Int (r_i64 rd "int value")
  | 1 -> Value.Sym (r_sym syms rd)
  | 2 -> Value.Str (r_sym syms rd)
  | 3 ->
    let n = r_count rd "tuple" in
    Value.Tup (List.init n (fun _ -> r_value syms rd))
  | 4 ->
    let f = r_str rd "constructor name" in
    let n = r_count rd "constructor args" in
    Value.App (f, List.init n (fun _ -> r_value syms rd))
  | t -> raise (Corrupt (Printf.sprintf "unknown value tag %d at offset %d" t (rd.pos - 1)))

and r_sym syms rd =
  let l = r_u32 rd "symbol id" in
  if l >= Array.length syms then
    raise (Corrupt (Printf.sprintf "local symbol id %d out of range" l));
  syms.(l)

let r_rows syms rd rel arity nrows =
  for _ = 1 to nrows do
    let row = Array.init arity (fun _ -> r_value syms rd) in
    ignore (Relation.add rel row)
  done

(* The whole cell store in one pass: a blob row is 8 * arity bytes, so
   one length check up front covers every cell.  Even cells must be
   inline ints ([-2^61] is not), odd ones name a local symbol. *)
let r_cells syms rd name arity nrows =
  if arity = 0 then raise (Corrupt (Printf.sprintf "nullary cell blob for %s" name));
  let n = nrows * arity in
  need rd (8 * n) "cell blob";
  let src = rd.src and base = rd.pos in
  let cells = Array.make n 0 in
  for i = 0 to n - 1 do
    let pos = base + (8 * i) in
    let c = int_at src pos "cell" in
    if c = min_int then raise (Corrupt (Printf.sprintf "int cell out of range at offset %d" pos));
    cells.(i) <-
      (if c land 1 = 0 then c
       else begin
         let l = c lsr 1 in
         if l >= Array.length syms then
           raise (Corrupt (Printf.sprintf "local symbol id %d out of range" l));
         Relation.Cell.of_sym syms.(l)
       end)
  done;
  rd.pos <- base + (8 * n);
  Relation.of_cells name arity cells nrows

(* body shared by both versions: v2 streams carry a repr byte per
   predicate, v1 streams are always tagged rows *)
let read_body ~v2 rd =
  let nsyms = r_count rd "symbol table" in
  (* re-intern: local id -> this process's global id *)
  let syms = Array.init nsyms (fun _ -> Interner.intern (r_str rd "symbol")) in
  let npreds = r_count rd "predicate count" in
  let db = Database.create () in
  for _ = 1 to npreds do
    let name = r_str rd "predicate name" in
    let arity = r_u32 rd "arity" in
    if arity > 0xFFFF then raise (Corrupt (Printf.sprintf "implausible arity %d" arity));
    (* a nullary row takes no bytes: its count promises none *)
    let nrows = if arity = 0 then r_u32 rd "row count" else r_count rd "row count" in
    if arity = 0 && nrows > 1 then
      raise (Corrupt (Printf.sprintf "%d rows for nullary predicate %s" nrows name));
    let repr = if v2 then r_u8 rd "representation tag" else 0 in
    match repr with
    | 0 ->
      let rel =
        try Database.relation db name arity
        with Invalid_argument msg -> raise (Corrupt msg)
      in
      r_rows syms rd rel arity nrows
    | 1 ->
      if Database.find db name <> None then
        raise (Corrupt (Printf.sprintf "duplicate cell-blob predicate %s" name));
      let rel =
        try r_cells syms rd name arity nrows
        with Invalid_argument msg -> raise (Corrupt msg)
      in
      Database.set_relation db name rel
    | t -> raise (Corrupt (Printf.sprintf "unknown representation tag %d" t))
  done;
  (db, rd.pos)

let read s pos =
  let rd = { src = s; pos } in
  if String.length s - pos >= 5 && Int32.to_int (String.get_int32_be s pos) = magic then begin
    rd.pos <- pos + 4;
    let v = r_u8 rd "format version" in
    if v <> version then raise (Corrupt (Printf.sprintf "unsupported snapshot format %d" v));
    read_body ~v2:true rd
  end
  else read_body ~v2:false rd
