type tuple = Value.t array

(* Top-level loops with explicit arguments: without flambda, a nested
   [let rec] capturing its surroundings allocates a closure — and rows
   are hashed and compared on every membership test, index probe and
   cost-cache lookup. *)
let rec eq_from a b i =
  i = Array.length a || (Value.equal a.(i) b.(i) && eq_from a b (i + 1))

let rec hash_from row h i =
  if i = Array.length row then h
  else hash_from row ((h * 1000003) lxor Value.hash row.(i)) (i + 1)

module Row_key = struct
  type t = tuple

  let equal a b = Array.length a = Array.length b && eq_from a b 0
  let hash row = hash_from row 17 0
end

module Row_tbl = Hashtbl.Make (Row_key)

(* ------------------------------------------------------------------ *)
(* Flat cell encoding                                                  *)
(* ------------------------------------------------------------------ *)

(* Interning (PR 3) made ground rows all-int in practice: every field
   is a [Value.Int] or a [Value.Sym].  Such rows pack into a single
   growable int array of [arity * count] cells — one word per field, no
   per-field box, no pointer chase on scans.  A cell is

     [i lsl 1]           for [Int i]   (|i| < 2^61)
     [(id lsl 1) lor 1]  for [Sym id]  (interner ids are >= 0)

   [Str]/[Tup]/[App] fields are not encodable (a [Str] shares the
   interner id space with [Sym], and there is only one tag bit);
   relations holding such rows stay in the boxed representation. *)

let max_flat_int = 1 lsl 61

let cell_encodable = function
  | Value.Int i -> i < max_flat_int && i > -max_flat_int
  | Value.Sym _ -> true
  | Value.Str _ | Value.Tup _ | Value.App _ -> false

let encode_cell = function
  | Value.Int i -> i lsl 1
  | Value.Sym id -> (id lsl 1) lor 1
  | _ -> invalid_arg "Relation.encode_cell: not flat-encodable"

let cell_is_sym c = c land 1 = 1
let cell_sym c = c lsr 1
let sym_cell id = (id lsl 1) lor 1
let int_cell i = i lsl 1

let rec row_encodable (row : tuple) i =
  i = Array.length row || (cell_encodable row.(i) && row_encodable row (i + 1))

(* Decoding caches: direct-mapped arrays of shared [Int]/[Sym] boxes,
   so decoding a cell is allocation-free once its value has been seen
   recently.  Reads validate the slot (the stored box must carry the
   requested payload), so a stale or racy entry only costs a fresh
   allocation — never a wrong value.  Domain-safe without locks: slots
   hold immutable one-field blocks, which OCaml 5 publishes safely
   across racy accesses, and a single-word store cannot tear. *)

let cache_bits = 16
let cache_mask = (1 lsl cache_bits) - 1
let int_cache = Array.make (1 lsl cache_bits) (Value.Int 0)
let sym_cache = Array.make (1 lsl cache_bits) (Value.Sym 0)

let int_value i =
  let k = i land cache_mask in
  match Array.unsafe_get int_cache k with
  | Value.Int j as v when j = i -> v
  | _ ->
    let v = Value.Int i in
    Array.unsafe_set int_cache k v;
    v

let sym_value id =
  let k = id land cache_mask in
  match Array.unsafe_get sym_cache k with
  | Value.Sym j as v when j = id -> v
  | _ ->
    let v = Value.Sym id in
    Array.unsafe_set sym_cache k v;
    v

let decode_cell c = if c land 1 = 0 then int_value (c asr 1) else sym_value (c lsr 1)

(* ------------------------------------------------------------------ *)
(* Promotion policy                                                    *)
(* ------------------------------------------------------------------ *)

(* All-int relations promote to the flat representation automatically
   once they reach the threshold ([GBC_FLAT] overrides: "off"/"0"
   disables, an integer replaces the default).  Mixed-type relations
   never promote; a non-encodable row arriving later demotes. *)

let default_flat_threshold = 1024

let initial_threshold =
  match Sys.getenv_opt "GBC_FLAT" with
  | Some ("off" | "0") -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Some n
    | _ -> Some default_flat_threshold)
  | None -> Some default_flat_threshold

let flat_threshold_ref = ref initial_threshold
let set_flat_threshold t = flat_threshold_ref := t
let flat_threshold () = !flat_threshold_ref

(* ------------------------------------------------------------------ *)
(* Flat membership set and indexes                                     *)
(* ------------------------------------------------------------------ *)

(* Open-addressing structures over row ids, probing straight into the
   cell store: no per-entry box, no stored keys — a slot is compared by
   reading its row's cells.  Power-of-two sizes, linear probing, no
   deletions (relations are append-only). *)

let mix h c = (h * 1000003) lxor (c lxor (c lsr 31))

let rec hash_cells cells off w h i =
  if i = w then h land max_int
  else hash_cells cells off w (mix h (Array.unsafe_get cells (off + i))) (i + 1)

let rec hash_probe (probe : int array) w h i =
  if i = w then h land max_int
  else hash_probe probe w (mix h (Array.unsafe_get probe i)) (i + 1)

let rec cells_eq_probe cells off (probe : int array) w i =
  i = w
  || (Array.unsafe_get cells (off + i) = Array.unsafe_get probe i
     && cells_eq_probe cells off probe w (i + 1))

(* Membership: a hash set of row ids keyed by full-row cell content.
   Always populated (promotion, restore, bulk load, privatize) so that
   [mem] never mutates — parallel shards call it on relations they only
   read. *)
type fseen = { mutable fs_slots : int array; mutable fs_n : int }

let fs_create n =
  let rec cap c = if c >= 2 * n then c else cap (2 * c) in
  { fs_slots = Array.make (cap 32) (-1); fs_n = 0 }

let fs_insert_no_resize slots mask cells w id =
  let h = hash_cells cells (id * w) w 17 0 in
  let i = ref (h land mask) in
  while Array.unsafe_get slots !i >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i id

let fs_resize fs cells w =
  let ncap = 2 * Array.length fs.fs_slots in
  let nslots = Array.make ncap (-1) in
  let mask = ncap - 1 in
  Array.iter
    (fun id -> if id >= 0 then fs_insert_no_resize nslots mask cells w id)
    fs.fs_slots;
  fs.fs_slots <- nslots

(* [probe] holds the encoded candidate row; the id of the stored row
   equal to it, or -1. *)
let fs_find fs cells w (probe : int array) =
  let slots = fs.fs_slots in
  let mask = Array.length slots - 1 in
  let h = hash_probe probe w 17 0 in
  let i = ref (h land mask) in
  let found = ref (-1) in
  let stop = ref false in
  while not !stop do
    let id = Array.unsafe_get slots !i in
    if id < 0 then stop := true
    else if cells_eq_probe cells (id * w) probe w 0 then begin
      found := id;
      stop := true
    end
    else i := (!i + 1) land mask
  done;
  !found

(* The row's cells must already be in the store. *)
let fs_insert fs cells w id =
  if 2 * (fs.fs_n + 1) >= Array.length fs.fs_slots then fs_resize fs cells w;
  fs_insert_no_resize fs.fs_slots (Array.length fs.fs_slots - 1) cells w id;
  fs.fs_n <- fs.fs_n + 1

(* An index maps a projection on a column set to the bucket of matching
   row ids, in insertion order.  Buckets live in an open-addressing
   table; a bucket's key is the projection of its first row, so exact
   comparison reads that representative's cells and no keys are
   stored. *)

type fbucket = { mutable fb_ids : int array; mutable fb_n : int }

let fb_null = { fb_ids = [||]; fb_n = -1 }

let fb_push b id =
  let cap = Array.length b.fb_ids in
  if b.fb_n = cap then begin
    let nids = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
    Array.blit b.fb_ids 0 nids 0 b.fb_n;
    b.fb_ids <- nids
  end;
  b.fb_ids.(b.fb_n) <- id;
  b.fb_n <- b.fb_n + 1

type findex = {
  fi_cols : int array;
  mutable fi_slots : fbucket array;
  mutable fi_n : int;  (* used slots (distinct keys) *)
  fi_probe : int array;  (* reusable probe, length |fi_cols| *)
}

let rec hash_proj cells off (cols : int array) k h i =
  if i = k then h land max_int
  else
    hash_proj cells off cols k (mix h (Array.unsafe_get cells (off + Array.unsafe_get cols i))) (i + 1)

let rec proj_eq_probe cells off (cols : int array) (probe : int array) k i =
  i = k
  || (Array.unsafe_get cells (off + Array.unsafe_get cols i) = Array.unsafe_get probe i
     && proj_eq_probe cells off cols probe k (i + 1))

let fi_insert_bucket slots mask cells w cols k b =
  let rep = b.fb_ids.(0) * w in
  let h = hash_proj cells rep cols k 17 0 in
  let i = ref (h land mask) in
  while (Array.unsafe_get slots !i).fb_n >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i b

let fi_resize fi cells w =
  let ncap = 2 * Array.length fi.fi_slots in
  let nslots = Array.make ncap fb_null in
  let mask = ncap - 1 in
  let k = Array.length fi.fi_cols in
  Array.iter
    (fun b -> if b.fb_n >= 0 then fi_insert_bucket nslots mask cells w fi.fi_cols k b)
    fi.fi_slots;
  fi.fi_slots <- nslots

(* Find the bucket whose key equals [probe] (first |fi_cols| slots);
   [fb_null] when absent. *)
let fi_find fi cells w (probe : int array) =
  let slots = fi.fi_slots in
  let mask = Array.length slots - 1 in
  let k = Array.length fi.fi_cols in
  let h = hash_probe probe k 17 0 in
  let i = ref (h land mask) in
  let res = ref fb_null in
  let stop = ref false in
  while not !stop do
    let b = Array.unsafe_get slots !i in
    if b.fb_n < 0 then stop := true
    else if proj_eq_probe cells (b.fb_ids.(0) * w) fi.fi_cols probe k 0 then begin
      res := b;
      stop := true
    end
    else i := (!i + 1) land mask
  done;
  !res

(* Add a stored row to the index. *)
let fi_add fi cells w id =
  let k = Array.length fi.fi_cols in
  let off = id * w in
  for j = 0 to k - 1 do
    fi.fi_probe.(j) <- Array.unsafe_get cells (off + Array.unsafe_get fi.fi_cols j)
  done;
  let b = fi_find fi cells w fi.fi_probe in
  if b.fb_n >= 0 then fb_push b id
  else begin
    if 2 * (fi.fi_n + 1) >= Array.length fi.fi_slots then fi_resize fi cells w;
    let nb = { fb_ids = Array.make 4 0; fb_n = 0 } in
    fb_push nb id;
    fi_insert_bucket fi.fi_slots (Array.length fi.fi_slots - 1) cells w fi.fi_cols k nb;
    fi.fi_n <- fi.fi_n + 1
  end

(* ------------------------------------------------------------------ *)
(* Representations                                                     *)
(* ------------------------------------------------------------------ *)

(* Row ids for one projection key, in insertion order.  A growable int
   array rather than a list: probes walk it front-to-back with no
   [List.rev] and no per-probe allocation. *)
type bucket = { mutable ids : int array; mutable n : int }

let bucket_push b id =
  let cap = Array.length b.ids in
  if b.n = cap then begin
    let nids = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
    Array.blit b.ids 0 nids 0 b.n;
    b.ids <- nids
  end;
  b.ids.(b.n) <- id;
  b.n <- b.n + 1

(* A boxed index for a set of bound columns: projection of the row on
   those columns -> bucket of row ids.  [scratch] is the reusable probe
   key; it is copied only when a projection is stored for the first
   time. *)
type index = { columns : int array; buckets : bucket Row_tbl.t; scratch : Value.t array }

type boxed = {
  mutable rows : tuple array;
  mutable seen : unit Row_tbl.t;
  bindexes : (int, index) Hashtbl.t;  (* bitmask of bound columns -> index *)
}

type flat = {
  width : int;  (* = arity, > 0 *)
  mutable cells : int array;  (* row i at [i*width, (i+1)*width) *)
  mutable fseen : fseen;
  findexes : (int, findex) Hashtbl.t;  (* bitmask of bound columns -> index *)
  fscratch : int array;  (* reusable full-width encoded probe *)
}

type repr = Boxed of boxed | Flat of flat

type t = {
  rel_name : string;
  rel_arity : int;
  mutable count : int;
  mutable shared : bool;  (* rows/cells/seen shared with a copy; privatize before add *)
  mutable all_int : bool;  (* every stored row is flat-encodable *)
  mutable repr : repr;
}

let mk_boxed () = Boxed { rows = [||]; seen = Row_tbl.create 64; bindexes = Hashtbl.create 4 }

let mk_flat arity =
  Flat
    { width = arity;
      cells = [||];
      fseen = fs_create 16;
      findexes = Hashtbl.create 4;
      fscratch = Array.make arity 0 }

let create rel_name rel_arity =
  { rel_name; rel_arity; count = 0; shared = false; all_int = true; repr = mk_boxed () }

let name r = r.rel_name
let arity r = r.rel_arity
let cardinal r = r.count
let is_flat r = match r.repr with Flat _ -> true | Boxed _ -> false

let index_add idx row_id row =
  let k = Array.length idx.columns in
  for j = 0 to k - 1 do
    idx.scratch.(j) <- row.(idx.columns.(j))
  done;
  match Row_tbl.find_opt idx.buckets idx.scratch with
  | Some b -> bucket_push b row_id
  | None ->
    let b = { ids = Array.make 4 0; n = 0 } in
    bucket_push b row_id;
    Row_tbl.add idx.buckets (Array.copy idx.scratch) b

(* The row store and membership table are shared with a copy until
   either side first mutates; the frozen prefix itself never changes,
   so sharing is safe for every read path. *)
let privatize r =
  if r.shared then begin
    (match r.repr with
    | Boxed b ->
      b.rows <- Array.copy b.rows;
      b.seen <- Row_tbl.copy b.seen
    | Flat f ->
      f.cells <- Array.copy f.cells;
      f.fseen <- { fs_slots = Array.copy f.fseen.fs_slots; fs_n = f.fseen.fs_n });
    r.shared <- false
  end

let grow_boxed r b (row : tuple) =
  let cap = Array.length b.rows in
  if r.count = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nrows = Array.make ncap row in
    Array.blit b.rows 0 nrows 0 r.count;
    b.rows <- nrows
  end

let grow_flat r f =
  let w = f.width in
  let cap = Array.length f.cells in
  if (r.count * w) + w > cap then begin
    let ncap = max (16 * w) (2 * cap) in
    let ncells = Array.make ncap 0 in
    Array.blit f.cells 0 ncells 0 (r.count * w);
    f.cells <- ncells
  end

(* Decode one stored row into a fresh tuple. *)
let decode_row f i =
  let w = f.width in
  let off = i * w in
  Array.init w (fun j -> decode_cell (Array.unsafe_get f.cells (off + j)))

(* Positional read of one field of a stored row.  Allocation-free for
   boxed relations and for flat cells that hit the decode cache. *)
let read r id col =
  match r.repr with
  | Flat f -> decode_cell (Array.unsafe_get f.cells ((id * f.width) + col))
  | Boxed b -> Array.unsafe_get (Array.unsafe_get b.rows id) col

(* ---------------- promotion / demotion ---------------- *)

(* Rebuild as flat from the boxed rows.  Indexes are dropped and
   rebuilt lazily on the next probe; membership is rebuilt eagerly (see
   [fseen]). *)
let promote_now r (b : boxed) =
  let w = r.rel_arity in
  let f =
    { width = w;
      cells = Array.make (max (16 * w) (r.count * w)) 0;
      fseen = fs_create (max 16 r.count);
      findexes = Hashtbl.create 4;
      fscratch = Array.make w 0 }
  in
  for i = 0 to r.count - 1 do
    let row = b.rows.(i) in
    let off = i * w in
    for j = 0 to w - 1 do
      f.cells.(off + j) <- encode_cell row.(j)
    done;
    fs_insert f.fseen f.cells w i
  done;
  r.repr <- Flat f;
  (* the new structures are private by construction *)
  r.shared <- false

let promote r =
  (match r.repr with
  | Boxed b when r.all_int && r.rel_arity > 0 && flat_threshold () <> None -> promote_now r b
  | _ -> ());
  is_flat r

let maybe_promote r =
  match (r.repr, flat_threshold ()) with
  | Boxed b, Some th when r.all_int && r.rel_arity > 0 && r.count >= th -> promote_now r b
  | _ -> ()

(* Rebuild as boxed from the flat cells: a non-encodable row arrived,
   or a test forces the representation. *)
let demote r =
  match r.repr with
  | Boxed _ -> ()
  | Flat f ->
    let b =
      { rows = Array.make (max 16 r.count) [||];
        seen = Row_tbl.create (max 64 (2 * r.count));
        bindexes = Hashtbl.create 4 }
    in
    for i = 0 to r.count - 1 do
      let row = decode_row f i in
      b.rows.(i) <- row;
      Row_tbl.add b.seen row ()
    done;
    r.repr <- Boxed b;
    r.shared <- false

(* ---------------- add / mem ---------------- *)

(* Ground lookups on a flat store: encode a full row (or a fully-bound
   pattern) into [probe] — false when a value is not flat-encodable,
   so no flat row can equal it — and find its id in [fseen], or -1.
   Membership tests, removal and every fully-bound probe go through
   them: [fseen] already maps a row's cells to its id, so a full-width
   index (a duplicate of [fseen]) is never built.  [probe] needs
   [width] slots. *)
let full_mask r = (1 lsl r.rel_arity) - 1

let rec encode_key (probe : int array) (key : Value.t array) w i =
  i = w
  || cell_encodable key.(i)
     && begin
          probe.(i) <- encode_cell key.(i);
          encode_key probe key w (i + 1)
        end

let rec encode_pattern (probe : int array) (pattern : Value.t option array) w i =
  i = w
  ||
  match pattern.(i) with
  | Some v when cell_encodable v ->
    probe.(i) <- encode_cell v;
    encode_pattern probe pattern w (i + 1)
  | _ -> false

let ground_key fl probe key =
  if encode_key probe key fl.width 0 then fs_find fl.fseen fl.cells fl.width probe else -1

let ground_pattern fl probe pattern =
  if encode_pattern probe pattern fl.width 0 then fs_find fl.fseen fl.cells fl.width probe
  else -1

let add_boxed r b row =
  if Row_tbl.mem b.seen row then false
  else begin
    (* [privatize] replaces the backing arrays inside this same [b]
       record, so the binding stays valid *)
    privatize r;
    Row_tbl.add b.seen row ();
    grow_boxed r b row;
    b.rows.(r.count) <- row;
    r.count <- r.count + 1;
    Hashtbl.iter (fun _ idx -> index_add idx (r.count - 1) row) b.bindexes;
    if not (row_encodable row 0) then r.all_int <- false;
    maybe_promote r;
    true
  end

(* The encoded candidate is in [f.fscratch]. *)
let add_flat_encoded r f =
  if fs_find f.fseen f.cells f.width f.fscratch >= 0 then false
  else begin
    privatize r;
    grow_flat r f;
    let w = f.width in
    Array.blit f.fscratch 0 f.cells (r.count * w) w;
    fs_insert f.fseen f.cells w r.count;
    (* Guarded: the iter closure would otherwise be the only per-row
       minor allocation on the bulk-load path (no indexes yet). *)
    if Hashtbl.length f.findexes > 0 then
      Hashtbl.iter (fun _ fi -> fi_add fi f.cells w r.count) f.findexes;
    r.count <- r.count + 1;
    true
  end

let add r row =
  if Array.length row <> r.rel_arity then
    invalid_arg
      (Printf.sprintf "Relation.add: %s expects arity %d, got %d" r.rel_name r.rel_arity
         (Array.length row));
  match r.repr with
  | Boxed b -> add_boxed r b row
  | Flat f ->
    if encode_key f.fscratch row f.width 0 then add_flat_encoded r f
    else begin
      demote r;
      r.all_int <- false;
      match r.repr with Boxed b -> add_boxed r b row | Flat _ -> assert false
    end

(* Bulk-load fast path: an all-[Int] row given as raw integers.  The
   first row of an empty relation switches it to the flat
   representation immediately (no boxed warm-up), so loading allocates
   nothing per row beyond amortized store growth. *)
let add_ints r (ints : int array) =
  if Array.length ints <> r.rel_arity then
    invalid_arg
      (Printf.sprintf "Relation.add_ints: %s expects arity %d, got %d" r.rel_name r.rel_arity
         (Array.length ints));
  (match r.repr with
  | Boxed _ when r.count = 0 && r.rel_arity > 0 && flat_threshold () <> None ->
    r.repr <- mk_flat r.rel_arity
  | _ -> ());
  match r.repr with
  | Flat f ->
    for j = 0 to f.width - 1 do
      f.fscratch.(j) <- int_cell ints.(j)
    done;
    add_flat_encoded r f
  | Boxed _ -> add r (Array.map (fun i -> Value.Int i) ints)

let mem r row =
  match r.repr with
  | Boxed b -> Row_tbl.mem b.seen row
  | Flat f ->
    Array.length row = f.width && ground_key f f.fscratch row >= 0

(* ---------------- iteration ---------------- *)

let iter r f =
  match r.repr with
  | Boxed b ->
    let rows = b.rows in
    for i = 0 to r.count - 1 do
      f (Array.unsafe_get rows i)
    done
  | Flat fl ->
    for i = 0 to r.count - 1 do
      f (decode_row fl i)
    done

let iter_from r k f =
  match r.repr with
  | Boxed b ->
    let rows = b.rows in
    for i = k to r.count - 1 do
      f (Array.unsafe_get rows i)
    done
  | Flat fl ->
    for i = k to r.count - 1 do
      f (decode_row fl i)
    done

let iter_ids r f =
  for i = 0 to r.count - 1 do
    f i
  done

(* Deletion support for incremental view maintenance: relations are
   append-only, so removing rows rebuilds the survivors into a fresh
   relation, in their insertion order and the source's representation.
   The source is never touched, so callers can keep it, indexes and
   all, as the pre-removal state.  On a flat store the doomed rows are
   located through the membership set and the survivors copied as runs
   of cells between them: no survivor is decoded or hashed into a
   [Row_tbl], only re-inserted into the fresh membership set.  Indexes
   are rebuilt lazily on the next probe. *)
let remove r rows =
  let out = create r.rel_name r.rel_arity in
  (match r.repr with
  | Boxed b ->
    let doomed = Row_tbl.create (max 4 (List.length rows)) in
    List.iter (fun row -> Row_tbl.replace doomed row ()) rows;
    let ob = match out.repr with Boxed ob -> ob | Flat _ -> assert false in
    for i = 0 to r.count - 1 do
      let row = b.rows.(i) in
      if not (Row_tbl.mem doomed row) then begin
        Row_tbl.add ob.seen row ();
        grow_boxed out ob row;
        ob.rows.(out.count) <- row;
        out.count <- out.count + 1
      end
    done;
    out.all_int <- r.all_int
  | Flat f ->
    let w = f.width in
    let ids =
      List.filter_map
        (fun row ->
          if Array.length row <> w then None
          else match ground_key f f.fscratch row with -1 -> None | id -> Some id)
        rows
      |> List.sort_uniq Int.compare
    in
    let n = r.count - List.length ids in
    let og =
      { width = w;
        cells = Array.make (max (16 * w) (n * w)) 0;
        fseen = fs_create (max 16 (n + 1));
        findexes = Hashtbl.create 4;
        fscratch = Array.make w 0 }
    in
    (* copy the survivor run [lo, hi) *)
    let run lo hi =
      Array.blit f.cells (lo * w) og.cells (out.count * w) ((hi - lo) * w);
      out.count <- out.count + hi - lo
    in
    run (List.fold_left (fun lo id -> run lo id; id + 1) 0 ids) r.count;
    for i = 0 to n - 1 do
      fs_insert og.fseen og.cells w i
    done;
    out.repr <- Flat og);
  out

(* Bulk append of rows [from, cardinal src) of [src] into the empty
   [dst] — the semi-naive delta publisher.  Rows of one relation are
   already distinct, so no membership probes on the way in; flat
   sources blit their cell range, boxed sources share row pointers. *)
let append_from dst src from =
  if dst.count <> 0 then invalid_arg "Relation.append_from: destination not empty";
  if dst.rel_arity <> src.rel_arity then invalid_arg "Relation.append_from: arity mismatch";
  let n = src.count - from in
  if n > 0 then begin
    match src.repr with
    | Flat f ->
      let w = f.width in
      let og =
        { width = w;
          cells = Array.make (n * w) 0;
          fseen = fs_create (max 16 n);
          findexes = Hashtbl.create 4;
          fscratch = Array.make w 0 }
      in
      Array.blit f.cells (from * w) og.cells 0 (n * w);
      for i = 0 to n - 1 do
        fs_insert og.fseen og.cells w i
      done;
      dst.repr <- Flat og;
      dst.count <- n
    | Boxed b ->
      let ob = match dst.repr with Boxed ob -> ob | Flat _ -> assert false in
      ob.rows <- Array.sub b.rows from n;
      for i = 0 to n - 1 do
        Row_tbl.add ob.seen ob.rows.(i) ()
      done;
      dst.count <- n;
      (* conservative: only gates future promotion *)
      dst.all_int <- src.all_int
  end

(* ---------------- indexes and probes ---------------- *)

let index_columns arity mask nbound =
  let columns = Array.make nbound 0 in
  let j = ref 0 in
  for c = 0 to arity - 1 do
    if mask land (1 lsl c) <> 0 then begin
      columns.(!j) <- c;
      incr j
    end
  done;
  columns

let boxed_index r b mask nbound =
  match Hashtbl.find_opt b.bindexes mask with
  | Some idx -> idx
  | None ->
    let idx =
      { columns = index_columns r.rel_arity mask nbound;
        buckets = Row_tbl.create 64;
        scratch = Array.make nbound Value.unit }
    in
    for i = 0 to r.count - 1 do
      index_add idx i b.rows.(i)
    done;
    Hashtbl.add b.bindexes mask idx;
    idx

let flat_index r f mask nbound =
  match Hashtbl.find_opt f.findexes mask with
  | Some fi -> fi
  | None ->
    let fi =
      { fi_cols = index_columns r.rel_arity mask nbound;
        fi_slots = Array.make 64 fb_null;
        fi_n = 0;
        fi_probe = Array.make nbound 0 }
    in
    for i = 0 to r.count - 1 do
      fi_add fi f.cells f.width i
    done;
    Hashtbl.add f.findexes mask fi;
    fi

let popcount mask =
  let n = ref 0 and m = ref mask in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr n
  done;
  !n

let pattern_mask r fn pattern =
  if Array.length pattern <> r.rel_arity then
    invalid_arg (Printf.sprintf "Relation.%s: bad pattern arity for %s" fn r.rel_name);
  let mask = ref 0 and nbound = ref 0 in
  for i = 0 to r.rel_arity - 1 do
    if pattern.(i) <> None then begin
      mask := !mask lor (1 lsl i);
      incr nbound
    end
  done;
  (!mask, !nbound)

(* Fill a findex probe from an option pattern; false when a bound value
   is not flat-encodable (then no flat row can match). *)
let fill_fprobe (probe : int array) (cols : int array) (pattern : Value.t option array) =
  let ok = ref true in
  let k = Array.length cols in
  let j = ref 0 in
  while !ok && !j < k do
    (match pattern.(cols.(!j)) with
    | Some v -> if cell_encodable v then probe.(!j) <- encode_cell v else ok := false
    | None -> assert false);
    incr j
  done;
  !ok

let fill_fprobe_cols (probe : int array) (cols : int array) (key : Value.t array) =
  let ok = ref true in
  let k = Array.length cols in
  let j = ref 0 in
  while !ok && !j < k do
    let v = key.(cols.(!j)) in
    if cell_encodable v then probe.(!j) <- encode_cell v else ok := false;
    incr j
  done;
  !ok

(* Bucket walks snapshot their bound before the first callback: ids
   only ever append and the bound is read once, so rows inserted by the
   callback itself are not visited. *)

let iter_matching_ids r pattern f =
  let mask, nbound = pattern_mask r "iter_matching_ids" pattern in
  if mask = 0 then iter_ids r f
  else
    match r.repr with
    | Boxed b -> (
      let idx = boxed_index r b mask nbound in
      for j = 0 to nbound - 1 do
        idx.scratch.(j) <-
          (match pattern.(idx.columns.(j)) with Some v -> v | None -> assert false)
      done;
      match Row_tbl.find_opt idx.buckets idx.scratch with
      | None -> ()
      | Some bk ->
        let ids = bk.ids and stop = bk.n - 1 in
        for i = 0 to stop do
          f (Array.unsafe_get ids i)
        done)
    | Flat fl when nbound = r.rel_arity ->
      let id = ground_pattern fl fl.fscratch pattern in
      if id >= 0 then f id
    | Flat fl ->
      let fi = flat_index r fl mask nbound in
      if fill_fprobe fi.fi_probe fi.fi_cols pattern then begin
        let bk = fi_find fi fl.cells fl.width fi.fi_probe in
        if bk.fb_n >= 0 then begin
          let ids = bk.fb_ids and stop = bk.fb_n - 1 in
          for i = 0 to stop do
            f (Array.unsafe_get ids i)
          done
        end
      end

let iter_matching r pattern f =
  match r.repr with
  | Boxed b -> iter_matching_ids r pattern (fun id -> f (Array.unsafe_get b.rows id))
  | Flat fl -> iter_matching_ids r pattern (fun id -> f (decode_row fl id))

(* Mask + key-buffer probes for the closure chains ({!Compile}): they
   know their bound-column masks statically, so they probe with a
   full-arity buffer (bound positions filled, the rest ignored) instead
   of an option pattern.  Index choice, bucket walk and snapshot
   semantics are identical to [iter_matching], so the enumeration order
   matches [Eval.run]'s exactly. *)

let iter_matching_cols_ids r mask (key : Value.t array) f =
  if mask = 0 then iter_ids r f
  else
    match r.repr with
    | Boxed b -> (
      let idx = boxed_index r b mask (popcount mask) in
      let cols = idx.columns in
      for j = 0 to Array.length cols - 1 do
        idx.scratch.(j) <- key.(cols.(j))
      done;
      match Row_tbl.find_opt idx.buckets idx.scratch with
      | None -> ()
      | Some bk ->
        let ids = bk.ids and stop = bk.n - 1 in
        for i = 0 to stop do
          f (Array.unsafe_get ids i)
        done)
    | Flat fl when mask = full_mask r ->
      let id = ground_key fl fl.fscratch key in
      if id >= 0 then f id
    | Flat fl ->
      let fi = flat_index r fl mask (popcount mask) in
      if fill_fprobe_cols fi.fi_probe fi.fi_cols key then begin
        let bk = fi_find fi fl.cells fl.width fi.fi_probe in
        if bk.fb_n >= 0 then begin
          let ids = bk.fb_ids and stop = bk.fb_n - 1 in
          for i = 0 to stop do
            f (Array.unsafe_get ids i)
          done
        end
      end

let iter_matching_cols r mask key f =
  match r.repr with
  | Boxed b -> iter_matching_cols_ids r mask key (fun id -> f (Array.unsafe_get b.rows id))
  | Flat fl -> iter_matching_cols_ids r mask key (fun id -> f (decode_row fl id))

(* Does [row] agree with [key] on every column of [mask]? *)
let rec row_matches_cols mask (key : Value.t array) (row : tuple) i =
  i = Array.length row
  || ((mask land (1 lsl i) = 0 || Value.equal key.(i) row.(i))
     && row_matches_cols mask key row (i + 1))

let rec cells_match_cols cells off w mask (iprobe : int array) i =
  i = w
  || ((mask land (1 lsl i) = 0 || Array.unsafe_get cells (off + i) = iprobe.(i))
     && cells_match_cols cells off w mask iprobe (i + 1))

(* Read-only variants for concurrent readers inside a parallel region:
   they never build or mutate an index and probe with caller-owned
   buffers instead of the relation's shared scratch.  An existing index
   is used when present, otherwise a filtered linear scan — both
   enumerate in insertion order, so the result sequence is identical
   either way.  Coordinators call [ensure_index] for the statically
   known probe masks before entering the region, making the fallback
   rare.

   [probe] must hold at least as many slots as [mask] has bits;
   [iprobe] must hold at least [arity] slots. *)
let iter_matching_cols_ro_ids r mask (key : Value.t array) (probe : Value.t array)
    (iprobe : int array) f =
  if mask = 0 then iter_ids r f
  else
    match r.repr with
    | Boxed b -> (
      match Hashtbl.find_opt b.bindexes mask with
      | Some idx -> (
        let cols = idx.columns in
        for j = 0 to Array.length cols - 1 do
          probe.(j) <- key.(cols.(j))
        done;
        match Row_tbl.find_opt idx.buckets probe with
        | None -> ()
        | Some bk ->
          let ids = bk.ids and stop = bk.n - 1 in
          for i = 0 to stop do
            f (Array.unsafe_get ids i)
          done)
      | None ->
        let rows = b.rows in
        for i = 0 to r.count - 1 do
          if row_matches_cols mask key (Array.unsafe_get rows i) 0 then f i
        done)
    | Flat fl when mask = full_mask r ->
      let id = ground_key fl iprobe key in
      if id >= 0 then f id
    | Flat fl -> (
      match Hashtbl.find_opt fl.findexes mask with
      | Some fi ->
        if fill_fprobe_cols iprobe fi.fi_cols key then begin
          (* [fi_find] only reads the first |fi_cols| slots *)
          let bk = fi_find fi fl.cells fl.width iprobe in
          if bk.fb_n >= 0 then begin
            let ids = bk.fb_ids and stop = bk.fb_n - 1 in
            for i = 0 to stop do
              f (Array.unsafe_get ids i)
            done
          end
        end
      | None ->
        (* encode the bound positions once; a non-encodable bound value
           matches no flat row *)
        let w = fl.width in
        let ok = ref true in
        for i = 0 to w - 1 do
          if mask land (1 lsl i) <> 0 then
            if cell_encodable key.(i) then iprobe.(i) <- encode_cell key.(i) else ok := false
        done;
        if !ok then begin
          let cells = fl.cells in
          for i = 0 to r.count - 1 do
            if cells_match_cols cells (i * w) w mask iprobe 0 then f i
          done
        end)

let ensure_index r mask =
  if mask <> 0 then begin
    let nbound = popcount mask in
    match r.repr with
    | Boxed b -> ignore (boxed_index r b mask nbound)
    | Flat f -> if nbound < r.rel_arity then ignore (flat_index r f mask nbound)
  end

(* ------------------------------------------------------------------ *)
(* Slices: sharded enumeration of a matched row set                    *)
(* ------------------------------------------------------------------ *)

(* A frozen description of the rows matching a probe, splittable into
   contiguous ranges for the domain pool.  Built by the sequential
   coordinator (which may create the index); iterated concurrently by
   shards, each over its own [lo, hi) range, touching nothing mutable.
   The ids array and its bound are captured at build time, so later
   appends by the coordinator are invisible. *)
type slice = { sl_rel : t; sl_ids : int array option; sl_len : int }

let slice_cols r mask (key : Value.t array) =
  if mask = 0 then { sl_rel = r; sl_ids = None; sl_len = r.count }
  else
    match r.repr with
    | Boxed b -> (
      let idx = boxed_index r b mask (popcount mask) in
      let cols = idx.columns in
      for j = 0 to Array.length cols - 1 do
        idx.scratch.(j) <- key.(cols.(j))
      done;
      match Row_tbl.find_opt idx.buckets idx.scratch with
      | None -> { sl_rel = r; sl_ids = None; sl_len = 0 }
      | Some bk -> { sl_rel = r; sl_ids = Some bk.ids; sl_len = bk.n })
    | Flat fl when mask = full_mask r ->
      let id = ground_key fl fl.fscratch key in
      if id >= 0 then { sl_rel = r; sl_ids = Some [| id |]; sl_len = 1 }
      else { sl_rel = r; sl_ids = None; sl_len = 0 }
    | Flat fl ->
      let fi = flat_index r fl mask (popcount mask) in
      if fill_fprobe_cols fi.fi_probe fi.fi_cols key then begin
        let bk = fi_find fi fl.cells fl.width fi.fi_probe in
        if bk.fb_n >= 0 then { sl_rel = r; sl_ids = Some bk.fb_ids; sl_len = bk.fb_n }
        else { sl_rel = r; sl_ids = None; sl_len = 0 }
      end
      else { sl_rel = r; sl_ids = None; sl_len = 0 }

let slice_len sl = sl.sl_len
let slice_rel sl = sl.sl_rel

let slice_iter_ids sl lo hi f =
  let hi = min hi sl.sl_len in
  match sl.sl_ids with
  | None ->
    for i = lo to hi - 1 do
      f i
    done
  | Some ids ->
    for i = lo to hi - 1 do
      f (Array.unsafe_get ids i)
    done

let fold r ~init ~f =
  let acc = ref init in
  iter r (fun row -> acc := f !acc row);
  !acc

let to_list r = List.rev (fold r ~init:[] ~f:(fun acc row -> row :: acc))

let copy r =
  r.shared <- true;
  { rel_name = r.rel_name;
    rel_arity = r.rel_arity;
    count = r.count;
    shared = true;
    all_int = r.all_int;
    repr =
      (* the big structures are shared until either side mutates;
         indexes are rebuilt lazily and never shared *)
      (match r.repr with
      | Boxed b -> Boxed { rows = b.rows; seen = b.seen; bindexes = Hashtbl.create 4 }
      | Flat f ->
        Flat
          { width = f.width;
            cells = f.cells;
            fseen = f.fseen;
            findexes = Hashtbl.create 4;
            fscratch = Array.make f.width 0 }) }

(* ------------------------------------------------------------------ *)
(* Statistics and raw access                                           *)
(* ------------------------------------------------------------------ *)

(* Distinct cells of one column of a flat store, via a private
   open-addressing int set sized up front.  [min_int] marks an empty
   slot: it can never be a cell ([Int (-2^61)] is outside the encodable
   range and sym ids are non-negative). *)
let distinct_cells cells n w c =
  let cap = ref 64 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let slots = Array.make !cap min_int in
  let mask = !cap - 1 in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    let cell = Array.unsafe_get cells ((i * w) + c) in
    let j = ref (mix 17 cell land max_int land mask) in
    let stop = ref false in
    while not !stop do
      let v = Array.unsafe_get slots !j in
      if v = min_int then begin
        Array.unsafe_set slots !j cell;
        incr distinct;
        stop := true
      end
      else if v = cell then stop := true
      else j := (!j + 1) land mask
    done
  done;
  !distinct

(* Per-column distinct counts for the cost-based planner.  Flat
   relations count raw cells with no boxing; boxed relations fall back
   to value sets. *)
let distinct_counts r =
  let w = r.rel_arity in
  match r.repr with
  | Flat f ->
    Array.init w (fun c -> if r.count = 0 then 0 else distinct_cells f.cells r.count w c)
  | Boxed b ->
    let sets = Array.make w Value.Set.empty in
    for i = 0 to r.count - 1 do
      let row = b.rows.(i) in
      for c = 0 to w - 1 do
        sets.(c) <- Value.Set.add row.(c) sets.(c)
      done
    done;
    Array.map Value.Set.cardinal sets

(* Raw cell access for the snapshot codec: the live flat store (its
   length may exceed count * arity).  Callers must not mutate it. *)
let flat_cells r = match r.repr with Flat f -> Some f.cells | Boxed _ -> None

(* Rebuild a relation from a decoded cell blob — the snapshot restore
   path.  Takes ownership of [cells]; membership is rebuilt (one hash
   insert per row), indexes stay lazy. *)
let of_flat_cells rel_name rel_arity (cells : int array) count =
  if rel_arity <= 0 then invalid_arg "Relation.of_flat_cells: arity must be positive";
  if Array.length cells < count * rel_arity then
    invalid_arg "Relation.of_flat_cells: cell array too short";
  let f =
    { width = rel_arity;
      cells;
      fseen = fs_create (max 16 count);
      findexes = Hashtbl.create 4;
      fscratch = Array.make rel_arity 0 }
  in
  for i = 0 to count - 1 do
    fs_insert f.fseen f.cells rel_arity i
  done;
  { rel_name; rel_arity; count; shared = false; all_int = true; repr = Flat f }
