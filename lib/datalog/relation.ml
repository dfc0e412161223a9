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
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(* Cells: the one-int-per-value encoding behind every store.

   Ints and symbols are inline (tag bit 0 clear for ints; low bits
   [01] for symbols).  Everything else — strings, tuples, compound
   terms, ints too wide to shift — is hash-consed into [terms] and
   stored as its id with low bits [11], so one value always has one
   cell and a cell comparison is a value comparison.

   The term table follows {!Interner}: every write happens under
   [lock], and [count] is the publication frontier, advanced only after
   the value is in place, so a lock-free [decode] that observes
   [k < count] also observes the value and the array generation that
   holds it.  Ids below an observed [count] never change. *)

module Cell = struct
  let max_inline = 1 lsl 61
  let[@inline] inline i = i < max_inline && i > -max_inline

  let lock = Mutex.create ()

  (* Written only under [lock]. *)
  let terms = ref (Array.make 64 Value.unit)
  let ids : int Value.Tbl.t = Value.Tbl.create 64
  let count = Atomic.make 0

  let term_id v =
    Mutex.protect lock (fun () ->
        match Value.Tbl.find_opt ids v with
        | Some k -> k
        | None ->
          let k = Atomic.get count in
          if k = Array.length !terms then begin
            let bigger = Array.make (2 * k) Value.unit in
            Array.blit !terms 0 bigger 0 k;
            terms := bigger
          end;
          !terms.(k) <- v;
          Value.Tbl.add ids v k;
          Atomic.set count (k + 1);
          k)

  (* The cell of a stored term, or -1: no row holds [v]. *)
  let find_term v =
    match Mutex.protect lock (fun () -> Value.Tbl.find_opt ids v) with
    | Some k -> (k lsl 2) lor 3
    | None -> -1

  (* Ints and symbols are encoded inline, at every call site. *)
  let[@inline] encode v =
    match v with
    | Value.Int i when inline i -> i lsl 1
    | Value.Sym id -> (id lsl 2) lor 1
    | v -> (term_id v lsl 2) lor 3

  let[@inline] lookup v =
    match v with
    | Value.Int i when inline i -> i lsl 1
    | Value.Sym id -> (id lsl 2) lor 1
    | v -> find_term v

  let of_int i = if inline i then i lsl 1 else encode (Value.Int i)
  let is_int c = c land 1 = 0
  let is_sym c = c land 3 = 1
  let is_term c = c land 3 = 3
  let sym_id c = c lsr 2
  let of_sym id = (id lsl 2) lor 1

  (* Decoding caches: direct-mapped arrays of shared [Int]/[Sym] boxes,
     so decoding is allocation-free once a value has been seen recently.
     Reads validate the slot (the stored box must carry the requested
     payload), so a stale or racy entry only costs a fresh allocation —
     never a wrong value.  Domain-safe without locks: slots hold
     immutable one-field blocks, which OCaml 5 publishes safely across
     racy accesses, and a single-word store cannot tear. *)

  let cache_bits = 16
  let cache_mask = (1 lsl cache_bits) - 1
  let int_cache = Array.make (1 lsl cache_bits) (Value.Int 0)
  let sym_cache = Array.make (1 lsl cache_bits) (Value.Sym 0)

  let int_miss i =
    let v = Value.Int i in
    Array.unsafe_set int_cache (i land cache_mask) v;
    v

  let sym_miss id =
    let v = Value.Sym id in
    Array.unsafe_set sym_cache (id land cache_mask) v;
    v

  let term k =
    if k >= Atomic.get count then invalid_arg (Printf.sprintf "Cell.decode: unknown term %d" k);
    Array.unsafe_get !terms k

  let[@inline] decode c =
    if c land 1 = 0 then begin
      let i = c asr 1 in
      match Array.unsafe_get int_cache (i land cache_mask) with
      | Value.Int j as v when j = i -> v
      | _ -> int_miss i
    end
    else if c land 2 = 0 then begin
      let id = c lsr 2 in
      match Array.unsafe_get sym_cache (id land cache_mask) with
      | Value.Sym j as v when j = id -> v
      | _ -> sym_miss id
    end
    else term (c lsr 2)
end


(* ------------------------------------------------------------------ *)
(* Id tables                                                           *)
(* ------------------------------------------------------------------ *)

(* Every row is [width] cells (see [Cell] above) at [id * width] in one
   growable int array.  The membership set and every index are one kind
   of table: an index maps a row's cells on its columns (its key) to the
   ids of the rows holding it, in insertion order; the membership set
   is the index on every column.  No key is stored: a slot is compared
   by reading the cells of a row it names.  Power-of-two sizes, at most
   three quarters full, linear probing; a removed row keeps its entry
   until a compaction, and readers skip the ids they do not see.

   A slot is [-1] when empty, else [x] over the key's low [hbits] hash
   bits, which place the entry again when the table grows or is
   compacted, reading no cell, and spare a probe the cells of most other
   keys.  [x] is [id lsl 1] for a key one row holds: that costs the slot
   and nothing else.  It is [(tail lsl 1) lor 1] for a key several rows
   hold: [next] links each to the next and the tail back to the head,
   so ids grow along a chain up to its tail.  An index whose every key
   has one row (an FD index of a [chosen$] relation) has no [next]. *)

let mix h c = (h * 1000003) lxor c

(* Tables index with the low bits of a hash, and the low bits of [mix]
   depend only on the low bits of the cells: spread every bit down
   first, or rows that differ only in high bits cluster. *)
let finish h =
  let h = (h lxor (h lsr 32)) * 0x7fb5d329728ea185 in
  (h lxor (h lsr 29)) land max_int

(* [Array.blit] for cells: the runtime's blit cannot tell an int array
   from one of pointers, and into a major-heap array it runs the write
   barrier per element; a typed loop runs none. *)
let blit_cells (src : int array) soff (dst : int array) doff n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (doff + i) (Array.unsafe_get src (soff + i))
  done

(* Dead rows: bit [id] of a handle's bitmap is set when row [id] was
   removed.  A bitmap never changes once its handle exists, so handles
   share them freely; no bit at or past the handle's id bound is set,
   and ids past the bitmap's end are live. *)
let no_dead = Bytes.empty

let[@inline] dead_byte dead byte =
  if byte < Bytes.length dead then Char.code (Bytes.unsafe_get dead byte) else 0

let[@inline] is_dead dead id = dead_byte dead (id lsr 3) land (1 lsl (id land 7)) <> 0

let set_dead dead id =
  let byte = id lsr 3 in
  Bytes.unsafe_set dead byte (Char.unsafe_chr (dead_byte dead byte lor (1 lsl (id land 7))))

(* Bits [0, n) of [dead] in a fresh bitmap sized for [n] ids. *)
let dead_prefix dead n =
  let out = Bytes.make ((n + 7) lsr 3) '\000' in
  let full = min (n lsr 3) (Bytes.length dead) in
  Bytes.blit dead 0 out 0 full;
  for id = full lsl 3 to n - 1 do
    if is_dead dead id then set_dead out id
  done;
  out

(* Id sets for callers, in the bitmap format of dead rows. *)
module Idset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) lsr 3) '\000'
  let mem = is_dead

  let add s id =
    if id < 0 || id lsr 3 >= Bytes.length s then invalid_arg "Relation.Idset.add: id out of range";
    set_dead s id

  let remove s id =
    let byte = id lsr 3 in
    if byte < Bytes.length s then
      Bytes.unsafe_set s byte (Char.unsafe_chr (dead_byte s byte land lnot (1 lsl (id land 7))))

  let iter s f =
    for byte = 0 to Bytes.length s - 1 do
      let b = Char.code (Bytes.unsafe_get s byte) in
      if b <> 0 then
        for bit = 0 to 7 do
          if b land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
        done
    done
end

(* Compaction renumbers the live ids below a bound densely, in order.
   [base.(b)] counts the live ids below [8 b], so an id's new number is
   that plus the live ids before it in its byte of the dead bitmap: a
   lookup reads an eighth of a word per id, not a word, which keeps
   renumbering a large store in cache.  One base array per domain,
   grown and never shrunk, so a compaction allocates none. *)
type renum = { base : int array; dead : Bytes.t; bound : int }

let popcount =
  let rec bits b = if b = 0 then 0 else (b land 1) + bits (b lsr 1) in
  String.init 256 (fun b -> Char.chr (bits b))

let base_map = Domain.DLS.new_key (fun () -> ref [||])

let renumber dead bound =
  let m = Domain.DLS.get base_map and n = (bound lsr 3) + 1 in
  if Array.length !m < n then m := Array.make (max n (2 * Array.length !m)) 0;
  let base = !m in
  base.(0) <- 0;
  for b = 1 to n - 1 do
    base.(b) <- base.(b - 1) + 8 - Char.code (String.unsafe_get popcount (dead_byte dead (b - 1)))
  done;
  { base; dead; bound }

(* The live ids below [id], up to the bound. *)
let[@inline] live_below m id =
  let byte = id lsr 3 in
  Array.unsafe_get m.base byte
  + Char.code (String.unsafe_get popcount (lnot (dead_byte m.dead byte) land ((1 lsl (id land 7)) - 1)))

(* The new id of [id], or -1 for a dead one or one past the bound. *)
let[@inline] nid m id = if id >= m.bound || is_dead m.dead id then -1 else live_below m id

let hbits = 30
let hmask = (1 lsl hbits) - 1
let[@inline] entry x h = (x lsl hbits) lor (h land hmask)

type index = {
  mask : int;  (* the key columns, as a bitmask *)
  cols : int array;
  mutable slots : int array;
  mutable keys : int;
  mutable next : int array;  (* [||] until some key meets its second row *)
}

let rec hash_proj cells off (cols : int array) h i =
  if i = Array.length cols then finish h
  else
    hash_proj cells off cols (mix h (Array.unsafe_get cells (off + Array.unsafe_get cols i))) (i + 1)

(* [hash_proj] of the whole row at [off]: the membership set's key. *)
let rec hash_row cells off w h i =
  if i = w then finish h else hash_row cells off w (mix h (Array.unsafe_get cells (off + i))) (i + 1)

let rec cells_eq (a : int array) b i = i = Array.length a || (Array.unsafe_get a i = b.(i) && cells_eq a b (i + 1))

(* Hash tables keyed by whole rows of cells. *)
module Cells_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && cells_eq a b 0
  let hash a = hash_row a 0 (Array.length a) 17 0
end)

let rec proj_eq a aoff b boff (cols : int array) i =
  i = Array.length cols
  ||
  let c = Array.unsafe_get cols i in
  Array.unsafe_get a (aoff + c) = Array.unsafe_get b (boff + c) && proj_eq a aoff b boff cols (i + 1)

(* The slot of the key of the row at [koff] in [key] (hash [h]), or the
   empty slot where it would go. *)
let index_slot ix cells w key koff h =
  let slots = ix.slots in
  let mask = Array.length slots - 1 and tag = h land hmask in
  let i = ref (h land mask) in
  while
    let e = Array.unsafe_get slots !i in
    e >= 0 && not (e land hmask = tag && proj_eq cells ((e lsr (hbits + 1)) * w) key koff ix.cols 0)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Enter [e] in the first empty slot from the home its bits give. *)
let place slots e =
  let mask = Array.length slots - 1 in
  let i = ref (e land mask) in
  while Array.unsafe_get slots !i >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i e

(* A table of [cap] slots is full at three quarters.  Half full made a
   probe ~10% faster alone, but twice the table cost gbcd ~10% of
   serve_update's throughput: more heap for the collector to walk. *)
let[@inline] full keys cap = 4 * (keys + 1) > 3 * cap

(* The table size for [n] keys. *)
let table_size n =
  let rec cap c = if full n c then cap (2 * c) else c in
  cap 16

let index_create mask cols n = { mask; cols; slots = Array.make (table_size n) (-1); keys = 0; next = [||] }
let no_index = { mask = -1; cols = [||]; slots = [||]; keys = 0; next = [||] }

(* Row [id] under the key in slot [s] (hash [h]): a new key, its
   second row, or a chain's new tail.  Only the old tail's [next]
   changes, so a walk that started before still ends where it would. *)
let link ix s id h =
  let e = Array.unsafe_get ix.slots s in
  if e < 0 then begin
    ix.slots.(s) <- entry (id lsl 1) h;
    ix.keys <- ix.keys + 1
  end
  else begin
    if id >= Array.length ix.next then begin
      let next = Array.make (max 16 (2 * (id + 1))) (-1) in
      blit_cells ix.next 0 next 0 (Array.length ix.next);
      ix.next <- next
    end;
    let x = e lsr hbits in
    let t = x lsr 1 in
    ix.next.(id) <- (if x land 1 = 0 then t else ix.next.(t));
    ix.next.(t) <- id;
    ix.slots.(s) <- entry ((id lsl 1) lor 1) h
  end

let index_add ix cells w id =
  if full ix.keys (Array.length ix.slots) then begin
    let slots = Array.make (2 * Array.length ix.slots) (-1) in
    Array.iter (fun e -> if e >= 0 then place slots e) ix.slots;
    ix.slots <- slots
  end;
  let h = hash_proj cells (id * w) ix.cols 17 0 in
  link ix (index_slot ix cells w cells (id * w) h) id h

(* The ids of the key in slot [s] below [bound] that [dead] leaves
   live, in insertion order: the first one, or -1 ... *)
let rec first_from next t bound dead id =
  if id >= bound then -1
  else if not (is_dead dead id) then id
  else if id = t then -1
  else first_from next t bound dead (Array.unsafe_get next id)

let first_id ix s bound dead =
  let e = Array.unsafe_get ix.slots s in
  let t = e lsr (hbits + 1) in
  if e < 0 then -1
  else if (e lsr hbits) land 1 = 0 then (if t < bound && not (is_dead dead t) then t else -1)
  else first_from ix.next t bound dead ix.next.(t)

(* ... or each of them, [next] read before [f] sees an id: rows [f]
   adds are not visited. *)
let rec walk_from next t bound dead f id =
  if id < bound then begin
    let after = Array.unsafe_get next id in
    if not (is_dead dead id) then f id;
    if id <> t then walk_from next t bound dead f after
  end

let walk_slot ix s bound dead f =
  let e = Array.unsafe_get ix.slots s in
  if e >= 0 then begin
    let x = e lsr hbits in
    let t = x lsr 1 in
    if x land 1 = 0 then (if t < bound && not (is_dead dead t) then f t)
    else walk_from ix.next t bound dead f ix.next.(t)
  end

(* Squeezing renumbers an index by [m] (see [renumber]).  Renumbering
   is monotone, so chains keep their order, and an entry goes back by
   its stored bits: no cell is read, and no chain is walked past its
   first id left (a walk costs a cache miss an id).  First, over the
   slots: a unique key's row gets no link, and a chain's old tail gets
   its new head.  [tails] maps an old tail to the chain's new entry,
   -1 until [relink] meets its last id left. *)
let heads ix m tails =
  Array.iter
    (fun e ->
      if e >= 0 then begin
        let x = e lsr hbits in
        let t = x lsr 1 in
        if x land 1 = 0 then (if t < Array.length ix.next then ix.next.(t) <- -1)
        else begin
          tails.(t) <- -1;
          let id = ref ix.next.(t) in
          while !id <> t && nid m !id < 0 do
            id := ix.next.(!id)
          done;
          if nid m !id >= 0 then ix.next.(t) <- nid m !id
        end
      end)
    ix.slots

(* Then the links, in id order: each id left links to the next one of
   its chain, the last one to the new head at the old tail ([next.(j)
   <= j] only there).  A link is written at a new id, no larger than
   the id being read, so every link read is still old.  Ids past
   [next]'s end never met a second row under their key. *)
let relink next m tails =
  let k = ref (-1) in
  for i = 0 to min m.bound (Array.length next) - 1 do
    if not (is_dead m.dead i) then begin
      incr k;
      let k = !k and j = ref i in
      while
        let n = next.(!j) in
        n > !j && nid m n < 0
      do
        j := next.(!j)
      done;
      let n = next.(!j) in
      if n > !j then next.(k) <- nid m n
      else begin
        next.(k) <- n;
        if n >= 0 then tails.(!j) <- (k lsl 1) lor (if n = k then 0 else 1)
      end
    end
  done

let tail_map = Domain.DLS.new_key (fun () -> ref [||])

(* Last, the slots: each entry is renumbered, into a fresh table when
   the slots are another store's ([copy]) or a smaller one would do (a
   probe's misses grow with the table), else in place: the pass starts
   after an empty slot, so no probe run wraps past it, and an entry
   moves back to the first empty slot from its home only if one opened
   in between ([hole]: the last empty slot met, from the start). *)
let squeeze m ~copy ix =
  let slots = ix.slots and tails = Domain.DLS.get tail_map in
  if Array.length slots > 0 then begin
    if Array.length ix.next > 0 then begin
      if Array.length !tails < Array.length ix.next then tails := Array.make (Array.length ix.next) 0;
      heads ix m !tails;
      relink ix.next m !tails
    end;
    let cap = table_size (min ix.keys (live_below m m.bound)) and mask = Array.length slots - 1 and start = ref 0 in
    let into = if copy || cap < Array.length slots then Array.make cap (-1) else slots in
    while slots.(!start) >= 0 do
      incr start
    done;
    ix.keys <- 0;
    let hole = ref 0 in
    for j = 1 to mask do
      let i = (!start + j) land mask in
      let e = Array.unsafe_get slots i in
      if e < 0 then hole := j
      else begin
        let x = e lsr hbits in
        let x = if x land 1 = 1 then !tails.(x lsr 1) else nid m (x lsr 1) lsl 1 in
        if x >= 0 then ix.keys <- ix.keys + 1;
        if into != slots then (if x >= 0 then place into (entry x e))
        else if x >= 0 && ((e - !start) land mask) > !hole then Array.unsafe_set slots i (entry x e)
        else begin
          Array.unsafe_set slots i (-1);
          hole := j;
          if x >= 0 then place slots (entry x e)
        end
      end
    done;
    ix.slots <- into
  end

let rec find_index mask = function
  | [] -> no_index
  | ix :: rest -> if ix.mask = mask then ix else find_index mask rest

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)
(* ------------------------------------------------------------------ *)

(* The model digest's per-relation state (see [Database.digest]):
   lane sums over the live rows below [mark], the head lanes they were
   computed under, and the cells of rows removed below [mark] since,
   not yet subtracted.  Immutable, so a copy can share it. *)
type digest_cache = {
  key_a : int;
  key_b : int;
  sum_a : int;
  sum_b : int;
  mark : int;
  removed : int array list;
}

(* Rows, their membership entries and their index chains live in a
   store; a relation is a handle on one: the store, an id bound and a
   dead-row bitmap.  Ids [0, used) are written and never change, so
   every handle on a store reads the same cells, each up to its own
   bound and around its own dead rows.

   One handle at most, the store's [owner], appends in place; it is
   always at the store's [used].  [remove_ids] makes a new handle on
   the same store and passes ownership on, so the handle it came from
   stays the exact pre-removal state while the new one keeps growing.
   Any other handle copies the store before its first append
   ([privatize]).  [copy] hands ownership to nobody: a store that two
   snapshots share is frozen, and either side copies it before it
   mutates, so sessions on other domains can read a shared fact base.
   [members] and every index in [indexes] cover ids [0, hashed) and
   [0, used), dead ones included.  [readers] counts the handles on the
   store not yet released ([release]). *)
type store = {
  mutable cells : int array;  (* row i at [i*width, (i+1)*width) *)
  members : index;  (* the index on every column *)
  mutable used : int;
  mutable hashed : int;
      (* ids [hashed, used) were appended unchecked ([append_of]); they
         enter [members] before it is next read.  Equal to [used] on a
         frozen store ([copy] catches up first), so concurrent readers
         never write. *)
  mutable owner : int;  (* the owning handle's [tok], or -1 *)
  mutable indexes : index list;
  mutable readers : int;
}

type t = {
  rel_name : string;
  width : int;  (* = arity *)
  tok : int;
  mutable store : store;
  mutable cells : int array;
      (* [store.cells] as of this handle's last append: every row below
         [count] is in it, so row reads skip the store *)
  mutable count : int;  (* the id bound *)
  mutable live : int;  (* ids below [count] not in [dead]: [count] when none is dead *)
  dead : Bytes.t;
  scratch : int array;  (* reusable full-width probe *)
  mutable digest : digest_cache option;
  mutable held : bool;  (* counted in [store.readers] *)
}

let tokens = Atomic.make 0
let fresh_tok () = Atomic.fetch_and_add tokens 1

let new_store cells members used indexes owner =
  { cells; members; used; hashed = used; owner; indexes; readers = 1 }

let make rel_name width cells count =
  let tok = fresh_tok () in
  { rel_name;
    width;
    tok;
    store = new_store cells (index_create ((1 lsl width) - 1) (Array.init width Fun.id) count) count [] tok;
    cells;
    count;
    live = count;
    dead = no_dead;
    scratch = Array.make width 0;
    digest = None;
    held = true }

(* A new handle on [r]'s store. *)
let share r ~tok ~count ~live ~dead ~digest =
  r.store.readers <- r.store.readers + 1;
  { r with tok; count; live; dead; scratch = Array.make r.width 0; digest; held = true }

(* [r] reads its store no more: it reads as empty from now on. *)
let release r =
  if r.held then begin
    r.held <- false;
    r.store.readers <- r.store.readers - 1;
    r.cells <- [||];
    r.count <- 0;
    r.live <- 0
  end

let create rel_name arity = make rel_name arity [||] 0

let arity r = r.width
let cardinal r = r.live
let id_bound r = r.count
let is_live r id = id < r.count && not (is_dead r.dead id)
let full_mask r = (1 lsl r.width) - 1

(* Enter the rows appended since the membership set was last written.
   Only the owner writes a store. *)
let catch_up st w =
  if st.hashed < st.used then begin
    for id = st.hashed to st.used - 1 do
      index_add st.members st.cells w id
    done;
    st.hashed <- st.used
  end

(* The rows [m] keeps, densely, in order, from [src] into [dst] ([w]
   cells a row), decoding nothing.  [dst] may be [src]. *)
let copy_kept m w (src : int array) (dst : int array) =
  let out = ref 0 in
  for id = 0 to m.bound - 1 do
    if not (is_dead m.dead id) then begin
      blit_cells src (id * w) dst (!out * w) w;
      incr out
    end
  done

(* Make [r] the owner of a store of its own, [m] applied: the rows it
   keeps, with room for a quarter more, its indexes squeezed and its
   membership set hashed anew (cheaper than a pass over slots mostly
   empty or dead).  The old store is only read: another handle may have
   appended past [r]'s bound, which [m] ends at. *)
let own r m =
  let st = r.store and w = r.width in
  let own_index ix =
    let ix = { ix with next = Array.sub ix.next 0 (min st.used (Array.length ix.next)) } in
    squeeze m ~copy:true ix;
    ix
  in
  let live = live_below m m.bound in
  let cells = Array.make (max (16 * w) ((live + (live / 4)) * w)) 0 in
  copy_kept m w r.cells cells;
  let members = index_create st.members.mask st.members.cols live in
  for id = 0 to live - 1 do
    index_add members cells w id
  done;
  let indexes = List.map own_index st.indexes in
  if r.held then st.readers <- st.readers - 1;
  r.store <- new_store cells members live indexes r.tok;
  r.cells <- cells;
  r.held <- true

(* ... before it appends. *)
let privatize r = if r.store.owner <> r.tok then own r (renumber no_dead r.count)

let read r id col = Cell.decode (Array.unsafe_get r.cells ((id * r.width) + col))

let decode_row r i =
  let w = r.width in
  if w = 0 then [||]
  else begin
    let cells = r.cells and off = i * w in
    let row = Array.make w (Cell.decode (Array.unsafe_get cells off)) in
    for j = 1 to w - 1 do
      Array.unsafe_set row j (Cell.decode (Array.unsafe_get cells (off + j)))
    done;
    row
  end

(* ---------------- add / mem ---------------- *)

let rec add_to_indexes cells w id = function
  | [] -> ()
  | ix :: rest ->
    index_add ix cells w id;
    add_to_indexes cells w id rest

(* The id of the live row whose cells equal [probe], or -1. *)
let find_cells r (probe : int array) =
  let st = r.store in
  catch_up st r.width;
  let ix = st.members in
  first_id ix (index_slot ix st.cells r.width probe 0 (hash_row probe 0 r.width 17 0)) r.count r.dead

(* Write the row in [r.scratch] at id [r.count] of [r]'s own store. *)
let push_scratch r =
  let st = r.store and w = r.width in
  if (r.count * w) + w > Array.length st.cells then begin
    let ncells = Array.make (max (16 * w) (2 * Array.length st.cells)) 0 in
    blit_cells st.cells 0 ncells 0 (r.count * w);
    st.cells <- ncells;
    r.cells <- ncells
  end;
  blit_cells r.scratch 0 st.cells (r.count * w) w

(* ... and count it in, once the membership set holds it or knows to. *)
let push_done r =
  let st = r.store in
  (* Guarded: the iter closure would otherwise be the only per-row
     minor allocation on the bulk-load path (no indexes yet). *)
  if st.indexes <> [] then add_to_indexes st.cells r.width r.count st.indexes;
  r.count <- r.count + 1;
  r.live <- r.live + 1

(* Insert the candidate row held in [r.scratch].  A removed row comes
   back under a new id, chained behind its old one: the old id stays
   for the handles that still see it. *)
let add_scratch r =
  let st0 = r.store and w = r.width in
  catch_up st0 w;
  let ix = st0.members in
  let h = hash_row r.scratch 0 w 17 0 in
  let slot = index_slot ix st0.cells w r.scratch 0 h in
  if first_id ix slot r.count r.dead >= 0 then false
  else begin
    privatize r;
    let st = r.store in
    push_scratch r;
    st.used <- st.used + 1;
    if st == st0 && (ix.slots.(slot) >= 0 || not (full ix.keys (Array.length ix.slots))) then begin
      link ix slot r.count h;
      st.hashed <- st.used
    end
    else catch_up st w;
    push_done r;
    true
  end

let add_cells r (src : int array) off =
  blit_cells src off r.scratch 0 r.width;
  add_scratch r

let check_arity r fn n =
  if n <> r.width then
    invalid_arg (Printf.sprintf "Relation.%s: %s expects arity %d, got %d" fn r.rel_name r.width n)

let add_encoded fn encode r row =
  check_arity r fn (Array.length row);
  for j = 0 to r.width - 1 do
    r.scratch.(j) <- encode row.(j)
  done;
  add_scratch r

let add r row = add_encoded "add" Cell.encode r row
let add_ints r ints = add_encoded "add_ints" Cell.of_int r ints

(* The id of [row] in [r], or -1.  [probe] is a caller-owned
   full-width buffer, so concurrent readers never share one. *)
let find_row r (probe : int array) (row : tuple) =
  for j = 0 to r.width - 1 do
    probe.(j) <- Cell.lookup row.(j)
  done;
  find_cells r probe

let mem r row = Array.length row = r.width && find_row r (Array.make r.width 0) row >= 0

let find r row = if Array.length row = r.width then find_row r r.scratch row else -1

let row_cells r id = Array.sub r.cells (id * r.width) r.width

let copy_cells fn r src id =
  check_arity r fn src.width;
  blit_cells src.cells (id * r.width) r.scratch 0 r.width

let find_of r src id =
  copy_cells "find_of" r src id;
  find_cells r r.scratch

let add_of r src id =
  copy_cells "add_of" r src id;
  add_scratch r

let append_of r src id =
  copy_cells "append_of" r src id;
  privatize r;
  push_scratch r;
  r.store.used <- r.store.used + 1;
  push_done r

(* ---------------- iteration ---------------- *)

(* The live ids in [lo, hi), in order.  The dead-row test is hoisted:
   a relation with none pays a plain loop. *)
let iter_live r lo hi f =
  if r.live = r.count then
    for i = lo to hi - 1 do
      f i
    done
  else begin
    let dead = r.dead in
    for i = lo to hi - 1 do
      if not (is_dead dead i) then f i
    done
  end

let iter_from r k f = iter_live r k r.count (fun i -> f (decode_row r i))

let iter r f = iter_from r 0 f

let to_list r =
  let acc = ref [] in
  iter r (fun row -> acc := row :: !acc);
  List.rev !acc

(* Removal in two steps (see the interface).  [remove_ids] marks the
   ids dead in a new handle's bitmap; [compact] squeezes once dead rows
   pass an eighth of the live ones (a quarter raised gbcd's peak RSS on
   serve_update by ~8%, more dead than live rows by ~12%).  A digest
   cache carries over: removed rows below its watermark queue their
   cells for subtraction, and a compaction lowers the watermark to the
   survivors below it. *)
let remove_ids r set =
  let w = r.width and st = r.store in
  let doomed = dead_prefix r.dead r.count in
  (* the ids of [set] below [hi] that [r] holds live, in order *)
  let iter_removed hi f = Idset.iter set (fun id -> if id < hi && not (is_dead r.dead id) then f id) in
  let n = ref 0 in
  iter_removed r.count (fun id ->
      set_dead doomed id;
      incr n);
  let gone d =
    let below = ref 0 in
    iter_removed (min d.mark r.count) (fun _ -> incr below);
    let gone = Array.make (!below * w) 0 and i = ref 0 in
    iter_removed (min d.mark r.count) (fun id ->
        blit_cells r.cells (id * w) gone (!i * w) w;
        incr i);
    gone
  in
  let tok = fresh_tok () in
  if st.owner = r.tok then st.owner <- tok;
  share r ~tok ~count:r.count ~live:(r.live - !n) ~dead:doomed
    ~digest:(match r.digest with Some d when w > 0 -> Some { d with removed = gone d :: d.removed } | _ -> None)

let compact r =
  let w = r.width and live = r.live in
  if 8 * (r.count - live) <= live then r
  else begin
    let m = renumber r.dead r.count and st = r.store in
    (* in place when no other handle reads the store, else in a copy:
       a store is never written under a handle that still reads it *)
    if r.held && st.owner = r.tok && st.readers = 1 then begin
      catch_up st w;
      List.iter (squeeze m ~copy:false) (st.members :: st.indexes);
      copy_kept m w st.cells st.cells;
      st.used <- live;
      st.hashed <- live
    end
    else own r m;
    let st = r.store and tok = fresh_tok () in
    st.owner <- tok;
    let digest =
      match r.digest with Some d when w > 0 -> Some { d with mark = live_below m (min d.mark r.count) } | _ -> None
    in
    release r;
    st.readers <- st.readers + 1;
    { r with tok; cells = st.cells; count = live; live; dead = no_dead; scratch = Array.make w 0; digest; held = true }
  end

let remove r rows =
  let set = Idset.create r.count in
  List.iter (fun row -> match find r row with -1 -> () | id -> Idset.add set id) rows;
  compact (remove_ids r set)

(* A read-only handle on the rows of [r] below id [m]: the state [r]
   had when its id bound was [m], if it lost no row since. *)
let prefix r m =
  if m < 0 || m > r.count then invalid_arg "Relation.prefix: bound out of range";
  let later = ref 0 in
  iter_live r m r.count (fun _ -> incr later);
  share r ~tok:(fresh_tok ()) ~count:m ~live:(r.live - !later)
    ~dead:(if r.live = r.count then no_dead else dead_prefix r.dead m)
    ~digest:None

(* ---------------- indexes and probes ---------------- *)

let index r mask =
  let st = r.store in
  let ix = find_index mask st.indexes in
  if ix != no_index then ix
  else begin
    let cols = List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init r.width Fun.id) in
    let ix = index_create mask (Array.of_list cols) 0 in
    for i = 0 to st.used - 1 do
      index_add ix st.cells r.width i
    done;
    st.indexes <- ix :: st.indexes;
    ix
  end

(* The ids under [probe]'s key, up to the id bound, around dead rows. *)
let walk ix r (probe : int array) f =
  walk_slot ix (index_slot ix r.store.cells r.width probe 0 (hash_proj probe 0 ix.cols 17 0)) r.count r.dead f

(* Rows agreeing with the encoded [probe] on every column of [mask],
   in insertion order.  A fully-bound probe is answered from the
   membership set, which already maps a row to its id, so no
   full-width index is ever built.  The probe is consumed and the id
   bound read before [f] is first called: rows inserted by [f] are not
   visited, and [f] may reuse the probe buffer. *)
let probe_ids r mask (probe : int array) f =
  if mask = 0 then iter_live r 0 r.count f
  else if mask = full_mask r then (match find_cells r probe with -1 -> () | id -> f id)
  else walk (index r mask) r probe f

let iter_matching_ids r (pattern : Value.t option array) f =
  if Array.length pattern <> r.width then
    invalid_arg (Printf.sprintf "Relation.iter_matching_ids: bad pattern arity for %s" r.rel_name);
  let mask = ref 0 in
  for c = 0 to r.width - 1 do
    match pattern.(c) with Some v -> mask := !mask lor (1 lsl c); r.scratch.(c) <- Cell.lookup v | None -> ()
  done;
  probe_ids r !mask r.scratch f

let iter_matching r pattern f = iter_matching_ids r pattern (fun id -> f (decode_row r id))

let rec cells_match cells off w mask (probe : int array) i =
  i = w
  || ((mask land (1 lsl i) = 0 || Array.unsafe_get cells (off + i) = probe.(i))
     && cells_match cells off w mask probe (i + 1))

(* The semi-naive delta scan: the live ids in [lo, hi) whose rows agree
   with [probe] on [mask], in id order, by comparing cells.  No index is
   read or built — a delta is a few rows at the end of the relation —
   so concurrent readers may share the relation. *)
let iter_range_ids r lo hi mask (probe : int array) f =
  let hi = min hi r.count in
  if mask = 0 then iter_live r lo hi f
  else begin
    let cells = r.cells and w = r.width in
    iter_live r lo hi (fun i -> if cells_match cells (i * w) w mask probe 0 then f i)
  end

(* Read-only variant for concurrent readers inside a parallel region:
   it never builds or mutates an index.  An existing index is used
   when present, otherwise a filtered linear scan — both enumerate in
   insertion order, so the result sequence is identical either way.
   Coordinators call [ensure_index] for the statically known probe
   masks before entering the region, making the fallback rare. *)
let probe_ids_ro r mask (probe : int array) f =
  if mask = 0 || mask = full_mask r then probe_ids r mask probe f
  else
    let ix = find_index mask r.store.indexes in
    if ix != no_index then walk ix r probe f else iter_range_ids r 0 r.count mask probe f

let ensure_index r mask = if mask <> 0 && mask <> full_mask r then ignore (index r mask)

(* ------------------------------------------------------------------ *)
(* Slices: sharded enumeration of a matched row set                    *)
(* ------------------------------------------------------------------ *)

(* A frozen description of the rows matching a probe, splittable into
   contiguous ranges for the domain pool: built by the sequential
   coordinator (which may create the index), iterated concurrently by
   shards, each over its own [lo, hi), touching nothing mutable.  Later
   appends are invisible.  An unbound slice is the id range itself, dead
   ids skipped as shards meet them. *)
type slice = { sl_rel : t; sl_ids : int array option; sl_len : int }

let slice_cols r mask (probe : int array) =
  if mask = 0 then { sl_rel = r; sl_ids = None; sl_len = r.count }
  else begin
    let ids = ref [] in
    probe_ids r mask probe (fun id -> ids := id :: !ids);
    let ids = Array.of_list (List.rev !ids) in
    { sl_rel = r; sl_ids = Some ids; sl_len = Array.length ids }
  end

let slice_len sl = sl.sl_len

let slice_iter_ids sl lo hi f =
  let hi = min hi sl.sl_len in
  match sl.sl_ids with
  | None -> iter_live sl.sl_rel lo hi f
  | Some ids ->
    for i = lo to hi - 1 do
      f (Array.unsafe_get ids i)
    done

let copy r =
  (* the arrays are shared, frozen, until either side privatizes them;
     indexes are rebuilt lazily and never shared *)
  let st = r.store in
  catch_up st r.width;
  st.owner <- -1;
  { r with
    tok = fresh_tok ();
    store = { st with indexes = []; readers = 1 };
    scratch = Array.make r.width 0;
    held = true }

(* ------------------------------------------------------------------ *)
(* Statistics and raw access                                           *)
(* ------------------------------------------------------------------ *)

(* Per-column distinct counts for the cost-based planner: the keys of
   a one-column id table over the live rows, each entered once. *)
let distinct_counts r =
  Array.init r.width (fun c ->
      let ix = index_create (1 lsl c) [| c |] r.live in
      iter_live r 0 r.count (fun i ->
          let h = hash_proj r.cells (i * r.width) ix.cols 17 0 in
          let s = index_slot ix r.cells r.width r.cells (i * r.width) h in
          if ix.slots.(s) < 0 then link ix s i h);
      ix.keys)

let cells r = r.cells
let digest_cache r = r.digest
let set_digest_cache r d = r.digest <- Some d

let has_terms r =
  let cells = r.cells and w = r.width in
  let rec from i =
    i < r.count * w
    && ((Cell.is_term (Array.unsafe_get cells i) && not (is_dead r.dead (i / w))) || from (i + 1))
  in
  from 0

let of_cells rel_name arity (cells : int array) count =
  if arity < 0 || Array.length cells < count * arity then
    invalid_arg "Relation.of_cells: cell array too short";
  let r = make rel_name arity cells count in
  let ix = r.store.members in
  for i = 0 to count - 1 do
    index_add ix cells arity i;
    if ix.keys <= i then invalid_arg (Printf.sprintf "Relation.of_cells: duplicate row in %s" rel_name)
  done;
  r
