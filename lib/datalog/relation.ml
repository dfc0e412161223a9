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

  let absent = -1

  let find_term v =
    match Mutex.protect lock (fun () -> Value.Tbl.find_opt ids v) with
    | Some k -> (k lsl 2) lor 3
    | None -> absent

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
(* Membership set and indexes                                          *)
(* ------------------------------------------------------------------ *)

(* Every row is [width] cells (see [Cell] above) at [id * width] in one
   growable int array.  Membership and indexes are open-addressing
   structures over row ids that probe straight into that store: no
   per-entry box, no stored keys — a slot is compared by reading its
   row's cells.  Power-of-two sizes, linear probing, no deletions: a
   removed row keeps its entries, and a reader skips the ids it does
   not see (see [t] below).  Probes are full-width cell buffers; an
   index reads only its own columns of them. *)

let mix h c = (h * 1000003) lxor c

(* Tables index with the low bits of a hash, and the low bits of [mix]
   depend only on the low bits of the cells: spread every bit down
   first, or rows that differ only in high bits cluster. *)
let finish h =
  let h = (h lxor (h lsr 32)) * 0x7fb5d329728ea185 in
  (h lxor (h lsr 29)) land max_int

let rec hash_cells cells off w h i =
  if i = w then finish h
  else hash_cells cells off w (mix h (Array.unsafe_get cells (off + i))) (i + 1)

let rec cells_eq a aoff b boff w i =
  i = w
  || (Array.unsafe_get a (aoff + i) = Array.unsafe_get b (boff + i)
     && cells_eq a aoff b boff w (i + 1))

(* Dead rows: bit [id] of a handle's bitmap is set when row [id] was
   removed.  A bitmap never changes once its handle exists, so handles
   share them freely; no bit at or past the handle's id bound is set,
   and ids past the bitmap's end are live. *)
let no_dead = Bytes.empty

let[@inline] is_dead dead id =
  let byte = id lsr 3 in
  byte < Bytes.length dead
  && Char.code (Bytes.unsafe_get dead byte) land (1 lsl (id land 7)) <> 0

let set_dead dead id =
  let byte = id lsr 3 in
  Bytes.unsafe_set dead byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get dead byte) lor (1 lsl (id land 7))))

(* Bits [0, n) of [dead] in a fresh bitmap sized for [n] ids. *)
let dead_prefix dead n =
  let out = Bytes.make ((n + 7) lsr 3) '\000' in
  let full = min (n lsr 3) (Bytes.length dead) in
  Bytes.blit dead 0 out 0 full;
  for id = full lsl 3 to n - 1 do
    if is_dead dead id then set_dead out id
  done;
  out

(* Membership: a hash set of row ids keyed by full-row cell content,
   [-1] marking an empty slot.  Always populated, so that [mem] never
   mutates — concurrent readers call it on relations they only read. *)
let slots_create n =
  let rec cap c = if c >= 2 * n then c else cap (2 * c) in
  Array.make (cap 32) (-1)

(* The first empty slot on the probe sequence of hash [h]. *)
let free_slot slots h =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while Array.unsafe_get slots !i >= 0 do
    i := (!i + 1) land mask
  done;
  !i

(* Enter rows [0, n) of [cells] in the empty membership set [slots]:
   each at the first free slot of its hash, compared with nothing —
   a dead row and the live copy added after it each keep an entry. *)
let fill_slots slots cells w n =
  for id = 0 to n - 1 do
    slots.(free_slot slots (hash_cells cells (id * w) w 17 0)) <- id
  done;
  slots

(* The slot of the row whose cells equal [key] at [koff] among the ids
   below [bound] that [dead] leaves live, or the empty slot where that
   row would go.  Other rows with those cells — removed ones, or ones
   past the bound — are stepped over like any other key. *)
let seen_slot slots cells w key koff bound dead =
  let mask = Array.length slots - 1 in
  let i = ref (hash_cells key koff w 17 0 land mask) in
  while
    let id = Array.unsafe_get slots !i in
    id >= 0
    && not (cells_eq cells (id * w) key koff w 0 && id < bound && not (is_dead dead id))
  do
    i := (!i + 1) land mask
  done;
  !i

(* An index maps the projection on a column set to the chain of
   matching row ids.  [slots] is an open-addressing table of (head,
   tail) pairs, one per distinct key, head [-1] marking an empty slot;
   a key is the projection of its chain's head row, so no keys are
   stored.  [next.(id)] links each row to the next one with its key:
   chains run in insertion order, so ids along a chain only grow, and
   nothing is allocated per key or per row. *)
type index = {
  mask : int;  (* the bound columns, as a bitmask *)
  cols : int array;
  mutable slots : int array;  (* slot i at [2i] (head) and [2i+1] (tail) *)
  mutable keys : int;
  mutable next : int array;
}

let rec hash_proj cells off (cols : int array) h i =
  if i = Array.length cols then finish h
  else
    hash_proj cells off cols (mix h (Array.unsafe_get cells (off + Array.unsafe_get cols i))) (i + 1)

let rec proj_eq a aoff b boff (cols : int array) i =
  i = Array.length cols
  ||
  let c = Array.unsafe_get cols i in
  Array.unsafe_get a (aoff + c) = Array.unsafe_get b (boff + c) && proj_eq a aoff b boff cols (i + 1)

(* The slot of the chain whose key is the projection of [key] at
   [koff], or the empty slot where that chain would go. *)
let index_slot slots cells w cols key koff =
  let mask = (Array.length slots / 2) - 1 in
  let i = ref (hash_proj key koff cols 17 0 land mask) in
  while
    let head = Array.unsafe_get slots (2 * !i) in
    head >= 0 && not (proj_eq cells (head * w) key koff cols 0)
  do
    i := (!i + 1) land mask
  done;
  2 * !i

let index_create mask cols rows =
  { mask; cols; slots = Array.make 128 (-1); keys = 0; next = Array.make (max 16 rows) (-1) }

let index_copy ix = { ix with slots = Array.copy ix.slots; next = Array.copy ix.next }

let no_index = { mask = -1; cols = [||]; slots = [||]; keys = 0; next = [||] }

let rec find_index mask = function
  | [] -> no_index
  | ix :: rest -> if ix.mask = mask then ix else find_index mask rest

(* Append a stored row to its key's chain. *)
let index_add ix cells w id =
  if id >= Array.length ix.next then begin
    let next = Array.make (2 * Array.length ix.next) (-1) in
    Array.blit ix.next 0 next 0 (Array.length ix.next);
    ix.next <- next
  end;
  if 4 * (ix.keys + 1) >= Array.length ix.slots then begin
    let slots = Array.make (2 * Array.length ix.slots) (-1) in
    for i = 0 to (Array.length ix.slots / 2) - 1 do
      let head = ix.slots.(2 * i) in
      if head >= 0 then begin
        let s = index_slot slots cells w ix.cols cells (head * w) in
        slots.(s) <- head;
        slots.(s + 1) <- ix.slots.((2 * i) + 1)
      end
    done;
    ix.slots <- slots
  end;
  let s = index_slot ix.slots cells w ix.cols cells (id * w) in
  if ix.slots.(s) >= 0 then ix.next.(ix.slots.(s + 1)) <- id
  else begin
    ix.slots.(s) <- id;
    ix.keys <- ix.keys + 1
  end;
  ix.slots.(s + 1) <- id

(* [ix] over a store compacted to the ids [renum] maps to (-1 for a
   row dropped; ids at or past [bound] are dropped too), for the new
   [cells] with room for [rows] rows.  Renumbering keeps every chain in
   order, so chains are relinked as they stand and only their keys are
   re-placed: no row outside a chain's head is hashed. *)
let index_renumber ix renum bound cells w rows =
  let nx = index_create ix.mask ix.cols rows in
  let cap = ref 128 in
  while !cap < 4 * (ix.keys + 1) do
    cap := 2 * !cap
  done;
  nx.slots <- Array.make !cap (-1);
  for i = 0 to (Array.length ix.slots / 2) - 1 do
    let id = ref ix.slots.(2 * i) and head = ref (-1) and tail = ref (-1) in
    while !id >= 0 && !id < bound do
      let fresh = renum.(!id) in
      if fresh >= 0 then begin
        if !head < 0 then head := fresh else nx.next.(!tail) <- fresh;
        tail := fresh
      end;
      id := ix.next.(!id)
    done;
    if !head >= 0 then begin
      let s = index_slot nx.slots cells w nx.cols cells (!head * w) in
      nx.slots.(s) <- !head;
      nx.slots.(s + 1) <- !tail;
      nx.keys <- nx.keys + 1
    end
  done;
  nx

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
   always at the store's [used].  [remove] makes a new handle on the
   same store and passes ownership on, so the handle it came from
   stays the exact pre-removal state while the new one keeps growing.
   Any other handle copies the store before its first append
   ([privatize]).  [copy] hands ownership to nobody: a store that two
   snapshots share is frozen, and either side copies it before it
   mutates — which is what lets sessions on other domains read a
   shared fact base.

   Every index in [indexes] covers ids [0, used), dead ones included,
   and the owner extends each on append; handles on the store share
   them. *)
type store = {
  mutable cells : int array;  (* row i at [i*width, (i+1)*width) *)
  mutable slots : int array;  (* membership: one entry per written id *)
  mutable used : int;
  mutable owner : int;  (* the owning handle's [tok], or -1 *)
  mutable indexes : index list;
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
}

let tokens = Atomic.make 0
let fresh_tok () = Atomic.fetch_and_add tokens 1

let make rel_name width cells count =
  let tok = fresh_tok () in
  { rel_name;
    width;
    tok;
    store = { cells; slots = slots_create (count + 1); used = count; owner = tok; indexes = [] };
    cells;
    count;
    live = count;
    dead = no_dead;
    scratch = Array.make width 0;
    digest = None }

let create rel_name arity = make rel_name arity [||] 0

let arity r = r.width
let cardinal r = r.live
let id_bound r = r.count
let is_live r id = id < r.count && not (is_dead r.dead id)
let full_mask r = (1 lsl r.width) - 1

(* Enter row [id] of [st] in its membership set, growing the set as
   needed.  Only the owner writes a store. *)
let seen_add st w id =
  if 2 * (st.used + 1) >= Array.length st.slots then
    st.slots <- fill_slots (Array.make (2 * Array.length st.slots) (-1)) st.cells w st.used;
  st.slots.(free_slot st.slots (hash_cells st.cells (id * w) w 17 0)) <- id;
  st.used <- st.used + 1

(* Make [r] the owner of a store of its own before it appends.  A store
   written only up to [r]'s bound is copied as it stands, indexes
   included; one another handle has appended to since keeps those rows
   out of [r]'s copy, so its membership set is rebuilt and its indexes
   are left to be rebuilt on demand. *)
let privatize r =
  let st = r.store in
  if st.owner <> r.tok then begin
    let cells = Array.copy st.cells in
    r.store <-
      (if st.used = r.count then
         { cells;
           slots = Array.copy st.slots;
           used = st.used;
           owner = r.tok;
           indexes = List.map index_copy st.indexes }
       else
         { cells;
           slots = fill_slots (slots_create (r.count + 1)) cells r.width r.count;
           used = r.count;
           owner = r.tok;
           indexes = [] });
    r.cells <- cells
  end

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

let check_arity r fn n =
  if n <> r.width then
    invalid_arg (Printf.sprintf "Relation.%s: %s expects arity %d, got %d" fn r.rel_name r.width n)

let rec add_to_indexes cells w id = function
  | [] -> ()
  | ix :: rest ->
    index_add ix cells w id;
    add_to_indexes cells w id rest

(* The id of the live row whose cells equal [probe], or -1. *)
let find_cells r (probe : int array) =
  let st = r.store in
  st.slots.(seen_slot st.slots st.cells r.width probe 0 r.count r.dead)

(* Insert the candidate row held in [r.scratch].  A removed row comes
   back under a new id, with an entry of its own: the old entry stays
   for the handles that still see the old id. *)
let add_scratch r =
  if find_cells r r.scratch >= 0 then false
  else begin
    privatize r;
    let st = r.store and w = r.width in
    if (r.count * w) + w > Array.length st.cells then begin
      let ncells = Array.make (max (16 * w) (2 * Array.length st.cells)) 0 in
      Array.blit st.cells 0 ncells 0 (r.count * w);
      st.cells <- ncells;
      r.cells <- ncells
    end;
    Array.blit r.scratch 0 st.cells (r.count * w) w;
    seen_add st w r.count;
    (* Guarded: the iter closure would otherwise be the only per-row
       minor allocation on the bulk-load path (no indexes yet). *)
    if st.indexes <> [] then add_to_indexes st.cells w r.count st.indexes;
    r.count <- r.count + 1;
    r.live <- r.live + 1;
    true
  end

let add r row =
  check_arity r "add" (Array.length row);
  for j = 0 to r.width - 1 do
    r.scratch.(j) <- Cell.encode row.(j)
  done;
  add_scratch r

let add_ints r (ints : int array) =
  check_arity r "add_ints" (Array.length ints);
  for j = 0 to r.width - 1 do
    r.scratch.(j) <- Cell.of_int ints.(j)
  done;
  add_scratch r

(* The id of [row] in [r], or -1.  [probe] is a caller-owned
   full-width buffer, so concurrent readers never share one. *)
let find_row r (probe : int array) (row : tuple) =
  for j = 0 to r.width - 1 do
    probe.(j) <- Cell.lookup row.(j)
  done;
  find_cells r probe

let mem r row = Array.length row = r.width && find_row r (Array.make r.width 0) row >= 0

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

(* [iter_live] spelled out: no closure per call, as the engines call it
   once per firing. *)
let iter_from r k f =
  if r.live = r.count then
    for i = k to r.count - 1 do
      f (decode_row r i)
    done
  else begin
    let dead = r.dead in
    for i = k to r.count - 1 do
      if not (is_dead dead i) then f (decode_row r i)
    done
  end

let iter r f = iter_from r 0 f

let to_list r =
  let acc = ref [] in
  iter r (fun row -> acc := row :: !acc);
  List.rev !acc

(* Fresh cells holding the live rows of [r] outside [doomed], densely,
   in id order, with room for a quarter more: survivors are copied as
   runs of cells, decoding nothing. *)
let dense_cells r doomed n =
  let w = r.width and src = r.cells in
  let cells = Array.make (max (16 * w) ((n + (n / 4)) * w)) 0 in
  let out = ref 0 and i = ref 0 in
  while !i < r.count do
    if is_dead doomed !i then incr i
    else begin
      let lo = !i in
      while !i < r.count && not (is_dead doomed !i) do
        incr i
      done;
      Array.blit src (lo * w) cells (!out * w) ((!i - lo) * w);
      out := !out + !i - lo
    end
  done;
  cells

(* Removal for incremental view maintenance.  The doomed rows are
   located through the membership set.  In place, the result is a new
   handle on [r]'s store whose bitmap also marks them dead: no
   survivor is copied, re-hashed or re-indexed, and [r] keeps reading
   its own rows.  Once dead rows would exceed an eighth of the live
   ones, the survivors are compacted into a fresh store instead, their
   index chains renumbered along: every scan stays within 1.125 times
   the live rows, the cost per removed row stays constant, and the
   store, compacted with room for a quarter more rows, need not grow
   while an assert/retract stream churns it.  (Looser thresholds
   compact less often but keep larger stores: letting dead rows
   outnumber live ones raised gbcd's peak RSS on serve_update by ~12%,
   a quarter by ~8%.)  A digest cache carries over: the removed rows below its watermark queue their
   cells for subtraction, and a compaction lowers the watermark to the
   survivors below it. *)
let remove r rows =
  let w = r.width and st = r.store in
  let probe = Array.make w 0 in
  let ids =
    List.filter_map
      (fun row ->
        if Array.length row <> w then None
        else match find_row r probe row with -1 -> None | id -> Some id)
      rows
    |> List.sort_uniq Int.compare
  in
  let live = r.live - List.length ids in
  let doomed = dead_prefix r.dead r.count in
  List.iter (set_dead doomed) ids;
  let gone d =
    let below = List.filter (fun id -> id < d.mark) ids in
    let gone = Array.make (List.length below * w) 0 in
    List.iteri (fun i id -> Array.blit r.cells (id * w) gone (i * w) w) below;
    gone
  in
  if 8 * (r.count - live) > live then begin
    let out = make r.rel_name w (dense_cells r doomed live) live in
    let ost = out.store in
    ignore (fill_slots ost.slots ost.cells w live);
    if st.indexes <> [] then begin
      let renum = Array.make r.count (-1) and k = ref 0 in
      for id = 0 to r.count - 1 do
        if not (is_dead doomed id) then begin
          renum.(id) <- !k;
          incr k
        end
      done;
      let rows = Array.length ost.cells / w in
      ost.indexes <- List.map (fun ix -> index_renumber ix renum r.count ost.cells w rows) st.indexes
    end;
    (match r.digest with
    | Some d when w > 0 ->
      let mark = ref 0 in
      for id = 0 to d.mark - 1 do
        if not (is_dead doomed id) then incr mark
      done;
      out.digest <- Some { d with mark = !mark; removed = gone d :: d.removed }
    | _ -> ());
    out
  end
  else begin
    let tok = fresh_tok () in
    if st.owner = r.tok then st.owner <- tok;
    { r with
      tok;
      live;
      dead = doomed;
      scratch = Array.make w 0;
      digest =
        (match r.digest with
        | Some d when w > 0 -> Some { d with removed = gone d :: d.removed }
        | _ -> None) }
  end

(* A read-only handle on the rows of [r] below id [m]: the state [r]
   had when its id bound was [m], if it lost no row since. *)
let prefix r m =
  if m < 0 || m > r.count then invalid_arg "Relation.prefix: bound out of range";
  let later = ref 0 in
  iter_live r m r.count (fun _ -> incr later);
  { r with
    tok = fresh_tok ();
    count = m;
    live = r.live - !later;
    dead = (if r.live = r.count then no_dead else dead_prefix r.dead m);
    scratch = Array.make r.width 0;
    digest = None }

(* ---------------- indexes and probes ---------------- *)

let index r mask =
  let st = r.store in
  let ix = find_index mask st.indexes in
  if ix != no_index then ix
  else begin
    let cols = List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init r.width Fun.id) in
    (* [next] as long as the store's row capacity: rows appended
       before the store next grows do not reallocate it *)
    let ix = index_create mask (Array.of_list cols) (Array.length st.cells / r.width) in
    for i = 0 to st.used - 1 do
      index_add ix st.cells r.width i
    done;
    st.indexes <- ix :: st.indexes;
    ix
  end

(* Fill the bound positions of [probe] from [key]. *)
let encode_cols (probe : int array) mask (key : Value.t array) =
  for c = 0 to Array.length probe - 1 do
    if mask land (1 lsl c) <> 0 then probe.(c) <- Cell.lookup key.(c)
  done

(* The chain of [probe]'s key, up to the id bound [bound], around dead
   rows. *)
let walk (ix : index) r (probe : int array) bound f =
  let id = ref ix.slots.(index_slot ix.slots r.store.cells r.width ix.cols probe 0) in
  if r.live = r.count then
    while !id >= 0 && !id < bound do
      let cur = !id in
      id := Array.unsafe_get ix.next cur;
      f cur
    done
  else begin
    let dead = r.dead in
    while !id >= 0 && !id < bound do
      let cur = !id in
      id := Array.unsafe_get ix.next cur;
      if not (is_dead dead cur) then f cur
    done
  end

(* Rows agreeing with the encoded [probe] on every column of [mask],
   in insertion order.  A fully-bound probe is answered from the
   membership set, which already maps a row to its id, so no
   full-width index is ever built.  The probe is consumed and the id
   bound read before [f] is first called: rows inserted by [f] are not
   visited, and [f] may reuse the probe buffer. *)
let probe_ids r mask (probe : int array) f =
  if mask = 0 then iter_live r 0 r.count f
  else if mask = full_mask r then begin
    let id = find_cells r probe in
    if id >= 0 then f id
  end
  else walk (index r mask) r probe r.count f

let iter_matching_cols_ids r mask (key : Value.t array) f =
  encode_cols r.scratch mask key;
  probe_ids r mask r.scratch f

let iter_matching_ids r (pattern : Value.t option array) f =
  if Array.length pattern <> r.width then
    invalid_arg (Printf.sprintf "Relation.iter_matching_ids: bad pattern arity for %s" r.rel_name);
  let mask = ref 0 in
  Array.iteri
    (fun c v ->
      match v with
      | Some v ->
        mask := !mask lor (1 lsl c);
        r.scratch.(c) <- Cell.lookup v
      | None -> ())
    pattern;
  probe_ids r !mask r.scratch f

let iter_matching r pattern f = iter_matching_ids r pattern (fun id -> f (decode_row r id))
let iter_matching_cols r mask key f = iter_matching_cols_ids r mask key (fun id -> f (decode_row r id))

let rec cells_match cells off w mask (probe : int array) i =
  i = w
  || ((mask land (1 lsl i) = 0 || Array.unsafe_get cells (off + i) = probe.(i))
     && cells_match cells off w mask probe (i + 1))

(* Read-only variant for concurrent readers inside a parallel region:
   it never builds or mutates an index and probes with a caller-owned
   buffer instead of the relation's scratch.  An existing index is used
   when present, otherwise a filtered linear scan — both enumerate in
   insertion order, so the result sequence is identical either way.
   Coordinators call [ensure_index] for the statically known probe
   masks before entering the region, making the fallback rare. *)
let iter_matching_cols_ro_ids r mask (key : Value.t array) (probe : int array) f =
  encode_cols probe mask key;
  if mask = 0 || mask = full_mask r then probe_ids r mask probe f
  else
    let ix = find_index mask r.store.indexes in
    if ix != no_index then walk ix r probe r.count f
    else
      let cells = r.cells in
      iter_live r 0 r.count (fun i -> if cells_match cells (i * r.width) r.width mask probe 0 then f i)

let ensure_index r mask = if mask <> 0 && mask <> full_mask r then ignore (index r mask)

(* The semi-naive delta scan: the live ids in [lo, hi) whose rows agree
   with [key] on [mask], in id order, by comparing cells.  No index is
   read or built — a delta is a few rows at the end of the relation —
   and the key goes into the caller's [probe], so concurrent readers
   may share the relation. *)
let iter_range_ids r lo hi mask (key : Value.t array) (probe : int array) f =
  let hi = min hi r.count in
  if mask = 0 then iter_live r lo hi f
  else begin
    encode_cols probe mask key;
    let cells = r.cells and w = r.width in
    iter_live r lo hi (fun i -> if cells_match cells (i * w) w mask probe 0 then f i)
  end

(* ------------------------------------------------------------------ *)
(* Slices: sharded enumeration of a matched row set                    *)
(* ------------------------------------------------------------------ *)

(* A frozen description of the rows matching a probe, splittable into
   contiguous ranges for the domain pool.  Built by the sequential
   coordinator (which may create the index); iterated concurrently by
   shards, each over its own [lo, hi) range, touching nothing mutable.
   The ids array and its bound are captured at build time, so later
   appends by the coordinator are invisible.  An unbound slice is the
   id range itself, dead ids skipped as shards meet them. *)
type slice = { sl_rel : t; sl_ids : int array option; sl_len : int }

let slice_cols r mask (key : Value.t array) =
  if mask = 0 then { sl_rel = r; sl_ids = None; sl_len = r.count }
  else begin
    encode_cols r.scratch mask key;
    let ids = ref [] in
    probe_ids r mask r.scratch (fun id -> ids := id :: !ids);
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
  st.owner <- -1;
  { r with tok = fresh_tok (); store = { st with indexes = [] }; scratch = Array.make r.width 0 }

(* ------------------------------------------------------------------ *)
(* Statistics and raw access                                           *)
(* ------------------------------------------------------------------ *)

(* Distinct cells of one column, via a private open-addressing int set
   sized up front.  [min_int] marks an empty slot: it is never a cell
   ([Int (-2^61)] is outside the inline range, and symbol and term
   cells are non-negative). *)
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
    let j = ref (finish cell land mask) in
    while Array.unsafe_get slots !j <> min_int && Array.unsafe_get slots !j <> cell do
      j := (!j + 1) land mask
    done;
    if Array.unsafe_get slots !j = min_int then begin
      Array.unsafe_set slots !j cell;
      incr distinct
    end
  done;
  !distinct

(* Per-column distinct counts for the cost-based planner: one cell is
   one value, so raw cells are counted with no boxing. *)
let distinct_counts r =
  let cells = if r.live = r.count then r.cells else dense_cells r r.dead r.live in
  Array.init r.width (fun c -> if r.live = 0 then 0 else distinct_cells cells r.live r.width c)

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
  let slots = r.store.slots in
  for i = 0 to count - 1 do
    let s = seen_slot slots cells arity cells (i * arity) i no_dead in
    if slots.(s) >= 0 then invalid_arg (Printf.sprintf "Relation.of_cells: duplicate row in %s" rel_name);
    slots.(s) <- i
  done;
  r
