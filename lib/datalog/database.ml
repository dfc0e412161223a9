type t = {
  relations : (string, Relation.t) Hashtbl.t;
  mutable order : string list; (* creation order, reversed *)
  mutable bindings : int; (* bumped whenever a name is bound, rebound or unbound *)
}

let create () = { relations = Hashtbl.create 32; order = []; bindings = 0 }

let relation db pred arity =
  match Hashtbl.find_opt db.relations pred with
  | Some r ->
    if Relation.arity r <> arity then
      invalid_arg
        (Printf.sprintf "Database.relation: %s used with arity %d but declared with %d" pred arity
           (Relation.arity r));
    r
  | None ->
    let r = Relation.create pred arity in
    Hashtbl.add db.relations pred r;
    db.order <- pred :: db.order;
    db.bindings <- db.bindings + 1;
    r

let find db pred = Hashtbl.find_opt db.relations pred
let bindings db = db.bindings

let add_fact db pred row = Relation.add (relation db pred (Array.length row)) row

let mem_fact db pred row =
  match find db pred with
  | None -> false
  | Some r -> Relation.arity r = Array.length row && Relation.mem r row

let load_facts db rules =
  List.iter
    (fun r ->
      if not (Ast.is_fact r) then
        invalid_arg ("Database.load_facts: not a ground fact: " ^ Pretty.rule_to_string r);
      let row = Array.of_list (List.map Ast.term_to_value r.Ast.head.Ast.args) in
      ignore (add_fact db r.Ast.head.Ast.pred row))
    rules

let preds db = List.rev db.order

let cardinal db =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) db.relations 0

let set_relation db name r =
  if not (Hashtbl.mem db.relations name) then db.order <- name :: db.order;
  Hashtbl.replace db.relations name r;
  db.bindings <- db.bindings + 1

let remove_relation db name =
  Hashtbl.remove db.relations name;
  db.order <- List.filter (fun p -> not (String.equal p name)) db.order;
  db.bindings <- db.bindings + 1

let copy db =
  let relations = Hashtbl.create 32 in
  Hashtbl.iter (fun name r -> Hashtbl.add relations name (Relation.copy r)) db.relations;
  { relations; order = db.order; bindings = 0 }

let facts_of db pred =
  match find db pred with None -> [] | Some r -> Relation.to_list r

(* ---------------- canonical printing ---------------- *)

(* [Relation.Cell]'s tests, repeated so that they inline: a call into
   another module is not inlined here, and the printer and the digest
   run these on every cell. *)
let is_int c = c land 1 = 0
let is_sym c = c land 3 = 1
let is_term c = c land 3 = 3
let sym_id c = c lsr 2

(* Rows print in [Value.compare] order, field by field.  Every column
   gets one int sort key per row, monotone in that order:

   - an inline int is its value, in (-2^61, 2^61);
   - a symbol is its interner rank plus [sym_base];
   - any other cell — a [Str], [Tup], [App] or an int too wide to be
     inline — is decoded once per distinct cell and ranked with
     [Value.compare] among the column's others ([Int < Str < Tup <
     App]).  A wide int sorts among the ints: a negative one just below
     -2^61, a positive one just above 2^61 and below every symbol; the
     rest go above every symbol.

   The keys span less than 2^63, so offsets from a column's least key
   are exact as unsigned ints.  The row ids are then sorted LSD: one
   stable pass per column, last column first, each a counting sort on
   the offsets' digits (an insertion sort for a few rows).  Relations
   are sets, so no two rows tie on every key. *)

let max_inline = 1 lsl 61

(* The column's distinct term cells, sorted by cell, and each one's
   position in [Value.compare] order: the first [nneg] are negative
   ints, the first [nint] ints. *)
type terms = { tcells : int array; trank : int array; nneg : int; nint : int }

let no_terms = { tcells = [||]; trank = [||]; nneg = 0; nint = 0 }

let column_terms cells n w j =
  let found = ref [] in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get cells ((i * w) + j) in
    if is_term c then found := c :: !found
  done;
  if !found = [] then no_terms
  else begin
    let tcells = Array.of_list (List.sort_uniq Int.compare !found) in
    let k = Array.length tcells in
    let vals = Array.map Relation.Cell.decode tcells in
    let order = Array.init k Fun.id in
    Array.sort (fun a b -> Value.compare vals.(a) vals.(b)) order;
    let trank = Array.make k 0 in
    Array.iteri (fun t slot -> trank.(slot) <- t) order;
    let count p = Array.fold_left (fun acc v -> if p v then acc + 1 else acc) 0 vals in
    { tcells;
      trank;
      nneg = count (function Value.Int i -> i < 0 | _ -> false);
      nint = count (function Value.Int _ -> true | _ -> false) }
  end

let rec find_cell tcells c lo hi =
  let mid = (lo + hi) / 2 in
  let x = Array.unsafe_get tcells mid in
  if x = c then mid else if x < c then find_cell tcells c (mid + 1) hi else find_cell tcells c lo mid

(* Fill [keys.(i)] for column [j]; returns the least key and the
   spread, the greatest key's unsigned offset from it. *)
let column_keys keys cells n w j ord =
  let t = column_terms cells n w j in
  let k = Array.length t.tcells in
  let sym_base = max_inline + k in
  let other_base = sym_base + Array.length ord in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get cells ((i * w) + j) in
    let key =
      if is_int c then c asr 1
      else if is_sym c then sym_base + ord.(sym_id c)
      else begin
        let r = t.trank.(find_cell t.tcells c 0 k) in
        if r < t.nneg then r - max_inline - t.nneg
        else if r < t.nint then max_inline + r
        else other_base + r
      end
    in
    Array.unsafe_set keys i key;
    if key < !lo then lo := key;
    if key > !hi then hi := key
  done;
  (!lo, !hi - !lo)

let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

(* Stable sort of [ids] (its first [n]) by the unsigned offsets
   [keys.(id) - lo], which are at most [spread], through [tmp];
   returns the array holding the result and the spare one.  With
   [nb] buckets of [counts], as few counting passes as they allow;
   with none, an insertion sort. *)
let sort_by_keys ids tmp counts nb keys lo spread n =
  let bits = bit_width spread in
  if bits = 0 then (ids, tmp)
  else if nb = 0 then begin
    for i = 1 to n - 1 do
      let id = ids.(i) in
      let d = (keys.(id) - lo) lxor min_int in
      let j = ref (i - 1) in
      while !j >= 0 && (keys.(ids.(!j)) - lo) lxor min_int > d do
        ids.(!j + 1) <- ids.(!j);
        decr j
      done;
      ids.(!j + 1) <- id
    done;
    (ids, tmp)
  end
  else begin
    (* as few counting passes as the buckets allow, of equal width *)
    let dmax = bit_width (nb - 1) in
    let passes = (bits + dmax - 1) / dmax in
    let d = (bits + passes - 1) / passes in
    let mask = (1 lsl d) - 1 in
    let src = ref ids and dst = ref tmp in
    for p = 0 to passes - 1 do
      let shift = p * d in
      Array.fill counts 0 (mask + 1) 0;
      let s = !src and t = !dst in
      for i = 0 to n - 1 do
        let b = ((Array.unsafe_get keys (Array.unsafe_get s i) - lo) lsr shift) land mask in
        Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
      done;
      let sum = ref 0 in
      for b = 0 to mask do
        let c = Array.unsafe_get counts b in
        Array.unsafe_set counts b !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let id = Array.unsafe_get s i in
        let b = ((Array.unsafe_get keys id - lo) lsr shift) land mask in
        let at = Array.unsafe_get counts b in
        Array.unsafe_set t at id;
        Array.unsafe_set counts b (at + 1)
      done;
      src := t;
      dst := s
    done;
    (!src, !dst)
  end

(* about one bucket per row, and none for a few rows *)
let buckets n = if n < 16 then 0 else 1 lsl min 16 (bit_width n - 1)

(* The sort's arrays, shared by every relation of one render: sized
   for the largest. *)
type scratch = { keys : int array; ids : int array; tmp : int array; counts : int array }

(* The printed text of each distinct term cell of one render, made
   once: the width pass sizes it and the write pass copies it. *)
type texts = (int, string) Hashtbl.t

let term_text (texts : texts) c =
  match Hashtbl.find_opt texts c with
  | Some s -> s
  | None ->
    let s = Value.to_string (Relation.Cell.decode c) in
    Hashtbl.add texts c s;
    s

(* Decimal width of an inline int ([|i| < 2^61], so negating is exact):
   compared against powers of ten, no division. *)
let rec digits n p d = if n < p || d = 19 then d else digits n (10 * p) (d + 1)

let nat_width n =
  if n < 10 then 1 else if n < 100 then 2 else if n < 1000 then 3 else digits n 10_000 4

let int_width i = if i < 0 then 1 + nat_width (-i) else nat_width i

let cell_width texts c =
  if is_int c then int_width (c asr 1)
  else if is_sym c then String.length (Interner.resolve (sym_id c))
  else String.length (term_text texts c)

(* The bytes [pred]'s facts print to: [pred(], the fields, [, ]
   between them and [).\n] per row. *)
let relation_width texts pred r =
  let w = Relation.arity r and cells = Relation.cells r in
  let per_row = String.length pred + 4 + if w > 0 then 2 * (w - 1) else 0 in
  let total = ref (per_row * Relation.cardinal r) in
  let bound = Relation.id_bound r in
  let all_live = Relation.cardinal r = bound in
  for id = 0 to bound - 1 do
    if all_live || Relation.is_live r id then
      for j = id * w to (id * w) + w - 1 do
        total := !total + cell_width texts (Array.unsafe_get cells j)
      done
  done;
  !total

(* Write the inline int [i] at [pos], its digits backwards from the
   end, two at a time; returns the end. *)
let pairs = String.init 200 (fun k -> Char.chr (48 + if k land 1 = 0 then k / 20 else k / 2 mod 10))

let write_int out pos i =
  let stop = pos + int_width i in
  let n = ref (abs i) and p = ref stop in
  while !n >= 10 do
    let k = 2 * (!n mod 100) in
    p := !p - 2;
    Bytes.unsafe_set out !p (String.unsafe_get pairs k);
    Bytes.unsafe_set out (!p + 1) (String.unsafe_get pairs (k + 1));
    n := !n / 100
  done;
  if !p > pos + if i < 0 then 1 else 0 then Bytes.unsafe_set out (!p - 1) (Char.unsafe_chr (48 + !n));
  if i < 0 then Bytes.unsafe_set out pos '-';
  stop

(* Short strings are copied in a loop: a symbol is a few bytes, less
   than a call into the runtime costs. *)
let write_string out pos s =
  let n = String.length s in
  if n <= 16 then
    for k = 0 to n - 1 do
      Bytes.unsafe_set out (pos + k) (String.unsafe_get s k)
    done
  else Bytes.blit_string s 0 out pos n;
  pos + n

let write_row out pos texts pred cells w id =
  let pos = ref (write_string out pos pred) in
  Bytes.set out !pos '(';
  incr pos;
  for j = 0 to w - 1 do
    if j > 0 then begin
      Bytes.set out !pos ',';
      Bytes.set out (!pos + 1) ' ';
      pos := !pos + 2
    end;
    let c = Array.unsafe_get cells ((id * w) + j) in
    pos :=
      if is_int c then write_int out !pos (c asr 1)
      else if is_sym c then write_string out !pos (Interner.resolve (sym_id c))
      else write_string out !pos (term_text texts c)
  done;
  write_string out !pos ").\n"

(* Keys are computed for every id below the bound, dead ones included
   (a removed row's cells are still in place, and its key never reaches
   the sort): only the live ids are sorted and printed. *)
let write_relation out pos sc texts pred r =
  let w = Relation.arity r and n = Relation.cardinal r and cells = Relation.cells r in
  let bound = Relation.id_bound r in
  if n = 0 then pos
  else begin
    let top_sym = ref (-1) in
    for i = 0 to (bound * w) - 1 do
      let c = Array.unsafe_get cells i in
      if is_sym c && sym_id c > !top_sym then top_sym := sym_id c
    done;
    let ord = Interner.ranks (!top_sym + 1) in
    let k = ref 0 in
    for id = 0 to bound - 1 do
      if n = bound || Relation.is_live r id then begin
        sc.ids.(!k) <- id;
        incr k
      end
    done;
    let ids = ref sc.ids and tmp = ref sc.tmp in
    for j = w - 1 downto 0 do
      let lo, spread = column_keys sc.keys cells bound w j ord in
      let sorted, spare = sort_by_keys !ids !tmp sc.counts (buckets n) sc.keys lo spread n in
      ids := sorted;
      tmp := spare
    done;
    let pos = ref pos in
    for i = 0 to n - 1 do
      pos := write_row out !pos texts pred cells w !ids.(i)
    done;
    !pos
  end

(* Two passes over the chosen relations: the first sums the exact
   output size, the second sorts each relation and writes its rows
   into one buffer of that size, which becomes the result as it is. *)
let render ?preds:chosen db =
  let preds = match chosen with Some ps -> ps | None -> List.sort String.compare (preds db) in
  let rels = List.filter_map (fun p -> Option.map (fun r -> (p, r)) (find db p)) preds in
  let texts = Hashtbl.create 16 in
  let size = List.fold_left (fun acc (p, r) -> acc + relation_width texts p r) 0 rels in
  let most f = List.fold_left (fun acc (_, r) -> max acc (f r)) 0 rels in
  let rows = most Relation.cardinal in
  let sc =
    { keys = Array.make (most Relation.id_bound) 0;
      ids = Array.make rows 0;
      tmp = Array.make rows 0;
      counts = Array.make (buckets rows) 0 }
  in
  let out = Bytes.create size in
  let pos = List.fold_left (fun pos (p, r) -> write_relation out pos sc texts p r) 0 rels in
  assert (pos = size);
  Bytes.unsafe_to_string out

let pp fmt db = Format.pp_print_string fmt (render db)

let fact_to_string pred row = Value.to_string (Value.App (pred, Array.to_list row))

let answer_to_string vars values =
  String.concat ", "
    (List.map2 (fun var v -> Printf.sprintf "%s = %s" var (Value.to_string v)) vars values)

let equal_on a b preds =
  let size db pred = Option.fold ~none:0 ~some:Relation.cardinal (find db pred) in
  List.for_all (fun p -> size a p = size b p && List.for_all (mem_fact b p) (facts_of a p)) preds

(* ---------------- multiset digest ---------------- *)

(* Every fact hashes, in two independent 63-bit lanes, a tagged
   canonical encoding of itself: predicate name, arity, then each field
   — an [Int] by its value, a [Sym]/[Str] by the hash of its text (never
   its interner id), a [Tup]/[App] by its shape and fields.  The model's
   digest is the lanewise sum over its facts, so insertion order cannot
   move it.  Relations are hashed straight off their cells: only term
   cells are decoded. *)

let mix_a x =
  let x = (x lxor (x lsr 32)) * 0x7fb5d329728ea185 in
  let x = (x lxor (x lsr 29)) * 0x4cf5ad432745937f in
  x lxor (x lsr 32)

let mix_b x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

type lanes = { mutable a : int; mutable b : int }

let absorb2 st wa wb =
  st.a <- mix_a (st.a + wa);
  st.b <- mix_b (st.b + wb)

let absorb st w = absorb2 st w w

let seed_a = 0x2545f4914f6cdd1d
let seed_b = 0x1d8e4e27c47d124f

(* Field tags: keep [Int 1], [Sym "1"] and [Str "1"] apart. *)
let tag_int = 1
let tag_sym = 2
let tag_str = 3
let tag_tup = 4
let tag_app = 5

type text_hash = { ta : int; tb : int }

(* Length, then the bytes seven to a word (56 bits: no overflow). *)
let hash_text s =
  let st = { a = seed_a; b = seed_b } in
  let n = String.length s in
  absorb st n;
  let i = ref 0 in
  while !i < n do
    let w = ref 0 in
    for j = min (n - 1) (!i + 6) downto !i do
      w := (!w lsl 8) lor Char.code (String.unsafe_get s j)
    done;
    absorb st !w;
    i := !i + 7
  done;
  { ta = st.a; tb = st.b }

(* Text hashes per interner id, filled on first use.  Shared by every
   domain without a lock: entries are immutable records, so a racy read
   sees either the sentinel or a complete entry, and a write lost to a
   concurrent resize only costs recomputing a deterministic value. *)
let unset = { ta = 0; tb = 0 }
let text_cache = Atomic.make (Array.make 1024 unset)

let text_hash_of_id id =
  let c = Atomic.get text_cache in
  let e = if id < Array.length c then Array.unsafe_get c id else unset in
  if e != unset then e
  else begin
    let e = hash_text (Interner.resolve id) in
    let c =
      if id < Array.length c then c
      else begin
        let bigger = Array.make (max (2 * Array.length c) (id + 1)) unset in
        Array.blit c 0 bigger 0 (Array.length c);
        Atomic.set text_cache bigger;
        bigger
      end
    in
    c.(id) <- e;
    e
  end

let absorb_text st h = absorb2 st h.ta h.tb

let absorb_int st i =
  absorb st tag_int;
  absorb st i

let absorb_interned st tag id =
  absorb st tag;
  absorb_text st (text_hash_of_id id)

let rec absorb_value st = function
  | Value.Int i -> absorb_int st i
  | Value.Sym id -> absorb_interned st tag_sym id
  | Value.Str id -> absorb_interned st tag_str id
  | Value.Tup xs ->
    absorb st tag_tup;
    absorb_values st xs
  | Value.App (f, xs) ->
    absorb st tag_app;
    absorb_text st (hash_text f);
    absorb_values st xs

and absorb_values st xs =
  absorb st (List.length xs);
  List.iter (absorb_value st) xs

(* One fact's lanes, hashed from [head] (its predicate and arity) and
   its [w] cells at [off]. *)
let hash_row st head cells off w =
  st.a <- head.a;
  st.b <- head.b;
  for j = off to off + w - 1 do
    let c = Array.unsafe_get cells j in
    if is_int c then absorb_int st (c asr 1)
    else if is_sym c then absorb_interned st tag_sym (sym_id c)
    else absorb_value st (Relation.Cell.decode c)
  done

(* The sum is maintained per relation through its digest cache: live
   rows at ids past the cached watermark are added, rows
   [Relation.remove] queued below it are subtracted, and a relation
   with no cache — or one keyed under another predicate or arity — is
   summed from scratch, as are nullary relations, which hold at most
   one row. *)
let digest db =
  let sum = { a = 0; b = 0 } and st = { a = 0; b = 0 } in
  Hashtbl.iter
    (fun pred r ->
      let w = Relation.arity r and n = Relation.id_bound r in
      let all_live = Relation.cardinal r = n in
      let head = { a = seed_a; b = seed_b } in
      absorb_text head (hash_text pred);
      absorb head w;
      let rel = { a = 0; b = 0 } in
      let from =
        match Relation.digest_cache r with
        | Some c when w > 0 && c.key_a = head.a && c.key_b = head.b && c.mark <= n ->
          rel.a <- c.sum_a;
          rel.b <- c.sum_b;
          List.iter
            (fun gone ->
              for i = 0 to (Array.length gone / w) - 1 do
                hash_row st head gone (i * w) w;
                rel.a <- rel.a - st.a;
                rel.b <- rel.b - st.b
              done)
            c.removed;
          c.mark
        | _ -> 0
      in
      let cells = Relation.cells r in
      for i = from to n - 1 do
        if all_live || Relation.is_live r i then begin
          hash_row st head cells (i * w) w;
          rel.a <- rel.a + st.a;
          rel.b <- rel.b + st.b
        end
      done;
      if w > 0 then
        Relation.set_digest_cache r
          { key_a = head.a; key_b = head.b; sum_a = rel.a; sum_b = rel.b; mark = n; removed = [] };
      sum.a <- sum.a + rel.a;
      sum.b <- sum.b + rel.b)
    db.relations;
  Printf.sprintf "mset1:%016x%016x" sum.a sum.b
