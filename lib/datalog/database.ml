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
    if Relation.Cell.is_term c then found := c :: !found
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
      if Relation.Cell.is_int c then c asr 1
      else if Relation.Cell.is_sym c then sym_base + ord.(Relation.Cell.sym_id c)
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

(* Stable sort of [ids] (length [n]) by the unsigned offsets
   [keys.(id) - lo], which are at most [spread], through [tmp];
   returns the array holding the result and the spare one.  With no
   [counts] buckets, an insertion sort. *)
let sort_by_keys ids tmp counts keys lo spread n =
  let bits = bit_width spread in
  if bits = 0 then (ids, tmp)
  else if Array.length counts = 0 then begin
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
    let dmax = bit_width (Array.length counts - 1) in
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

let add_row b pred cells w id =
  Buffer.add_string b pred;
  Buffer.add_char b '(';
  for j = 0 to w - 1 do
    if j > 0 then Buffer.add_string b ", ";
    let c = Array.unsafe_get cells ((id * w) + j) in
    if Relation.Cell.is_int c then Value.add_int b (c asr 1)
    else if Relation.Cell.is_sym c then Buffer.add_string b (Interner.resolve (Relation.Cell.sym_id c))
    else Value.add b (Relation.Cell.decode c)
  done;
  Buffer.add_string b ").\n"

(* Keys are computed for every id below the bound, dead ones included
   (a removed row's cells are still in place, and its key never reaches
   the sort): only the live ids are sorted and printed. *)
let add_relation b pred r =
  let w = Relation.arity r and n = Relation.cardinal r and cells = Relation.cells r in
  let bound = Relation.id_bound r in
  if n > 0 then begin
    let top_sym = ref (-1) in
    for i = 0 to (bound * w) - 1 do
      let c = Array.unsafe_get cells i in
      if Relation.Cell.is_sym c && Relation.Cell.sym_id c > !top_sym then
        top_sym := Relation.Cell.sym_id c
    done;
    let ord = Interner.ranks (!top_sym + 1) in
    let live =
      if n = bound then Array.init n Fun.id
      else begin
        let ids = Array.make n 0 and k = ref 0 in
        for id = 0 to bound - 1 do
          if Relation.is_live r id then begin
            ids.(!k) <- id;
            incr k
          end
        done;
        ids
      end
    in
    let ids = ref live and tmp = ref (Array.make n 0) in
    let keys = Array.make bound 0 in
    (* about one bucket per row, and none for a few rows *)
    let counts = if n < 16 then [||] else Array.make (1 lsl min 16 (bit_width n - 1)) 0 in
    for j = w - 1 downto 0 do
      let lo, spread = column_keys keys cells bound w j ord in
      let sorted, spare = sort_by_keys !ids !tmp counts keys lo spread n in
      ids := sorted;
      tmp := spare
    done;
    Array.iter (add_row b pred cells w) !ids
  end

let render ?preds:chosen db =
  let preds = match chosen with Some ps -> ps | None -> List.sort String.compare (preds db) in
  let b = Buffer.create 1024 in
  List.iter (fun pred -> Option.iter (add_relation b pred) (find db pred)) preds;
  Buffer.contents b

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
    if Relation.Cell.is_int c then absorb_int st (c asr 1)
    else if Relation.Cell.is_sym c then absorb_interned st tag_sym (Relation.Cell.sym_id c)
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
