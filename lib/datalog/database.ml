type t = {
  relations : (string, Relation.t) Hashtbl.t;
  mutable order : string list; (* creation order, reversed *)
}

let create () = { relations = Hashtbl.create 32; order = [] }

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
    r

let find db pred = Hashtbl.find_opt db.relations pred

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
  Hashtbl.replace db.relations name r

let remove_relation db name =
  Hashtbl.remove db.relations name;
  db.order <- List.filter (fun p -> not (String.equal p name)) db.order

let copy db =
  let relations = Hashtbl.create 32 in
  Hashtbl.iter (fun name r -> Hashtbl.add relations name (Relation.copy r)) db.relations;
  { relations; order = db.order }

let facts_of db pred =
  match find db pred with None -> [] | Some r -> Relation.to_list r

(* ---------------- canonical printing ---------------- *)

(* Rows sort on their cells in [Value.compare] order: equal cells are
   equal values and inline ints order as their cells do, so only other
   cells are decoded.  The order depends on the fact set only, never on
   insertion history. *)
let add_relation b pred r =
  let w = Relation.arity r and cells = Relation.cells r in
  let rec compare_rows x y j =
    if j = w then 0
    else
      let cx = cells.((x * w) + j) and cy = cells.((y * w) + j) in
      if cx = cy then compare_rows x y (j + 1)
      else if Relation.Cell.is_int cx && Relation.Cell.is_int cy then Int.compare cx cy
      else Value.compare (Relation.Cell.decode cx) (Relation.Cell.decode cy)
  in
  let ids = Array.init (Relation.cardinal r) Fun.id in
  Array.stable_sort (fun x y -> compare_rows x y 0) ids;
  Array.iter
    (fun id ->
      Value.add b (Value.App (pred, List.init w (Relation.read r id)));
      Buffer.add_string b ".\n")
    ids

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

let digest db =
  let sum = { a = 0; b = 0 } and st = { a = 0; b = 0 } in
  Hashtbl.iter
    (fun pred r ->
      let w = Relation.arity r in
      let head = { a = seed_a; b = seed_b } in
      absorb_text head (hash_text pred);
      absorb head w;
      let cells = Relation.cells r in
      for i = 0 to Relation.cardinal r - 1 do
        st.a <- head.a;
        st.b <- head.b;
        for j = i * w to (i * w) + w - 1 do
          let c = Array.unsafe_get cells j in
          if Relation.Cell.is_int c then absorb_int st (c asr 1)
          else if Relation.Cell.is_sym c then absorb_interned st tag_sym (Relation.Cell.sym_id c)
          else absorb_value st (Relation.Cell.decode c)
        done;
        sum.a <- sum.a + st.a;
        sum.b <- sum.b + st.b
      done)
    db.relations;
  Printf.sprintf "mset1:%016x%016x" sum.a sum.b
