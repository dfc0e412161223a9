type stats = {
  inserted : int;
  shadowed : int;
  stale : int;
  invalid : int;
  used : int;
  max_queue : int;
}

(* Facts are ints (the staged engine's source row ids), so every array
   below is an int array: writes need no write barrier, and nothing is
   boxed. *)

(* The queue [Q]: a binary heap over the (cost, insertion id) total
   order — ids are unique, so ties pop first-in first-out.  Entries
   live in two parallel arrays and the sift loops are top-level
   recursions over plain integers, so a push or pop allocates nothing
   beyond amortized array growth. *)
type flat = {
  mutable ff : int array;  (* facts, heap-ordered *)
  mutable fi : int array;  (* insertion ids, the cost tie-break *)
  mutable fn : int;
  mutable f_popped_id : int;  (* id of the last [flat_pop] result *)
}

(* The congruence classes: an open-addressing table over the classes'
   representative facts.  A class's key is [width] ints of its facts,
   read through [key]: no key is built or stored, a slot is compared by
   reading its representative's key.  Power-of-two sizes, linear
   probing, at most half full.  Slot [i] is the pair [2i] (the
   representative) and [2i + 1] (the state): [empty], [reopened] (an
   invalid pop reopened the class: it keeps its slot, and is absent
   until a fact of its key comes again), [used] (the class is in [L]),
   or the insertion id of the class's live queue entry. *)
type classes = {
  mutable cl : int array;
  mutable cl_taken : int;  (* slots not [empty] *)
}

let empty = -3
let reopened = -2
let used = -1

type t = {
  width : int;
  key : int -> int -> int;
  cost_cmp : int -> int -> int;
  stage : int -> int;
  shadow : bool;
  newer_wins : bool;
  classes : classes;
  flat : flat;
  mutable live : int;
  mutable next_id : int;
  mutable s_inserted : int;
  mutable s_shadowed : int;
  mutable s_stale : int;
  mutable s_invalid : int;
  mutable s_used : int;
  mutable s_max_queue : int;
}

(* Flat-heap primitives.  Explicit arguments on the sift recursions:
   a nested [let rec] capturing its surroundings would allocate a
   closure per operation, defeating the point. *)
let flat_less cmp fl i j =
  let c = cmp (Array.unsafe_get fl.ff i) (Array.unsafe_get fl.ff j) in
  c < 0 || (c = 0 && Array.unsafe_get fl.fi i < Array.unsafe_get fl.fi j)

let flat_swap fl i j =
  let f = fl.ff.(i) and d = fl.fi.(i) in
  fl.ff.(i) <- fl.ff.(j);
  fl.fi.(i) <- fl.fi.(j);
  fl.ff.(j) <- f;
  fl.fi.(j) <- d

let rec flat_up cmp fl i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if flat_less cmp fl i p then begin
      flat_swap fl i p;
      flat_up cmp fl p
    end
  end

let rec flat_down cmp fl i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < fl.fn && flat_less cmp fl l i then l else i in
  let s = if r < fl.fn && flat_less cmp fl r s then r else s in
  if s <> i then begin
    flat_swap fl s i;
    flat_down cmp fl s
  end

let grow (a : int array) n =
  let b = Array.make (if n = 0 then 16 else 2 * n) 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let flat_push cmp fl fact id =
  if fl.fn = Array.length fl.ff then begin
    fl.ff <- grow fl.ff fl.fn;
    fl.fi <- grow fl.fi fl.fn
  end;
  fl.ff.(fl.fn) <- fact;
  fl.fi.(fl.fn) <- id;
  fl.fn <- fl.fn + 1;
  flat_up cmp fl (fl.fn - 1)

(* Caller checks [fl.fn > 0]. *)
let flat_pop cmp fl =
  let top = fl.ff.(0) in
  fl.f_popped_id <- fl.fi.(0);
  fl.fn <- fl.fn - 1;
  if fl.fn > 0 then begin
    fl.ff.(0) <- fl.ff.(fl.fn);
    fl.fi.(0) <- fl.fi.(fl.fn);
    flat_down cmp fl 0
  end;
  top

(* Class-table primitives, top-level recursions for the same reason. *)
let rec hash_key key f w h i = if i = w then h else hash_key key f w ((h * 1000003) lxor key f i) (i + 1)

let rec key_eq key a b w i = i = w || (key a i = key b i && key_eq key a b w (i + 1))

(* The slot of [fact]'s class in [cl], or the empty slot where it would
   go.  The low bits index the table, so every bit of the hash is
   spread down first. *)
let class_slot t cl fact =
  let mask = (Array.length cl / 2) - 1 in
  let h = hash_key t.key fact t.width 17 0 in
  let h = (h lxor (h lsr 32)) * 0x7fb5d329728ea185 in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while
    Array.unsafe_get cl ((2 * !i) + 1) <> empty
    && not (key_eq t.key (Array.unsafe_get cl (2 * !i)) fact t.width 0)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Room for one more class.  A rehash drops the reopened classes:
   absent is what they stand for. *)
let reserve t =
  let c = t.classes in
  let slots = Array.length c.cl / 2 in
  if 2 * (c.cl_taken + 1) > slots then begin
    let old = c.cl in
    let cl = Array.make (if slots = 0 then 128 else 4 * slots) empty in
    c.cl_taken <- 0;
    for i = 0 to slots - 1 do
      let st = old.((2 * i) + 1) in
      if st <> empty && st <> reopened then begin
        let j = class_slot t cl old.(2 * i) in
        cl.(2 * j) <- old.(2 * i);
        cl.((2 * j) + 1) <- st;
        c.cl_taken <- c.cl_taken + 1
      end
    done;
    c.cl <- cl
  end

let create ?(shadow = true) ?(newer_wins = false) ~width ~key ~cost_cmp ?(stage = fun _ -> 0) () =
  { width; key; cost_cmp; stage; shadow; newer_wins;
    classes = { cl = [||]; cl_taken = 0 };
    flat = { ff = [||]; fi = [||]; fn = 0; f_popped_id = 0 };
    live = 0; next_id = 0;
    s_inserted = 0; s_shadowed = 0; s_stale = 0; s_invalid = 0; s_used = 0;
    s_max_queue = 0 }

let bump_max t =
  if t.live > t.s_max_queue then t.s_max_queue <- t.live

let push_live t fact =
  let id = t.next_id in
  t.next_id <- id + 1;
  flat_push t.cost_cmp t.flat fact id;
  t.live <- t.live + 1;
  bump_max t;
  id

let insert t fact =
  t.s_inserted <- t.s_inserted + 1;
  if not t.shadow then ignore (push_live t fact)
  else begin
    reserve t;
    let cl = t.classes.cl in
    let i = class_slot t cl fact in
    let st = cl.((2 * i) + 1) in
    if st = used then t.s_shadowed <- t.s_shadowed + 1
    else if st >= 0 then begin
      let incumbent = cl.(2 * i) in
      let replaces =
        if t.newer_wins && t.stage fact > t.stage incumbent then true
        else if t.newer_wins && t.stage fact < t.stage incumbent then false
        else t.cost_cmp fact incumbent < 0
      in
      if replaces then begin
        (* The incumbent's queue entry becomes stale; it is skipped at
           pop time.  [live] counts it out immediately. *)
        t.live <- t.live - 1;
        t.s_shadowed <- t.s_shadowed + 1;
        cl.((2 * i) + 1) <- push_live t fact;
        cl.(2 * i) <- fact
      end
      else t.s_shadowed <- t.s_shadowed + 1
    end
    else begin
      if st = empty then t.classes.cl_taken <- t.classes.cl_taken + 1;
      cl.((2 * i) + 1) <- push_live t fact;
      cl.(2 * i) <- fact
    end
  end

(* Retrieval: tail-recursive with no result cells (a queue full of
   stale or invalid entries cannot blow the stack), the congruence
   class is only looked up when shadowing is on, and neither the pop
   nor the lookup allocates. *)
let rec retrieve_flat t fl ~valid =
  if fl.fn = 0 then None
  else begin
    let fact = flat_pop t.cost_cmp fl in
    if not t.shadow then begin
      (* Every fact is its own class: every pop is live. *)
      t.live <- t.live - 1;
      if valid fact then begin
        t.s_used <- t.s_used + 1;
        Some fact
      end
      else begin
        t.s_invalid <- t.s_invalid + 1;
        retrieve_flat t fl ~valid
      end
    end
    else begin
      let cl = t.classes.cl in
      let i = class_slot t cl fact in
      (* a live entry's state is its id, and ids are not negative *)
      if cl.((2 * i) + 1) <> fl.f_popped_id then begin
        t.s_stale <- t.s_stale + 1;
        retrieve_flat t fl ~valid
      end
      else begin
        t.live <- t.live - 1;
        if valid fact then begin
          t.s_used <- t.s_used + 1;
          cl.((2 * i) + 1) <- used;
          Some fact
        end
        else begin
          t.s_invalid <- t.s_invalid + 1;
          cl.((2 * i) + 1) <- reopened;
          retrieve_flat t fl ~valid
        end
      end
    end
  end

let retrieve_least t ~valid = retrieve_flat t t.flat ~valid

let queue_length t = t.live

let stats t =
  { inserted = t.s_inserted;
    shadowed = t.s_shadowed;
    stale = t.s_stale;
    invalid = t.s_invalid;
    used = t.s_used;
    max_queue = t.s_max_queue }
