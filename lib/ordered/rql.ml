type 'k class_state = Used | Live of int (* live entry id *)

type stats = {
  inserted : int;
  shadowed : int;
  stale : int;
  invalid : int;
  used : int;
  max_queue : int;
}

(* The queue [Q]: a binary heap over the (cost, insertion id) total
   order — ids are unique, so ties pop first-in first-out.  Entries
   live in two parallel arrays and the sift loops are top-level
   recursions over plain integers, so a push or pop allocates nothing
   beyond amortized array growth. *)
type 'f flat = {
  mutable ff : 'f array;  (* facts, heap-ordered *)
  mutable fi : int array;  (* insertion ids, the cost tie-break *)
  mutable fn : int;
  mutable f_popped_id : int;  (* id of the last [flat_pop] result *)
}

type ('f, 'k) t = {
  key : 'f -> 'k;
  cost_cmp : 'f -> 'f -> int;
  stage : 'f -> int;
  shadow : bool;
  newer_wins : bool;
  classes : ('k, 'k class_state * 'f) Hashtbl.t;
  flat : 'f flat;
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
  let c = cmp fl.ff.(i) fl.ff.(j) in
  c < 0 || (c = 0 && fl.fi.(i) < fl.fi.(j))

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

let flat_push cmp fl fact id =
  let cap = Array.length fl.ff in
  if fl.fn = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nff = Array.make ncap fact in
    let nfi = Array.make ncap 0 in
    Array.blit fl.ff 0 nff 0 fl.fn;
    Array.blit fl.fi 0 nfi 0 fl.fn;
    fl.ff <- nff;
    fl.fi <- nfi
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

let create ?(shadow = true) ?(newer_wins = false) ~key ~cost_cmp ?(stage = fun _ -> 0) () =
  { key; cost_cmp; stage; shadow; newer_wins;
    classes = Hashtbl.create 64;
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
    let k = t.key fact in
    match Hashtbl.find_opt t.classes k with
    | Some (Used, _) -> t.s_shadowed <- t.s_shadowed + 1
    | Some (Live _, incumbent) ->
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
        let id = push_live t fact in
        Hashtbl.replace t.classes k (Live id, fact)
      end
      else t.s_shadowed <- t.s_shadowed + 1
    | None ->
      let id = push_live t fact in
      Hashtbl.replace t.classes k (Live id, fact)
  end

(* Retrieval: tail-recursive with no result cells (a queue full of
   stale or invalid entries cannot blow the stack), the congruence key
   is only computed when shadowing is on, and the pop itself does not
   allocate. *)
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
      let id = fl.f_popped_id in
      let k = t.key fact in
      let is_live =
        match Hashtbl.find_opt t.classes k with
        | Some (Live live_id, _) -> live_id = id
        | Some (Used, _) | None -> false
      in
      if not is_live then begin
        t.s_stale <- t.s_stale + 1;
        retrieve_flat t fl ~valid
      end
      else begin
        t.live <- t.live - 1;
        if valid fact then begin
          t.s_used <- t.s_used + 1;
          Hashtbl.replace t.classes k (Used, fact);
          Some fact
        end
        else begin
          t.s_invalid <- t.s_invalid + 1;
          Hashtbl.remove t.classes k;
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
