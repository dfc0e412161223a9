(* Ahead-of-time compilation of planned rule bodies into closure
   chains — the one rule-body executor of the engines, incremental
   maintenance and the query paths.

   [Eval.compile_body] fixes the join order, the guard placement and
   the static bound-column masks; this module takes that plan and
   specializes it once per rule into straight-line closures over
   cells, the one-int-per-value encoding of {!Relation}:

   - the environment is an [int array] of cells: a scan binds by
     copying a row's cells, a repeated variable is an int compare, and
     heads are written as cells straight into the caller's buffer;
   - every per-row obligation (write, repeated-variable equality,
     structural match, arithmetic inversion) is resolved statically
     into a [rowop], so execution dispatches on a tiny opcode array
     instead of re-deriving bindings from [pterm]s per tuple;
   - index probes go through {!Relation.probe_ids}: a static mask plus
     a full-arity key of cells, computed once per probe and never
     encoded again;
   - relation lookup happens once per chain execution, not once per
     enclosing solution.

   A cell is decoded only where a value's meaning is needed: an order
   comparison or arithmetic on cells that are not inline ints (inline
   ints add and compare as they are), a compound term, and the
   decoded value programs ({!compile_value}) of the query edge, the
   aggregates and the FD tables.  A value computed in the body gets its
   cell through the term table ({!Relation.Cell.encode}); a probe key
   only looks its cell up ({!Relation.Cell.lookup}), so a failing probe
   never grows that table.

   The static binding analysis is exact because the caller promises to
   bind exactly the [bound] slots before {!run}, which is what every
   engine does with its [extra_bound] variables.  The chain executes
   the planned steps in order and enumerates rows in insertion order,
   like the reference executor [Eval.run]: its probe masks are the ones
   [Eval.run] computes at runtime, so both walk the same buckets.

   Chains hold private mutable buffers (environment, probe keys,
   resolved relations), so one instance must not be shared across
   concurrent executors: shards take a {!clone} (same static plan,
   fresh buffers) and run read-only via {!run_slice} or {!run_range}.

   A semi-naive delta variant compiles with [~range]: its delta
   occurrence becomes a range scan over the ids {!run_range} is given,
   read through [Relation.iter_range_ids]. *)

module E = Eval
module ISet = Set.Make (Int)
module Cell = Relation.Cell

type env = int array

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

let decode = Cell.decode

(* Does cell [c] hold an int, inline or wide — and which? *)
let holds_int c =
  Cell.is_int c || (Cell.is_term c && match decode c with Value.Int _ -> true | _ -> false)

let int_of c = if Cell.is_int c then c asr 1 else Value.as_int (decode c)

(* [Value.compare] on cells: inline ints compare as cells, symbols by
   interner rank, the rest decoded. *)
let compare_cells a b =
  if a land 1 = 0 && b land 1 = 0 then Int.compare a b
  else if a = b then 0
  else if Cell.is_sym a && Cell.is_sym b then Interner.compare_ids (Cell.sym_id a) (Cell.sym_id b)
  else Value.compare (decode a) (decode b)

let test_cmp (op : Ast.cmp_op) =
  match op with
  | Ast.Eq -> fun a b -> a = b
  | Ast.Ne -> fun a b -> a <> b
  | Ast.Lt -> fun a b -> compare_cells a b < 0
  | Ast.Le -> fun a b -> compare_cells a b <= 0
  | Ast.Gt -> fun a b -> compare_cells a b > 0
  | Ast.Ge -> fun a b -> compare_cells a b >= 0

(* Arithmetic on cells, the result's cell made by [fin] when it is not
   inline.  Two inline ints cannot overflow a native int when added or
   subtracted, so [Eval.apply_binop]'s overflow check is needed only
   on the decoded path, which every other case takes. *)
let binop_cells fin (op : Ast.binop) =
  let slow a b = fin (E.apply_binop op (decode a) (decode b)) in
  match op with
  | Ast.Add ->
    fun a b ->
      if a land 1 = 0 && b land 1 = 0 then
        let s = (a asr 1) + (b asr 1) in
        if Cell.inline s then s lsl 1 else fin (Value.Int s)
      else slow a b
  | Ast.Sub ->
    fun a b ->
      if a land 1 = 0 && b land 1 = 0 then
        let d = (a asr 1) - (b asr 1) in
        if Cell.inline d then d lsl 1 else fin (Value.Int d)
      else slow a b
  | Ast.Mul -> slow
  | Ast.Max -> fun a b -> if compare_cells a b >= 0 then a else b
  | Ast.Min -> fun a b -> if compare_cells a b <= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Compiled sub-programs                                               *)
(* ------------------------------------------------------------------ *)

(* All compiled closures take the environment as an argument, so a
   clone can share them and differ only in its buffers. *)

let rec has_unbound bound = function
  | E.PVar s -> not (ISet.mem s bound)
  | E.PCst _ -> false
  | E.PCmp (_, args) -> Array.exists (has_unbound bound) args
  | E.PBinop (_, a, b) -> has_unbound bound a || has_unbound bound b
  | E.PAny -> true

(* A statically unbound variable (or a wildcard) compiles to a raising
   closure — [Eval.run]'s runtime [Unsafe] on the same program, just
   decided earlier. *)
let unbound _ = raise (E.Unsafe "unbound variable in compiled term")

(* Evaluator of a pterm whose variables the static analysis proved
   bound, to its cell.  With [intern], a value no row holds yet enters
   the term table; without, its cell is one no row holds — for probe
   keys.  A compound term is built as a value; constants are encoded
   once, here. *)
let rec compile_cell ~intern bound (t : E.pterm) : env -> int =
  match t with
  | E.PVar s -> if ISet.mem s bound then fun env -> Array.unsafe_get env s else unbound
  | E.PCst c ->
    let k = Cell.encode c in
    fun _ -> k
  | E.PCmp _ ->
    let v = compile_value bound t in
    if intern then fun env -> Cell.encode (v env) else fun env -> Cell.lookup (v env)
  | E.PBinop (op, a, b) ->
    let ca = compile_cell ~intern:true bound a and cb = compile_cell ~intern:true bound b in
    let f = binop_cells (if intern then Cell.encode else Cell.lookup) op in
    fun env -> f (ca env) (cb env)
  | E.PAny -> unbound

(* The same evaluator, to the decoded value. *)
and compile_value bound (t : E.pterm) : env -> Value.t =
  match t with
  | E.PVar s -> if ISet.mem s bound then fun env -> decode env.(s) else unbound
  | E.PCst c -> fun _ -> c
  | E.PCmp (f, args) ->
    let progs = Array.map (compile_value bound) args in
    let n = Array.length progs in
    let eval_args env =
      let rec go i = if i = n then [] else progs.(i) env :: go (i + 1) in
      go 0
    in
    if f = "" then fun env -> Value.Tup (eval_args env)
    else fun env -> Value.App (f, eval_args env)
  | E.PBinop (op, a, b) ->
    let ea = compile_value bound a and eb = compile_value bound b in
    fun env -> E.apply_binop op (ea env) (eb env)
  | E.PAny -> unbound

(* A comparison of two bound pterms.  Cells compare as values, except
   that a compound side is compared decoded: its cell would have to
   enter the term table first. *)
let compile_test bound ((op, x, y) : E.guard) : env -> bool =
  match x, y with
  | E.PCmp _, _ | _, E.PCmp _ ->
    let ex = compile_value bound x and ey = compile_value bound y in
    fun env -> E.test_cmp op (ex env) (ey env)
  | _ ->
    let ex = compile_cell ~intern:true bound x and ey = compile_cell ~intern:true bound y in
    let cmp = test_cmp op in
    fun env -> cmp (ex env) (ey env)

(* The slots bound once [t] matched, given [bound]: what the matcher
   [compile_match] compiles writes.  The bound sets of a chain's steps
   come from here alone. *)
let rec match_bound ~inversion bound (t : E.pterm) =
  match t with
  | E.PAny | E.PCst _ -> bound
  | E.PVar s -> ISet.add s bound
  | E.PCmp (_, args) -> Array.fold_left (match_bound ~inversion) bound args
  | E.PBinop (op, a, b) -> (
    if (not inversion) || not (has_unbound bound t) then bound
    else
      match op with
      | Ast.Add | Ast.Sub ->
        if not (has_unbound bound a) then match_bound ~inversion bound b
        else if not (has_unbound bound b) then match_bound ~inversion bound a
        else bound
      | _ -> bound)

(* Matcher of a pterm against a ground cell, binding statically
   unbound slots in place.  This is [Eval]'s [match_pterm] with the
   dynamic bound checks replayed at compile time; [inversion] selects
   between [match_pterm] semantics (scans, unifications — Add/Sub
   equations can bind their one unbound side) and binder semantics
   (engine-side row binding — partially bound arithmetic never
   matches).  No trail: stale writes from a failed row are invisible
   because a statically-unbound slot is never read before the next
   write.  A compound pattern matches the decoded value
   ([match_value]). *)
let rec compile_match ~inversion bound (t : E.pterm) : env -> int -> bool =
  match t with
  | E.PAny -> fun _ _ -> true
  | E.PVar s ->
    if ISet.mem s bound then fun env c -> Array.unsafe_get env s = c
    else fun env c ->
      Array.unsafe_set env s c;
      true
  | E.PCst k ->
    let k = Cell.encode k in
    fun _ c -> c = k
  | E.PCmp _ ->
    let m = match_value ~inversion bound t in
    fun env c -> Cell.is_term c && m env (decode c)
  | E.PBinop (op, a, b) ->
    if not (has_unbound bound t) then
      let ev = compile_cell ~intern:false bound t in
      fun env c -> ev env = c
    else if not inversion then fun _ _ -> false
    else (
      (* Invert simple integer arithmetic so that equations like
         [I = J + 1] can bind [J] when [I] is already known — exactly
         [Eval]'s [match_pterm] cases. *)
      let invert known pat solve =
        let ek = compile_cell ~intern:true bound known in
        let m = compile_match ~inversion bound pat in
        fun env c ->
          holds_int c
          &&
          let k = ek env in
          holds_int k && m env (Cell.of_int (solve (int_of c) (int_of k)))
      in
      match op with
      | Ast.Add ->
        if not (has_unbound bound a) then invert a b (fun s x -> s - x)
        else if not (has_unbound bound b) then invert b a (fun s y -> s - y)
        else fun _ _ -> false
      | Ast.Sub ->
        if not (has_unbound bound a) then invert a b (fun s x -> x - s)
        else if not (has_unbound bound b) then invert b a (fun s y -> s + y)
        else fun _ _ -> false
      | _ -> fun _ _ -> false)

(* The same matcher against a decoded value: a part of a compound
   cell.  Anything but a compound or a constant pattern matches the
   part's cell. *)
and match_value ~inversion bound (t : E.pterm) : env -> Value.t -> bool =
  match t with
  | E.PAny -> fun _ _ -> true
  | E.PCst c -> fun _ v -> Value.equal c v
  | E.PCmp (f, args) ->
    let n = Array.length args in
    let bound = ref bound in
    let ms =
      Array.map
        (fun a ->
          let m = match_value ~inversion !bound a in
          bound := match_bound ~inversion !bound a;
          m)
        args
    in
    let match_list env vs =
      List.length vs = n
      &&
      let rec go i = function
        | [] -> true
        | v :: rest -> ms.(i) env v && go (i + 1) rest
      in
      go 0 vs
    in
    if f = "" then fun env v ->
      match v with Value.Tup vs -> match_list env vs | _ -> false
    else fun env v -> (
      match v with
      | Value.App (g, vs) when String.equal f g -> match_list env vs
      | _ -> false)
  | E.PVar _ | E.PBinop _ ->
    let m = compile_match ~inversion bound t in
    fun env v -> m env (Cell.encode v)

(* ------------------------------------------------------------------ *)
(* Compiled scans                                                      *)
(* ------------------------------------------------------------------ *)

(* What is left to do per enumerated row, positions ascending — the
   statically-unrolled residue of [match_row] after the index probe
   guaranteed every masked column. *)
type rowop =
  | WVar of int * int  (** [env.(slot) <- row.(pos)] — first occurrence *)
  | REq of int * int  (** [row.(pos)] must equal [env.(slot)] — repeat *)
  | RSame of int * int
      (** [row.(pos)] must equal [row.(pos')], the column that bound the
          variable — a repeat within the atom *)
  | RMatch of int * (env -> int -> bool)  (** structural match-bind *)

type cscan = {
  cs_pred : string;
  cs_arity : int;
  cs_mask : int;
  cs_key : int array;  (* full-arity cell probe; constants prefilled *)
  cs_kvars : (int * int) array;  (* key positions copied from a slot *)
  cs_kfill : (int * (env -> int)) array;  (* key positions computed *)
  cs_ops : rowop array;
  cs_writes : int array;  (* = the ops when they are all writes: position, slot, ... *)
  cs_all_writes : bool;
  mutable cs_rel : Relation.t option;
  mutable cs_cells : int array;
      (* the relation's cells as of the current probe: they hold every
         row the probe visits, whatever it appends meanwhile *)
  mutable cs_lo : int;  (* a range scan's ids: [cs_lo, cs_hi) *)
  mutable cs_hi : int;
}

type cstep =
  | CScan of cscan
  | CRange of cscan  (* the live ids of a set range, masked columns compared as cells *)
  | CNeg of cscan * (env -> bool) array
  | CTest of (env -> bool)
  | CUnify of (env -> int) * (env -> int -> bool)

let build_scan bound (sc : E.scan) =
  let mask = sc.E.sc_mask in
  let key = Array.make sc.E.sc_arity 0 in
  let kvars = ref [] and kfill = ref [] in
  let ops = ref [] in
  let bound = ref bound in
  for p = 0 to sc.E.sc_arity - 1 do
    let t = sc.E.sc_args.(p) in
    if mask land (1 lsl p) <> 0 then (
      match t with
      | E.PCst c -> key.(p) <- Cell.encode c
      | E.PVar s when ISet.mem s !bound -> kvars := (p, s) :: !kvars
      | _ -> kfill := (p, compile_cell ~intern:false !bound t) :: !kfill)
    else begin
      (match t with
      | E.PVar s ->
        ops :=
          (if not (ISet.mem s !bound) then WVar (p, s)
           else
             match List.find_opt (function WVar (_, s') -> s' = s | _ -> false) !ops with
             | Some (WVar (q, _)) -> RSame (p, q)
             | _ -> REq (p, s))
          :: !ops
      | E.PCmp _ | E.PBinop _ -> ops := RMatch (p, compile_match ~inversion:true !bound t) :: !ops
      | E.PCst _ | E.PAny -> assert false (* constants are always masked *));
      bound := match_bound ~inversion:true !bound t
    end
  done;
  let ops = Array.of_list (List.rev !ops) in
  let writes =
    Array.of_list
      (List.concat_map (function WVar (p, s) -> [ p; s ] | _ -> []) (Array.to_list ops))
  in
  let all_writes = Array.length writes = 2 * Array.length ops in
  ( { cs_pred = sc.E.sc_pred;
      cs_arity = sc.E.sc_arity;
      cs_mask = mask;
      cs_key = key;
      cs_kvars = Array.of_list (List.rev !kvars);
      cs_kfill = Array.of_list (List.rev !kfill);
      cs_ops = ops;
      cs_writes = writes;
      cs_all_writes = all_writes;
      cs_rel = None;
      cs_cells = [||];
      cs_lo = 0;
      cs_hi = 0 },
    !bound )

(* The slots bound after a scan, and after a step, given those bound
   before it: what [build_scan] threads, without building the scan. *)
let scan_bound bound (sc : E.scan) =
  let b = ref bound in
  Array.iteri
    (fun p t -> if sc.E.sc_mask land (1 lsl p) = 0 then b := match_bound ~inversion:true !b t)
    sc.E.sc_args;
  !b

let step_bound bound (s : E.step) =
  match s with
  | E.SScan sc -> scan_bound bound sc
  | E.SNeg _ | E.STest _ -> bound
  | E.SUnify (pat, _) -> match_bound ~inversion:true bound pat

(* The statically-unrolled residue of [match_row] per enumerated row,
   over the row's cells at [off]: no row tuple is ever materialized and
   nothing is decoded. *)
let rec ops_ok env (ops : rowop array) cells off j =
  j = Array.length ops
  || (match Array.unsafe_get ops j with
     | WVar (p, s) ->
       Array.unsafe_set env s (Array.unsafe_get cells (off + p));
       true
     | REq (p, s) -> Array.unsafe_get env s = Array.unsafe_get cells (off + p)
     | RSame (p, q) -> Array.unsafe_get cells (off + p) = Array.unsafe_get cells (off + q)
     | RMatch (p, m) -> m env (Array.unsafe_get cells (off + p)))
     && ops_ok env ops cells off (j + 1)

let rec guards_ok env (gs : (env -> bool) array) j =
  j = Array.length gs || (gs.(j) env && guards_ok env gs (j + 1))

let fill_key env cs =
  let key = cs.cs_key in
  let kv = cs.cs_kvars in
  for j = 0 to Array.length kv - 1 do
    let p, s = Array.unsafe_get kv j in
    Array.unsafe_set key p (Array.unsafe_get env s)
  done;
  let kf = cs.cs_kfill in
  for j = 0 to Array.length kf - 1 do
    let p, e = Array.unsafe_get kf j in
    Array.unsafe_set key p (e env)
  done

let probe ~ro rel cs f =
  cs.cs_cells <- Relation.cells rel;
  if ro then Relation.probe_ids_ro rel cs.cs_mask cs.cs_key f
  else Relation.probe_ids rel cs.cs_mask cs.cs_key f

(* Does some row of the negated relation match?  Boolean only, so
   enumeration order inside is free; the probe mask is still the
   static one, so no index is built that [Eval.run] would not build. *)
let neg_fails ~ro env cs guards =
  match cs.cs_rel with
  | None -> false
  | Some rel ->
    fill_key env cs;
    let hit = ref false in
    let visit id =
      if ops_ok env cs.cs_ops cs.cs_cells (id * cs.cs_arity) 0 && guards_ok env guards 0
      then begin
        hit := true;
        raise Exit
      end
    in
    (try probe ~ro rel cs visit with Exit -> ());
    !hit

(* ------------------------------------------------------------------ *)
(* Chains                                                              *)
(* ------------------------------------------------------------------ *)

(* What a chain is built from, and nothing it builds: the steps and the
   slot count, the bound slots and the range flag, and the slots bound
   at the end of the body, which the engine-side programs below are
   compiled against.  A program cache holds many plans, so they are
   kept small: the slot table only served compilation, the scans'
   kernel writes and reads only serve [Eval.run], and small variables
   share one block each. *)
type plan = { p_body : E.body; p_bound : int list; p_range : bool; p_bound_end : ISet.t }

let shared_vars = Array.init 64 (fun s -> E.PVar s)

let rec share (t : E.pterm) =
  match t with
  | E.PVar s when s < Array.length shared_vars -> shared_vars.(s)
  | E.PCmp (f, args) -> E.PCmp (f, Array.map share args)
  | E.PBinop (op, a, b) -> E.PBinop (op, share a, share b)
  | E.PVar _ | E.PCst _ | E.PAny -> t

let share_scan (sc : E.scan) =
  { sc with E.sc_args = Array.map share sc.E.sc_args; sc_writes = [||]; sc_reads = [||] }

let no_slots : (string, int) Hashtbl.t = Hashtbl.create 1

let plan ?(bound = []) ?(range = false) (body : E.body) =
  let step : E.step -> E.step = function
    | E.SScan sc -> E.SScan (share_scan sc)
    | E.SNeg (sc, gs) -> E.SNeg (share_scan sc, List.map (fun (op, x, y) -> (op, share x, share y)) gs)
    | E.STest (op, x, y) -> E.STest (op, share x, share y)
    | E.SUnify (x, y) -> E.SUnify (share x, share y)
  in
  let steps = Array.map step body.E.steps in
  { p_body = { E.steps; slots = no_slots; nvars = body.E.nvars };
    p_bound = bound;
    p_range = range;
    p_bound_end = Array.fold_left step_bound (ISet.of_list bound) steps }

type t = {
  c_plan : plan;
  c_env : env;
  c_steps : cstep array;
  c_range : cscan option;
  c_kont : (unit -> unit) ref;
  c_entry : unit -> unit;  (* read-write executor over all steps *)
  c_ro_entry : (unit -> unit) Lazy.t;  (* read-only, over all steps *)
  c_slice_entry : (Relation.slice -> int -> int -> unit) Lazy.t;  (* read-only, step 0 from a slice *)
}

let noop () = ()

let instance p =
  let bound = ref (ISet.of_list p.p_bound) in
  let range_left = ref p.p_range in
  let steps =
    Array.map
      (fun (s : E.step) ->
        match s with
        | E.SScan sc ->
          let cs, b = build_scan !bound sc in
          bound := b;
          if !range_left then begin
            range_left := false;
            CRange cs
          end
          else CScan cs
        | E.SNeg (sc, guards) ->
          (* Locals bind inside the negation only: thread the scan's
             bound set into the guards, then forget it. *)
          let cs, b = build_scan !bound sc in
          CNeg (cs, Array.of_list (List.map (compile_test b) guards))
        | E.STest (op, x, y) -> CTest (compile_test !bound (op, x, y))
        | E.SUnify (pat, ground) ->
          let eg = compile_cell ~intern:true !bound ground in
          let m = compile_match ~inversion:true !bound pat in
          bound := match_bound ~inversion:true !bound pat;
          CUnify (eg, m))
      p.p_body.E.steps
  in
  let env = Array.make (max 1 p.p_body.E.nvars) 0 in
  let kont = ref noop in
  let n = Array.length steps in
  (* visit closures are preallocated; they read [cs_cells], set before
     iteration starts *)
  let visit_of cs next =
    let w = cs.cs_arity in
    if cs.cs_all_writes then begin
      let writes = cs.cs_writes in
      let nw = Array.length writes / 2 in
      fun id ->
        let cells = cs.cs_cells and off = id * w in
        for j = 0 to nw - 1 do
          Array.unsafe_set env
            (Array.unsafe_get writes ((2 * j) + 1))
            (Array.unsafe_get cells (off + Array.unsafe_get writes (2 * j)))
        done;
        next ()
    end
    else begin
      let ops = cs.cs_ops in
      fun id -> if ops_ok env ops cs.cs_cells (id * w) 0 then next ()
    end
  in
  let rec build ~ro i : unit -> unit =
    if i >= n then fun () -> !kont ()
    else
      let next = build ~ro (i + 1) in
      match steps.(i) with
      | CScan cs ->
        let visit = visit_of cs next in
        fun () -> (
          match cs.cs_rel with
          | None -> ()
          | Some rel ->
            fill_key env cs;
            probe ~ro rel cs visit)
      | CRange cs ->
        let visit = visit_of cs next in
        fun () -> (
          match cs.cs_rel with
          | None -> ()
          | Some rel ->
            fill_key env cs;
            cs.cs_cells <- Relation.cells rel;
            Relation.iter_range_ids rel cs.cs_lo cs.cs_hi cs.cs_mask cs.cs_key visit)
      | CNeg (cs, gs) -> fun () -> if not (neg_fails ~ro env cs gs) then next ()
      | CTest t -> fun () -> if t env then next ()
      | CUnify (eg, m) -> fun () -> if m env (eg env) then next ()
  in
  let slice_entry =
    lazy
      (match steps with
      | [||] -> fun _ _ _ -> invalid_arg "Compile.run_slice: chain does not start with a scan"
      | _ -> (
        match steps.(0) with
        | CScan cs ->
          let visit = visit_of cs (build ~ro:true 1) in
          fun sl lo hi ->
            (match cs.cs_rel with Some rel -> cs.cs_cells <- Relation.cells rel | None -> ());
            Relation.slice_iter_ids sl lo hi visit
        | _ -> fun _ _ _ -> invalid_arg "Compile.run_slice: chain does not start with a scan"))
  in
  { c_plan = p;
    c_env = env;
    c_steps = steps;
    c_range = Array.find_map (function CRange cs -> Some cs | _ -> None) steps;
    c_kont = kont;
    c_entry = build ~ro:false 0;
    c_ro_entry = lazy (build ~ro:true 0);
    c_slice_entry = slice_entry }

let of_body ?bound ?range body = instance (plan ?bound ?range body)
let clone t = instance t.c_plan
let env t = t.c_env
let set_slot t s c = t.c_env.(s) <- c

let find_rel db cs =
  match Database.find db cs.cs_pred with
  | None -> None
  | Some rel ->
    if Relation.arity rel <> cs.cs_arity then
      invalid_arg
        (Printf.sprintf "predicate %s used with arity %d and %d" cs.cs_pred (Relation.arity rel)
           cs.cs_arity);
    Some rel

(* Relation resolution happens once per execution: engines collect
   solutions first and insert afterwards, so the database's relation
   map is stable while a chain runs. *)
let resolve t db =
  Array.iter
    (function
      | CScan cs | CRange cs | CNeg (cs, _) -> cs.cs_rel <- find_rel db cs
      | CTest _ | CUnify _ -> ())
    t.c_steps

let run_resolved t k =
  t.c_kont := k;
  t.c_entry ();
  t.c_kont := noop

let run t db k =
  resolve t db;
  run_resolved t k

let run_range t ~ro lo hi k =
  match t.c_range with
  | Some cs ->
    cs.cs_lo <- lo;
    cs.cs_hi <- hi;
    t.c_kont := k;
    (if ro then Lazy.force t.c_ro_entry else t.c_entry) ();
    t.c_kont := noop
  | None -> invalid_arg "Compile.run_range: chain has no range scan"

let shardable t =
  Array.length t.c_steps > 0 && match t.c_steps.(0) with CScan _ -> true | _ -> false

(* Build (sequentially, before a parallel region) every index the
   shards' read-only probes will hit, keyed by the static masks. *)
let prepare_indexes t db =
  Array.iter
    (function
      | CScan cs | CNeg (cs, _) -> (
        if cs.cs_mask <> 0 then
          match find_rel db cs with
          | Some rel -> Relation.ensure_index rel cs.cs_mask
          | None -> ())
      | CRange _ | CTest _ | CUnify _ -> ())
    t.c_steps

let shard_scan t db =
  if Array.length t.c_steps = 0 then invalid_arg "Compile.shard_scan: empty chain"
  else
    match t.c_steps.(0) with
    | CScan cs -> (
      cs.cs_rel <- find_rel db cs;
      match cs.cs_rel with
      | None -> None
      | Some rel ->
        fill_key t.c_env cs;
        Some (Relation.slice_cols rel cs.cs_mask cs.cs_key))
    | _ -> invalid_arg "Compile.shard_scan: chain does not start with a scan"

let run_slice t db sl lo hi k =
  resolve t db;
  t.c_kont := k;
  (Lazy.force t.c_slice_entry) sl lo hi;
  t.c_kont := noop

(* ------------------------------------------------------------------ *)
(* Engine-side programs over a chain's environment                     *)
(* ------------------------------------------------------------------ *)

type cell_prog = env -> int
type value_prog = env -> Value.t

let compile_cell p ct = compile_cell ~intern:true p.p_bound_end ct
let compile_value p ct = compile_value p.p_bound_end ct

(* A head row: position [j] copies slot [slots.(j)] when that is not
   negative — a plain variable, the common case — and runs
   [progs.(j)] otherwise. *)
type row = { slots : int array; progs : cell_prog array }

let compile_row p cts =
  { slots = Array.map (function E.PVar s when ISet.mem s p.p_bound_end -> s | _ -> -1) cts;
    progs = Array.map (compile_cell p) cts }

let row_width r = Array.length r.slots

let write_row r env dst off =
  let slots = r.slots in
  for j = 0 to Array.length slots - 1 do
    let s = Array.unsafe_get slots j in
    dst.(off + j) <- (if s >= 0 then Array.unsafe_get env s else r.progs.(j) env)
  done

let row_cells r env =
  let out = Array.make (row_width r) 0 in
  write_row r env out 0;
  out

(* Rows of one width, appended cell by cell into one growable array
   that is kept across uses. *)
type rows = { width : int; mutable cells : int array; mutable n : int }

let rows_create width = { width; cells = [||]; n = 0 }
let clear_rows rows = rows.n <- 0

let emit rows r env =
  let w = rows.width in
  let need = (rows.n + 1) * w in
  if need > Array.length rows.cells then begin
    let bigger = Array.make (max (16 * w) (2 * need)) 0 in
    Relation.blit_cells rows.cells 0 bigger 0 (rows.n * w);
    rows.cells <- bigger
  end;
  write_row r env rows.cells (rows.n * w);
  rows.n <- rows.n + 1

(* Add the rows to [rel], last to first, and forget them; returns how
   many were new. *)
let add_rows_rev rel rows =
  let added = ref 0 in
  for i = rows.n - 1 downto 0 do
    if Relation.add_cells rel rows.cells (i * rows.width) then incr added
  done;
  rows.n <- 0;
  !added

type binder = (env -> int -> bool) array

(* No arithmetic inversion, no trail. *)
let compile_binder ~bound cts =
  let b = ref (ISet.of_list bound) in
  Array.map
    (fun ct ->
      let m = compile_match ~inversion:false !b ct in
      b := match_bound ~inversion:false !b ct;
      m)
    cts

let rec bind_from (bdr : binder) env cells off i =
  i = Array.length bdr
  || (bdr.(i) env (Array.unsafe_get cells (off + i)) && bind_from bdr env cells off (i + 1))

let bind_id (bdr : binder) env rel id =
  let w = Relation.arity rel in
  w = Array.length bdr && bind_from bdr env (Relation.cells rel) (id * w) 0

let solutions body db outs =
  let p = plan body in
  let t = instance p in
  let progs = Array.map (compile_value p) (E.compile_terms body outs) in
  let acc = ref [] in
  run t db (fun () -> acc := Array.to_list (Array.map (fun p -> p t.c_env) progs) :: !acc);
  List.rev !acc
