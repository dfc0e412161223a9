(* Ahead-of-time compilation of planned rule bodies into closure
   chains — the one rule-body executor of the engines, incremental
   maintenance and the query paths.

   [Eval.compile_body] fixes the join order, the guard placement and
   the static bound-column masks; this module takes that plan and
   specializes it once per rule into straight-line closures:

   - the environment is a plain [Value.t array] — no [Some] box per
     binding;
   - every per-row obligation (write, repeated-variable equality,
     structural match, arithmetic inversion) is resolved statically
     into a [rowop], so execution dispatches on a tiny opcode array
     instead of re-deriving bindings from [pterm]s per tuple;
   - index probes go through {!Relation.iter_matching_cols}: a static
     mask plus a reusable full-arity key buffer, no option pattern;
   - relation lookup happens once per chain execution, not once per
     enclosing solution.

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

type env = Value.t array

let test_cmp (op : Ast.cmp_op) a b =
  let c = Value.compare a b in
  match op with
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0

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

(* Evaluator of a pterm whose variables the static analysis proved
   bound.  A statically unbound variable (or a wildcard) compiles to a
   raising closure — [Eval.run]'s runtime [Unsafe] on the same
   program, just decided earlier. *)
let rec compile_eval bound (t : E.pterm) : env -> Value.t =
  match t with
  | E.PVar s ->
    if ISet.mem s bound then fun env -> env.(s)
    else fun _ -> raise (E.Unsafe "unbound variable in compiled term")
  | E.PCst c -> fun _ -> c
  | E.PCmp (f, args) ->
    let progs = Array.map (compile_eval bound) args in
    let n = Array.length progs in
    let eval_args env =
      let rec go i = if i = n then [] else progs.(i) env :: go (i + 1) in
      go 0
    in
    if f = "" then fun env -> Value.Tup (eval_args env)
    else fun env -> Value.App (f, eval_args env)
  | E.PBinop (op, a, b) ->
    let ea = compile_eval bound a and eb = compile_eval bound b in
    fun env -> E.apply_binop op (ea env) (eb env)
  | E.PAny -> fun _ -> raise (E.Unsafe "unbound variable in compiled term")

(* Matcher of a pterm against a ground value, binding statically
   unbound slots in place.  This is [Eval]'s [match_pterm] with the
   dynamic bound checks replayed at compile time; [inversion] selects
   between [match_pterm] semantics (scans, unifications — Add/Sub
   equations can bind their one unbound side) and binder semantics
   (engine-side row binding — partially bound arithmetic never
   matches).  No trail: stale writes from a failed row are invisible
   because a statically-unbound slot is never read before the next
   write. *)
let rec compile_match ~inversion bound (t : E.pterm) : (env -> Value.t -> bool) * ISet.t =
  match t with
  | E.PAny -> (fun _ _ -> true), bound
  | E.PVar s ->
    if ISet.mem s bound then (fun env v -> Value.equal env.(s) v), bound
    else
      ( (fun env v ->
          env.(s) <- v;
          true),
        ISet.add s bound )
  | E.PCst c -> (fun _ v -> Value.equal c v), bound
  | E.PCmp (f, args) ->
    let n = Array.length args in
    let bound = ref bound in
    let ms =
      Array.map
        (fun a ->
          let m, b = compile_match ~inversion !bound a in
          bound := b;
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
    let m =
      if f = "" then fun env v ->
        match v with Value.Tup vs -> match_list env vs | _ -> false
      else fun env v ->
        match v with
        | Value.App (g, vs) when String.equal f g -> match_list env vs
        | _ -> false
    in
    (m, !bound)
  | E.PBinop (op, a, b) ->
    if not (has_unbound bound t) then
      let ev = compile_eval bound t in
      (fun env v -> Value.equal (ev env) v), bound
    else if not inversion then (fun _ _ -> false), bound
    else (
      (* Invert simple integer arithmetic so that equations like
         [I = J + 1] can bind [J] when [I] is already known — exactly
         [Eval]'s [match_pterm] cases. *)
      match op with
      | Ast.Add ->
        if not (has_unbound bound a) then
          let ea = compile_eval bound a in
          let mb, bound' = compile_match ~inversion bound b in
          ( (fun env v ->
              match v with
              | Value.Int s -> (
                match ea env with
                | Value.Int x -> mb env (Value.Int (s - x))
                | _ -> false)
              | _ -> false),
            bound' )
        else if not (has_unbound bound b) then
          let eb = compile_eval bound b in
          let ma, bound' = compile_match ~inversion bound a in
          ( (fun env v ->
              match v with
              | Value.Int s -> (
                match eb env with
                | Value.Int y -> ma env (Value.Int (s - y))
                | _ -> false)
              | _ -> false),
            bound' )
        else (fun _ _ -> false), bound
      | Ast.Sub ->
        if not (has_unbound bound a) then
          let ea = compile_eval bound a in
          let mb, bound' = compile_match ~inversion bound b in
          ( (fun env v ->
              match v with
              | Value.Int s -> (
                match ea env with
                | Value.Int x -> mb env (Value.Int (x - s))
                | _ -> false)
              | _ -> false),
            bound' )
        else if not (has_unbound bound b) then
          let eb = compile_eval bound b in
          let ma, bound' = compile_match ~inversion bound a in
          ( (fun env v ->
              match v with
              | Value.Int s -> (
                match eb env with
                | Value.Int y -> ma env (Value.Int (s + y))
                | _ -> false)
              | _ -> false),
            bound' )
        else (fun _ _ -> false), bound
      | _ -> (fun _ _ -> false), bound)

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
          variable — a repeat within the atom: one cell comparison *)
  | RMatch of int * (env -> Value.t -> bool)  (** structural match-bind *)

type cscan = {
  cs_pred : string;
  cs_arity : int;
  cs_mask : int;
  cs_key : Value.t array;  (* full-arity probe key; constants prefilled *)
  cs_kfill : (int * (env -> Value.t)) array;
  cs_ops : rowop array;
  cs_writes : (int * int) array;  (* = the ops when they are all writes *)
  cs_all_writes : bool;
  cs_probe : int array;  (* private cell-probe buffer for read-only runs *)
  mutable cs_rel : Relation.t option;
  mutable cs_lo : int;  (* a range scan's ids: [cs_lo, cs_hi) *)
  mutable cs_hi : int;
}

type cstep =
  | CScan of cscan
  | CRange of cscan  (* the live ids of a set range, masked columns compared as cells *)
  | CNeg of cscan * (env -> bool) array
  | CTest of (env -> bool)
  | CUnify of (env -> Value.t) * (env -> Value.t -> bool)

let build_scan bound (sc : E.scan) =
  let mask = sc.E.sc_mask in
  let key = Array.make (max 1 sc.E.sc_arity) Value.unit in
  let kfill = ref [] in
  let ops = ref [] in
  let bound = ref bound in
  for p = 0 to sc.E.sc_arity - 1 do
    let t = sc.E.sc_args.(p) in
    if mask land (1 lsl p) <> 0 then (
      match t with
      | E.PCst c -> key.(p) <- c
      | _ -> kfill := (p, compile_eval !bound t) :: !kfill)
    else
      match t with
      | E.PVar s ->
        if ISet.mem s !bound then
          ops :=
            (match List.find_opt (function WVar (_, s') -> s' = s | _ -> false) !ops with
            | Some (WVar (q, _)) -> RSame (p, q)
            | _ -> REq (p, s))
            :: !ops
        else begin
          ops := WVar (p, s) :: !ops;
          bound := ISet.add s !bound
        end
      | E.PCmp _ | E.PBinop _ ->
        let m, b = compile_match ~inversion:true !bound t in
        ops := RMatch (p, m) :: !ops;
        bound := b
      | E.PCst _ | E.PAny -> assert false (* constants are always masked *)
  done;
  let ops = Array.of_list (List.rev !ops) in
  let writes =
    Array.of_list
      (List.filter_map (function WVar (p, s) -> Some (p, s) | _ -> None) (Array.to_list ops))
  in
  let all_writes = Array.length writes = Array.length ops in
  ( { cs_pred = sc.E.sc_pred;
      cs_arity = sc.E.sc_arity;
      cs_mask = mask;
      cs_key = key;
      cs_kfill = Array.of_list (List.rev !kfill);
      cs_ops = ops;
      cs_writes = writes;
      cs_all_writes = all_writes;
      cs_probe = Array.make sc.E.sc_arity 0;
      cs_rel = None;
      cs_lo = 0;
      cs_hi = 0 },
    !bound )

(* The statically-unrolled residue of [match_row] per enumerated row:
   fields are read positionally through [Relation.read], so no row
   tuple is ever materialized. *)
let rec ops_ok_ids env (ops : rowop array) rel id j =
  j = Array.length ops
  || (match ops.(j) with
     | WVar (p, s) ->
       env.(s) <- Relation.read rel id p;
       true
     | REq (p, s) -> Value.equal env.(s) (Relation.read rel id p)
     | RSame (p, q) ->
       let cells = Relation.cells rel and off = id * Relation.arity rel in
       cells.(off + p) = cells.(off + q)
     | RMatch (p, m) -> m env (Relation.read rel id p))
     && ops_ok_ids env ops rel id (j + 1)

let rec guards_ok env (gs : (env -> bool) array) j =
  j = Array.length gs || (gs.(j) env && guards_ok env gs (j + 1))

let fill_key env cs =
  let kf = cs.cs_kfill in
  for j = 0 to Array.length kf - 1 do
    let p, e = kf.(j) in
    cs.cs_key.(p) <- e env
  done

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
      if ops_ok_ids env cs.cs_ops rel id 0 && guards_ok env guards 0 then begin
        hit := true;
        raise Exit
      end
    in
    (try
       if ro then
         Relation.iter_matching_cols_ro_ids rel cs.cs_mask cs.cs_key cs.cs_probe visit
       else Relation.iter_matching_cols_ids rel cs.cs_mask cs.cs_key visit
     with Exit -> ());
    !hit

(* ------------------------------------------------------------------ *)
(* Chains                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  c_body : E.body;
  c_bound0 : int list;
  c_env : env;
  c_steps : cstep array;
  c_bound_end : ISet.t;
  c_range : cscan option;
  c_kont : (unit -> unit) ref;
  c_entry : unit -> unit;  (* read-write executor over all steps *)
  c_ro_entry : (unit -> unit) Lazy.t;  (* read-only, over all steps *)
  c_slice_entry : (Relation.slice -> int -> int -> unit) Lazy.t;  (* read-only, step 0 from a slice *)
}

let noop () = ()

let of_body ?(bound = []) ?(range = false) (body : E.body) =
  let bound0 = bound in
  let bound = ref (ISet.of_list bound) in
  let range_left = ref range in
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
          let gs =
            Array.of_list
              (List.map
                 (fun ((op, x, y) : E.guard) ->
                   let ex = compile_eval b x and ey = compile_eval b y in
                   fun env -> test_cmp op (ex env) (ey env))
                 guards)
          in
          CNeg (cs, gs)
        | E.STest (op, x, y) ->
          let ex = compile_eval !bound x and ey = compile_eval !bound y in
          CTest (fun env -> test_cmp op (ex env) (ey env))
        | E.SUnify (pat, ground) ->
          let eg = compile_eval !bound ground in
          let m, b = compile_match ~inversion:true !bound pat in
          bound := b;
          CUnify (eg, m))
      body.E.steps
  in
  let env = Array.make (max 1 body.E.nvars) Value.unit in
  let kont = ref noop in
  let n = Array.length steps in
  (* visit closures are preallocated; they re-read [cs_rel] per row
     (set before iteration starts, never cleared mid-run) *)
  let visit_of cs next =
    if cs.cs_all_writes then begin
      let writes = cs.cs_writes in
      let nw = Array.length writes in
      fun id ->
        (match cs.cs_rel with
        | Some rel ->
          for j = 0 to nw - 1 do
            let p, s = writes.(j) in
            env.(s) <- Relation.read rel id p
          done
        | None -> assert false);
        next ()
    end
    else begin
      let ops = cs.cs_ops in
      fun id ->
        match cs.cs_rel with
        | Some rel -> if ops_ok_ids env ops rel id 0 then next ()
        | None -> assert false
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
            if ro then
              Relation.iter_matching_cols_ro_ids rel cs.cs_mask cs.cs_key cs.cs_probe visit
            else Relation.iter_matching_cols_ids rel cs.cs_mask cs.cs_key visit)
      | CRange cs ->
        let visit = visit_of cs next in
        fun () -> (
          match cs.cs_rel with
          | None -> ()
          | Some rel ->
            fill_key env cs;
            Relation.iter_range_ids rel cs.cs_lo cs.cs_hi cs.cs_mask cs.cs_key cs.cs_probe visit)
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
          fun sl lo hi -> Relation.slice_iter_ids sl lo hi visit
        | _ -> fun _ _ _ -> invalid_arg "Compile.run_slice: chain does not start with a scan"))
  in
  { c_body = body;
    c_bound0 = bound0;
    c_env = env;
    c_steps = steps;
    c_bound_end = !bound;
    c_range = Array.find_map (function CRange cs -> Some cs | _ -> None) steps;
    c_kont = kont;
    c_entry = build ~ro:false 0;
    c_ro_entry = lazy (build ~ro:true 0);
    c_slice_entry = slice_entry }

let clone t = of_body ~bound:t.c_bound0 ~range:(t.c_range <> None) t.c_body
let env t = t.c_env
let set_slot t s v = t.c_env.(s) <- v

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

type value_prog = env -> Value.t

let compile_value t ct = compile_eval t.c_bound_end ct
let compile_row t cts = Array.map (compile_value t) cts

let eval_row env (progs : value_prog array) =
  let n = Array.length progs in
  let out = Array.make n Value.unit in
  for i = 0 to n - 1 do
    out.(i) <- progs.(i) env
  done;
  out

type binder = (env -> Value.t -> bool) array

(* No arithmetic inversion, no trail. *)
let compile_binder ~bound cts =
  let b = ref (ISet.of_list bound) in
  Array.map
    (fun ct ->
      let m, b' = compile_match ~inversion:false !b ct in
      b := b';
      m)
    cts

let rec bind_from (bdr : binder) env (row : Value.t array) i =
  i = Array.length bdr || (bdr.(i) env row.(i) && bind_from bdr env row (i + 1))

let bind (bdr : binder) env (row : Value.t array) =
  Array.length row = Array.length bdr && bind_from bdr env row 0

let rec bind_id_from (bdr : binder) env rel id i =
  i = Array.length bdr || (bdr.(i) env (Relation.read rel id i) && bind_id_from bdr env rel id (i + 1))

let bind_id (bdr : binder) env rel id =
  Relation.arity rel = Array.length bdr && bind_id_from bdr env rel id 0

let solutions body db outs =
  let t = of_body body in
  let progs = compile_row t (E.compile_terms body outs) in
  let acc = ref [] in
  run t db (fun () -> acc := Array.to_list (eval_row t.c_env progs) :: !acc);
  List.rev !acc
