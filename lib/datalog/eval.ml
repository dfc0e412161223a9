open Ast

type env = Value.t option array

exception Unsafe of string

(* Slot-resolved terms.  [PAny] only arises from [compile_term] on a
   wildcard — the body compiler gives every [_] its own fresh slot. *)
type pterm =
  | PVar of int
  | PCst of Value.t
  | PCmp of string * pterm array
  | PBinop of binop * pterm * pterm
  | PAny

type cterm = pterm

type guard = cmp_op * pterm * pterm

(* A compiled scan of one atom.  [sc_pattern] is a scratch probe buffer
   reused across invocations: constant positions are prefilled at
   compile time, the rest ([sc_fill]) are refreshed from the
   environment on every execution.  This is safe because
   [Relation.iter_matching] consumes the pattern before invoking the
   row callback.

   When every argument is a constant or a first-occurrence variable the
   scan runs as a kernel: [sc_writes] lists (row position, slot) pairs
   written directly into [env] per row — no trail, no structural match,
   no per-row allocation beyond the bindings themselves.  [sc_reads]
   lists the pattern positions of statically-bound variables; the
   kernel only applies when the runtime environment agrees with the
   static binding analysis (see [fast_applicable]), otherwise the scan
   falls back to generic matching for that invocation. *)
type scan = {
  sc_pred : string;
  sc_arity : int;
  sc_args : pterm array;
  sc_pattern : Value.t option array;
  sc_fill : (int * pterm) array;
  sc_writes : (int * int) array;
  sc_reads : int array;
  sc_fast : bool;
  sc_mask : int;
      (* static probe mask: positions known bound at fill time
         (constants + statically-bound variables/terms) — the mask
         {!Compile} probes with and prebuilds before a parallel
         region. *)
}

type step =
  | SScan of scan
  | SNeg of scan * guard list
  | STest of cmp_op * pterm * pterm
  | SUnify of pterm * pterm

type body = {
  steps : step array;
  slots : (string, int) Hashtbl.t;
  nvars : int;
}

(* ------------------------------------------------------------------ *)
(* Term runtime                                                        *)
(* ------------------------------------------------------------------ *)

(* Native ints wrap silently; greedy cost accumulation must not return
   a wrong model quietly, so every overflow raises [Unsafe] naming the
   offending operation. *)
let overflow op x y =
  raise (Unsafe (Printf.sprintf "integer overflow in %d %s %d" x op y))

let checked_add x y =
  let s = x + y in
  if (x lxor s) land (y lxor s) < 0 then overflow "+" x y else s

let checked_sub x y =
  let d = x - y in
  if (x lxor y) land (x lxor d) < 0 then overflow "-" x y else d

let checked_mul x y =
  if (x = -1 && y = min_int) || (y = -1 && x = min_int) then overflow "*" x y
  else
    let p = x * y in
    if x <> 0 && p / x <> y then overflow "*" x y else p

let apply_binop op a b =
  match op, a, b with
  | Add, Value.Int x, Value.Int y -> Value.Int (checked_add x y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (checked_sub x y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (checked_mul x y)
  | Max, x, y -> if Value.compare x y >= 0 then x else y
  | Min, x, y -> if Value.compare x y <= 0 then x else y
  | (Add | Sub | Mul), _, _ ->
    raise (Unsafe "arithmetic on non-integer values")

let rec eval_pterm (env : env) = function
  | PVar s -> env.(s)
  | PCst v -> Some v
  | PCmp (f, args) ->
    let n = Array.length args in
    let out = Array.make n Value.unit in
    let ok = ref true in
    for i = 0 to n - 1 do
      match eval_pterm env args.(i) with
      | Some v -> out.(i) <- v
      | None -> ok := false
    done;
    if not !ok then None
    else if f = "" then Some (Value.Tup (Array.to_list out))
    else Some (Value.App (f, Array.to_list out))
  | PBinop (op, a, b) -> (
    match eval_pterm env a, eval_pterm env b with
    | Some x, Some y -> Some (apply_binop op x y)
    | _ -> None)
  | PAny -> None

(* Structural match of a pattern term against a ground value, binding
   unbound variables into [env] and recording them on [trail]. *)
let rec match_pterm env trail t v =
  match t with
  | PAny -> true
  | PVar s -> (
    match env.(s) with
    | Some v' -> Value.equal v v'
    | None ->
      env.(s) <- Some v;
      trail := s :: !trail;
      true)
  | PCst c -> Value.equal c v
  | PCmp ("", args) -> (
    match v with
    | Value.Tup vs -> match_args env trail args vs
    | _ -> false)
  | PCmp (f, args) -> (
    match v with
    | Value.App (g, vs) when String.equal f g -> match_args env trail args vs
    | _ -> false)
  | PBinop (op, a, b) -> (
    (* Invert simple integer arithmetic so that equations like
       [I = J + 1] can bind [J] when [I] is already known. *)
    match eval_pterm env t with
    | Some v' -> Value.equal v v'
    | None -> (
      match op, v with
      | Add, Value.Int s -> (
        match eval_pterm env a, eval_pterm env b with
        | Some (Value.Int x), None -> match_pterm env trail b (Value.Int (s - x))
        | None, Some (Value.Int y) -> match_pterm env trail a (Value.Int (s - y))
        | _ -> false)
      | Sub, Value.Int s -> (
        match eval_pterm env a, eval_pterm env b with
        | Some (Value.Int x), None -> match_pterm env trail b (Value.Int (x - s))
        | None, Some (Value.Int y) -> match_pterm env trail a (Value.Int (s + y))
        | _ -> false)
      | _ -> false))

and match_args env trail args vs =
  Array.length args = List.length vs
  &&
  let rec go i = function
    | [] -> true
    | v :: rest -> match_pterm env trail args.(i) v && go (i + 1) rest
  in
  go 0 vs

(* Top-level row match: a direct array walk, no [Array.to_list].  The
   loop is a toplevel function — a nested [let rec] would allocate a
   closure per call (no flambda). *)
let rec match_row_from env trail args (row : Value.t array) i =
  i = Array.length args
  || (match_pterm env trail args.(i) row.(i) && match_row_from env trail args row (i + 1))

let match_row env trail args (row : Value.t array) =
  Array.length row = Array.length args && match_row_from env trail args row 0

let undo env trail = List.iter (fun s -> env.(s) <- None) !trail

let test_cmp op a b =
  let c = Value.compare a b in
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = { tbl : (string, int) Hashtbl.t; mutable next : int }

let slot_of ctx v =
  match Hashtbl.find_opt ctx.tbl v with
  | Some s -> s
  | None ->
    let s = ctx.next in
    ctx.next <- s + 1;
    Hashtbl.add ctx.tbl v s;
    s

let rec resolve ctx = function
  | Var "_" -> PVar (slot_of ctx (Ast.fresh_var ()))
  | Var v -> PVar (slot_of ctx v)
  | Cst v -> PCst v
  | Cmp (f, args) -> PCmp (f, Array.of_list (List.map (resolve ctx) args))
  | Binop (op, a, b) -> PBinop (op, resolve ctx a, resolve ctx b)

module SSet = Set.Make (String)

let lit_name = function
  | Pos a -> "atom " ^ a.pred
  | Neg a -> "negated atom " ^ a.pred
  | Rel _ -> "comparison"
  | Choice _ -> "choice goal"
  | Least _ | Most _ -> "extrema goal"
  | Agg _ -> "aggregate goal"
  | Next _ -> "next goal"

(* Variables a positive occurrence of [lit] can bind. *)
let binders = function
  | Pos a -> atom_vars a
  | Rel (Eq, a, b) ->
    (* An equality can bind either side once the other is ground. *)
    term_vars a @ term_vars b
  | _ -> []

let compile_body ?(extra_bound = []) lits =
  List.iter
    (fun l ->
      match l with
      | Pos _ | Neg _ | Rel _ -> ()
      | Choice _ | Least _ | Most _ | Agg _ | Next _ ->
        invalid_arg ("Eval.compile_body: non-flat literal: " ^ lit_name l))
    lits;
  (* Which variables ever become bound (fixpoint over Eq propagation). *)
  let eventually =
    let base =
      List.fold_left
        (fun acc l -> List.fold_left (fun acc v -> SSet.add v acc) acc (binders l))
        (SSet.of_list extra_bound) lits
    in
    (* Positive atoms bind all their variables; Eq both sides are in
       [base] already via [binders], which over-approximates — refined
       by the planner below, which only fires a step when ready. *)
    base
  in
  (* Locals of each negation: variables never bound positively. *)
  let lits =
    List.map
      (fun l ->
        match l with
        | Neg a ->
          let locals =
            List.filter (fun v -> not (SSet.mem v eventually)) (atom_vars a)
          in
          `Neg (a, SSet.of_list locals)
        | Pos a -> `Pos a
        | Rel (op, x, y) -> `Rel (op, x, y)
        | _ -> assert false)
      lits
  in
  (* Attach guard comparisons to the negation owning their local vars. *)
  let guards = Hashtbl.create 4 in
  (* keyed by the negated atom (physical position via index) *)
  let lits_idx = List.mapi (fun i l -> (i, l)) lits in
  let guard_of = Hashtbl.create 4 in
  List.iter
    (fun (i, l) ->
      match l with
      | `Rel (op, x, y) ->
        let vars = SSet.of_list (term_vars x @ term_vars y) in
        let local_vars = SSet.filter (fun v -> not (SSet.mem v eventually)) vars in
        if not (SSet.is_empty local_vars) then begin
          (* Find the unique negation owning all these locals. *)
          let owners =
            List.filter_map
              (fun (j, l') ->
                match l' with
                | `Neg (_, locals) when SSet.exists (fun v -> SSet.mem v locals) local_vars ->
                  Some (j, locals)
                | _ -> None)
              lits_idx
          in
          match owners with
          | [ (j, locals) ] when SSet.subset local_vars locals ->
            Hashtbl.replace guards i j;
            Hashtbl.replace guard_of i (op, x, y)
          | [] ->
            raise
              (Unsafe
                 (Printf.sprintf "comparison uses variable(s) %s never bound by a positive goal"
                    (String.concat ", " (SSet.elements local_vars))))
          | _ ->
            raise (Unsafe "comparison mixes local variables of distinct negations")
        end
      | _ -> ())
    lits_idx;
  let ctx = { tbl = Hashtbl.create 16; next = 0 } in
  List.iter (fun v -> ignore (slot_of ctx v)) extra_bound;
  (* Greedy planning. *)
  let remaining = ref (List.filter (fun (i, _) -> not (Hashtbl.mem guards i)) lits_idx) in
  let bound = ref (SSet.of_list extra_bound) in
  let steps = ref [] in
  let all_bound t = List.for_all (fun v -> SSet.mem v !bound) (term_vars t) in
  let resolve_guards j =
    Hashtbl.fold
      (fun i owner acc ->
        if owner = j then
          let op, x, y = Hashtbl.find guard_of i in
          (op, resolve ctx x, resolve ctx y) :: acc
        else acc)
      guards []
  in
  let emit_scan ~fast a =
    let ast_args = Array.of_list a.args in
    let n = Array.length ast_args in
    let args = Array.map (resolve ctx) ast_args in
    let pattern = Array.make n None in
    let fill = ref [] and writes = ref [] and reads = ref [] in
    let written = Hashtbl.create 4 in
    let all_fast = ref fast in
    let mask = ref 0 in
    for p = n - 1 downto 0 do
      match args.(p) with
      | PCst c ->
        pattern.(p) <- Some c;
        mask := !mask lor (1 lsl p)
      | PVar s ->
        fill := (p, args.(p)) :: !fill;
        let statically_bound =
          match ast_args.(p) with Var v when v <> "_" -> SSet.mem v !bound | _ -> false
        in
        if statically_bound then begin
          reads := p :: !reads;
          mask := !mask lor (1 lsl p)
        end
        else if Hashtbl.mem written s then
          (* Repeated unbound variable within one atom, e.g. [e(X, X)]:
             needs an equality check, so no kernel. *)
          all_fast := false
        else begin
          Hashtbl.add written s ();
          writes := (p, s) :: !writes
        end
      | PCmp _ | PBinop _ ->
        fill := (p, args.(p)) :: !fill;
        all_fast := false;
        if List.for_all (fun v -> SSet.mem v !bound) (term_vars ast_args.(p)) then
          mask := !mask lor (1 lsl p)
      | PAny -> assert false (* [resolve] gives wildcards fresh slots *)
    done;
    { sc_pred = a.pred;
      sc_arity = n;
      sc_args = args;
      sc_pattern = pattern;
      sc_fill = Array.of_list !fill;
      sc_writes = Array.of_list !writes;
      sc_reads = Array.of_list !reads;
      sc_fast = !all_fast;
      sc_mask = !mask }
  in
  let ready (j, l) =
    match l with
    | `Pos _ -> true
    | `Rel (Eq, x, y) -> all_bound x || all_bound y
    | `Rel (_, x, y) -> all_bound x && all_bound y
    | `Neg (a, locals) ->
      List.for_all (fun v -> SSet.mem v locals || SSet.mem v !bound) (atom_vars a)
      && List.for_all
           (fun (_, x, y) ->
             List.for_all
               (fun v -> SSet.mem v locals || SSet.mem v !bound)
               (term_vars x @ term_vars y))
           (List.map
              (fun (op, x, y) -> (op, x, y))
              (Hashtbl.fold
                 (fun i owner acc ->
                   if owner = j then Hashtbl.find guard_of i :: acc else acc)
                 guards []))
  in
  (* Preference: cheap filters first (tests, unifications, negations),
     then positive scans in written order. *)
  let pick () =
    let filters, scans =
      List.partition (fun (_, l) -> match l with `Pos _ -> false | _ -> true) !remaining
    in
    let try_list lst = List.find_opt ready lst in
    match try_list filters with Some x -> Some x | None -> try_list scans
  in
  let rec plan () =
    match !remaining with
    | [] -> ()
    | _ -> (
      match pick () with
      | None ->
        let names =
          String.concat ", "
            (List.map
               (fun (_, l) ->
                 match l with
                 | `Pos a -> a.pred
                 | `Neg (a, _) -> "not " ^ a.pred
                 | `Rel _ -> "comparison")
               !remaining)
        in
        raise (Unsafe ("cannot order body literals safely: stuck on " ^ names))
      | Some (j, l) ->
        remaining := List.filter (fun (i, _) -> i <> j) !remaining;
        (match l with
        | `Pos a ->
          steps := SScan (emit_scan ~fast:true a) :: !steps;
          List.iter (fun v -> bound := SSet.add v !bound) (atom_vars a)
        | `Rel (Eq, x, y) when not (all_bound x && all_bound y) ->
          let ground, pat = if all_bound x then (x, y) else (y, x) in
          steps := SUnify (resolve ctx pat, resolve ctx ground) :: !steps;
          List.iter (fun v -> bound := SSet.add v !bound) (term_vars pat)
        | `Rel (op, x, y) -> steps := STest (op, resolve ctx x, resolve ctx y) :: !steps
        | `Neg (a, _) ->
          steps := SNeg (emit_scan ~fast:false a, resolve_guards j) :: !steps);
        plan ())
  in
  plan ();
  { steps = Array.of_list (List.rev !steps); slots = ctx.tbl; nvars = ctx.next }

let nvars b = b.nvars
let slot b v = Hashtbl.find b.slots v
let fresh_env b = Array.make (max 1 b.nvars) None

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Refresh the scratch probe pattern from the environment.  Constant
   positions were prefilled at compile time; variable positions read
   straight out of [env] with no allocation. *)
let fill_pattern env sc =
  let fl = sc.sc_fill in
  for j = 0 to Array.length fl - 1 do
    let p, t = fl.(j) in
    sc.sc_pattern.(p) <- eval_pterm env t
  done

(* The kernel assumes statically-bound variables are bound and
   statically-unbound ones are not.  A caller that binds more or fewer
   variables than the body's [extra_bound] violates one of the two, in
   which case this invocation falls back to generic matching. *)
let fast_applicable sc =
  let ok = ref true in
  let writes = sc.sc_writes in
  for j = 0 to Array.length writes - 1 do
    let p, _ = writes.(j) in
    match sc.sc_pattern.(p) with None -> () | Some _ -> ok := false
  done;
  let reads = sc.sc_reads in
  for j = 0 to Array.length reads - 1 do
    match sc.sc_pattern.(reads.(j)) with None -> ok := false | Some _ -> ()
  done;
  !ok

let find_rel db sc =
  match Database.find db sc.sc_pred with
  | None -> None
  | Some rel ->
    if Relation.arity rel <> sc.sc_arity then
      invalid_arg
        (Printf.sprintf "predicate %s used with arity %d and %d" sc.sc_pred
           (Relation.arity rel) sc.sc_arity);
    Some rel

let neg_holds db env sc guards =
  match find_rel db sc with
  | None -> true
  | Some rel ->
    fill_pattern env sc;
    let found = ref false in
    (try
       Relation.iter_matching rel sc.sc_pattern (fun row ->
           let trail = ref [] in
           let matched =
             match_row env trail sc.sc_args row
             && List.for_all
                  (fun (op, x, y) ->
                    match eval_pterm env x, eval_pterm env y with
                    | Some a, Some b -> test_cmp op a b
                    | _ -> raise (Unsafe "unbound variable in negation guard"))
                  guards
           in
           undo env trail;
           if matched then begin
             found := true;
             raise Exit
           end)
     with Exit -> ());
    not !found

let run body db env k =
  let nsteps = Array.length body.steps in
  let rec exec i =
    if i = nsteps then k env
    else
      match body.steps.(i) with
      | SScan sc -> (
        match find_rel db sc with
        | None -> ()
        | Some rel ->
          fill_pattern env sc;
          if sc.sc_fast && fast_applicable sc then begin
            (* id-based kernel: read only the written positions — no
               row tuple is ever materialized *)
            let writes = sc.sc_writes in
            let nw = Array.length writes in
            Relation.iter_matching_ids rel sc.sc_pattern (fun id ->
                for j = 0 to nw - 1 do
                  let p, s = writes.(j) in
                  env.(s) <- Some (Relation.read rel id p)
                done;
                exec (i + 1));
            for j = 0 to nw - 1 do
              let _, s = writes.(j) in
              env.(s) <- None
            done
          end
          else
            Relation.iter_matching rel sc.sc_pattern (fun row ->
                let trail = ref [] in
                if match_row env trail sc.sc_args row then exec (i + 1);
                undo env trail))
      | SNeg (sc, guards) -> if neg_holds db env sc guards then exec (i + 1)
      | STest (op, x, y) -> (
        match eval_pterm env x, eval_pterm env y with
        | Some a, Some b -> if test_cmp op a b then exec (i + 1)
        | _ -> raise (Unsafe "unbound variable in comparison"))
      | SUnify (pat, ground) -> (
        match eval_pterm env ground with
        | None -> raise (Unsafe "unbound variable in equality")
        | Some v ->
          let trail = ref [] in
          if match_pterm env trail pat v then exec (i + 1);
          undo env trail)
  in
  exec 0

(* Resolve an AST term once against a compiled body's slot table.  Do
   this at rule-compile time and evaluate/bind the result per solution:
   re-resolving on every call is the dominant allocation of the greedy
   engines' hot loop. *)
let compile_term body t =
  let rec go = function
    | Var "_" -> PAny
    | Var v -> (
      match Hashtbl.find_opt body.slots v with
      | Some s -> PVar s
      | None -> raise (Unsafe ("variable " ^ v ^ " does not occur in the body")))
    | Cst v -> PCst v
    | Cmp (f, args) -> PCmp (f, Array.of_list (List.map go args))
    | Binop (op, a, b) -> PBinop (op, go a, go b)
  in
  go t

let compile_terms body ts = Array.of_list (List.map (compile_term body) ts)

let eval_term body env t =
  match eval_pterm env (compile_term body t) with
  | Some v -> v
  | None -> raise (Unsafe ("unbound variable in term " ^ Pretty.term_to_string t))

let eval_terms body env ts = List.map (eval_term body env) ts
