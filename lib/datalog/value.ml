type t =
  | Int of int
  | Sym of int
  | Str of int
  | Tup of t list
  | App of string * t list

let sym s = Sym (Interner.intern s)
let str s = Str (Interner.intern s)
let resolve = Interner.resolve

let unit = Tup []
let nil = sym "nil"

let tag = function Int _ -> 0 | Sym _ -> 1 | Str _ -> 2 | Tup _ -> 3 | App _ -> 4

let rec compare a b =
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Sym x, Sym y | Str x, Str y -> Interner.compare_ids x y
  | Tup xs, Tup ys -> compare_list xs ys
  | App (f, xs), App (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_list xs ys
  | _ -> Stdlib.compare (tag a) (tag b)

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

let rec equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Sym x, Sym y | Str x, Str y -> x = y
  | Tup xs, Tup ys -> equal_list xs ys
  | App (f, xs), App (g, ys) -> String.equal f g && equal_list xs ys
  | _ -> false

and equal_list xs ys =
  match xs, ys with
  | [], [] -> true
  | x :: xs', y :: ys' -> equal x y && equal_list xs' ys'
  | _ -> false

let combine h x = (h * 1000003) lxor x

let rec hash = function
  | Int x -> combine 3 (Hashtbl.hash x)
  | Sym id -> combine 5 id
  | Str id -> combine 7 id
  | Tup xs -> List.fold_left (fun h x -> combine h (hash x)) 11 xs
  | App (f, xs) -> List.fold_left (fun h x -> combine h (hash x)) (combine 13 (Hashtbl.hash f)) xs

let rec add b = function
  | Int x -> Buffer.add_string b (string_of_int x)
  | Sym id -> Buffer.add_string b (Interner.resolve id)
  | Str id -> Printf.bprintf b "%S" (Interner.resolve id)
  | Tup xs -> add_args b xs
  | App (f, xs) -> Buffer.add_string b f; add_args b xs

and add_args b xs =
  Buffer.add_char b '(';
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; add b x) xs;
  Buffer.add_char b ')'

let to_string v =
  let b = Buffer.create 16 in
  add b v;
  Buffer.contents b

let pp fmt v = Format.pp_print_string fmt (to_string v)

let as_int = function
  | Int x -> x
  | v -> invalid_arg (Printf.sprintf "Value.as_int: %s" (to_string v))

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (Key)
module Set = Stdlib.Set.Make (Key)
module Map = Stdlib.Map.Make (Key)
