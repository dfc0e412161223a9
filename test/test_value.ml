(* Herbrand values: ordering, hashing, printing. *)

open Gbc

let v = Alcotest.testable Value.pp Value.equal

let test_compare_total_order () =
  let values =
    [ Value.Int (-3); Value.Int 0; Value.Int 7; Value.sym "a"; Value.sym "b";
      Value.str "a"; Value.Tup []; Value.Tup [ Value.Int 1 ];
      Value.App ("t", [ Value.sym "a" ]) ]
  in
  (* compare is a strict total order on this list as given. *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "a < b" true (Value.compare a b < 0);
      Alcotest.(check bool) "b > a" true (Value.compare b a > 0);
      check rest
    | _ -> ()
  in
  check values;
  List.iter (fun x -> Alcotest.(check int) "reflexive" 0 (Value.compare x x)) values

let test_int_order_is_numeric () =
  Alcotest.(check bool) "negative below positive" true
    (Value.compare (Value.Int (-5)) (Value.Int 3) < 0);
  Alcotest.(check bool) "10 above 9 (not lexicographic)" true
    (Value.compare (Value.Int 10) (Value.Int 9) > 0)

let test_tuple_order_lexicographic () =
  let t xs = Value.Tup (List.map (fun i -> Value.Int i) xs) in
  Alcotest.(check bool) "prefix first" true (Value.compare (t [ 1 ]) (t [ 1; 0 ]) < 0);
  Alcotest.(check bool) "componentwise" true (Value.compare (t [ 1; 2 ]) (t [ 1; 3 ]) < 0)

let test_app_order () =
  let a = Value.App ("s", [ Value.Int 9 ]) and b = Value.App ("t", [ Value.Int 0 ]) in
  Alcotest.(check bool) "constructor name first" true (Value.compare a b < 0)

let test_equal_hash_consistent () =
  let deep n =
    let rec go n acc = if n = 0 then acc else go (n - 1) (Value.App ("t", [ acc; Value.Int n ])) in
    go n (Value.sym "leaf")
  in
  let a = deep 50 and b = deep 50 in
  Alcotest.check v "structural equality" a b;
  Alcotest.(check int) "equal values hash equally" (Value.hash a) (Value.hash b)

let test_hash_sees_deep_differences () =
  (* Unlike Hashtbl.hash, Value.hash must not truncate deep terms. *)
  let rec deep n leaf =
    if n = 0 then leaf else Value.App ("t", [ deep (n - 1) leaf; Value.Int 0 ])
  in
  let a = deep 40 (Value.sym "x") and b = deep 40 (Value.sym "y") in
  Alcotest.(check bool) "distinct leaves, distinct hashes" true (Value.hash a <> Value.hash b)

let test_pp () =
  let check expected value = Alcotest.(check string) expected expected (Value.to_string value) in
  check "42" (Value.Int 42);
  check "nil" Value.nil;
  check "()" Value.unit;
  check "(1, a)" (Value.Tup [ Value.Int 1; Value.sym "a" ]);
  check "t(a, t(b, c))"
    (Value.App ("t", [ Value.sym "a"; Value.App ("t", [ Value.sym "b"; Value.sym "c" ]) ]));
  check "\"hi\"" (Value.str "hi")

(* The printer's digit writer against [string_of_int]: zero, each power
   of ten and its neighbours on both signs, the extremes. *)
let test_int_digits () =
  let check i = Alcotest.(check string) (string_of_int i) (string_of_int i) (Value.to_string (Value.Int i)) in
  List.iter check [ 0; 1; -1; 9; -9; min_int; max_int; min_int + 1; max_int - 1 ];
  let p = ref 1 in
  while !p <= max_int / 10 do
    p := !p * 10;
    List.iter (fun d -> check (!p + d); check (-(!p + d))) [ -1; 0; 1 ]
  done

let prop_int_digits =
  QCheck.Test.make ~name:"to_string (Int i) = string_of_int i" ~count:1000 QCheck.int (fun i ->
      String.equal (Value.to_string (Value.Int i)) (string_of_int i))

let test_as_int () =
  Alcotest.(check int) "as_int" 7 (Value.as_int (Value.Int 7));
  Alcotest.check_raises "as_int on sym" (Invalid_argument "Value.as_int: a") (fun () ->
      ignore (Value.as_int (Value.sym "a")))

let test_tbl () =
  let tbl = Value.Tbl.create 4 in
  Value.Tbl.replace tbl (Value.Tup [ Value.Int 1; Value.sym "a" ]) 1;
  Value.Tbl.replace tbl (Value.Tup [ Value.Int 1; Value.sym "a" ]) 2;
  Alcotest.(check int) "replace dedups structurally" 1 (Value.Tbl.length tbl);
  Alcotest.(check (option int)) "lookup" (Some 2)
    (Value.Tbl.find_opt tbl (Value.Tup [ Value.Int 1; Value.sym "a" ]))

let prop_compare_antisymmetric =
  let gen_value =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n = 0 then
            oneof
              [ map (fun i -> Value.Int i) small_signed_int;
                map (fun s -> Value.sym ("s" ^ string_of_int s)) small_nat ]
          else
            frequency
              [ (2, map (fun i -> Value.Int i) small_signed_int);
                (1, map2 (fun a b -> Value.Tup [ a; b ]) (self (n / 2)) (self (n / 2)));
                (1, map2 (fun a b -> Value.App ("t", [ a; b ])) (self (n / 2)) (self (n / 2))) ]))
  in
  let arb = QCheck.make ~print:Value.to_string gen_value in
  QCheck.Test.make ~name:"compare antisymmetric + equal consistent" ~count:500
    (QCheck.pair arb arb) (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0) = (c2 = 0)
      && (c1 > 0) = (c2 < 0)
      && Value.equal a b = (c1 = 0)
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b))

let () =
  Alcotest.run "value"
    [ ( "order",
        [ Alcotest.test_case "total order across tags" `Quick test_compare_total_order;
          Alcotest.test_case "numeric ints" `Quick test_int_order_is_numeric;
          Alcotest.test_case "lexicographic tuples" `Quick test_tuple_order_lexicographic;
          Alcotest.test_case "app by name then args" `Quick test_app_order ] );
      ( "hash",
        [ Alcotest.test_case "equal => same hash (deep)" `Quick test_equal_hash_consistent;
          Alcotest.test_case "deep difference changes hash" `Quick test_hash_sees_deep_differences ] );
      ( "pp",
        [ Alcotest.test_case "rendering" `Quick test_pp;
          Alcotest.test_case "int digits" `Quick test_int_digits;
          Alcotest.test_case "as_int" `Quick test_as_int;
          Alcotest.test_case "hashtable" `Quick test_tbl ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
          QCheck_alcotest.to_alcotest prop_int_digits ] ) ]
