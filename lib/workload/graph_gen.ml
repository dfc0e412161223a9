type t = { nodes : int; edges : (int * int * int) list }

let norm u v = if u < v then (u, v) else (v, u)

let random_connected_gen ~unique_weights ~seed ~nodes ~extra_edges =
  if nodes < 1 then invalid_arg "Graph_gen.random_connected: need at least one node";
  let rng = Rng.create seed in
  let seen = Hashtbl.create (4 * (nodes + extra_edges)) in
  let edges = ref [] in
  let count = ref 0 in
  let add u v =
    let u, v = norm u v in
    if u <> v && not (Hashtbl.mem seen (u, v)) then begin
      Hashtbl.add seen (u, v) ();
      edges := (u, v) :: !edges;
      incr count
    end
  in
  (* Random spanning tree: connect node i to a random earlier node. *)
  for i = 1 to nodes - 1 do
    add i (Rng.int rng i)
  done;
  let attempts = ref 0 in
  let max_extra = (nodes * (nodes - 1) / 2) - (nodes - 1) in
  let target = nodes - 1 + min extra_edges max_extra in
  while !count < target && !attempts < 100 * (extra_edges + 1) do
    incr attempts;
    let u = Rng.int rng nodes and v = Rng.int rng nodes in
    add u v
  done;
  let m = !count in
  let costs =
    if unique_weights then begin
      (* A shuffled block of distinct integers. *)
      let costs = Array.init m (fun i -> i + 1) in
      Rng.shuffle rng costs;
      costs
    end
    else
      (* Small costs with replacement: plenty of ties. *)
      Array.init m (fun _ -> 1 + Rng.int rng (max 2 (m / 8)))
  in
  let edges = List.mapi (fun i (u, v) -> (u, v, costs.(i))) (List.rev !edges) in
  { nodes; edges }

let random_connected ~seed ~nodes ~extra_edges =
  random_connected_gen ~unique_weights:true ~seed ~nodes ~extra_edges

let random_connected_ties ~seed ~nodes ~extra_edges =
  random_connected_gen ~unique_weights:false ~seed ~nodes ~extra_edges

let complete ~seed ~nodes =
  let rng = Rng.create seed in
  let xs = Array.init nodes (fun _ -> Rng.int rng 10_000) in
  let ys = Array.init nodes (fun _ -> Rng.int rng 10_000) in
  let edges = ref [] in
  let idx = ref 0 in
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      let dx = xs.(u) - xs.(v) and dy = ys.(u) - ys.(v) in
      let d = int_of_float (sqrt (float_of_int ((dx * dx) + (dy * dy)))) in
      (* The offset keeps costs unique without distorting the metric. *)
      incr idx;
      edges := (u, v, (d * 512) + (!idx mod 512)) :: !edges
    done
  done;
  { nodes; edges = List.rev !edges }

let grid ~width ~height =
  let node x y = (y * width) + x in
  let edges = ref [] in
  let c = ref 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then begin
        incr c;
        edges := (node x y, node (x + 1) y, (!c * 7 mod 1009) + 1 + (!c * 1009)) :: !edges
      end;
      if y + 1 < height then begin
        incr c;
        edges := (node x y, node x (y + 1), (!c * 7 mod 1009) + 1 + (!c * 1009)) :: !edges
      end
    done
  done;
  { nodes = width * height; edges = List.rev !edges }

let mst_weight g =
  let sorted = List.sort (fun (_, _, a) (_, _, b) -> compare a b) g.edges in
  let uf = Gbc_ordered.Union_find.create g.nodes in
  List.fold_left
    (fun acc (u, v, c) -> if Gbc_ordered.Union_find.union uf u v then acc + c else acc)
    0 sorted

(* ---------------- the big-EDB tier ---------------- *)

(* Columnar edge store: three parallel int arrays instead of a list of
   boxed triples.  At 10^6-10^7 edges the list representation costs a
   cons cell and a tuple header per edge before the engine even sees a
   fact; this one is three flat blocks, generated in O(m) and loaded
   into a relation without allocating a single Value. *)
type big = {
  big_nodes : int;
  big_src : int array;
  big_dst : int array;
  big_cost : int array;
}

let big_edges g = Array.length g.big_src

(* Pairwise-distinct costs: a shuffled block of 1..m, as in
   [random_connected] — unique weights give the greedy programs a
   single stable model, which the byte-identity checks rely on. *)
let unique_costs rng m =
  let costs = Array.init m (fun i -> i + 1) in
  Rng.shuffle rng costs;
  costs

(* Power-law endpoint: node ids are rank-ordered, so skewing the draw
   toward 0 makes low ids hubs.  [u^3] over a uniform u concentrates
   ~an eighth of the mass on the first 0.4% of nodes — heavy-tailed
   degree without preferential-attachment bookkeeping. *)
let skewed rng nodes =
  let u = Rng.float rng in
  let i = int_of_float (float_of_int nodes *. (u *. u *. u)) in
  if i >= nodes then nodes - 1 else i

let power_law ~seed ~nodes ~edges =
  if nodes < 2 then invalid_arg "Graph_gen.power_law: need at least two nodes";
  if edges < nodes - 1 then invalid_arg "Graph_gen.power_law: need at least nodes-1 edges";
  let rng = Rng.create seed in
  let src = Array.make edges 0 and dst = Array.make edges 0 in
  (* Spanning tree first (connectivity), attaching each node to a
     skewed earlier one; the remaining edges are skewed chords.  Multi
     edges are kept — costs are unique, so parallel edges are distinct
     facts, as in a real road/link corpus. *)
  for i = 1 to nodes - 1 do
    src.(i - 1) <- i;
    dst.(i - 1) <- skewed rng i
  done;
  for e = nodes - 1 to edges - 1 do
    let u = ref (skewed rng nodes) and v = ref (Rng.int rng nodes) in
    while !u = !v do v := Rng.int rng nodes done;
    src.(e) <- !u;
    dst.(e) <- !v
  done;
  { big_nodes = nodes; big_src = src; big_dst = dst; big_cost = unique_costs rng edges }

let road_network ~seed ~width ~height =
  if width < 2 || height < 2 then invalid_arg "Graph_gen.road_network: need a 2x2 grid";
  let rng = Rng.create seed in
  let nodes = width * height in
  let node x y = (y * width) + x in
  (* 4-neighbour grid plus ~1% long shortcuts (the highways). *)
  let grid_edges = (width - 1) * height + width * (height - 1) in
  let shortcuts = max 1 (nodes / 100) in
  let m = grid_edges + shortcuts in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let e = ref 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then begin
        src.(!e) <- node x y;
        dst.(!e) <- node (x + 1) y;
        incr e
      end;
      if y + 1 < height then begin
        src.(!e) <- node x y;
        dst.(!e) <- node x (y + 1);
        incr e
      end
    done
  done;
  for _ = 1 to shortcuts do
    let u = ref (Rng.int rng nodes) and v = ref (Rng.int rng nodes) in
    while !u = !v do v := Rng.int rng nodes done;
    src.(!e) <- !u;
    dst.(!e) <- !v;
    incr e
  done;
  { big_nodes = nodes; big_src = src; big_dst = dst; big_cost = unique_costs rng m }

let big_mst_weight g =
  let m = big_edges g in
  let order = Array.init m (fun i -> i) in
  Array.sort (fun a b -> compare g.big_cost.(a) g.big_cost.(b)) order;
  let uf = Gbc_ordered.Union_find.create g.big_nodes in
  let w = ref 0 in
  Array.iter
    (fun i ->
      if Gbc_ordered.Union_find.union uf g.big_src.(i) g.big_dst.(i) then
        w := !w + g.big_cost.(i))
    order;
  !w

let load_big ?(pred = "g") ?(directed = false) db g =
  let rel = Gbc_datalog.Database.relation db pred 3 in
  let row = Array.make 3 0 in
  let m = big_edges g in
  for i = 0 to m - 1 do
    row.(0) <- g.big_src.(i);
    row.(1) <- g.big_dst.(i);
    row.(2) <- g.big_cost.(i);
    ignore (Gbc_datalog.Relation.add_ints rel row);
    if not directed then begin
      row.(0) <- g.big_dst.(i);
      row.(1) <- g.big_src.(i);
      ignore (Gbc_datalog.Relation.add_ints rel row)
    end
  done

let load_big_nodes ?(pred = "node") db g =
  let rel = Gbc_datalog.Database.relation db pred 1 in
  let row = Array.make 1 0 in
  for i = 0 to g.big_nodes - 1 do
    row.(0) <- i;
    ignore (Gbc_datalog.Relation.add_ints rel row)
  done

let fact3 pred u v c = Gbc_datalog.Ast.fact pred [ Gbc_datalog.Value.Int u; Gbc_datalog.Value.Int v; Gbc_datalog.Value.Int c ]

let to_facts ?(pred = "g") ?(directed = false) g =
  List.concat_map
    (fun (u, v, c) ->
      if directed then [ fact3 pred u v c ] else [ fact3 pred u v c; fact3 pred v u c ])
    g.edges

let node_facts ?(pred = "node") g =
  List.init g.nodes (fun i -> Gbc_datalog.Ast.fact pred [ Gbc_datalog.Value.Int i ])
