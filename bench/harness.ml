(* The experiment machinery: timing, slope fitting, table rendering, the
   BENCH_*.json record, gates, and the sweep runner that main.ml's
   entries are built from.  Wall-clock times over [repeat] runs: the
   best keeps one-off GC pauses out of single-run figures; the median
   and quartiles are what tables print and slopes are fitted on. *)

type timing = { best_s : float; median_s : float; q1_s : float; q3_s : float }

let time_stats ?(repeat = 1) f =
  let repeat = max 1 repeat in
  let samples = Array.make repeat 0.0 and result = ref None in
  for i = 0 to repeat - 1 do
    let t0 = Unix.gettimeofday () in
    result := Some (f ());
    samples.(i) <- Unix.gettimeofday () -. t0
  done;
  Array.sort compare samples;
  let at p = samples.(int_of_float (Float.round (p *. float_of_int (repeat - 1)))) in
  let median =
    if repeat mod 2 = 1 then samples.(repeat / 2)
    else (samples.((repeat / 2) - 1) +. samples.(repeat / 2)) /. 2.0
  in
  (Option.get !result, { best_s = samples.(0); median_s = median; q1_s = at 0.25; q3_s = at 0.75 })

let time ?repeat f =
  let r, t = time_stats ?repeat f in
  (r, t.best_s)

let us t = int_of_float (t *. 1e6)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let all_equal f = function [] -> true | r :: rest -> List.for_all (fun r' -> f r' = f r) rest

(* [n] client threads each run [f i], which returns its latencies:
   the wall time of the lot, and every latency. *)
let clients n f =
  let m = Mutex.create () and all = ref [] in
  let client i =
    let mine = f i in
    Mutex.protect m (fun () -> all := mine @ !all)
  in
  let (), wall = time (fun () -> List.iter Thread.join (List.init n (Thread.create client))) in
  (wall, !all)

(* Peak major-heap size since program start, in words: the resident
   footprint recorded next to minor words per fact.  [Gc.quick_stat]
   reads it without forcing a collection. *)
let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Least-squares slope of log2(y) against log2(x): the empirical
   scaling exponent.  [O(n)] gives ~1, [O(n^2)] ~2; [O(n log n)]
   lands slightly above 1. *)
let loglog_slope points =
  let points =
    List.filter_map (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (Float.log2 x, Float.log2 y) else None) points
  in
  let n = float_of_int (List.length points) in
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 points in
  let sx = sum fst and sy = sum snd in
  if n < 2.0 then nan
  else ((n *. sum (fun (x, y) -> x *. y)) -. (sx *. sy)) /. ((n *. sum (fun (x, _) -> x *. x)) -. (sx *. sx))

let table ~title ~header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) header)
      (header :: rows)
  in
  let render row = String.concat "  " (List.map2 (fun w cell -> Printf.sprintf "%*s" w cell) widths row) in
  let rule = String.make (List.fold_left ( + ) (2 * (List.length header - 1)) widths) '-' in
  Printf.printf "\n%s\n%s\n%s\n%s\n" title rule (render header) rule;
  List.iter (fun row -> print_endline (render row)) rows;
  print_endline rule

let ratio a b =
  if a = 0.0 || b = 0.0 then "-"
  else if a < b then Printf.sprintf "1/%.1fx" (b /. a)
  else Printf.sprintf "%.1fx" (a /. b)

let slope s = if Float.is_nan s then "-" else Printf.sprintf "%.2f" s

(* ---- JSON: a hand-rolled emitter (no JSON dependency in the image)
   and a recursive-descent parser, just enough to read back what the
   emitter and the server's stats snapshot produce. ---- *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | Num f -> Printf.sprintf "%.9g" f
  | Str s ->
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | ('"' | '\\') as c -> Buffer.add_char buf '\\'; Buffer.add_char buf c
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    "\"" ^ Buffer.contents buf ^ "\""
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj fs -> "{" ^ String.concat ", " (List.map (fun (k, v) -> to_string (Str k) ^ ": " ^ to_string v) fs) ^ "}"

exception Parse of string

let parse_json src =
  let n = String.length src and pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub src !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' when !pos + 1 < n ->
        let e = src.[!pos + 1] in
        pos := !pos + 2;
        (match e with
         | 'u' when !pos + 4 <= n ->
           (* ASCII only; good enough for counter labels *)
           let code = int_of_string ("0x" ^ String.sub src !pos 4) in
           pos := !pos + 4;
           Buffer.add_char buf (if code < 128 then Char.chr code else '?')
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | '"' | '\\' | '/' -> Buffer.add_char buf e
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  (* the elements of an array or object, up to and including [close] *)
  let rec items close item acc =
    let v = item () in
    ws ();
    match peek () with
    | Some ',' ->
      incr pos;
      items close item (v :: acc)
    | Some c when c = close ->
      incr pos;
      List.rev (v :: acc)
    | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
  in
  let rec value () =
    ws ();
    match peek () with
    | Some ('{' | '[' as c) ->
      incr pos;
      ws ();
      let close = if c = '{' then '}' else ']' in
      if peek () = Some close then begin
        incr pos;
        if c = '{' then Obj [] else Arr []
      end
      else if c = '[' then Arr (items close value [])
      else
        Obj
          (items close
             (fun () ->
               ws ();
               let k = string () in
               ws ();
               expect ':';
               (k, value ()))
             [])
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> (
      let start = !pos in
      while match peek () with Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true | _ -> false do
        incr pos
      done;
      match float_of_string_opt (String.sub src start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
    | None -> fail "empty input"
  in
  match value () with
  | v ->
    ws ();
    if !pos <> n then Error "trailing garbage" else Ok v
  | exception Parse msg -> Error msg

(* ---- BENCH_<exp>.json: one file per experiment, one point per
   [record] call.  Point keys are stable - "n", "wall_s",
   "wall_median_s", "counters", in that order - so the files diff
   cleanly across runs; a single-run timing's median is its wall
   time. ---- *)

let bench_points : (string, (int * float * float * (string * int) list) list) Hashtbl.t = Hashtbl.create 16
let bench_order = ref []

let record ~exp ~n ~wall ?(median = wall) counters =
  if not (Hashtbl.mem bench_points exp) then bench_order := exp :: !bench_order;
  let prev = Option.value (Hashtbl.find_opt bench_points exp) ~default:[] in
  Hashtbl.replace bench_points exp ((n, wall, median, counters) :: prev)

(* Records each (n, wall, median, counters) point and prints them as a
   table: [labels] (one per point) if given, n, then every counter. *)
let report ?labels ~exp ~title points =
  List.iter (fun (n, wall, median, counters) -> record ~exp ~n ~wall ~median counters) points;
  let label i = match labels with Some (h, ls) -> [ (if i < 0 then h else List.nth ls i) ] | None -> [] in
  let _, _, _, first = List.hd points in
  table ~title:(exp ^ "  " ^ title)
    ~header:(label (-1) @ ("n" :: List.map fst first))
    (List.mapi (fun i (n, _, _, cs) -> label i @ List.map string_of_int (n :: List.map snd cs)) points)

(* The commit the numbers were measured at, or "unknown" outside a git
   checkout; "-dirty" when a tracked file other than the checked-in
   BENCH files has uncommitted changes, since a full-scale run rewrites
   those and a second one would otherwise record its own predecessor's
   output as a source change.  Read once, before any entry runs. *)
let git_rev =
  let first_line cmd =
    match Unix.open_process_in (cmd ^ " 2>/dev/null") with
    | exception Unix.Unix_error _ -> ""
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      line
  in
  match first_line "git describe --always" with
  | "" -> "unknown"
  | rev ->
    let changed =
      first_line "git status --porcelain --untracked-files=no -- ':(top,exclude)BENCH_*.json'"
    in
    if changed = "" then rev else rev ^ "-dirty"

(* Writes every recorded experiment into [dir]; returns the paths. *)
let flush_bench ~dir =
  List.rev_map
    (fun exp ->
      let point (n, wall, median, counters) =
        Obj
          [ ("n", Num (float_of_int n)); ("wall_s", Num wall); ("wall_median_s", Num median);
            ("counters", Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) counters)) ]
      in
      let doc =
        Obj
          [ ("experiment", Str exp); ("git_rev", Str git_rev);
            (* the host's parallelism: scaling (E16) and latency (E17-E19)
               points mean nothing without it *)
            ("recommended_domain_count", Num (float_of_int (Domain.recommended_domain_count ())));
            ("points", Arr (List.rev_map point (Hashtbl.find bench_points exp))) ]
      in
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" exp) in
      Out_channel.with_open_bin path (fun oc -> output_string oc (to_string doc ^ "\n"));
      path)
    !bench_order

(* Every file must parse back and carry at least one point with all
   four keys. *)
let validate_bench paths =
  let point_ok = function
    | Obj pf -> List.for_all (fun k -> List.mem_assoc k pf) [ "n"; "wall_s"; "wall_median_s"; "counters" ]
    | _ -> false
  in
  List.for_all
    (fun path ->
      let problem =
        match parse_json (In_channel.with_open_bin path In_channel.input_all) with
        | Error msg -> Some msg
        | Ok (Obj fields) -> (
          match (List.assoc_opt "experiment" fields, List.assoc_opt "points" fields) with
          | Some (Str _), Some (Arr (_ :: _ as points)) ->
            if List.for_all point_ok points then None else Some "malformed point"
          | _ -> Some "missing experiment/points")
        | Ok _ -> Some "not an object"
      in
      Option.iter (Printf.eprintf "bench: %s: %s\n" path) problem;
      problem = None)
    paths

(* ---- Entries, gates and the sweep runner ---- *)

type verdict = { gate : string; ok : bool; detail : string }
type entry = { name : string; run : unit -> verdict list }

let at_most gate ~limit what v =
  { gate; ok = v <= limit; detail = Printf.sprintf "%s %.2f, limit %.2f" what v limit }

(* One point of a sweep: its size, the fit's abscissa, the timing of
   each closure, and the extra integer columns. *)
type point = { n : int; x : float; times : (string * timing) list; cols : (string * int) list }

let median_of label p = (List.assoc label p.times).median_s
let col k p = List.assoc k p.cols
let largest k points = float_of_int (List.fold_left (fun m p -> max m (col k p)) 0 points)

(* Gate: the first closure's slope lies in [lo, hi].  A slope is too
   noisy to gate on fewer than 3 sizes or a span under 16x: sorting at
   1024/2048/4096 put a correct build at 1.06-1.40 and one with a
   linear scan in [Rql.push_live] at 1.45-2.07, while 1024/4096/16384
   separates them (0.99-1.17 against 1.72-1.92). *)
let slope_band claim lo hi points =
  let label = fst (List.hd (List.hd points).times) in
  let s = loglog_slope (List.map (fun p -> (p.x, median_of label p)) points) in
  let ns = List.map (fun p -> p.n) points in
  let fits = List.length ns >= 3 && List.fold_left max 0 ns >= 16 * List.fold_left min max_int ns in
  { gate = claim; ok = fits && lo <= s && s <= hi;
    detail =
      Printf.sprintf "%s slope %.2f over %d sizes, band [%.2f, %.2f]%s" label s (List.length ns) lo hi
        (if fits then "" else " (needs >= 3 sizes spanning >= 16x)") }

(* Gate: at the largest size, the [label] closure's median is at least
   [lo] times the first closure's. *)
let ratio_at_least claim label lo points =
  let p = List.nth points (List.length points - 1) in
  let first = fst (List.hd p.times) in
  let r = median_of label p /. median_of first p in
  { gate = claim; ok = r >= lo;
    detail = Printf.sprintf "%s/%s %.1fx at n=%d, at least %.1fx" label first r p.n lo }

(* A scaling sweep over [sizes].  At each size: build the input, time
   every closure [reps] times (the first is the measured engine, the
   rest baselines), check the oracle on their outputs, and record a
   BENCH point: the first closure's best and median, every closure's
   median and IQR, the extra columns and [counters] of the input.  Then
   print the table and each closure's slope against x, and check the
   gates. *)
let sweep ~name ~title ?(xname = "n") ?(x = fun n _ -> float_of_int n) ~sizes ?(reps = 1) ~input ~timed
    ?(oracle = fun _ _ -> true) ?(extra = fun _ _ -> []) ?(counters = fun _ -> []) ?(gates = []) () =
  let iqr t = t.q3_s -. t.q1_s in
  let point n =
    let a = input n in
    (* every point starts from a compacted heap, so what earlier points
       or entries left behind does not tax its timings *)
    Gc.compact ();
    let results = List.map (fun (l, f) -> (l, time_stats ~repeat:reps (fun () -> f a))) timed in
    let outs = List.map (fun (_, (o, _)) -> o) results in
    if not (oracle a outs) then failwith (Printf.sprintf "n=%d: output differs from the oracle" n);
    let cols = extra a outs and times = List.map (fun (l, (_, t)) -> (l, t)) results in
    let t0 = snd (List.hd times) in
    record ~exp:name ~n ~wall:t0.best_s ~median:t0.median_s
      (cols
      @ List.concat_map (fun (l, t) -> [ (l ^ "_median_us", us t.median_s); (l ^ "_iqr_us", us (iqr t)) ]) times
      @ counters a);
    { n; x = x n a; times; cols }
  in
  let run () =
    let points = List.map point sizes and labels = List.map fst timed in
    let ratio_col, ratio_cell =
      match labels with
      | a :: b :: _ -> ([ a ^ "/" ^ b ], fun p -> [ ratio (median_of a p) (median_of b p) ])
      | _ -> ([], fun _ -> [])
    in
    table
      ~title:(Printf.sprintf "%s  %s\n(times: median (IQR) of %d run(s), seconds)" name title reps)
      ~header:(("n" :: List.map fst (List.hd points).cols) @ List.map (fun l -> l ^ "(s)") labels @ ratio_col)
      (List.map
         (fun p ->
           (string_of_int p.n :: List.map (fun (_, v) -> string_of_int v) p.cols)
           @ List.map (fun (_, t) -> Printf.sprintf "%.4f (%.4f)" t.median_s (iqr t)) p.times
           @ ratio_cell p)
         points);
    let fit l = slope (loglog_slope (List.map (fun p -> (p.x, median_of l p)) points)) in
    if List.length points >= 2 then
      Printf.printf "%s slopes vs %s: %s\n" name xname
        (String.concat ", " (List.map (fun l -> l ^ " " ^ fit l) labels));
    List.map (fun g -> g points) gates
  in
  { name; run }

(* An entry whose table has one row per named program. *)
let listing ~name ~title ~header ~rows ?(gates = []) () =
  let run () =
    let rows = rows () in
    table ~title:(name ^ "  " ^ title) ~header rows;
    List.map (fun g -> g rows) gates
  in
  { name; run }
