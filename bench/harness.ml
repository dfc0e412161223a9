(* Timing, slope fitting and table rendering for the experiment
   harness.  Wall-clock times; each point is the best of [repeat]
   runs so that one-off GC pauses do not distort the scaling fit —
   the median is kept alongside as the robust central estimate. *)

(* --repeat N raises the repetition count for every call site that
   uses the default (main.ml sets this from the command line).  Sites
   passing an explicit [~repeat] — single-run timings of expensive or
   side-effecting closures — are left alone. *)
let repeat_override : int option ref = ref None

type timing = { best_s : float; median_s : float; runs : int }

let time_stats ?repeat f =
  let repeat =
    max 1 (match repeat with Some r -> r | None -> Option.value !repeat_override ~default:2)
  in
  let samples = Array.make repeat 0.0 in
  let result = ref None in
  for i = 0 to repeat - 1 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    samples.(i) <- Unix.gettimeofday () -. t0;
    result := Some r
  done;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let median =
    if repeat mod 2 = 1 then sorted.(repeat / 2)
    else (sorted.((repeat / 2) - 1) +. sorted.(repeat / 2)) /. 2.0
  in
  (Option.get !result, { best_s = sorted.(0); median_s = median; runs = repeat })

let time ?repeat f =
  let r, t = time_stats ?repeat f in
  (r, t.best_s)

(* Peak major-heap size since program start, in words — the resident
   footprint that the allocation experiments (E14, E20) record next to
   minor words per fact.  [Gc.quick_stat] reads the counter without
   forcing a collection, so bracketing a measurement with it is free. *)
let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Least-squares slope of log2(y) against log2(x): the empirical
   scaling exponent.  [O(n)] gives ~1, [O(n^2)] ~2; [O(n log n)]
   lands slightly above 1. *)
let loglog_slope points =
  let points =
    List.filter (fun (x, y) -> x > 0.0 && y > 0.0) points
    |> List.map (fun (x, y) -> (log x /. log 2.0, log y /. log 2.0))
  in
  let n = float_of_int (List.length points) in
  if n < 2.0 then nan
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
    ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))
  end

let hline width = print_endline (String.make width '-')

let table ~title ~header rows =
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) header)
      all
  in
  let render row =
    String.concat "  "
      (List.map2 (fun w cell -> Printf.sprintf "%*s" w cell) widths row)
  in
  let total = List.fold_left ( + ) (2 * (List.length header - 1)) widths in
  print_newline ();
  print_endline title;
  hline total;
  print_endline (render header);
  hline total;
  List.iter (fun row -> print_endline (render row)) rows;
  hline total

let sec t = Printf.sprintf "%.4f" t
let ratio a b = if b = 0.0 then "-" else Printf.sprintf "%.1fx" (a /. b)
let slope s = if Float.is_nan s then "-" else Printf.sprintf "%.2f" s

(* ------------------------------------------------------------------ *)
(* BENCH_<exp>.json — machine-readable trajectory of the experiment    *)
(* tables.  One file per experiment: the id, and one point per size    *)
(* with the wall-clock time and a telemetry counter snapshot.  The     *)
(* emitter below is hand-rolled (no JSON dependency in the image);     *)
(* the minimal parser exists so the smoke run can prove the files it   *)
(* just wrote are well-formed.                                         *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.9g" f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (json_escape s);
    Buffer.add_char buf '"'
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        emit buf (Str k);
        Buffer.add_string buf ": ";
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

exception Parse of string

(* Recursive-descent JSON parser, just enough to round-trip what the
   emitter (and Telemetry.to_json) produce. *)
let parse_json src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub src !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub src !pos 4) in
          pos := !pos + 4;
          (* ASCII only; good enough for counter labels *)
          if code < 128 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?';
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "empty input"
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error "trailing garbage" else Ok v
  | exception Parse msg -> Error msg

(* Record store: experiments push (n, wall, median, counters) points;
   [flush_bench] writes one BENCH_<exp>.json per experiment and
   returns the paths.  The point keys are stable — always "n",
   "wall_s", "wall_median_s", "counters", in that order — so the
   trajectory files diff cleanly across runs.  When a call site has no
   separate median (single-run timings), the median equals the wall
   time. *)

let bench_points : (string, (int * float * float * (string * int) list) list) Hashtbl.t =
  Hashtbl.create 16

let bench_order : string list ref = ref []

let record ~exp ~n ~wall ?median counters =
  let median = Option.value median ~default:wall in
  if not (Hashtbl.mem bench_points exp) then bench_order := exp :: !bench_order;
  let prev = try Hashtbl.find bench_points exp with Not_found -> [] in
  Hashtbl.replace bench_points exp ((n, wall, median, counters) :: prev)

(* The commit the numbers were measured at ("-dirty" when the tree had
   uncommitted changes), or "unknown" outside a git checkout. *)
let git_rev =
  lazy
    (match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
     | exception Unix.Unix_error _ -> "unknown"
     | ic ->
       let rev = try input_line ic with End_of_file -> "" in
       ignore (Unix.close_process_in ic);
       if rev = "" then "unknown" else rev)

let flush_bench () =
  List.rev_map
    (fun exp ->
      let points = List.rev (Hashtbl.find bench_points exp) in
      let doc =
        Obj
          [ ("experiment", Str exp);
            ("git_rev", Str (Lazy.force git_rev));
            (* The host's parallelism budget: scaling points (E16) and
               latency points (E15/E17) are meaningless without it. *)
            ( "recommended_domain_count",
              Num (float_of_int (Domain.recommended_domain_count ())) );
            ( "points",
              Arr
                (List.map
                   (fun (n, wall, median, counters) ->
                     Obj
                       [ ("n", Num (float_of_int n));
                         ("wall_s", Num wall);
                         ("wall_median_s", Num median);
                         ( "counters",
                           Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) counters)
                         ) ])
                   points) ) ]
      in
      let path = Printf.sprintf "BENCH_%s.json" exp in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (to_string doc);
          output_char oc '\n');
      path)
    !bench_order

(* Smoke validation: every written file must re-parse and carry at
   least one point with the required fields. *)
let validate_bench paths =
  List.for_all
    (fun path ->
      let ic = open_in path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match parse_json src with
      | Error msg ->
        Printf.eprintf "bench-smoke: %s: %s\n" path msg;
        false
      | Ok (Obj fields) -> (
        match (List.assoc_opt "experiment" fields, List.assoc_opt "points" fields) with
        | Some (Str _), Some (Arr (_ :: _ as points)) ->
          (* [wall_median_s] is required too: [record] substitutes the
             wall time when a site has no separate median (single-run
             timings, --repeat 1), so before/after rows are always
             comparable on the same key. *)
          let point_ok = function
            | Obj pf ->
              List.mem_assoc "n" pf && List.mem_assoc "wall_s" pf
              && List.mem_assoc "wall_median_s" pf
              && List.mem_assoc "counters" pf
            | _ -> false
          in
          if List.for_all point_ok points then true
          else begin
            Printf.eprintf "bench-smoke: %s: malformed point\n" path;
            false
          end
        | _ ->
          Printf.eprintf "bench-smoke: %s: missing experiment/points\n" path;
          false)
      | Ok _ ->
        Printf.eprintf "bench-smoke: %s: not an object\n" path;
        false)
    paths
