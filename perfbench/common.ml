(* Plumbing shared by the three workloads: the command line, latency
   samples and percentiles, the result lines, child processes (gbcd and
   gbc-router), raw framed socket I/O, and the span recorder of the
   traced run. *)

(* Monotonic, nanosecond resolution: the codec spans last about a
   microsecond, below [Unix.gettimeofday]'s resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------------- command line ---------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** tiny sizes and a short run, for perfbench/smoke.py *)
  corrupt : bool;  (** falsify one expected output: every oracle must catch it *)
  gbcd : string;  (** path of gbcd.exe *)
  router : string;  (** path of gbc_router.exe *)
  programs : string;  (** the shipped exemplars *)
  run_dir : string;  (** sockets, data dirs, logs and trace files *)
  rev : string;
}

(* Evaluation load comes from at most nproc connections. *)
let nproc = Domain.recommended_domain_count ()
let connections = max 1 (min 2 nproc)

(* ---------------- samples ---------------- *)

(* A growable float array: one latency sample per op. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  let concat ts =
    let all = create () in
    List.iter (fun t -> for i = 0 to t.n - 1 do add all t.a.(i) done) ts;
    all
end

(* Nearest-rank percentile of an ascending array. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min n (rank n p) - 1)

(* How many samples lie beyond the [p]th percentile: a tail percentile
   is reported only with at least ten. *)
let beyond n p = n - rank n p

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  percentile s 50.0

(* A failed op misses every latency limit: it enters the latency
   samples as infinitely slow. *)
let failed_latency = infinity

(* ---------------- results ---------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no infinity: a percentile that lands on a failed op reads
   as a very large latency. *)
let json_float x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x = infinity then "1e12"
  else Printf.sprintf "%.12g" x

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

type outcome = { attempted : int; failed : int; info : (string * string) list; metrics : metric list }

(* The last line of standard output: exactly the keys the benchmark
   contract names.  The line before it records how the numbers were
   made.  A traced run prints the per-layer metrics on its workload's
   path; run.py completes the rest of BENCHMARK.json's list with 0. *)
let print_result args { attempted; failed; info; metrics } =
  let info =
    [ ("workload", json_string args.workload);
      ("seed", string_of_int args.seed);
      ("rev", json_string args.rev);
      ("nproc", string_of_int nproc);
      ("connections", string_of_int connections);
      ("trace", string_of_bool args.trace);
      ("seconds", json_float args.seconds);
      ("samples", json_obj (List.map (fun m -> (m.name, string_of_int m.samples)) metrics)) ]
    @ info
  in
  print_endline (json_obj [ ("info", json_obj info) ]);
  let metrics =
    List.map
      (fun m -> (m.name, json_obj [ ("value", json_float m.value); ("unit", json_string m.unit_) ]))
      metrics
  in
  print_endline
    (json_obj
       [ ("correct", string_of_bool (failed = 0 && attempted > 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj metrics) ])

(* The first number after ["key": ] in a stats JSON document; the
   server's and router's stats name their top-level counters before
   any nested ones of the same name. *)
let json_number json key =
  let pat = "\"" ^ key ^ "\": " in
  let n = String.length json and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub json i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> nan
  | Some i ->
    let j = ref i in
    while !j < n && String.contains "-+.0123456789eE" json.[!j] do incr j done;
    Option.value ~default:nan (float_of_string_opt (String.sub json i (!j - i)))

(* ---------------- memory ---------------- *)

(* Peak resident set (VmHWM) of a process, in MiB; "self" for ours. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

(* ---------------- child processes ---------------- *)

let children : int list ref = ref []

let spawn exe argv ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: argv)) Unix.stdin out out)
  in
  children := pid :: !children;
  pid

(* SIGTERM is the daemons' graceful drain; a child that has not exited
   after five seconds is killed.  Either way it is reaped. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 5.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  children := List.filter (( <> ) pid) !children

let stop_all () = List.iter stop !children

let () =
  at_exit stop_all;
  let bail _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let rm_rf path = ignore (Sys.command ("rm -rf " ^ Filename.quote path))

let mkdir_p path = ignore (Sys.command ("mkdir -p " ^ Filename.quote path))

(* ---------------- framed socket I/O ---------------- *)

(* One blocking connection speaking bare protocol-v1 frames.  Encoding
   and decoding are left to the caller so the traced run can time them
   apart from the round trip. *)
type conn = { fd : Unix.file_descr; hdr : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; hdr = Bytes.create 4 }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let k = Unix.write_substring fd s off len in
    write_all fd s (off + k) (len - k)
  end

let rec read_into fd b off len =
  if len > 0 then begin
    let k = Unix.read fd b off len in
    if k = 0 then failwith "connection closed by peer";
    read_into fd b (off + k) (len - k)
  end

(* Send one encoded frame and return the reply's payload. *)
let roundtrip c frame =
  write_all c.fd frame 0 (String.length frame);
  read_into c.fd c.hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be c.hdr 0) in
  let payload = Bytes.create len in
  read_into c.fd payload 0 len;
  Bytes.unsafe_to_string payload

let rpc c req =
  match Gbc.Protocol.decode_response (roundtrip c (Gbc.Protocol.encode_request req)) with
  | Ok r -> r
  | Error msg -> failwith ("undecodable reply: " ^ msg)

(* Wait until a freshly spawned daemon accepts on its socket. *)
let wait_ready ~pid path =
  let deadline = now () +. 20.0 in
  let rec go () =
    match connect path with
    | c -> close c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith (Printf.sprintf "process %d exited before listening on %s" pid path));
      if now () > deadline then failwith ("timed out waiting for " ^ path);
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let stats_of c =
  match rpc c Gbc.Protocol.Stats with
  | Gbc.Protocol.Stats_json s -> s
  | _ -> failwith "stats: unexpected reply"

(* Start a daemon listening only on a Unix socket under [dir] and wait
   until it accepts.  Returns (pid, socket). *)
let start_daemon exe ~dir ~name flags =
  let sock = Filename.concat dir (name ^ ".sock") in
  let pid = spawn exe ([ "--no-tcp"; "--unix"; sock ] @ flags) ~log:(Filename.concat dir (name ^ ".log")) in
  wait_ready ~pid sock;
  (pid, sock)

(* ---------------- spans ---------------- *)

(* The traced run's spans: kept in memory per recorder (one per client
   thread, so recording needs no lock) and written out at exit. *)
module Trace = struct
  type span = { id : int; parent : int; op : int; name : string; t0 : float; t1 : float }

  type t = { on : bool; tid : int; mutable next : int; mutable spans : span list }

  let create ~on tid = { on; tid; next = 0; spans = [] }
  let off = create ~on:false (-1)

  (* [span tr ~op ~parent name f] times [f], which receives the new
     span's id to parent its own children on. *)
  let span tr ~op ?(parent = -1) name f =
    if not tr.on then f (-1)
    else begin
      let id = tr.next in
      tr.next <- id + 1;
      let t0 = now () in
      let r = f id in
      tr.spans <- { id; parent; op; name; t0; t1 = now () } :: tr.spans;
      r
    end

  let durations_ms trs name =
    List.concat_map
      (fun tr -> List.filter_map (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1e3) else None) tr.spans)
      trs
    |> Array.of_list

  let median_ms trs name = median (durations_ms trs name)

  (* Per op, the summed duration of every span with this name. *)
  let per_op_ms trs name =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun tr ->
        List.iter
          (fun s ->
            if s.name = name then begin
              let k = (tr.tid, s.op) in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
              Hashtbl.replace tbl k (prev +. ((s.t1 -. s.t0) *. 1e3))
            end)
          tr.spans)
      trs;
    Array.of_seq (Hashtbl.to_seq_values tbl)

  (* Self time: a span's duration minus the time its children cover
     (children of one span never overlap: every recorder is one
     sequential thread). *)
  let self_times trs =
    let acc = Hashtbl.create 32 in
    List.iter
      (fun tr ->
        let child = Hashtbl.create 1024 in
        List.iter
          (fun s ->
            if s.parent >= 0 then
              Hashtbl.replace child s.parent
                (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) +. (s.t1 -. s.t0)))
          tr.spans;
        List.iter
          (fun s ->
            let self = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
            let n, total, self_total =
              Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name)
            in
            Hashtbl.replace acc s.name (n + 1, total +. (s.t1 -. s.t0), self_total +. self))
          tr.spans)
      trs;
    Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
    |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

  (* Write every span, then the per-name self-time table, as one JSON
     document; print the table on stdout too. *)
  let dump trs path =
    let oc = open_out path in
    output_string oc "{\"spans\": [\n";
    let first = ref true in
    List.iter
      (fun tr ->
        List.iter
          (fun s ->
            if not !first then output_string oc ",\n";
            first := false;
            output_string oc
              (json_obj
                 [ ("thread", string_of_int tr.tid); ("id", string_of_int s.id);
                   ("parent", string_of_int s.parent); ("op", string_of_int s.op);
                   ("name", json_string s.name); ("start_us", Printf.sprintf "%.1f" (s.t0 *. 1e6));
                   ("end_us", Printf.sprintf "%.1f" (s.t1 *. 1e6)) ]))
          (List.rev tr.spans))
      trs;
    output_string oc "\n],\n\"self_time\": [\n";
    let rows = self_times trs in
    output_string oc
      (String.concat ",\n"
         (List.map
            (fun (name, (n, total, self)) ->
              json_obj
                [ ("name", json_string name); ("count", string_of_int n);
                  ("total_ms", json_float (total *. 1e3)); ("self_ms", json_float (self *. 1e3)) ])
            rows));
    output_string oc "\n]}\n";
    close_out oc;
    Printf.printf "trace: %s\n%-28s %8s %12s %12s\n" path "span" "count" "total_ms" "self_ms";
    List.iter
      (fun (name, (n, total, self)) ->
        Printf.printf "%-28s %8d %12.3f %12.3f\n" name n (total *. 1e3) (self *. 1e3))
      rows
end

(* One request of a traced op: encode, round trip and decode as child
   spans of a [request.KIND] span.  Returns whether [check] accepts the
   reply, and the reply's size. *)
let call tr ~op ~parent conn ~kind req check =
  Trace.span tr ~op ~parent ("request." ^ kind) (fun p ->
      let frame = Trace.span tr ~op ~parent:p "protocol.encode" (fun _ -> Gbc.Protocol.encode_request req) in
      let payload = Trace.span tr ~op ~parent:p ("rtt." ^ kind) (fun _ -> roundtrip conn frame) in
      let reply =
        Trace.span tr ~op ~parent:p "protocol.decode" (fun _ -> Gbc.Protocol.decode_response payload)
      in
      ((match reply with Ok r -> check r | Error _ -> false), String.length payload))

(* ---------------- the measured loop ---------------- *)

(* A small cloud VM (2 vCPUs) can switch between a fast phase and one
   about 1.6x slower, for seconds to tens of seconds at a time, in wall
   and CPU time alike — longer than a run.  So every timing is
   reported in reference milliseconds: the wall time of the op scaled
   by [nominal_ms] over the time a fixed reference kernel took right
   around it.  The kernel allocates nothing, so no change to the
   program or its GC settings moves it: it hashes and compares a fixed
   table of structured values with the runtime's polymorphic hash and
   compare — branchy, pointer-chasing runtime code like the engines'
   probes.  In the slow phase it slowed 1.40x where the batch job
   slowed 1.46x (Collatz walks 1.27x, a bytecode loop 1.13x, a
   memory-latency walk not at all).  Raw wall times are recorded beside
   the results. *)
module Calib = struct
  let values =
    let rng = Gbc.Rng.create 11 in
    Array.init 2000 (fun i ->
        let k = Gbc.Rng.int rng 1000 in
        (Printf.sprintf "s%d" k, [ k; k + 1; i mod 7 ], (float_of_int k, Some (k mod 3))))

  let kernel () =
    let s = ref 0 in
    for rep = 0 to 7 do
      for i = 1 to Array.length values - 1 do
        s := !s + Hashtbl.hash values.(i) + compare values.(i) values.(i - (rep land 1))
      done
    done;
    ignore (Sys.opaque_identity !s)

  (* The kernel's time in the host's fast phase. *)
  let nominal_ms = 1.0

  (* The reference is the fastest timing of the last [window] seconds:
     being descheduled (by the daemons under test, on a small host)
     only ever lengthens a timing, while a host phase shifts them all. *)
  let window = 0.3
  let recent = Array.make 16 (neg_infinity, nan)
  let count = ref 0
  let current = ref nan
  let last = ref neg_infinity
  let times = Samples.create ()

  let measure () =
    let t0 = now () in
    kernel ();
    let t1 = now () in
    let ms = (t1 -. t0) *. 1e3 in
    recent.(!count mod Array.length recent) <- (t1, ms);
    incr count;
    current :=
      Array.fold_left (fun m (t, x) -> if t1 -. t <= window then Float.min m x else m) ms recent;
    last := t1;
    Samples.add times ms

  let factor () = nominal_ms /. !current
end

type loop = {
  lat : Samples.t;  (** reference ms per op; failed ops are infinite *)
  raw : Samples.t;  (** wall ms per successful op *)
  failed : int;
  elapsed : float;  (** wall seconds *)
  ref_elapsed : float;  (** reference seconds *)
}

(* Run [op] back to back until [seconds] have passed; each op returns
   whether its output was correct.  With [calibrate] the loop re-times
   the reference kernel whenever that many seconds have passed since
   the last timing (0: after every op); loops without it read the
   factor another loop keeps current. *)
let closed_loop ?calibrate ~seconds op =
  let lat = Samples.create () and raw = Samples.create () in
  let failed = ref 0 in
  let recalibrate () =
    match calibrate with Some every when now () -. !Calib.last >= every -> Calib.measure () | _ -> ()
  in
  if Float.is_nan !Calib.current then Calib.measure ();
  let t_start = now () in
  let stop_at = t_start +. seconds in
  let ref_elapsed = ref 0.0 in
  let i = ref 0 in
  while now () < stop_at do
    let f0 = Calib.factor () in
    let t0 = now () in
    let ok = try op !i with e -> prerr_endline ("op failed: " ^ Printexc.to_string e); false in
    let t1 = now () in
    recalibrate ();
    let ms = (t1 -. t0) *. 1e3 *. (f0 +. Calib.factor ()) /. 2.0 in
    ref_elapsed := !ref_elapsed +. (ms /. 1e3);
    if ok then begin
      Samples.add raw ((t1 -. t0) *. 1e3);
      Samples.add lat ms
    end
    else begin
      incr failed;
      Samples.add lat failed_latency
    end;
    incr i
  done;
  { lat; raw; failed = !failed; elapsed = now () -. t_start; ref_elapsed = !ref_elapsed }

(* One closed loop per connection, each in its own domain — not a
   systhread, whose runtime lock would hold one connection's reply
   while the other times the reference kernel; [op k c] is connection
   [k]'s op. *)
let parallel_loops ~seconds conns op =
  let n = Array.length conns in
  let domains =
    Array.mapi
      (fun k c ->
        (* one loop keeps the reference factor current for all *)
        let calibrate = if k = 0 then Some 0.05 else None in
        Domain.spawn (fun () -> closed_loop ?calibrate ~seconds (op k c)))
      conns
  in
  let ls = Array.to_list (Array.map Domain.join domains) in
  let sum f = List.fold_left (fun a l -> a +. f l) 0.0 ls in
  { lat = Samples.concat (List.map (fun l -> l.lat) ls);
    raw = Samples.concat (List.map (fun l -> l.raw) ls);
    failed = List.fold_left (fun a l -> a + l.failed) 0 ls;
    elapsed = sum (fun l -> l.elapsed) /. float_of_int n;
    ref_elapsed = sum (fun l -> l.ref_elapsed) /. float_of_int n }

(* The end-to-end latency metrics of one measured phase, and the raw
   wall-clock figures behind them for the info line.  A tail
   percentile's sample count is the number of ops beyond it; [tail] is
   the workload's own tail, which must have at least ten. *)
let latency_metrics ~tail l =
  let s = Samples.sorted l.lat and r = Samples.sorted l.raw in
  let n = Array.length s in
  let tail_metric p =
    let name = Printf.sprintf "p%.0f_ms" p in
    if p = tail && beyond n p < 10 then
      Printf.printf "warning: %s has only %d samples beyond it (%d ops)\n" name (beyond n p) n;
    metric ~samples:(beyond n p) name "ms" (percentile s p)
  in
  let k = Samples.sorted Calib.times in
  ( [ metric ~samples:n "throughput" "1/s" (float_of_int n /. l.ref_elapsed);
      metric ~samples:n "p50_ms" "ms" (percentile s 50.0); tail_metric 90.0; tail_metric 99.0 ],
    [ ("tail", json_string (Printf.sprintf "p%.0f_ms" tail));
      ("wall_throughput", json_float (float_of_int n /. l.elapsed));
      ("wall_p50_ms", json_float (percentile r 50.0));
      ("wall_p90_ms", json_float (percentile r 90.0));
      ("wall_p99_ms", json_float (percentile r 99.0));
      ("reference_kernel_ms",
       json_obj
         [ ("count", string_of_int (Array.length k)); ("p10", json_float (percentile k 10.0));
           ("p50", json_float (percentile k 50.0)); ("p90", json_float (percentile k 90.0)) ]) ] )

(* Set up five times and keep the last: the median of the set-up
   times, in reference seconds, is the reported [setup_s]. *)
let repeated_setup ~teardown setup =
  let rounds = 5 in
  let times = Array.make rounds 0.0 in
  let rec go i =
    Calib.measure ();
    let f0 = Calib.factor () in
    let t0 = now () in
    let v = setup () in
    let t1 = now () in
    Calib.measure ();
    times.(i) <- (t1 -. t0) *. (f0 +. Calib.factor ()) /. 2.0;
    if i + 1 < rounds then begin
      teardown v;
      go (i + 1)
    end
    else v
  in
  let v = go 0 in
  (v, metric ~samples:rounds "setup_s" "s" (median times))
