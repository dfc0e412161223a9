(* The data directory.  See durable.mli for the layout.

   Snapshot file format:

     "GBCS"            magic
     u32 version       1
     u32 crc           CRC-32 of the body
     body:
       i64  last_lsn
       opt  string digest
       db_snapshot      fact base
       db_snapshot      assert multiset (rows widened by a count column)
       opt  (i64, i64)  last mutation (id, result)
       opt  mat:
         u8   engine
         opt  i64 seed
         string model_digest
         db_snapshot    model

   The multiset rides the database codec by appending the occurrence
   count to each row as an extra [Int] column — an aux database whose
   arities are all real-arity + 1, decoded back by splitting the last
   column off. *)

module Database = Gbc_datalog.Database
module Db_snapshot = Gbc_datalog.Db_snapshot
module Value = Gbc_datalog.Value
module Relation = Gbc_datalog.Relation
module Checksum = Gbc_datalog.Checksum

type t = {
  root : string;
  fsync : Wal.fsync_policy;
  snapshot_every : int;
}

let root t = t.root
let fsync t = t.fsync
let snapshot_every t = t.snapshot_every

let written = Atomic.make 0
let snapshots_written () = Atomic.get written

let warn _t msg = Printf.eprintf "gbcd: durability: %s\n%!" msg

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let programs_dir t = Filename.concat t.root "programs"
let sessions_dir t = Filename.concat t.root "sessions"
let session_dir t id = Filename.concat (sessions_dir t) (string_of_int id)
let wal_path t id = Filename.concat (session_dir t id) "wal.log"
let snapshot_path t id = Filename.concat (session_dir t id) "snapshot.bin"
let program_path t digest = Filename.concat (programs_dir t) (digest ^ ".dl")

let create ~fsync ~snapshot_every path =
  match
    mkdir_p path;
    mkdir_p (Filename.concat path "programs");
    mkdir_p (Filename.concat path "sessions")
  with
  | () -> Ok { root = path; fsync; snapshot_every }
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "cannot open data dir %s: %s(%s): %s" path fn arg (Unix.error_message e))
  | exception Sys_error msg -> Error (Printf.sprintf "cannot open data dir %s: %s" path msg)

(* ---------------- small file helpers ---------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        Some (really_input_string ic len))

(* atomic publish: write a temp file in the target's directory, fsync
   it, rename over the target.  A crash at any point leaves either the
   old file or the new one, never a mix.  The temp name is unique per
   call: worker domains storing the same program concurrently must not
   rename each other's temp files away. *)
let tmp_counter = Atomic.make 0

let write_file_atomic path content =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let off = ref 0 in
      let len = String.length content in
      while !off < len do
        off := !off + Unix.write_substring fd content !off (len - !off)
      done;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* make the rename itself durable *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())

(* ---------------- program store ---------------- *)

let store_program t ~digest ~source =
  let path = program_path t digest in
  if not (Sys.file_exists path) then
    try write_file_atomic path source
    with (Unix.Unix_error _ | Sys_error _) as exn ->
      warn t (Printf.sprintf "cannot store program %s: %s" digest (Printexc.to_string exn))

let load_program t digest = read_file (program_path t digest)

let list_programs t =
  match Sys.readdir (programs_dir t) with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".dl")
    |> List.sort String.compare
    |> List.filter_map (fun n -> read_file (Filename.concat (programs_dir t) n))

(* ---------------- sessions ---------------- *)

let session_ids t =
  match Sys.readdir (sessions_dir t) with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names |> List.filter_map int_of_string_opt |> List.sort compare

let session_exists t id = Sys.file_exists (session_dir t id)

type mat_snapshot = {
  m_engine : int;
  m_seed : int option;
  model : Database.t;
  model_digest : string;
}

type snapshot = {
  last_lsn : int;
  digest : string option;
  db : Database.t;
  multiset : (string * Value.t array * int) list;
  last_mut : (int * int) option;
  mat : mat_snapshot option;
}

let magic = "GBCS"
let version = 1

let w_u8 = Db_snapshot.w_u8
let w_u32 = Db_snapshot.w_u32
let w_i64 = Db_snapshot.w_i64
let w_str = Db_snapshot.w_str

let w_opt w b = function
  | None -> w_u8 b 0
  | Some x ->
    w_u8 b 1;
    w b x

exception Corrupt = Db_snapshot.Corrupt

type reader = { src : string; mutable pos : int }

let need rd n what =
  if rd.pos + n > String.length rd.src then raise (Corrupt ("truncated " ^ what))

let r_u8 rd what =
  need rd 1 what;
  let v = Char.code rd.src.[rd.pos] in
  rd.pos <- rd.pos + 1;
  v

let r_u32 rd what =
  need rd 4 what;
  let v = Int32.to_int (String.get_int32_be rd.src rd.pos) in
  rd.pos <- rd.pos + 4;
  if v < 0 then raise (Corrupt ("negative length in " ^ what));
  v

let r_i64 rd what =
  need rd 8 what;
  let v = Int64.to_int (String.get_int64_be rd.src rd.pos) in
  rd.pos <- rd.pos + 8;
  v

let r_str rd what =
  let n = r_u32 rd what in
  need rd n what;
  let s = String.sub rd.src rd.pos n in
  rd.pos <- rd.pos + n;
  s

let r_opt r rd what =
  match r_u8 rd what with
  | 0 -> None
  | 1 -> Some (r rd what)
  | _ -> raise (Corrupt ("bad option tag in " ^ what))

let r_db rd what =
  match Db_snapshot.read rd.src rd.pos with
  | db, next ->
    rd.pos <- next;
    db
  | exception Db_snapshot.Corrupt msg -> raise (Corrupt (what ^ ": " ^ msg))

(* The multiset travels as a database would that holds each (distinct)
   entry's row widened by its count: one table per predicate, in order
   of first appearance, rows in entry order.  A first pass counts each
   predicate's entries and a second groups them; no such database is
   built.  A table is a cell blob when no cell is a term-table cell, the
   rule [Db_snapshot] applies to a relation ([lookup] interns nothing). *)
type group = { pred : string; mutable n : int; mutable entries : (string * Value.t array * int) array }

let rec has_term row i =
  i < Array.length row
  && (Relation.Cell.is_term (Relation.Cell.lookup row.(i)) || has_term row (i + 1))

let multiset_tables entries =
  let groups = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun ((pred, _, _) as e) ->
      match Hashtbl.find_opt groups pred with
      | Some g -> g.n <- g.n + 1
      | None ->
        let g = { pred; n = 1; entries = [| e |] } in
        Hashtbl.add groups pred g;
        order := g :: !order)
    entries;
  List.iter (fun g -> g.entries <- Array.make g.n g.entries.(0); g.n <- 0) !order;
  List.iter
    (fun ((pred, _, _) as e) ->
      let g = Hashtbl.find groups pred in
      g.entries.(g.n) <- e;
      g.n <- g.n + 1)
    entries;
  List.rev_map
    (fun g ->
      let _, row0, _ = g.entries.(0) in
      { Db_snapshot.name = g.pred;
        arity = Array.length row0 + 1;
        rows = g.n;
        blob =
          Array.for_all
            (fun (_, row, n) -> not (Relation.Cell.is_term (Relation.Cell.of_int n) || has_term row 0))
            g.entries;
        cells =
          (fun f ->
            Array.iter
              (fun (_, row, n) ->
                Array.iter (fun v -> f (Relation.Cell.encode v)) row;
                f (Relation.Cell.of_int n))
              g.entries);
        values =
          (fun f ->
            Array.iter
              (fun (_, row, n) ->
                Array.iter f row;
                f (Value.Int n))
              g.entries) })
    !order

let multiset_of_db db =
  List.concat_map
    (fun pred ->
      List.map
        (fun row ->
          let w = Array.length row in
          if w = 0 then raise (Corrupt "empty multiset row");
          match row.(w - 1) with
          | Value.Int n when n >= 1 -> (pred, Array.sub row 0 (w - 1), n)
          | _ -> raise (Corrupt "multiset row without a count column"))
        (Database.facts_of db pred))
    (Database.preds db)

(* The frame (magic, version, CRC of the body) and the body are written
   once, into bytes of the image's exact size, counted by a first pass
   over the same calls; the CRC is patched in once the body is
   written. *)
let encode_snapshot snap =
  let db = Db_snapshot.of_database snap.db
  and multiset = Db_snapshot.stream (multiset_tables snap.multiset)
  and mat = Option.map (fun m -> (m, Db_snapshot.of_database m.model)) snap.mat in
  let emit o =
    String.iter (fun c -> w_u8 o (Char.code c)) magic;
    w_u32 o version;
    w_u32 o 0;
    w_i64 o snap.last_lsn;
    w_opt w_str o snap.digest;
    Db_snapshot.put o db;
    Db_snapshot.put o multiset;
    w_opt
      (fun o (id, result) ->
        w_i64 o id;
        w_i64 o result)
      o snap.last_mut;
    w_opt
      (fun o (m, model) ->
        w_u8 o m.m_engine;
        w_opt w_i64 o m.m_seed;
        w_str o m.model_digest;
        Db_snapshot.put o model)
      o mat
  in
  let size = Db_snapshot.counter () in
  emit size;
  let image = Bytes.create (Db_snapshot.written size) in
  emit (Db_snapshot.filler image);
  let crc = Checksum.sub_string (Bytes.unsafe_to_string image) ~pos:12 ~len:(Bytes.length image - 12) in
  Bytes.set_int32_be image 8 (Int32.of_int crc);
  Bytes.unsafe_to_string image

let decode_snapshot data =
  let n = String.length data in
  if n < 12 || String.sub data 0 4 <> magic then raise (Corrupt "bad snapshot magic");
  let v = Int32.to_int (String.get_int32_be data 4) in
  if v <> version then raise (Corrupt (Printf.sprintf "unsupported snapshot version %d" v));
  let crc = Int32.to_int (String.get_int32_be data 8) land 0xFFFFFFFF in
  if Checksum.sub_string data ~pos:12 ~len:(n - 12) <> crc then
    raise (Corrupt "snapshot checksum mismatch");
  let rd = { src = data; pos = 12 } in
  let last_lsn = r_i64 rd "lsn" in
  let digest = r_opt r_str rd "program digest" in
  let db = r_db rd "fact base" in
  let multiset = multiset_of_db (r_db rd "assert multiset") in
  let last_mut =
    r_opt
      (fun rd what ->
        let id = r_i64 rd what in
        let result = r_i64 rd what in
        (id, result))
      rd "last mutation"
  in
  let mat =
    r_opt
      (fun rd what ->
        let m_engine = r_u8 rd what in
        let m_seed = r_opt r_i64 rd what in
        let model_digest = r_str rd what in
        let model = r_db rd "model" in
        { m_engine; m_seed; model; model_digest })
      rd "materialization"
  in
  if rd.pos <> n then raise (Corrupt "trailing bytes in snapshot");
  { last_lsn; digest; db; multiset; last_mut; mat }

let write_snapshot t ~id snap =
  match
    mkdir_p (session_dir t id);
    write_file_atomic (snapshot_path t id) (encode_snapshot snap)
  with
  | () ->
    Atomic.incr written;
    Ok ()
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "snapshot write failed: %s: %s" fn (Unix.error_message e))
  | exception Sys_error msg -> Error ("snapshot write failed: " ^ msg)

let read_snapshot t ~id =
  match read_file (snapshot_path t id) with
  | None -> None
  | Some data -> (
    match decode_snapshot data with
    | snap -> Some snap
    | exception Corrupt msg ->
      warn t
        (Printf.sprintf "session %d: snapshot unreadable (%s); recovering from the WAL alone" id
           msg);
      None)
