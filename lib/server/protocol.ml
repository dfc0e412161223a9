(* The gbcd wire protocol: length-prefixed binary frames.

   A frame is a 4-byte big-endian payload length followed by the
   payload; the payload's first byte is the message tag (requests
   below 0x80, responses at or above it) and the rest is the tag's
   field encoding.  Primitives: u8, i64 (8-byte big-endian), strings
   and lists behind a u32 big-endian length.  Everything is
   deterministic — one value, one encoding — so the QCheck round-trip
   property in test/test_protocol.ml is exact equality.

   Decoding never throws out of this module: [decode_request] and
   [decode_response] classify every malformation (truncated payload,
   bad tag, bad length, trailing bytes) into [Error msg], and
   [extract_frame] reports an undecodable length prefix as
   [Bad_length] so the server can answer with a structured error frame
   instead of dying on garbage input.

   A request payload may be wrapped in an envelope (tag 0x7f, then an
   i64 request id, then the bare payload unchanged), and the matching
   response comes back in a response envelope (tag 0xff, same id).
   Every client in this tree sends envelopes.  Bare payloads are still
   decoded, and answered bare and in strict order, for blocking
   clients that send no id. *)

let max_frame_default = 16 * 1024 * 1024

type engine = Staged | Reference

type budget = {
  timeout_ms : int option;
  max_facts : int option;
  max_steps : int option;
  max_candidates : int option;
  jobs : int option;  (* requested evaluation domains; server clamps *)
}

let no_budget =
  { timeout_ms = None; max_facts = None; max_steps = None; max_candidates = None; jobs = None }

type request =
  | Ping
  | Load of string  (** program source text *)
  | Assert_facts of { text : string; id : int option }  (** ground facts, surface syntax *)
  | Retract_facts of { text : string; id : int option }
  | Run of { engine : engine; seed : int option; preds : string list option; budget : budget }
  | Enumerate of { max_models : int; preds : string list option }
  | Query of { engine : engine; text : string; budget : budget }
  | Stats
  | Shutdown
  | Attach of int option
      (** [None]: mark this session attachable and report its id;
          [Some id]: adopt session [id] (detached, or durable on disk) *)

type error_code =
  | Lex_error
  | Parse_error
  | Unsafe
  | Unsupported
  | Not_compilable
  | Io_error
  | Protocol_violation
  | No_program
  | Budget_exhausted
  | Draining
  | Server_error
  | Not_retractable
  | No_session

type response =
  | Pong
  | Loaded of { clauses : int; cache_hit : bool; digest : string; stage_stratified : bool }
  | Asserted of { added : int }
  | Retracted of { removed : int }
  | Model of { complete : bool; text : string; diagnostic : string option }
  | Model_set of { total : int; models : string list }
  | Answers of { complete : bool; vars : string list; rows : string list }
  | Stats_json of string
  | Error of { code : error_code; message : string }
  | Bye
  | Attached of { id : int }

let error_code_to_int = function
  | Lex_error -> 1
  | Parse_error -> 2
  | Unsafe -> 3
  | Unsupported -> 4
  | Not_compilable -> 5
  | Io_error -> 6
  | Protocol_violation -> 7
  | No_program -> 8
  | Budget_exhausted -> 9
  | Draining -> 10
  | Server_error -> 11
  | Not_retractable -> 12
  | No_session -> 13

let error_code_of_int = function
  | 1 -> Some Lex_error
  | 2 -> Some Parse_error
  | 3 -> Some Unsafe
  | 4 -> Some Unsupported
  | 5 -> Some Not_compilable
  | 6 -> Some Io_error
  | 7 -> Some Protocol_violation
  | 8 -> Some No_program
  | 9 -> Some Budget_exhausted
  | 10 -> Some Draining
  | 11 -> Some Server_error
  | 12 -> Some Not_retractable
  | 13 -> Some No_session
  | _ -> None

let error_code_to_string = function
  | Lex_error -> "lex-error"
  | Parse_error -> "parse-error"
  | Unsafe -> "unsafe"
  | Unsupported -> "unsupported"
  | Not_compilable -> "not-compilable"
  | Io_error -> "io-error"
  | Protocol_violation -> "protocol-violation"
  | No_program -> "no-program"
  | Budget_exhausted -> "budget-exhausted"
  | Draining -> "draining"
  | Server_error -> "server-error"
  | Not_retractable -> "not-retractable"
  | No_session -> "no-session"

(* ---------------- field writers ---------------- *)

let w_u8 b n = Buffer.add_uint8 b (n land 0xff)
let w_bool b v = w_u8 b (if v then 1 else 0)
let w_int b n = Buffer.add_int64_be b (Int64.of_int n)

let w_string b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

let w_opt w b = function
  | None -> w_u8 b 0
  | Some x ->
    w_u8 b 1;
    w b x

let w_list w b xs =
  Buffer.add_int32_be b (Int32.of_int (List.length xs));
  List.iter (w b) xs

let w_engine b = function Staged -> w_u8 b 0 | Reference -> w_u8 b 1

let w_budget b { timeout_ms; max_facts; max_steps; max_candidates; jobs } =
  w_opt w_int b timeout_ms;
  w_opt w_int b max_facts;
  w_opt w_int b max_steps;
  w_opt w_int b max_candidates;
  w_opt w_int b jobs

(* ---------------- field readers ---------------- *)

exception Malformed of string

type reader = { src : string; mutable pos : int }

let need rd n what =
  if n < 0 || rd.pos + n > String.length rd.src then
    raise (Malformed (Printf.sprintf "truncated %s at offset %d" what rd.pos))

let r_u8 rd what =
  need rd 1 what;
  let v = Char.code rd.src.[rd.pos] in
  rd.pos <- rd.pos + 1;
  v

let r_bool rd what =
  match r_u8 rd what with
  | 0 -> false
  | 1 -> true
  | n -> raise (Malformed (Printf.sprintf "bad boolean %d in %s" n what))

let r_int rd what =
  need rd 8 what;
  let v = Int64.to_int (String.get_int64_be rd.src rd.pos) in
  rd.pos <- rd.pos + 8;
  v

let r_len rd what =
  need rd 4 what;
  let v = Int32.to_int (String.get_int32_be rd.src rd.pos) in
  rd.pos <- rd.pos + 4;
  if v < 0 || rd.pos + v > String.length rd.src then
    raise (Malformed (Printf.sprintf "bad length %d in %s" v what));
  v

let r_string rd what =
  let n = r_len rd what in
  let s = String.sub rd.src rd.pos n in
  rd.pos <- rd.pos + n;
  s

let r_opt r rd what =
  match r_u8 rd what with
  | 0 -> None
  | 1 -> Some (r rd what)
  | n -> raise (Malformed (Printf.sprintf "bad option tag %d in %s" n what))

let r_list r rd what =
  let n = r_len rd what in
  (* every element encodes at least one byte, so a count beyond the
     remaining payload is malformed — reject before allocating. *)
  if n > String.length rd.src - rd.pos then
    raise (Malformed (Printf.sprintf "bad count %d in %s" n what));
  List.init n (fun _ -> r rd what)

let r_engine rd what =
  match r_u8 rd what with
  | 0 -> Staged
  | 1 -> Reference
  | n -> raise (Malformed (Printf.sprintf "bad engine %d in %s" n what))

let r_budget rd what =
  let timeout_ms = r_opt r_int rd what in
  let max_facts = r_opt r_int rd what in
  let max_steps = r_opt r_int rd what in
  let max_candidates = r_opt r_int rd what in
  let jobs = r_opt r_int rd what in
  { timeout_ms; max_facts; max_steps; max_candidates; jobs }

(* ---------------- framing ---------------- *)

let frame body =
  let b = Buffer.create (String.length body + 4) in
  Buffer.add_int32_be b (Int32.of_int (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

type extracted =
  | Need_more  (** not yet a whole frame *)
  | Bad_length of int  (** length prefix is negative, zero or over the cap *)
  | Frame of string * int  (** payload and the offset just past the frame *)

let extract_frame ?(max_frame = max_frame_default) buf start =
  let avail = String.length buf - start in
  if avail < 4 then Need_more
  else begin
    let len = Int32.to_int (String.get_int32_be buf start) in
    if len < 1 || len > max_frame then Bad_length len
    else if avail - 4 < len then Need_more
    else Frame (String.sub buf (start + 4) len, start + 4 + len)
  end

(* ---------------- requests ---------------- *)

let tag_ping = 0x01
let tag_load = 0x02
let tag_assert = 0x03
let tag_retract = 0x04
let tag_run = 0x05
let tag_enumerate = 0x06
let tag_query = 0x07
let tag_stats = 0x08
let tag_shutdown = 0x09
let tag_attach = 0x0a

(* the envelope: tag, i64 request id, then the bare payload verbatim.
   0x7f/0xff sit at the top of each tag space so they can never
   collide with a frame kind. *)
let tag_req_envelope = 0x7f
let tag_resp_envelope = 0xff

let write_request b req =
  (match req with
   | Ping -> w_u8 b tag_ping
   | Load src ->
     w_u8 b tag_load;
     w_string b src
   | Assert_facts { text; id } ->
     w_u8 b tag_assert;
     w_string b text;
     w_opt w_int b id
   | Retract_facts { text; id } ->
     w_u8 b tag_retract;
     w_string b text;
     w_opt w_int b id
   | Run { engine; seed; preds; budget } ->
     w_u8 b tag_run;
     w_engine b engine;
     w_opt w_int b seed;
     w_opt (w_list w_string) b preds;
     w_budget b budget
   | Enumerate { max_models; preds } ->
     w_u8 b tag_enumerate;
     w_int b max_models;
     w_opt (w_list w_string) b preds
   | Query { engine; text; budget } ->
     w_u8 b tag_query;
     w_engine b engine;
     w_string b text;
     w_budget b budget
   | Stats -> w_u8 b tag_stats
   | Shutdown -> w_u8 b tag_shutdown
   | Attach id ->
     w_u8 b tag_attach;
     w_opt w_int b id)

let encode_request req =
  let b = Buffer.create 64 in
  write_request b req;
  frame (Buffer.contents b)

let encode_request_v2 ~rid req =
  let b = Buffer.create 72 in
  w_u8 b tag_req_envelope;
  w_int b rid;
  write_request b req;
  frame (Buffer.contents b)

let finish rd v what =
  if rd.pos <> String.length rd.src then
    raise (Malformed (Printf.sprintf "%d trailing byte(s) after %s" (String.length rd.src - rd.pos) what));
  v

let read_request rd =
  let tag = r_u8 rd "request tag" in
  if tag = tag_ping then Ping
  else if tag = tag_load then Load (r_string rd "load")
  else if tag = tag_assert then begin
    let text = r_string rd "assert" in
    Assert_facts { text; id = r_opt r_int rd "assert" }
  end
  else if tag = tag_retract then begin
    let text = r_string rd "retract" in
    Retract_facts { text; id = r_opt r_int rd "retract" }
  end
  else if tag = tag_run then begin
    let engine = r_engine rd "run" in
    let seed = r_opt r_int rd "run" in
    let preds = r_opt (r_list r_string) rd "run" in
    let budget = r_budget rd "run" in
    Run { engine; seed; preds; budget }
  end
  else if tag = tag_enumerate then begin
    let max_models = r_int rd "enumerate" in
    let preds = r_opt (r_list r_string) rd "enumerate" in
    Enumerate { max_models; preds }
  end
  else if tag = tag_query then begin
    let engine = r_engine rd "query" in
    let text = r_string rd "query" in
    let budget = r_budget rd "query" in
    Query { engine; text; budget }
  end
  else if tag = tag_stats then Stats
  else if tag = tag_shutdown then Shutdown
  else if tag = tag_attach then Attach (r_opt r_int rd "attach")
  else raise (Malformed (Printf.sprintf "unknown request tag 0x%02x" tag))

(* Both wire forms: an enveloped payload yields [Some rid], a bare one
   [None]; the connection needs no decode mode. *)
let decode_request body =
  let rd = { src = body; pos = 0 } in
  try
    if String.length body > 0 && Char.code body.[0] = tag_req_envelope then begin
      rd.pos <- 1;
      let rid = r_int rd "request envelope" in
      let req = read_request rd in
      Ok (Some rid, finish rd req "request")
    end
    else Ok (None, finish rd (read_request rd) "request")
  with Malformed msg -> Result.Error msg

(* ---------------- responses ---------------- *)

let tag_pong = 0x81
let tag_loaded = 0x82
let tag_asserted = 0x83
let tag_retracted = 0x84
let tag_model = 0x85
let tag_model_set = 0x86
let tag_answers = 0x87
let tag_stats_json = 0x88
let tag_error = 0x89
let tag_bye = 0x8a
let tag_attached = 0x8b

let write_response b resp =
  (match resp with
   | Pong -> w_u8 b tag_pong
   | Loaded { clauses; cache_hit; digest; stage_stratified } ->
     w_u8 b tag_loaded;
     w_int b clauses;
     w_bool b cache_hit;
     w_string b digest;
     w_bool b stage_stratified
   | Asserted { added } ->
     w_u8 b tag_asserted;
     w_int b added
   | Retracted { removed } ->
     w_u8 b tag_retracted;
     w_int b removed
   | Model { complete; text; diagnostic } ->
     w_u8 b tag_model;
     w_bool b complete;
     w_string b text;
     w_opt w_string b diagnostic
   | Model_set { total; models } ->
     w_u8 b tag_model_set;
     w_int b total;
     w_list w_string b models
   | Answers { complete; vars; rows } ->
     w_u8 b tag_answers;
     w_bool b complete;
     w_list w_string b vars;
     w_list w_string b rows
   | Stats_json json ->
     w_u8 b tag_stats_json;
     w_string b json
   | Error { code; message } ->
     w_u8 b tag_error;
     w_u8 b (error_code_to_int code);
     w_string b message
   | Bye -> w_u8 b tag_bye
   | Attached { id } ->
     w_u8 b tag_attached;
     w_int b id)

let encode_response resp =
  let b = Buffer.create 256 in
  write_response b resp;
  frame (Buffer.contents b)

let encode_response_v2 ~rid resp =
  let b = Buffer.create 264 in
  w_u8 b tag_resp_envelope;
  w_int b rid;
  write_response b resp;
  frame (Buffer.contents b)

let read_response rd =
  let tag = r_u8 rd "response tag" in
  if tag = tag_pong then Pong
  else if tag = tag_loaded then begin
    let clauses = r_int rd "loaded" in
    let cache_hit = r_bool rd "loaded" in
    let digest = r_string rd "loaded" in
    let stage_stratified = r_bool rd "loaded" in
    Loaded { clauses; cache_hit; digest; stage_stratified }
  end
  else if tag = tag_asserted then Asserted { added = r_int rd "asserted" }
  else if tag = tag_retracted then Retracted { removed = r_int rd "retracted" }
  else if tag = tag_model then begin
    let complete = r_bool rd "model" in
    let text = r_string rd "model" in
    let diagnostic = r_opt r_string rd "model" in
    Model { complete; text; diagnostic }
  end
  else if tag = tag_model_set then begin
    let total = r_int rd "model-set" in
    let models = r_list r_string rd "model-set" in
    Model_set { total; models }
  end
  else if tag = tag_answers then begin
    let complete = r_bool rd "answers" in
    let vars = r_list r_string rd "answers" in
    let rows = r_list r_string rd "answers" in
    Answers { complete; vars; rows }
  end
  else if tag = tag_stats_json then Stats_json (r_string rd "stats")
  else if tag = tag_error then begin
    let code =
      match error_code_of_int (r_u8 rd "error") with
      | Some c -> c
      | None -> raise (Malformed "unknown error code")
    in
    let message = r_string rd "error" in
    Error { code; message }
  end
  else if tag = tag_bye then Bye
  else if tag = tag_attached then Attached { id = r_int rd "attached" }
  else raise (Malformed (Printf.sprintf "unknown response tag 0x%02x" tag))

let decode_response body =
  let rd = { src = body; pos = 0 } in
  try Ok (finish rd (read_response rd) "response")
  with Malformed msg -> Result.Error msg

let decode_response_v2 body =
  let rd = { src = body; pos = 0 } in
  try
    if String.length body > 0 && Char.code body.[0] = tag_resp_envelope then begin
      rd.pos <- 1;
      let rid = r_int rd "response envelope" in
      let resp = read_response rd in
      Ok (Some rid, finish rd resp "response")
    end
    else Ok (None, finish rd (read_response rd) "response")
  with Malformed msg -> Result.Error msg
