(* The gbcd wire protocol: QCheck round-trips for every frame type,
   plus totality on malformed input — truncated length prefixes,
   oversized frames, garbage payloads, trailing bytes.  A server must
   be able to answer any byte sequence with a structured error, so
   nothing here may raise. *)

open Gbc

(* ---------------- generators ---------------- *)

let gen_small_string = QCheck.Gen.(string_size ~gen:printable (int_bound 40))

(* include the bytes that break naive framing: NULs, high bit, '\n' *)
let gen_binary_string =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60))

let gen_opt g = QCheck.Gen.(oneof [ return None; map Option.some g ])

let gen_engine = QCheck.Gen.oneofl [ Protocol.Staged; Protocol.Reference ]

let gen_budget =
  QCheck.Gen.(
    map2
      (fun (a, b) (c, d, j) ->
        { Protocol.timeout_ms = a; max_facts = b; max_steps = c; max_candidates = d; jobs = j })
      (pair (gen_opt (int_bound 1_000_000)) (gen_opt (int_bound 1_000_000)))
      (triple (gen_opt (int_bound 1_000_000)) (gen_opt (int_bound 1_000_000))
         (gen_opt (int_bound 64))))

let gen_preds = gen_opt QCheck.Gen.(list_size (int_bound 5) gen_small_string)

let gen_request =
  QCheck.Gen.(
    oneof
      [ return Protocol.Ping;
        map (fun s -> Protocol.Load s) gen_binary_string;
        map2
          (fun text id -> Protocol.Assert_facts { text; id })
          gen_binary_string (gen_opt (int_bound 1_000_000_000));
        map2
          (fun text id -> Protocol.Retract_facts { text; id })
          gen_binary_string (gen_opt (int_bound 1_000_000_000));
        map (fun s -> Protocol.Attach s) (gen_opt (int_bound 1_000_000));
        map4
          (fun engine seed preds budget -> Protocol.Run { engine; seed; preds; budget })
          gen_engine (gen_opt (int_bound 1_000_000)) gen_preds gen_budget;
        map2
          (fun max_models preds -> Protocol.Enumerate { max_models; preds })
          (int_bound 1000) gen_preds;
        map3
          (fun engine text budget -> Protocol.Query { engine; text; budget })
          gen_engine gen_binary_string gen_budget;
        return Protocol.Stats;
        return Protocol.Shutdown ])

let all_error_codes =
  [ Protocol.Lex_error; Protocol.Parse_error; Protocol.Unsafe; Protocol.Unsupported;
    Protocol.Not_compilable; Protocol.Io_error; Protocol.Protocol_violation;
    Protocol.No_program; Protocol.Budget_exhausted; Protocol.Draining; Protocol.Server_error;
    Protocol.Not_retractable; Protocol.No_session ]

let gen_response =
  QCheck.Gen.(
    oneof
      [ return Protocol.Pong;
        return Protocol.Bye;
        map4
          (fun clauses cache_hit digest stage_stratified ->
            Protocol.Loaded { clauses; cache_hit; digest; stage_stratified })
          (int_bound 10_000) bool gen_small_string bool;
        map (fun added -> Protocol.Asserted { added }) (int_bound 1000);
        map (fun removed -> Protocol.Retracted { removed }) (int_bound 1000);
        map (fun id -> Protocol.Attached { id }) (int_bound 1_000_000);
        map3
          (fun complete text diagnostic -> Protocol.Model { complete; text; diagnostic })
          bool gen_binary_string (gen_opt gen_binary_string);
        map2
          (fun total models -> Protocol.Model_set { total; models })
          (int_bound 1000)
          (list_size (int_bound 5) gen_binary_string);
        map3
          (fun complete vars rows -> Protocol.Answers { complete; vars; rows })
          bool
          (list_size (int_bound 5) gen_small_string)
          (list_size (int_bound 5) gen_binary_string);
        map (fun s -> Protocol.Stats_json s) gen_binary_string;
        map2
          (fun code message -> Protocol.Error { code; message })
          (oneofl all_error_codes) gen_binary_string ])

(* ---------------- round trips ---------------- *)

let strip_frame encoded =
  match Protocol.extract_frame encoded 0 with
  | Protocol.Frame (body, next) ->
    Alcotest.(check int) "frame consumes everything" (String.length encoded) next;
    body
  | _ -> Alcotest.fail "encode did not produce one whole frame"

let request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode round-trip"
    (QCheck.make gen_request) (fun req ->
      match Protocol.decode_request (strip_frame (Protocol.encode_request req)) with
      | Ok (None, req') -> req = req'
      | Ok (Some _, _) -> QCheck.Test.fail_reportf "a bare request decoded with an id"
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response encode/decode round-trip"
    (QCheck.make gen_response) (fun resp ->
      match Protocol.decode_response (strip_frame (Protocol.encode_response resp)) with
      | Ok resp' -> resp = resp'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* ---------------- envelopes ---------------- *)

let gen_rid = QCheck.Gen.(oneof [ int_bound 1_000_000; return 0; return max_int ])

let enveloped_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"v2 request envelope round-trip (id preserved)"
    (QCheck.make QCheck.Gen.(pair gen_rid gen_request)) (fun (rid, req) ->
      match Protocol.decode_request (strip_frame (Protocol.encode_request_v2 ~rid req)) with
      | Ok (Some rid', req') -> rid = rid' && req = req'
      | Ok (None, _) -> QCheck.Test.fail_reportf "envelope id lost"
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let enveloped_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"v2 response envelope round-trip (id preserved)"
    (QCheck.make QCheck.Gen.(pair gen_rid gen_response)) (fun (rid, resp) ->
      match Protocol.decode_response_v2 (strip_frame (Protocol.encode_response_v2 ~rid resp)) with
      | Ok (Some rid', resp') -> rid = rid' && resp = resp'
      | Ok (None, _) -> QCheck.Test.fail_reportf "envelope id lost"
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* the decoders accept bare frames unchanged: same connection, both
   framings, no mode switch *)
let bare_through_v2 =
  QCheck.Test.make ~count:500 ~name:"bare v1 frames decode through the v2 entry points"
    (QCheck.make QCheck.Gen.(pair gen_request gen_response)) (fun (req, resp) ->
      (match Protocol.decode_request (strip_frame (Protocol.encode_request req)) with
      | Ok (None, req') when req' = req -> ()
      | Ok _ -> QCheck.Test.fail_reportf "bare request misdecoded"
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg);
      match Protocol.decode_response_v2 (strip_frame (Protocol.encode_response resp)) with
      | Ok (None, resp') when resp' = resp -> true
      | Ok _ -> QCheck.Test.fail_reportf "bare response misdecoded"
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let garbage_payload_v2 =
  QCheck.Test.make ~count:1000 ~name:"v2 decoders are total on garbage"
    (QCheck.make gen_binary_string) (fun payload ->
      (match Protocol.decode_request payload with Ok _ | Error _ -> ());
      (match Protocol.decode_response_v2 payload with Ok _ | Error _ -> ());
      (* envelope tags followed by junk, and truncated envelopes *)
      (match Protocol.decode_request ("\x7f" ^ payload) with Ok _ | Error _ -> ());
      (match Protocol.decode_response_v2 ("\xff" ^ payload) with Ok _ | Error _ -> ());
      true)

let truncated_envelope () =
  let body = strip_frame (Protocol.encode_request_v2 ~rid:42 Protocol.Ping) in
  for len = 0 to String.length body - 1 do
    match Protocol.decode_request (String.sub body 0 len) with
    | Ok (Some 42, Protocol.Ping) -> Alcotest.fail "a strict prefix decoded whole"
    | Ok _ | Error _ -> ()
  done

(* Tag 0x0b once carried a version handshake.  It is retired: bare or
   enveloped, it is an unknown tag, which a server answers with a
   protocol-violation error. *)
let retired_hello_tag () =
  let hello = "\x0b" ^ String.init 8 (fun i -> if i = 7 then '\x02' else '\x00') in
  List.iter
    (fun (what, body) ->
      match Protocol.decode_request body with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " retired tag 0x0b decoded"))
    [ ("bare", hello); ("enveloped", "\x7f" ^ String.make 8 '\x00' ^ hello) ]

(* every error code survives the int mapping *)
let error_code_ints () =
  List.iter
    (fun c ->
      match Protocol.error_code_of_int (Protocol.error_code_to_int c) with
      | Some c' -> Alcotest.(check bool) "code survives" true (c = c')
      | None -> Alcotest.fail "error code does not survive the int round-trip")
    all_error_codes

(* ---------------- framing ---------------- *)

let frame_of_len n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let truncated_prefix () =
  (* anything shorter than the 4-byte prefix, or a prefix promising
     more bytes than are present, is Need_more — never an exception *)
  List.iter
    (fun s ->
      match Protocol.extract_frame s 0 with
      | Protocol.Need_more -> ()
      | _ -> Alcotest.fail ("expected Need_more on " ^ String.escaped s))
    [ ""; "\x00"; "\x00\x00"; "\x00\x00\x00"; frame_of_len 5 ^ "abc" ]

let oversized_frame () =
  (match Protocol.extract_frame ~max_frame:1024 (frame_of_len 2048) 0 with
   | Protocol.Bad_length n -> Alcotest.(check int) "reported length" 2048 n
   | _ -> Alcotest.fail "oversized length must be rejected before buffering");
  (* a negative 32-bit prefix must not be treated as a length *)
  (match Protocol.extract_frame "\xff\xff\xff\xff" 0 with
   | Protocol.Bad_length _ -> ()
   | _ -> Alcotest.fail "negative length must be Bad_length");
  match Protocol.extract_frame (frame_of_len 0) 0 with
  | Protocol.Bad_length 0 -> ()
  | _ -> Alcotest.fail "zero-length frame must be Bad_length"

let garbage_payload =
  QCheck.Test.make ~count:1000 ~name:"garbage payloads decode to Error, never raise"
    (QCheck.make gen_binary_string) (fun payload ->
      (match Protocol.decode_request payload with Ok _ | Error _ -> ());
      (match Protocol.decode_response payload with Ok _ | Error _ -> ());
      true)

let truncated_valid_payload =
  (* every strict prefix of a well-formed payload is a structured error *)
  QCheck.Test.make ~count:200 ~name:"truncated payloads are structured errors"
    (QCheck.make gen_request) (fun req ->
      let body = strip_frame (Protocol.encode_request req) in
      let ok = ref true in
      for len = 0 to String.length body - 1 do
        match Protocol.decode_request (String.sub body 0 len) with
        | Ok (_, req') when req' = req -> ok := false  (* a prefix must not decode to the same value *)
        | Ok _ | Error _ -> ()
      done;
      !ok)

let trailing_bytes () =
  let body = strip_frame (Protocol.encode_request Protocol.Ping) in
  match Protocol.decode_request (body ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must be a decode error"

let response_tag_is_not_a_request () =
  let body = strip_frame (Protocol.encode_response Protocol.Pong) in
  match Protocol.decode_request body with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a response tag must not decode as a request"

let split_stream () =
  (* two frames back to back, delivered byte by byte, come out whole *)
  let f1 = Protocol.encode_request Protocol.Ping in
  let f2 = Protocol.encode_request (Protocol.Load "p(1).") in
  let stream = f1 ^ f2 in
  let got = ref [] in
  let buf = Buffer.create 16 in
  String.iter
    (fun ch ->
      Buffer.add_char buf ch;
      let rec drain () =
        match Protocol.extract_frame (Buffer.contents buf) 0 with
        | Protocol.Frame (body, next) ->
          got := body :: !got;
          let rest = Buffer.contents buf in
          Buffer.clear buf;
          Buffer.add_string buf (String.sub rest next (String.length rest - next));
          drain ()
        | Protocol.Need_more -> ()
        | Protocol.Bad_length _ -> Alcotest.fail "valid stream misframed"
      in
      drain ())
    stream;
  match List.rev_map Protocol.decode_request !got with
  | [ Ok (None, Protocol.Ping); Ok (None, Protocol.Load "p(1).") ] -> ()
  | _ -> Alcotest.fail "byte-by-byte delivery lost or reordered frames"

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "protocol"
    [ ( "roundtrip",
        [ qt request_roundtrip; qt response_roundtrip;
          Alcotest.test_case "error codes" `Quick error_code_ints ] );
      ( "v2-envelopes",
        [ qt enveloped_request_roundtrip; qt enveloped_response_roundtrip;
          qt bare_through_v2; qt garbage_payload_v2;
          Alcotest.test_case "truncated envelope" `Quick truncated_envelope;
          Alcotest.test_case "retired hello tag is refused" `Quick retired_hello_tag ] );
      ( "malformed",
        [ Alcotest.test_case "truncated length prefix" `Quick truncated_prefix;
          Alcotest.test_case "oversized / zero / negative length" `Quick oversized_frame;
          qt garbage_payload; qt truncated_valid_payload;
          Alcotest.test_case "trailing bytes rejected" `Quick trailing_bytes;
          Alcotest.test_case "response tag is not a request" `Quick response_tag_is_not_a_request;
          Alcotest.test_case "byte-by-byte reassembly" `Quick split_stream ] ) ]
