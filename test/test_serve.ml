(* Serve layer, socketless: wire-format round-trips, malformed-frame
   rejection, HTTP routing, and job dispatch producing output
   byte-identical to the offline codec path. The live end-to-end path
   (real sockets, real daemon) is exercised by tools/serve_check.sh. *)

module P = Ccomp_progen
module Samc = Ccomp_core.Samc
module Image = Ccomp_image.Image
module Serve = Ccomp_serve.Serve

let profile =
  { (P.Profile.find "ijpeg") with P.Profile.name = "srv"; target_ops = 600; functions = 6 }

let mips_code =
  lazy
    (let prog = P.Generator.generate ~seed:91L profile in
     let _, layout = P.Mips_backend.lower prog in
     layout.P.Layout.code)

let no_meta = { Serve.deadline_ms = 0; request_id = 0L }

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Serve.decode_request (Serve.encode_request req) with
      | Ok got -> Alcotest.(check bool) "request survives the wire" true (got = (req, no_meta))
      | Error e -> Alcotest.failf "round-trip failed: %s" (Serve.protocol_error_to_string e))
    [
      Serve.Compress { algo = Serve.Samc; isa = Serve.Mips; block_size = 32; code = "\x00\x01\xff" };
      Serve.Compress { algo = Serve.Sadc; isa = Serve.X86; block_size = 64; code = "" };
      Serve.Decompress "arbitrary \x00 bytes";
      Serve.Ping;
      Serve.Crash_worker;
    ]

let test_deadline_roundtrip () =
  (* the deadline field rides the header, not the payload *)
  List.iter
    (fun ms ->
      match Serve.decode_request (Serve.encode_request ~deadline_ms:ms (Serve.Decompress "x")) with
      | Ok (Serve.Decompress "x", got) ->
        Alcotest.(check int)
          (Printf.sprintf "deadline %dms survives the wire" ms)
          ms got.Serve.deadline_ms
      | Ok _ -> Alcotest.fail "request mangled"
      | Error e -> Alcotest.failf "round-trip failed: %s" (Serve.protocol_error_to_string e))
    [ 0; 1; 250; 0x7fffffff ]

let test_request_id_roundtrip () =
  List.iter
    (fun id ->
      match Serve.decode_request (Serve.encode_request ~request_id:id Serve.Ping) with
      | Ok (Serve.Ping, got) ->
        Alcotest.(check int64)
          (Printf.sprintf "request id %Ld survives the wire" id)
          id got.Serve.request_id
      | Ok _ -> Alcotest.fail "request mangled"
      | Error e -> Alcotest.failf "round-trip failed: %s" (Serve.protocol_error_to_string e))
    [ 0L; 1L; 0xdeadbeefL; Int64.max_int; -1L ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Serve.decode_response (Serve.encode_response resp) with
      | Ok got -> Alcotest.(check bool) "response survives the wire" true (got = (resp, None))
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [
      Serve.Payload "\x00binary\xff";
      Serve.Payload "";
      Serve.Failed "no such image";
      Serve.Overloaded "job queue full";
      Serve.Deadline_expired "0.3ms over";
    ]

let test_timing_roundtrip () =
  let timing =
    { Serve.t_request_id = 77L; t_queue_us = 123; t_service_us = 45678; t_server_us = 46000 }
  in
  (match Serve.decode_response (Serve.encode_response ~timing (Serve.Payload "data")) with
  | Ok (Serve.Payload "data", Some got) ->
    Alcotest.(check bool) "timing record survives the wire" true (got = timing)
  | Ok _ -> Alcotest.fail "response mangled"
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* durations past 32 bits cap instead of wrapping to something small *)
  let big = { timing with Serve.t_service_us = 0x1_2345_6789 } in
  match Serve.decode_response (Serve.encode_response ~timing:big (Serve.Payload "")) with
  | Ok (_, Some got) ->
    Alcotest.(check int) "oversized duration caps at u32 max" 0xFFFF_FFFF got.Serve.t_service_us
  | Ok (_, None) -> Alcotest.fail "timing record lost"
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let expect_error name = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: malformed frame must be rejected" name

(* hand-build a request header: magic, op, algo, isa, block(2,BE),
   deadline(4,BE), request_id(8,BE), payload_len(4,BE) *)
let be32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let frame ?(magic = "CCQ1") ?(algo = 0) ?(isa = 0) ?(block = 0) ?(deadline = 0) ?len ~op payload =
  let len = match len with Some l -> l | None -> String.length payload in
  magic
  ^ String.init 3 (fun i -> Char.chr [| op; algo; isa |].(i))
  ^ String.init 2 (fun i -> Char.chr ((block lsr (8 * (1 - i))) land 0xff))
  ^ be32 deadline
  ^ String.make 8 '\x00' (* request id *)
  ^ be32 len ^ payload

let test_malformed_frames () =
  expect_error "empty" (Serve.decode_request "");
  expect_error "bad magic" (Serve.decode_request (frame ~magic:"XXXX" ~op:3 ""));
  expect_error "short header" (Serve.decode_request "CCQ1\x03");
  expect_error "old 13-byte header" (Serve.decode_request "CCQ1\x03\x00\x00\x00\x00\x00\x00\x00\x00");
  expect_error "old 17-byte header (pre-request-id wire)"
    (Serve.decode_request ("CCQ1\x03" ^ String.make 12 '\x00'));
  expect_error "length mismatch" (Serve.decode_request (frame ~op:2 ~len:9 "short"));
  expect_error "unknown opcode" (Serve.decode_request (frame ~op:7 ""));
  expect_error "zero block size" (Serve.decode_request (frame ~op:1 ~block:0 "x"));
  expect_error "unknown algo" (Serve.decode_request (frame ~op:1 ~algo:9 ~block:32 "x"));
  expect_error "response bad magic" (Serve.decode_response "CCQX\x00\x00\x00\x00\x00\x00");
  expect_error "response truncated" (Serve.decode_response "CCR1\x00\x00\x00\x00\x00\x05ab");
  expect_error "response unknown status" (Serve.decode_response "CCR1\x09\x00\x00\x00\x00\x00");
  expect_error "response old 9-byte header (pre-timing wire)"
    (Serve.decode_response "CCR1\x00\x00\x00\x00\x00");
  expect_error "response bogus timing length"
    (Serve.decode_response ("CCR1\x00\x05" ^ be32 0 ^ "xxxxx"));
  (* the error is typed: a declared-oversize frame is Frame_too_large
     even when no payload bytes follow *)
  match Serve.decode_request (frame ~op:2 ~len:(Serve.max_payload + 1) "") with
  | Error (Serve.Frame_too_large { limit; got }) ->
    Alcotest.(check int) "limit reported" Serve.max_payload limit;
    Alcotest.(check int) "declared length reported" (Serve.max_payload + 1) got
  | Error e ->
    Alcotest.failf "oversize frame: wanted Frame_too_large, got %s"
      (Serve.protocol_error_to_string e)
  | Ok _ -> Alcotest.fail "oversize frame must be rejected"

(* --- full framing path over a socketpair -------------------------------- *)

let with_socketpair f =
  let server, client = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close server with Unix.Unix_error _ -> ());
      (try Unix.close client with Unix.Unix_error _ -> ()))
    (fun () -> f server client)

let read_all fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ()

(* Feed [raw] to a live handle_connection in [chunk]-byte writes
   (default 1, so every server-side read returns a short transfer), then
   collect whatever the server answered. Callers sending more than the
   server will ever read must use large chunks: a flood of tiny writes
   can exhaust the socket's send-buffer accounting and block the feeder
   once the server stops reading. *)
let drive_connection ?(chunk = 1) raw =
  with_socketpair (fun server client ->
      let feeder =
        Domain.spawn (fun () ->
            let n = String.length raw in
            let pos = ref 0 in
            while !pos < n do
              let len = min chunk (n - !pos) in
              pos := !pos + Unix.write_substring client raw !pos len
            done;
            Unix.shutdown client Unix.SHUTDOWN_SEND)
      in
      Serve.handle_connection ~jobs:1 server;
      Unix.shutdown server Unix.SHUTDOWN_SEND;
      let resp = read_all client in
      Domain.join feeder;
      resp)

let test_partial_writes () =
  (* a whole request delivered in 1-byte reads must still parse *)
  let resp = drive_connection (Serve.encode_request Serve.Ping) in
  match Serve.decode_response resp with
  | Ok (Serve.Payload p, timing) ->
    Alcotest.(check string) "pong over short transfers" "pong" p;
    Alcotest.(check bool) "no timing echo without a request id" true (timing = None)
  | Ok (Serve.Failed e, _) -> Alcotest.failf "ping failed: %s" e
  | Ok _ -> Alcotest.fail "unexpected typed reply"
  | Error e -> Alcotest.failf "bad response frame: %s" e

let test_timing_echo () =
  (* a nonzero request id asks the daemon for its server-side split *)
  let resp = drive_connection ~chunk:64 (Serve.encode_request ~request_id:42L Serve.Ping) in
  match Serve.decode_response resp with
  | Ok (Serve.Payload p, Some t) ->
    Alcotest.(check string) "pong" "pong" p;
    Alcotest.(check int64) "request id echoed" 42L t.Serve.t_request_id;
    Alcotest.(check bool) "server_us covers the stages" true
      (t.Serve.t_server_us >= 0
      && t.Serve.t_queue_us >= 0
      && t.Serve.t_service_us >= 0
      && t.Serve.t_server_us >= t.Serve.t_service_us)
  | Ok (Serve.Payload _, None) -> Alcotest.fail "nonzero request id must be answered with timing"
  | Ok (Serve.Failed e, _) -> Alcotest.failf "ping failed: %s" e
  | Ok _ -> Alcotest.fail "unexpected typed reply"
  | Error e -> Alcotest.failf "bad response frame: %s" e

let test_oversize_frame_refused () =
  (* header declares a payload past max_payload; the daemon must answer
     Failed without waiting for (or allocating) the payload *)
  let header = frame ~op:2 ~len:(Serve.max_payload + 1) "" in
  match Serve.decode_response (drive_connection header) with
  | Ok (Serve.Failed msg, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "mentions the limit: %S" msg)
      true
      (String.length msg >= 15 && String.sub msg 0 15 = "frame too large")
  | Ok _ -> Alcotest.fail "oversize frame must not succeed"
  | Error e -> Alcotest.failf "bad response frame: %s" e

let test_truncated_frame_refused () =
  (* header promises 9 payload bytes, peer closes after 5 *)
  let raw = frame ~op:2 ~len:9 "short" in
  match Serve.decode_response (drive_connection raw) with
  | Ok (Serve.Failed msg, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "mentions truncation: %S" msg)
      true
      (String.length msg >= 9 && String.sub msg 0 9 = "truncated")
  | Ok _ -> Alcotest.fail "truncated frame must not succeed"
  | Error e -> Alcotest.failf "bad response frame: %s" e

let test_expired_deadline_on_arrival () =
  (* a frame arriving with a 1 ms budget and a deliberate pause before
     dispatch must come back Deadline_expired, not Payload *)
  let raw = Serve.encode_request ~deadline_ms:1 Serve.Ping in
  (* drive byte-by-byte: 25 one-byte writes take well over 1 ms of
     scheduling, so the budget is spent by dispatch time *)
  let resp = drive_connection raw in
  match Serve.decode_response resp with
  | Ok (Serve.Deadline_expired _, _) -> ()
  | Ok (Serve.Payload _, _) ->
    (* acceptable on a very fast machine: the frame beat the clock;
       retry with an unbeatable payload *)
    let code = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
    let raw =
      Serve.encode_request ~deadline_ms:1
        (Serve.Compress { algo = Serve.Samc; isa = Serve.Mips; block_size = 32; code })
    in
    (match Serve.decode_response (drive_connection ~chunk:65536 raw) with
    | Ok (Serve.Deadline_expired _, _) -> ()
    | Ok _ -> Alcotest.fail "a 1ms-deadline 1MiB compress must expire"
    | Error e -> Alcotest.failf "bad response frame: %s" e)
  | Ok _ -> Alcotest.fail "unexpected typed reply"
  | Error e -> Alcotest.failf "bad response frame: %s" e

let test_crash_op_gated () =
  (* without --unsafe-crash-op the opcode is refused with Failed, and
     the worker must NOT crash *)
  let raw = Serve.encode_request Serve.Crash_worker in
  match Serve.decode_response (drive_connection raw) with
  | Ok (Serve.Failed msg, _) ->
    Alcotest.(check bool) (Printf.sprintf "names the gate: %S" msg) true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "ungated crash op must be refused"
  | Error e -> Alcotest.failf "bad response frame: %s" e

let test_crash_op_raises_when_allowed () =
  match Serve.handle_request ~jobs:1 Serve.Crash_worker with
  | exception Serve.Worker_crashed -> ()
  | _ -> Alcotest.fail "handle_request must raise Worker_crashed for the chaos op"

let test_http_head_too_large () =
  (* an HTTP head that never terminates within max_http_head gets 413,
     not a misparse of the truncated request line *)
  let raw = "GET /" ^ String.make 9000 'a' in
  let resp = drive_connection ~chunk:4096 raw in
  let prefix = "HTTP/1.0 413" in
  Alcotest.(check bool) "413 on oversize head" true
    (String.length resp >= String.length prefix
    && String.sub resp 0 (String.length prefix) = prefix)

let test_ping () =
  match Serve.handle_request ~jobs:1 Serve.Ping with
  | Serve.Payload p -> Alcotest.(check string) "pong" "pong" p
  | Serve.Failed e -> Alcotest.failf "ping failed: %s" e
  | _ -> Alcotest.fail "unexpected typed reply"

let test_compress_byte_identity () =
  let code = Lazy.force mips_code in
  let served =
    match
      Serve.handle_request ~jobs:1
        (Serve.Compress { algo = Serve.Samc; isa = Serve.Mips; block_size = 32; code })
    with
    | Serve.Payload p -> p
    | Serve.Failed e -> Alcotest.failf "served compress failed: %s" e
    | _ -> Alcotest.fail "unexpected typed reply"
  in
  let offline =
    let cfg = Samc.mips_config ~block_size:32 ~context_bits:2 ~quantize:false ~prune_below:0 () in
    Image.write (Image.of_samc ~isa:Image.Mips (Samc.compress cfg code))
  in
  Alcotest.(check bool) "served image byte-identical to offline CLI path" true
    (served = offline)

let test_decompress_roundtrip () =
  let code = Lazy.force mips_code in
  let image =
    match
      Serve.handle_request ~jobs:1
        (Serve.Compress { algo = Serve.Sadc; isa = Serve.Mips; block_size = 32; code })
    with
    | Serve.Payload p -> p
    | Serve.Failed e -> Alcotest.failf "compress failed: %s" e
    | _ -> Alcotest.fail "unexpected typed reply"
  in
  match Serve.handle_request ~jobs:1 (Serve.Decompress image) with
  | Serve.Payload back -> Alcotest.(check bool) "decompress returns the program" true (back = code)
  | Serve.Failed e -> Alcotest.failf "decompress failed: %s" e
  | _ -> Alcotest.fail "unexpected typed reply"

let test_decompress_garbage () =
  match Serve.handle_request ~jobs:1 (Serve.Decompress "not an image at all") with
  | Serve.Failed _ -> ()
  | _ -> Alcotest.fail "garbage must not decompress"

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_http_routing () =
  (match Serve.http_response "/healthz" with
  | Some (200, _, body) -> Alcotest.(check string) "healthz body" "ok\n" body
  | _ -> Alcotest.fail "/healthz must be 200");
  (match Serve.http_response "/metrics" with
  | Some (200, ctype, body) ->
    let prefix = "application/openmetrics-text" in
    Alcotest.(check bool) "openmetrics content type" true
      (String.length ctype >= String.length prefix
      && String.sub ctype 0 (String.length prefix) = prefix);
    (match Ccomp_obs.Openmetrics.parse body with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "/metrics body must parse: %s" e);
    Alcotest.(check bool) "serve info metric exposed" true
      (contains ~needle:"# TYPE serve info" body && contains ~needle:"serve_info{" body);
    Alcotest.(check bool) "uptime gauge exposed" true
      (contains ~needle:"serve_uptime_seconds " body)
  | _ -> Alcotest.fail "/metrics must be 200");
  (match Serve.http_response "/snapshot" with
  | Some (200, _, body) -> (
    match Ccomp_obs.Obs.snapshot_of_json body with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "/snapshot body must parse: %s" e)
  | _ -> Alcotest.fail "/snapshot must be 200");
  (match Serve.http_response "/events?n=3" with
  | Some (200, _, _) -> ()
  | _ -> Alcotest.fail "/events must accept ?n=");
  (match Serve.http_response "/events?level=warn&n=3" with
  | Some (200, _, _) -> ()
  | _ -> Alcotest.fail "/events must accept ?level=");
  (match Serve.http_response "/events?level=noise" with
  | Some (400, _, body) ->
    Alcotest.(check bool) "400 names the bad level" true (contains ~needle:"noise" body)
  | _ -> Alcotest.fail "unknown ?level= must 400");
  match Serve.http_response "/nope" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown path must 404"

let test_events_level_filter_http () =
  (* the filter semantics through the HTTP path: last n at-or-above *)
  let module Events = Ccomp_obs.Events in
  let was = Events.enabled () in
  Events.set_enabled true;
  Events.clear ();
  Fun.protect
    ~finally:(fun () ->
      Events.clear ();
      Events.set_enabled was)
    (fun () ->
      Events.warn "w.one";
      Events.debug "d.noise";
      Events.error "e.two";
      Events.debug "d.more";
      match Serve.http_response "/events?level=warn&n=10" with
      | Some (200, _, body) ->
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
        Alcotest.(check int) "only the warn+ events" 2 (List.length lines);
        Alcotest.(check bool) "debug chatter filtered out" false
          (contains ~needle:"d.noise" body);
        Alcotest.(check bool) "both severities present" true
          (contains ~needle:"w.one" body && contains ~needle:"e.two" body)
      | _ -> Alcotest.fail "/events?level=warn must be 200")

(* --- CCQ1v4 keep-alive over a socketpair -------------------------------- *)

let rd32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* Split a stream of concatenated CCR1 frames into decoded replies —
   keep-alive responses arrive back-to-back on one connection, so the
   reader must find each frame's end from its own header. *)
let split_replies raw =
  let n = String.length raw in
  let rec go pos acc =
    if pos = n then List.rev acc
    else if pos + 10 > n then Alcotest.failf "torn reply header: %d trailing bytes" (n - pos)
    else begin
      let total = 10 + Char.code raw.[pos + 5] + rd32 raw (pos + 6) in
      if pos + total > n then Alcotest.failf "torn reply body at offset %d" pos
      else
        match Serve.decode_response (String.sub raw pos total) with
        | Ok r -> go (pos + total) (r :: acc)
        | Error e -> Alcotest.failf "bad reply frame at offset %d: %s" pos e
    end
  in
  go 0 []

(* drive_connection, keep-alive flavoured: optional idle timeout and
   recycle bound, feeder tolerant of the server closing first. *)
let drive_keepalive ?idle_timeout_s ?max_requests ?(chunk = 256) raw =
  with_socketpair (fun server client ->
      let feeder =
        Domain.spawn (fun () ->
            try
              let n = String.length raw in
              let pos = ref 0 in
              while !pos < n do
                let len = min chunk (n - !pos) in
                pos := !pos + Unix.write_substring client raw !pos len
              done;
              Unix.shutdown client Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ())
      in
      Serve.handle_connection ?idle_timeout_s ?max_requests ~jobs:1 server;
      (try Unix.shutdown server Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let resp = read_all client in
      Domain.join feeder;
      resp)

let test_keepalive_sequence () =
  (* several frames down one connection: one reply each, in order, no
     reconnect — the v4 contract *)
  let raw =
    Serve.encode_request Serve.Ping
    ^ Serve.encode_request (Serve.Decompress "junk")
    ^ Serve.encode_request ~request_id:9L Serve.Ping
  in
  match split_replies (drive_keepalive raw) with
  | [ (Serve.Payload "pong", None); (Serve.Failed _, None); (Serve.Payload "pong", Some t) ] ->
    Alcotest.(check int64) "third frame's id echoed" 9L t.Serve.t_request_id
  | rs -> Alcotest.failf "keep-alive: wanted 3 ordered replies, got %d" (List.length rs)

let test_keepalive_recycle () =
  (* max_requests 2 with 3 frames offered: exactly 2 replies, then a
     clean close — the recycle bound, not an error *)
  let raw = String.concat "" (List.init 3 (fun _ -> Serve.encode_request Serve.Ping)) in
  match split_replies (drive_keepalive ~max_requests:2 raw) with
  | [ (Serve.Payload "pong", _); (Serve.Payload "pong", _) ] -> ()
  | rs -> Alcotest.failf "recycle at 2: wanted exactly 2 replies, got %d" (List.length rs)

let test_keepalive_idle_close () =
  (* a frame, a reply, then silence past the idle timeout: the server
     must close (EOF at the client) instead of waiting forever *)
  with_socketpair (fun server client ->
      let f = Serve.encode_request Serve.Ping in
      let feeder =
        Domain.spawn (fun () ->
            try
              ignore (Unix.write_substring client f 0 (String.length f));
              Unix.sleepf 0.8;
              ignore (Unix.write_substring client f 0 (String.length f));
              Unix.shutdown client Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ())
      in
      Serve.handle_connection ~idle_timeout_s:0.2 ~jobs:1 server;
      (try Unix.shutdown server Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let resp = read_all client in
      Domain.join feeder;
      match split_replies resp with
      | [ (Serve.Payload "pong", _) ] -> ()
      | rs -> Alcotest.failf "idle close: wanted exactly 1 reply, got %d" (List.length rs))

let test_keepalive_partial_preamble () =
  (* a whole frame then 2 bytes of a next magic and EOF: the first job
     is answered, the torn preamble closes quietly *)
  (match split_replies (drive_keepalive (Serve.encode_request Serve.Ping ^ "CC")) with
  | [ (Serve.Payload "pong", _) ] -> ()
  | rs -> Alcotest.failf "partial preamble: wanted exactly 1 reply, got %d" (List.length rs));
  (* a whole frame then half of a next header: the first job is still
     answered; the torn successor yields at most a typed Failed *)
  let torn = String.sub (Serve.encode_request (Serve.Decompress "yyyy")) 0 10 in
  match split_replies (drive_keepalive (Serve.encode_request Serve.Ping ^ torn)) with
  | (Serve.Payload "pong", _) :: rest ->
    List.iter
      (function
        | Serve.Failed _, _ -> ()
        | _ -> Alcotest.fail "a torn successor must not produce a payload reply")
      rest
  | _ -> Alcotest.fail "first complete frame must be answered despite a torn successor"

let qcheck_pipelined_eq_serial =
  (* pipelining is pure framing: the byte stream for N requests down
     one connection equals the concatenation of the N one-shot reply
     streams (request_id 0 keeps replies timing-free, so deterministic) *)
  let req_gen =
    QCheck.Gen.(
      int_range 0 2 >>= function
      | 0 -> return Serve.Ping
      | 1 -> map (fun s -> Serve.Decompress s) (string_size ~gen:printable (int_range 0 40))
      | _ ->
        map
          (fun words ->
            let code = String.concat "" (List.map (fun w -> be32 w) words) in
            Serve.Compress { algo = Serve.Samc; isa = Serve.Mips; block_size = 32; code })
          (list_size (int_range 1 12) (int_range 0 0xffffff)))
  in
  let print_reqs reqs =
    String.concat ";"
      (List.map
         (function
           | Serve.Ping -> "ping"
           | Serve.Decompress s -> Printf.sprintf "decompress(%d)" (String.length s)
           | Serve.Compress { code; _ } -> Printf.sprintf "compress(%d)" (String.length code)
           | Serve.Crash_worker -> "crash")
         reqs)
  in
  QCheck.Test.make ~count:25 ~name:"pipelined replies = concatenated one-shot replies"
    (QCheck.make ~print:print_reqs QCheck.Gen.(list_size (int_range 1 4) req_gen))
    (fun reqs ->
      let pipelined =
        drive_keepalive (String.concat "" (List.map Serve.encode_request reqs))
      in
      let serial =
        String.concat "" (List.map (fun r -> drive_keepalive (Serve.encode_request r)) reqs)
      in
      pipelined = serial)

(* --- the client refuses a reply header it cannot trust ------------------ *)

(* A fake server answers the first request with [header] and then holds
   the connection open: a client that believed the header would sit out
   its whole 5 s timeout. *)
let test_reply_header_validated () =
  let refused (what, header) =
    let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen lfd 1;
    let port = match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
    let server =
      Domain.spawn (fun () ->
          let fd, _ = Unix.accept lfd in
          let req = Serve.encode_request Serve.Ping in
          ignore (Unix.read fd (Bytes.create (String.length req)) 0 (String.length req));
          ignore (Unix.write_substring fd header 0 (String.length header));
          ignore (read_all fd);
          Unix.close fd)
    in
    let c = Result.get_ok (Serve.Conn.connect ~timeout_s:5.0 ~host:"127.0.0.1" ~port ()) in
    let t0 = Unix.gettimeofday () in
    let r = Serve.Conn.submit c Serve.Ping in
    let dt = Unix.gettimeofday () -. t0 in
    Serve.Conn.close c;
    Domain.join server;
    Unix.close lfd;
    Alcotest.(check bool)
      (Printf.sprintf "%s: typed Transport error after %.2fs" what dt)
      true
      ((match r with Error (Serve.Conn.Transport _) -> true | _ -> false) && dt < 2.0)
  in
  List.iter refused
    [
      ("4 GiB payload", "CCR1\x00\x00\xff\xff\xff\xff");
      ("unknown timing length", "CCR1\x00\x07\x00\x00\x00\x00");
    ]

(* --- the daemon's worker loops, in process ------------------------------- *)

(* Run [Serve.run] (one worker by default) on an ephemeral port in a
   domain of this process, hand [f] the port, then end the daemon the
   way an operator does — SIGTERM to the process. Returns [f]'s result
   and the seconds the daemon took to return after the signal. *)
let with_daemon ?(cfg = fun c -> c) f =
  let gc = Gc.get () in
  let port = Atomic.make 0 in
  let base = { Serve.default_config with Serve.port = 0; workers = 1; idle_timeout_s = 5.0 } in
  let daemon = Domain.spawn (fun () -> Serve.run (cfg base) ~on_ready:(Atomic.set port)) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let stop () =
    let t0 = Unix.gettimeofday () in
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    Domain.join daemon;
    Gc.set gc;
    Unix.gettimeofday () -. t0
  in
  match f (Atomic.get port) with
  | v -> (v, stop ())
  | exception e ->
    ignore (stop ());
    raise e

let connect port =
  match Serve.Conn.connect ~timeout_s:10.0 ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let submit c req =
  match Serve.Conn.submit c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "submit: %s" (Serve.Conn.error_message e)

let ping c = Alcotest.(check bool) "pong" true (submit c Serve.Ping = Serve.Payload "pong")

let test_loop_interleaved_conns () =
  (* one worker owns both connections; frames alternate between them,
     and each reply is the oracle's and echoes its own request id *)
  let code = Lazy.force mips_code in
  let compress = Serve.Compress { algo = Serve.Sadc; isa = Serve.Mips; block_size = 32; code } in
  let image = match Serve.handle_request ~jobs:1 compress with Serve.Payload p -> p | _ -> "" in
  let reqs = [| compress; Serve.Decompress image; Serve.Ping |] in
  fst
  @@ with_daemon (fun port ->
         let conns = [| connect port; connect port |] in
         for i = 0 to 5 do
           let req = reqs.(i mod 3) and id = Int64.of_int (100 + i) in
           match Serve.Conn.submit_timed ~request_id:id conns.(i mod 2) req with
           | Ok (resp, Some t) ->
             Alcotest.(check int64) "own request id echoed" id t.Serve.t_request_id;
             Alcotest.(check bool) "oracle reply" true (resp = Serve.handle_request ~jobs:1 req)
           | Ok (_, None) -> Alcotest.fail "traced frame answered without timing"
           | Error e -> Alcotest.failf "frame %d: %s" i (Serve.Conn.error_message e)
         done;
         Array.iter Serve.Conn.close conns)

(* [held] connections are each answered, and the next one shed, in
   well under the 5 s idle budget; the held ones keep working after the
   shed. With [stuck], a peer that sent one preamble byte and stopped
   first holds a worker in the frame read for that whole budget, and
   admission must not wait behind it. *)
let admits_then_sheds ?(stuck = false) ~workers ~queue_cap ~held () =
  fst
  @@ with_daemon
       ~cfg:(fun c -> { c with Serve.workers; queue_cap })
       (fun port ->
         let stuck =
           if not stuck then None
           else begin
             let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
             Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
             ignore (Unix.write_substring fd "C" 0 1);
             Unix.sleepf 0.3;
             Some fd
           end
         in
         let timed what f =
           let t0 = Unix.gettimeofday () in
           let r = f () in
           let dt = Unix.gettimeofday () -. t0 in
           Alcotest.(check bool) (Printf.sprintf "%s in %.2fs" what dt) true (dt < 1.5);
           r
         in
         let conns =
           List.init held (fun i ->
               timed (Printf.sprintf "connection %d answered" i) (fun () ->
                   let c = connect port in
                   ping c;
                   c))
         in
         let over = connect port in
         timed "connection past the cap shed" (fun () ->
             match submit over Serve.Ping with
             | Serve.Overloaded _ -> ()
             | _ -> Alcotest.fail "a connection past workers x queue_cap must be shed");
         List.iter ping conns;
         Option.iter Unix.close stuck;
         List.iter Serve.Conn.close (over :: conns))

let test_loop_survives_crash () =
  (* supervision restarts the loop over the same connection set, so a
     crash op loses only the connection that sent it *)
  fst
  @@ with_daemon
       ~cfg:(fun c -> { c with Serve.allow_crash_op = true })
       (fun port ->
         let a = connect port and b = connect port in
         ping a;
         Alcotest.(check bool) "the crashing connection gets no reply" true
           (Result.is_error (Serve.Conn.submit b Serve.Crash_worker));
         ping a;
         List.iter Serve.Conn.close [ a; b ])

let test_loop_idle_close () =
  (* a quiet connection is closed past idle_timeout_s while its busy
     sibling on the same worker stays open *)
  fst
  @@ with_daemon
       ~cfg:(fun c -> { c with Serve.idle_timeout_s = 0.3 })
       (fun port ->
         let quiet = connect port and busy = connect port in
         ping quiet;
         for _ = 1 to 10 do
           ping busy;
           Unix.sleepf 0.08
         done;
         (match Serve.Conn.submit quiet Serve.Ping with
         | Error (Serve.Conn.Stale _) -> ()
         | _ -> Alcotest.fail "a connection idle past the budget must be closed");
         ping busy;
         List.iter Serve.Conn.close [ quiet; busy ])

let test_loop_drain_bounded () =
  (* SIGTERM with an idle connection and a frame stuck mid-read under a
     30 s io budget: the drain cuts the stuck frame at the 1 s budget,
     and the idle connection is closed or shed with a typed reply *)
  let (idle, stuck), elapsed =
    with_daemon
      ~cfg:(fun c -> { c with Serve.drain_s = 1.0; io_timeout_s = 30.0 })
      (fun port ->
        let idle = connect port in
        ping idle;
        let stuck = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect stuck (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Unix.write_substring stuck (Serve.encode_request Serve.Ping) 0 10);
        Unix.sleepf 0.2;
        (idle, stuck))
  in
  Unix.close stuck;
  Alcotest.(check bool) (Printf.sprintf "drained in %.2fs" elapsed) true (elapsed < 2.5);
  (match Serve.Conn.submit idle Serve.Ping with
  | Error _ | Ok (Serve.Overloaded _) -> ()
  | Ok _ -> Alcotest.fail "the drain must close or shed the idle connection");
  Serve.Conn.close idle

let suite =
  [
    Alcotest.test_case "request wire round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "request id wire round-trip" `Quick test_request_id_roundtrip;
    Alcotest.test_case "response wire round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "timing record wire round-trip" `Quick test_timing_roundtrip;
    Alcotest.test_case "malformed frames rejected" `Quick test_malformed_frames;
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "served compress is byte-identical" `Quick test_compress_byte_identity;
    Alcotest.test_case "served decompress round-trips" `Quick test_decompress_roundtrip;
    Alcotest.test_case "garbage decompress fails cleanly" `Quick test_decompress_garbage;
    Alcotest.test_case "HTTP routing" `Quick test_http_routing;
    Alcotest.test_case "/events level filter over HTTP" `Quick test_events_level_filter_http;
    Alcotest.test_case "framing survives 1-byte short transfers" `Quick test_partial_writes;
    Alcotest.test_case "timing echoed for a nonzero request id" `Quick test_timing_echo;
    Alcotest.test_case "oversize frame refused before allocation" `Quick
      test_oversize_frame_refused;
    Alcotest.test_case "truncated frame reported as truncated" `Quick
      test_truncated_frame_refused;
    Alcotest.test_case "oversize HTTP head gets 413" `Quick test_http_head_too_large;
    Alcotest.test_case "deadline field wire round-trip" `Quick test_deadline_roundtrip;
    Alcotest.test_case "expired deadline gets a typed reply" `Quick
      test_expired_deadline_on_arrival;
    Alcotest.test_case "crash op refused when not enabled" `Quick test_crash_op_gated;
    Alcotest.test_case "crash op raises for supervision" `Quick test_crash_op_raises_when_allowed;
    Alcotest.test_case "keep-alive serves frames in sequence" `Quick test_keepalive_sequence;
    Alcotest.test_case "keep-alive recycles at max_requests" `Quick test_keepalive_recycle;
    Alcotest.test_case "keep-alive closes an idle connection" `Quick test_keepalive_idle_close;
    Alcotest.test_case "keep-alive survives torn successors" `Quick
      test_keepalive_partial_preamble;
    QCheck_alcotest.to_alcotest qcheck_pipelined_eq_serial;
    Alcotest.test_case "client refuses an untrusted reply header" `Quick
      test_reply_header_validated;
    Alcotest.test_case "worker loop serves interleaved connections" `Quick
      test_loop_interleaved_conns;
    Alcotest.test_case "worker loop sheds past workers x queue_cap" `Quick
      (admits_then_sheds ~workers:1 ~queue_cap:2 ~held:2);
    Alcotest.test_case "worker loop sheds beside a stuck worker" `Quick
      (admits_then_sheds ~stuck:true ~workers:2 ~queue_cap:1 ~held:1);
    Alcotest.test_case "worker loop admits beside a stuck worker" `Quick
      (admits_then_sheds ~stuck:true ~workers:2 ~queue_cap:2 ~held:3);
    Alcotest.test_case "worker loop survives a crash op" `Quick test_loop_survives_crash;
    Alcotest.test_case "worker loop closes only the idle connection" `Quick
      test_loop_idle_close;
    Alcotest.test_case "SIGTERM drain returns within the budget" `Quick
      test_loop_drain_bounded;
  ]
