(* Compression daemon: one TCP listener, two protocols (binary jobs +
   HTTP observability), codecs shared verbatim with the offline CLI so
   served output is byte-identical. The concurrency model (one select
   loop per worker domain, admission, drain, supervision) is documented
   once, under "Overload safety" in serve.mli. The metrics registry and
   event ring are Domain-safe, so every handler publishes freely. *)

module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events
module Openmetrics = Ccomp_obs.Openmetrics
module Runtime = Ccomp_obs.Runtime
module Prng = Ccomp_util.Prng
module Decode_error = Ccomp_util.Decode_error
module Image = Ccomp_image.Image

type algo = Image.algo = Samc | Sadc

type isa = Image.isa = Mips | X86

type request =
  | Compress of { algo : algo; isa : isa; block_size : int; code : string }
  | Decompress of string
  | Ping
  | Crash_worker

type response =
  | Payload of string
  | Failed of string
  | Overloaded of string
  | Deadline_expired of string

exception Worker_crashed

let req_magic = "CCQ1"

let resp_magic = "CCR1"

(* Request header v2 (25 bytes): magic(4) op(1) algo(1) isa(1)
   block(2,BE) deadline_ms(4,BE) request_id(8,BE) payload_len(4,BE).
   The request id is client-chosen, opaque to the daemon, and echoed in
   the reply's timing record so a client can correlate its own send
   schedule with the server's per-stage clock. Zero means "no tracing
   requested" and suppresses the echo. *)
let req_header_len = 25

(* Response header v2 (10 bytes): magic(4) status(1) timing_len(1)
   payload_len(4,BE), then [timing_len] bytes of timing record, then
   the payload. timing_len is 0 (no record) or [timing_record_len]. *)
let resp_header_len = 10

let timing_record_len = 20

type frame_meta = { deadline_ms : int; request_id : int64 }

type timing = {
  t_request_id : int64;
  t_queue_us : int;  (** readable (or accepted) -> served by its worker *)
  t_service_us : int;  (** the codec job itself *)
  t_server_us : int;  (** queue + read + work: all server-side time *)
}

(* --- service metrics ---------------------------------------------------- *)

let m_connections = Obs.Counter.make "serve.connections"

let m_jobs_compress = Obs.Counter.make "serve.jobs.compress"

let m_jobs_decompress = Obs.Counter.make "serve.jobs.decompress"

let m_bytes_out = Obs.Counter.make "serve.bytes_out"

let m_shed = Obs.Counter.make "serve.shed_total"

let m_deadline_expired = Obs.Counter.make "serve.deadline_expired_total"

let m_worker_restarts = Obs.Counter.make "serve.worker_restarts_total"

let m_inflight = Obs.Gauge.make "serve.inflight"

(* keep-alive bookkeeping: frames vs connections is the reuse ratio *)
let m_frames = Obs.Counter.make "serve.frames"

let m_recycles = Obs.Counter.make "serve.conn_recycles"

let m_keepalive_idle = Obs.Counter.make "serve.keepalive_idle_closes"

let inflight = Atomic.make 0

(* --- framing ------------------------------------------------------------ *)

let be16 v = Printf.sprintf "%c%c" (Char.chr ((v lsr 8) land 0xff)) (Char.chr (v land 0xff))

let be32 v =
  Printf.sprintf "%c%c%c%c"
    (Char.chr ((v lsr 24) land 0xff))
    (Char.chr ((v lsr 16) land 0xff))
    (Char.chr ((v lsr 8) land 0xff))
    (Char.chr (v land 0xff))

let be64 v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v ((7 - i) * 8)) 0xFFL)))

let read_be16 s pos = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]

let read_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let read_be64 s pos =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !acc

(* Refuse absurd frames instead of allocating them. The bound is the
   decoder's cap, so every image the daemon can compress it can decode,
   and every decoded image fits a reply frame. *)
let max_payload = Image.max_original_bytes

type protocol_error =
  | Frame_too_large of { limit : int; got : int }
  | Truncated of string
  | Malformed of string
  | Timed_out of string

let protocol_error_to_string = function
  | Frame_too_large { limit; got } ->
    Printf.sprintf "frame too large: %d-byte payload exceeds the %d-byte limit" got limit
  | Truncated what -> "truncated " ^ what
  | Malformed what -> "malformed request: " ^ what
  | Timed_out what -> "i/o timeout: " ^ what

let algo_tag = function (Samc : algo) -> 0 | Sadc -> 1

let algo_of_tag = function 0 -> Some (Samc : algo) | 1 -> Some Sadc | _ -> None

let isa_tag = function Mips -> 0 | X86 -> 1

let isa_of_tag = function 0 -> Some Mips | 1 -> Some X86 | _ -> None

let encode_request ?(deadline_ms = 0) ?(request_id = 0L) req =
  let frame ~op ~algo ~isa ~block payload =
    req_magic
    ^ Printf.sprintf "%c%c%c" (Char.chr op) (Char.chr algo) (Char.chr isa)
    ^ be16 block ^ be32 deadline_ms ^ be64 request_id
    ^ be32 (String.length payload)
    ^ payload
  in
  match req with
  | Compress { algo; isa; block_size; code } ->
    frame ~op:1 ~algo:(algo_tag algo) ~isa:(isa_tag isa) ~block:block_size code
  | Decompress data -> frame ~op:2 ~algo:0 ~isa:0 ~block:0 data
  | Ping -> frame ~op:3 ~algo:0 ~isa:0 ~block:0 ""
  | Crash_worker -> frame ~op:4 ~algo:0 ~isa:0 ~block:0 ""

let decode_request s =
  if String.length s < req_header_len then Error (Truncated "request header")
  else if String.sub s 0 4 <> req_magic then Error (Malformed "bad request magic")
  else begin
    let meta = { deadline_ms = read_be32 s 9; request_id = read_be64 s 13 } in
    let payload_len = read_be32 s 21 in
    if payload_len > max_payload then
      Error (Frame_too_large { limit = max_payload; got = payload_len })
    else if String.length s < req_header_len + payload_len then
      Error (Truncated "request payload")
    else if String.length s > req_header_len + payload_len then
      Error (Malformed "trailing bytes after payload")
    else
      let payload = String.sub s req_header_len payload_len in
      match Char.code s.[4] with
      | 1 -> (
        match (algo_of_tag (Char.code s.[5]), isa_of_tag (Char.code s.[6])) with
        | Some algo, Some isa ->
          let block_size = read_be16 s 7 in
          if block_size = 0 then Error (Malformed "block size must be positive")
          else Ok (Compress { algo; isa; block_size; code = payload }, meta)
        | None, _ -> Error (Malformed "unknown algorithm tag")
        | _, None -> Error (Malformed "unknown ISA tag"))
      | 2 -> Ok (Decompress payload, meta)
      | 3 -> Ok (Ping, meta)
      | 4 -> Ok (Crash_worker, meta)
      | op -> Error (Malformed (Printf.sprintf "unknown opcode %d" op))
  end

(* Stage durations ride the wire as 32-bit microsecond counts; cap
   rather than wrap so a pathological 71-minute stage still reads as
   "huge", not as a small number. *)
let cap_u32 v = if v < 0 then 0 else if v > 0xFFFF_FFFF then 0xFFFF_FFFF else v

let encode_timing t =
  be64 t.t_request_id ^ be32 (cap_u32 t.t_queue_us) ^ be32 (cap_u32 t.t_service_us)
  ^ be32 (cap_u32 t.t_server_us)

let decode_timing s pos =
  {
    t_request_id = read_be64 s pos;
    t_queue_us = read_be32 s (pos + 8);
    t_service_us = read_be32 s (pos + 12);
    t_server_us = read_be32 s (pos + 16);
  }

let encode_response ?timing resp =
  let trecord = match timing with None -> "" | Some t -> encode_timing t in
  let frame status payload =
    resp_magic
    ^ String.make 1 (Char.chr status)
    ^ String.make 1 (Char.chr (String.length trecord))
    ^ be32 (String.length payload)
    ^ trecord ^ payload
  in
  match resp with
  | Payload data -> frame 0 data
  | Failed msg -> frame 1 msg
  | Overloaded msg -> frame 2 msg
  | Deadline_expired msg -> frame 3 msg

let decode_response s =
  if String.length s < resp_header_len then Error "truncated response header"
  else if String.sub s 0 4 <> resp_magic then Error "bad response magic"
  else begin
    let timing_len = Char.code s.[5] in
    let len = read_be32 s 6 in
    if timing_len <> 0 && timing_len <> timing_record_len then
      Error (Printf.sprintf "unknown timing record length %d" timing_len)
    else if String.length s <> resp_header_len + timing_len + len then
      Error "response length mismatch"
    else
      let timing =
        if timing_len = 0 then None else Some (decode_timing s resp_header_len)
      in
      let payload = String.sub s (resp_header_len + timing_len) len in
      match Char.code s.[4] with
      | 0 -> Ok (Payload payload, timing)
      | 1 -> Ok (Failed payload, timing)
      | 2 -> Ok (Overloaded payload, timing)
      | 3 -> Ok (Deadline_expired payload, timing)
      | st -> Error (Printf.sprintf "unknown status %d" st)
  end

(* --- deadlines ---------------------------------------------------------- *)

(* Deadlines are absolute [Obs.now_us] instants; [None] never expires.
   The CCQ1 deadline_ms field is relative to the moment the daemon
   finished reading the frame — a propagation-friendly budget that
   needs no clock agreement between client and server. *)

let expired = function None -> false | Some d -> Obs.now_us () > d

let deadline_after_s = function
  | None -> None
  | Some seconds -> Some (Obs.now_us () +. (seconds *. 1e6))

let deadline_reply ~at =
  Obs.Counter.incr m_deadline_expired;
  Events.warn ~fields:[ ("at", at) ] "serve.deadline_expired";
  Deadline_expired (Printf.sprintf "deadline expired %s" at)

(* --- job dispatch ------------------------------------------------------- *)

let handle_request ?deadline_us ~jobs req =
  let job kind f =
    let (resp : response) = Obs.with_span ~cat:"serve" ("serve.job." ^ kind) f in
    (match resp with
    | Failed msg ->
      Events.warn ~fields:[ ("kind", kind); ("error", msg) ] "serve.job.failed"
    | Overloaded _ | Deadline_expired _ -> () (* counted at creation *)
    | Payload p ->
      Events.debug
        ~fields:[ ("kind", kind); ("bytes", string_of_int (String.length p)) ]
        "serve.job.done");
    resp
  in
  match req with
  | Ping -> Payload "pong"
  | Crash_worker ->
    (* deliberately escapes the per-connection handler: the supervised
       worker loop books a restart — this is the chaos harness's way of
       killing a worker domain from the outside *)
    raise Worker_crashed
  | Compress { algo; isa; block_size; code } ->
    Obs.Counter.incr m_jobs_compress;
    job "compress" (fun () ->
        if expired deadline_us then deadline_reply ~at:"before compress"
        else
          match Image.write (Image.compress ~jobs ~algo ~isa ~block_size code) with
          | image ->
            if expired deadline_us then deadline_reply ~at:"during compress" else Payload image
          | exception e -> Failed (Printexc.to_string e))
  | Decompress data ->
    Obs.Counter.incr m_jobs_decompress;
    job "decompress" (fun () ->
        if expired deadline_us then deadline_reply ~at:"before decode"
        else
          match Image.read data with
          | Error e -> Failed ("cannot read image: " ^ e)
          | Ok image -> (
            if expired deadline_us then deadline_reply ~at:"before decompress"
            else
              match
                Decode_error.protect ~section:"image" (fun () -> Image.decompress ~jobs image)
              with
              | Ok code ->
                if expired deadline_us then deadline_reply ~at:"during decompress"
                else Payload code
              | Error e -> Failed (Decode_error.to_string e)))

(* --- HTTP --------------------------------------------------------------- *)

let query_str target key =
  match String.index_opt target '?' with
  | None -> None
  | Some i ->
    let q = String.sub target (i + 1) (String.length target - i - 1) in
    List.fold_left
      (fun acc kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] when k = key -> Some v
        | _ -> acc)
      None (String.split_on_char '&' q)

let query_int target key ~default =
  match Option.bind (query_str target key) int_of_string_opt with
  | Some n -> n
  | None -> default

let path_of_target target =
  match String.index_opt target '?' with
  | None -> target
  | Some i -> String.sub target 0 i

(* serve.uptime_seconds counts from daemon start ([run] resets it); the
   module-load fallback keeps the gauge meaningful for in-process tests
   that call [http_response] without a daemon. *)
let started_at_us = ref (Obs.now_us ())

let m_uptime = Obs.Gauge.make "serve.uptime_seconds"

let refresh_uptime () = Obs.Gauge.set m_uptime ((Obs.now_us () -. !started_at_us) /. 1e6)

let version = "1.0.0"

let () = Openmetrics.set_info "serve" [ ("version", version) ]

let http_response target =
  match path_of_target target with
  | "/metrics" ->
    refresh_uptime ();
    Some (200, "application/openmetrics-text; version=1.0.0; charset=utf-8", Openmetrics.render ())
  | "/healthz" -> Some (200, "text/plain; charset=utf-8", "ok\n")
  | "/events" -> (
    let n = query_int target "n" ~default:50 in
    match query_str target "level" with
    | None -> Some (200, "application/x-ndjson", Events.tail_json n)
    | Some lvl -> (
      match Events.level_of_string lvl with
      | Some min_level -> Some (200, "application/x-ndjson", Events.tail_json ~min_level n)
      | None ->
        Some
          ( 400,
            "text/plain; charset=utf-8",
            Printf.sprintf "unknown level %S (want debug|info|warn|error)\n" lvl )))
  | "/snapshot" -> Some (200, "application/json", Obs.snapshot_to_json (Obs.snapshot ()))
  | "/slow" ->
    let n = query_int target "n" ~default:50 in
    Some (200, "application/x-ndjson", Slow.tail_json n)
  | _ -> None

(* --- socket plumbing ---------------------------------------------------- *)

(* Reads and writes carry an optional absolute deadline, enforced with
   SO_RCVTIMEO/SO_SNDTIMEO re-armed to the remaining budget before each
   syscall — so a slowloris peer trickling one byte per timeout window
   still hits the frame deadline. EINTR (a signal mid-syscall) restarts
   the transfer; EAGAIN/EWOULDBLOCK means the timeout fired. *)

let arm ~send fd deadline_us =
  match deadline_us with
  | None -> true
  | Some d ->
    let remaining = (d -. Obs.now_us ()) /. 1e6 in
    if remaining <= 0.0 then false
    else begin
      (try
         Unix.setsockopt_float fd
           (if send then Unix.SO_SNDTIMEO else Unix.SO_RCVTIMEO)
           (max remaining 0.001)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      true
    end

let read_exact ?deadline_us ~what fd n =
  let buf = Bytes.create n in
  let rec go pos =
    if pos >= n then Ok (Bytes.unsafe_to_string buf)
    else if not (arm ~send:false fd deadline_us) then Error (Timed_out what)
    else
      match Unix.read fd buf pos (n - pos) with
      | 0 -> Error (Truncated (Printf.sprintf "%s (peer closed after %d of %d bytes)" what pos n))
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error (Timed_out what)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        Error (Truncated (Printf.sprintf "%s (connection reset)" what))
  in
  go 0

let write_all ?deadline_us ?(what = "write") fd s =
  let n = String.length s in
  let rec go pos =
    if pos >= n then Ok ()
    else if not (arm ~send:true fd deadline_us) then Error (Timed_out what)
    else
      match Unix.write_substring fd s pos (n - pos) with
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error (Timed_out what)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        Error (Truncated (Printf.sprintf "%s (peer closed)" what))
  in
  go 0

let send ?deadline_us fd s =
  let r = write_all ?deadline_us ~what:"response write" fd s in
  (match r with
  | Ok () -> Obs.Counter.add m_bytes_out (String.length s)
  | Error (Timed_out _) -> Events.warn ~fields:[ ("what", "response write") ] "serve.io_timeout"
  | Error _ -> ());
  r

(* One CCQ1 frame: read it, run it, reply. Returns [true] when the
   stream is still in sync (frame parsed and the reply went out), so
   the keep-alive loop may read the next frame; any protocol or write
   failure returns [false] and the connection is closed — after a
   malformed or truncated frame the byte stream cannot be trusted. *)
let handle_binary ?io_timeout_s ?(allow_crash_op = false) ~queue_us ~depth ~jobs fd first4 =
  let ( let* ) = Result.bind in
  (* Stage clock: [t0] service of this frame begins, [t_read] frame
     fully read and decoded, [t_work] job finished, [t_end] reply
     written. The queue stage (readable -> service) happened before this
     call and arrives as [queue_us]; [depth] is how many ready
     connections were served ahead of this one. Each boundary also probes this domain's GC
     counters ([Runtime.probe] is a [Gc.quick_stat], cheap and exact
     for the calling domain) and stamps mutator liveness for the
     major-pause estimator. *)
  Runtime.tick ();
  let t0 = Obs.now_us () in
  let gc0 = Runtime.probe () in
  (* one i/o window for the whole request frame: a peer may be slow,
     but the header plus payload must arrive within the budget *)
  let read_deadline = deadline_after_s io_timeout_s in
  let result =
    Obs.with_span ~cat:"serve" "serve.read" (fun () ->
        let* rest =
          read_exact ?deadline_us:read_deadline ~what:"request header" fd (req_header_len - 4)
        in
        let header = first4 ^ rest in
        let payload_len = read_be32 header 21 in
        if payload_len > max_payload then
          Error (Frame_too_large { limit = max_payload; got = payload_len })
        else
          let* payload =
            read_exact ?deadline_us:read_deadline ~what:"request payload" fd payload_len
          in
          decode_request (header ^ payload))
  in
  let t_read = Obs.now_us () in
  let gc_read = Runtime.probe () in
  Runtime.tick ();
  let meta =
    match result with Ok (_, m) -> m | Error _ -> { deadline_ms = 0; request_id = 0L }
  in
  let resp =
    match result with
    | Ok (Crash_worker, _) when not allow_crash_op ->
      Events.warn "serve.crash_op_refused";
      Failed "crash op not enabled (start the daemon with --unsafe-crash-op)"
    | Ok (req, { deadline_ms; _ }) ->
      let deadline_us =
        if deadline_ms > 0 then Some (Obs.now_us () +. (float_of_int deadline_ms *. 1e3))
        else None
      in
      handle_request ?deadline_us ~jobs req
    | Error pe ->
      (match pe with
      | Timed_out _ ->
        Events.warn ~fields:[ ("error", protocol_error_to_string pe) ] "serve.io_timeout"
      | _ -> Events.warn ~fields:[ ("error", protocol_error_to_string pe) ] "serve.protocol_error");
      Failed (protocol_error_to_string pe)
  in
  let t_work = Obs.now_us () in
  let gc_work = Runtime.probe () in
  Runtime.tick ();
  (* Echo the server-side split to a client that asked (nonzero id).
     server_us excludes the write stage — the timing record rides inside
     the very reply being written — so the client computes network time
     as (its corrected latency) - t_server_us, slightly pessimistic by
     the write cost, which is the conservative direction. *)
  let timing =
    if meta.request_id = 0L then None
    else
      Some
        {
          t_request_id = meta.request_id;
          t_queue_us = int_of_float queue_us;
          t_service_us = int_of_float (t_work -. t_read);
          t_server_us = int_of_float (queue_us +. (t_work -. t0));
        }
  in
  (* the response gets a fresh window — a large result legitimately
     takes longer to write than the request took to read *)
  let sent =
    Obs.with_span ~cat:"serve" "serve.write" (fun () ->
        send ?deadline_us:(deadline_after_s io_timeout_s) fd (encode_response ?timing resp))
  in
  let t_end = Obs.now_us () in
  let gc_end = Runtime.probe () in
  Latency.observe Latency.Queue queue_us;
  Latency.observe Latency.Read (t_read -. t0);
  Latency.observe Latency.Work (t_work -. t_read);
  Latency.observe Latency.Write (t_end -. t_work);
  Latency.observe_total (queue_us +. (t_end -. t0));
  if Obs.metrics_enabled () then begin
    (* Tail sampling: the full per-stage record, including what the GC
       did to this domain during each stage, for requests worth
       explaining. [sample] then folds this domain's cumulative growth
       into the runtime.* counters and re-arms the pause estimator. *)
    let kind =
      match result with
      | Ok (Compress _, _) -> "compress"
      | Ok (Decompress _, _) -> "decompress"
      | Ok (Ping, _) -> "ping"
      | Ok (Crash_worker, _) -> "crash"
      | Error _ -> "protocol_error"
    in
    let outcome =
      match resp with
      | Payload _ -> "ok"
      | Failed _ -> "failed"
      | Overloaded _ -> "overloaded"
      | Deadline_expired _ -> "deadline_expired"
    in
    ignore
      (Slow.maybe_sample
         {
           Slow.sr_ts_us = t_end;
           sr_id = meta.request_id;
           sr_kind = kind;
           sr_outcome = outcome;
           sr_total_us = queue_us +. (t_end -. t0);
           sr_queue_us = queue_us;
           sr_read_us = t_read -. t0;
           sr_work_us = t_work -. t_read;
           sr_write_us = t_end -. t_work;
           sr_queue_depth = depth;
           sr_gc_read = Runtime.stage_delta gc0 gc_read;
           sr_gc_work = Runtime.stage_delta gc_read gc_work;
           sr_gc_write = Runtime.stage_delta gc_work gc_end;
         });
    ignore (Runtime.sample ())
  end;
  if meta.request_id <> 0L then
    Events.debug
      ~fields:
        [
          ("id", Int64.to_string meta.request_id);
          ("queue_us", Printf.sprintf "%.0f" queue_us);
          ("read_us", Printf.sprintf "%.0f" (t_read -. t0));
          ("work_us", Printf.sprintf "%.0f" (t_work -. t_read));
          ("write_us", Printf.sprintf "%.0f" (t_end -. t_work));
        ]
      "serve.request";
  (match result with Ok _ -> true | Error _ -> false) && sent = Ok ()

let max_http_head = 8192

let has_head_terminator s =
  let n = String.length s in
  let rec find i = i + 4 <= n && (String.sub s i 4 = "\r\n\r\n" || find (i + 1)) in
  find 0

let handle_http ?io_timeout_s fd first4 =
  (* Read the request head (we never need a body on GET). *)
  let read_deadline = deadline_after_s io_timeout_s in
  let b = Buffer.create 256 in
  Buffer.add_string b first4;
  let chunk = Bytes.create 512 in
  let rec fill () =
    if Buffer.length b >= max_http_head || has_head_terminator (Buffer.contents b) then Ok ()
    else if not (arm ~send:false fd read_deadline) then Error ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Ok ()
      | n ->
        Buffer.add_subbytes b chunk 0 n;
        fill ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Ok ()
  in
  match fill () with
  | Error () ->
    (* a slowloris HTTP head: give up without guessing at a target *)
    Events.warn ~fields:[ ("what", "http head") ] "serve.io_timeout"
  | Ok () ->
    let head = Buffer.contents b in
    let request_line =
      match String.index_opt head '\r' with Some i -> String.sub head 0 i | None -> head
    in
    let status, ctype, body =
      if Buffer.length b >= max_http_head && not (has_head_terminator head) then
        (* the peer never finished its head within the limit; answer with
           413 instead of misparsing a truncated request line as a target *)
        (413, "text/plain; charset=utf-8", "request head too large\n")
      else
        match String.split_on_char ' ' request_line with
        | meth :: target :: _ when meth = "GET" || meth = "HEAD" -> (
          match http_response target with
          | Some r -> r
          | None -> (404, "text/plain; charset=utf-8", "not found\n"))
        | _ -> (400, "text/plain; charset=utf-8", "bad request\n")
    in
    let reason =
      match status with
      | 200 -> "OK"
      | 400 -> "Bad Request"
      | 413 -> "Content Too Large"
      | 503 -> "Service Unavailable"
      | _ -> "Not Found"
    in
    Events.debug
      ~fields:[ ("request", request_line); ("status", string_of_int status) ]
      "serve.http";
    ignore
      (send ?deadline_us:(deadline_after_s io_timeout_s) fd
         (Printf.sprintf
            "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
            status reason ctype (String.length body) body))

(* --- keep-alive frame step (CCQ1v4) -------------------------------------- *)

(* The preamble read is where keep-alive semantics live: a clean EOF at
   a frame boundary is the peer saying goodbye (not an error), a
   timeout is the inter-frame idle budget expiring, and bytes mean
   another frame. *)
type preamble =
  | P_frame of string  (** 4 bytes arrived *)
  | P_eof  (** clean close before any byte of the next frame *)
  | P_partial  (** peer closed mid-preamble *)
  | P_timeout  (** idle budget expired *)

let read_preamble ?deadline_us fd =
  let buf = Bytes.create 4 in
  let rec go pos =
    if pos >= 4 then P_frame (Bytes.to_string buf)
    else if not (arm ~send:false fd deadline_us) then P_timeout
    else
      match Unix.read fd buf pos (4 - pos) with
      | 0 -> if pos = 0 then P_eof else P_partial
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> P_timeout
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> if pos = 0 then P_eof else P_partial
  in
  go 0

(* fds at or past FD_SETSIZE cannot go through select *)
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd

let fd_setsize = 1024

(* A connection closed for silence: before its first frame that is the
   idle budget firing on a peer that never spoke, after one it is a
   quiet keep-alive goodbye. *)
let idle_close ~frames =
  if frames = 0 then
    Events.warn ~fields:[ ("what", "connection preamble") ] "serve.idle_timeout"
  else begin
    Obs.Counter.incr m_keepalive_idle;
    Events.debug ~fields:[ ("frames", string_of_int frames) ] "serve.keepalive.idle_close"
  end

type step = Continue | Close

(* Serve the next frame of a connection that has carried [frames]
   already: the one step both a daemon worker (on a readable
   connection) and [handle_connection] run. [Continue] means the stream
   is still in sync and under the recycle bound, so the connection may
   carry another frame; [Close] means the caller closes it. [queue_us]
   and [depth] describe how this frame waited on its worker. *)
let serve_frame ?idle_timeout_s ?io_timeout_s ?allow_crash_op ?(max_requests = 0) ~queue_us ~depth
    ~frames ~jobs fd =
  match read_preamble ?deadline_us:(deadline_after_s idle_timeout_s) fd with
  | P_timeout ->
    idle_close ~frames;
    Close
  | P_eof -> Close
  | P_partial ->
    if frames > 0 then
      Events.debug ~fields:[ ("frames", string_of_int frames) ] "serve.keepalive.partial_preamble";
    Close
  | P_frame first4 when first4 = req_magic ->
    let ok = handle_binary ?io_timeout_s ?allow_crash_op ~queue_us ~depth ~jobs fd first4 in
    Obs.Counter.incr m_frames;
    let n = frames + 1 in
    if not ok then Close
    else if max_requests > 0 && n >= max_requests then begin
      Obs.Counter.incr m_recycles;
      Events.debug ~fields:[ ("frames", string_of_int n) ] "serve.conn_recycle";
      Close
    end
    else Continue
  | P_frame first4 ->
    (* HTTP stays one-shot (Connection: close); anything else after a
       CCQ1 frame is a protocol error *)
    if frames = 0 then handle_http ?io_timeout_s fd first4
    else Events.warn ~fields:[ ("frames", string_of_int frames) ] "serve.protocol_error";
    Close

let handle_connection ?idle_timeout_s ?io_timeout_s ?allow_crash_op ?max_requests ~jobs fd =
  Obs.Counter.incr m_connections;
  let rec go frames =
    match
      serve_frame ?idle_timeout_s ?io_timeout_s ?allow_crash_op ?max_requests ~queue_us:0.0
        ~depth:0 ~frames ~jobs fd
    with
    | Continue -> go (frames + 1)
    | Close -> ()
  in
  go 0

(* --- shedding ----------------------------------------------------------- *)

let http_503 =
  let body = "overloaded\n" in
  Printf.sprintf
    "HTTP/1.0 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length body) body

(* Best-effort typed refusal, strictly non-blocking so a worker's loop
   can never be stalled by the very overload it is shedding: peek at
   whatever the client has sent to pick the protocol (no bytes yet, or
   a CCQ1 prefix, means the binary reply), fire one write, close. *)
let shed_connection ?(queue_depth = 0) ~reason conn =
  Obs.Counter.incr m_shed;
  Events.warn ~fields:[ ("reason", reason) ] "serve.shed";
  if Obs.metrics_enabled () then
    (* a shed is always tail evidence, however fast the refusal: the
       record carries the depth that forced it and zeroed stages *)
    ignore
      (Slow.maybe_sample
         {
           Slow.sr_ts_us = Obs.now_us ();
           sr_id = 0L;
           sr_kind = "shed";
           sr_outcome = "shed";
           sr_total_us = 0.0;
           sr_queue_us = 0.0;
           sr_read_us = 0.0;
           sr_work_us = 0.0;
           sr_write_us = 0.0;
           sr_queue_depth = queue_depth;
           sr_gc_read = Runtime.delta_zero;
           sr_gc_work = Runtime.delta_zero;
           sr_gc_write = Runtime.delta_zero;
         });
  (try
     Unix.set_nonblock conn;
     let looks_http =
       let buf = Bytes.create 4 in
       match Unix.recv conn buf 0 4 [ Unix.MSG_PEEK ] with
       | 0 -> false
       | n ->
         let p = Bytes.sub_string buf 0 n in
         p <> String.sub req_magic 0 n
       | exception Unix.Unix_error _ -> false
     in
     let frame = if looks_http then http_503 else encode_response (Overloaded reason) in
     (* drain whatever request bytes already arrived: closing with
        unread input makes the kernel RST the connection, which would
        destroy the typed reply before the peer reads it *)
     let junk = Bytes.create 4096 in
     let rec drain budget =
       if budget > 0 then
         match Unix.read conn junk 0 (Bytes.length junk) with
         | 0 -> ()
         | n -> drain (budget - n)
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain budget
     in
     drain 65536;
     ignore (Unix.write_substring conn frame 0 (String.length frame));
     (try Unix.shutdown conn Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
     drain 65536
   with Unix.Unix_error _ -> ());
  try Unix.close conn with Unix.Unix_error _ -> ()

(* --- daemon: one select loop per worker ---------------------------------- *)

type config = {
  host : string;
  port : int;
  jobs : int;
  workers : int;
  queue_cap : int;
  max_requests_per_conn : int;
  idle_timeout_s : float;
  io_timeout_s : float;
  drain_s : float;
  allow_crash_op : bool;
  slow_threshold_ms : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7070;
    jobs = 1;
    workers = 2;
    queue_cap = 64;
    max_requests_per_conn = 0;
    idle_timeout_s = 10.0;
    io_timeout_s = 30.0;
    drain_s = 5.0;
    allow_crash_op = false;
    slow_threshold_ms = 100.0;
  }

let set_inflight delta =
  let v = Atomic.fetch_and_add inflight delta + delta in
  Obs.Gauge.set m_inflight (float_of_int v)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A connection, owned by the worker that accepted it for its whole life. *)
type conn = {
  fd : Unix.file_descr;
  mutable frames : int;  (** frames served so far *)
  mutable last_us : float;  (** accept or end of the last frame: the idle clock *)
}

(* One worker. [conns] lives here, outside the supervised loop, so a
   crash loses only the connection that caused it; only the worker's
   own domain touches it. [owned] and [busy_since] publish its load to
   the other workers' accept decisions. [lock] guards the one
   cross-domain edge: the draining main domain cutting the connection
   in service. *)
type worker = {
  id : int;
  mutable conns : conn list;
  mutable on_listener : bool;
  owned : int Atomic.t;  (** connections held at the last select *)
  busy_since : int Atomic.t;  (** µs timestamp of the round in service, 0 while selecting *)
  lock : Mutex.t;
  mutable current : Unix.file_descr option;
  mutable cut : bool;  (** the drain budget is spent: serve nothing more *)
  depth : Obs.Gauge.t;  (** readable connections not yet served *)
}

(* What every worker shares. *)
type daemon = {
  cfg : config;
  ws : worker array;
  listener : Unix.file_descr;  (** non-blocking, in every worker's select set *)
  listening : int Atomic.t;  (** workers still selecting on [listener] *)
  held : int Atomic.t;  (** connections owned across all workers *)
  cap : int;  (** [workers * queue_cap]: beyond it, accepts are shed *)
  stop : bool Atomic.t;  (** set by SIGTERM/SIGINT: drain *)
  running : int Atomic.t;  (** workers still draining *)
  drain_shed : int Atomic.t;  (** connections the drain refused *)
}

let locked w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

(* [current] is published under the lock [interrupt] takes and refused
   once the worker is cut, so a cut never misses a step about to start;
   it is cleared BEFORE the fd can be closed, so [interrupt] never
   races a close (no use-after-close, no fd reuse). *)
let begin_step w fd =
  locked w (fun () ->
      if not w.cut then w.current <- Some fd;
      not w.cut)

let end_step w = locked w (fun () -> w.current <- None)

(* Budget spent: make the connection in service fail fast — shutting
   the socket down turns its blocked read into EOF and its writes into
   EPIPE — so a drain is bounded by the budget, not by the peer's
   idle/io allowance. Returns true when there was something to cut. *)
let interrupt w =
  locked w (fun () ->
      w.cut <- true;
      match w.current with
      | None -> false
      | Some fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        true)

(* Stop selecting on the listener; the last worker to do so closes it,
   so no fd is ever closed while another domain selects on it. *)
let leave_listener d w =
  if w.on_listener then begin
    w.on_listener <- false;
    if Atomic.fetch_and_add d.listening (-1) = 1 then close_quiet d.listener
  end

let drop d w c =
  w.conns <- List.filter (fun c' -> c' != c) w.conns;
  Atomic.decr d.held;
  close_quiet c.fd

(* How long a worker holding more connections leaves an accept to a
   less-loaded one that is busy serving. Past it, whoever is free
   accepts, so a long compress or a dripping peer on one worker never
   leaves new connections in the backlog. *)
let accept_grace_us = 100_000

(* Codec work is CPU-bound: two busy connections on one worker would
   leave another core idle. So a worker accepts only while no worker
   holding fewer connections is free to; once the daemon is full every
   accept is a shed, and whoever is free sheds. *)
let may_accept d w =
  Atomic.get d.held >= d.cap
  ||
  let own = List.length w.conns and now = int_of_float (Obs.now_us ()) in
  Array.for_all
    (fun v ->
      v == w
      || Atomic.get v.owned >= own
      ||
      let since = Atomic.get v.busy_since in
      since > 0 && now - since > accept_grace_us)
    d.ws

(* Admission never blocks: hold the connection, or shed it with a typed
   reply when the daemon already holds [cap] or select cannot watch
   its fd. [ready] is how many connections this worker is about to
   serve, recorded in the shed's tail sample. False once the backlog is
   empty. *)
let accept d w ~ready =
  match Unix.accept ~cloexec:true d.listener with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> true
  | fd, _ ->
    (* keep-alive replies must not wait out a delayed ACK before the
       next frame's response can leave the host *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    if fd_int fd >= fd_setsize then
      shed_connection ~queue_depth:ready ~reason:"descriptor past FD_SETSIZE" fd
    else if Atomic.fetch_and_add d.held 1 >= d.cap then begin
      Atomic.decr d.held;
      shed_connection ~queue_depth:ready ~reason:"connection limit reached" fd
    end
    else begin
      Obs.Counter.incr m_connections;
      w.conns <- { fd; frames = 0; last_us = Obs.now_us () } :: w.conns
    end;
    true

let backlog = 128

(* Drain the backlog while this worker may accept: one select wakeup
   admits or sheds every connection waiting, but never more than a
   full backlog, so a connect flood cannot starve the frames already
   readable. *)
let admit d w ~ready =
  let rec go n = if n > 0 && may_accept d w && accept d w ~ready then go (n - 1) in
  go backlog

(* Serve one frame on each readable connection, in order, to
   completion. A frame's queue stage runs from the select that found it
   readable to its service. *)
let serve_ready d w ready ~t_select =
  let cfg = d.cfg in
  let n = List.length ready in
  List.iteri
    (fun i c ->
      Obs.Gauge.set w.depth (float_of_int (n - i - 1));
      if begin_step w c.fd then begin
        set_inflight 1;
        match
          Fun.protect
            ~finally:(fun () ->
              end_step w;
              set_inflight (-1))
            (fun () ->
              serve_frame ~idle_timeout_s:cfg.idle_timeout_s ~io_timeout_s:cfg.io_timeout_s
                ~allow_crash_op:cfg.allow_crash_op ~max_requests:cfg.max_requests_per_conn
                ~queue_us:(Obs.now_us () -. t_select) ~depth:i ~frames:c.frames ~jobs:cfg.jobs c.fd)
        with
        | Continue ->
          c.frames <- c.frames + 1;
          c.last_us <- Obs.now_us ()
        | Close -> drop d w c
        | exception e ->
          drop d w c;
          (match e with
          | Worker_crashed -> raise e
          | _ -> Events.error ~fields:[ ("error", Printexc.to_string e) ] "serve.connection_error")
      end)
    ready;
  Obs.Gauge.set w.depth 0.0

(* How long a select waits before re-checking the stop flag and the
   idle clocks: the granularity of idle closes. *)
let select_tick_s = 0.1

(* One worker's loop: select over the listener and every owned
   connection, close the idle, admit, serve the readable. Admitting
   before serving means a shed never waits behind a frame. Once [stop] is
   set it leaves the listener, closes connections that are not already
   readable (between frames is a clean close point), serves those that
   are, and returns when it holds none — or, once cut, sheds what is
   left with typed replies. *)
let worker_loop d w =
  let rec loop () =
    let draining = Atomic.get d.stop in
    if draining then leave_listener d w;
    if draining && (w.conns = [] || locked w (fun () -> w.cut)) then begin
      List.iter (fun c -> shed_connection ~reason:"draining" c.fd) w.conns;
      ignore (Atomic.fetch_and_add d.drain_shed (List.length w.conns));
      ignore (Atomic.fetch_and_add d.held (-List.length w.conns));
      w.conns <- []
    end
    else begin
      Atomic.set w.owned (List.length w.conns);
      Atomic.set w.busy_since 0;
      let fds = List.map (fun c -> c.fd) w.conns in
      let fds = if w.on_listener && may_accept d w then d.listener :: fds else fds in
      let readable =
        match Unix.select fds [] [] (if draining then 0.0 else select_tick_s) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | exception Unix.Unix_error _ ->
          (* a broken descriptor in the set: let each connection's own
             read surface its error *)
          fds
      in
      let t_select = Obs.now_us () in
      let ready, quiet = List.partition (fun c -> List.memq c.fd readable) w.conns in
      let idle_us = d.cfg.idle_timeout_s *. 1e6 in
      List.iter
        (fun c ->
          if draining || t_select -. c.last_us > idle_us then begin
            if not draining then idle_close ~frames:c.frames;
            drop d w c
          end)
        quiet;
      if w.on_listener && List.memq d.listener readable then admit d w ~ready:(List.length ready);
      if ready <> [] then Atomic.set w.busy_since (int_of_float t_select);
      serve_ready d w ready ~t_select;
      loop ()
    end
  in
  loop ()

(* Supervision: a worker whose loop dies is logged, counted and
   respawned in place over the same connection set — the domain (and
   the daemon) survive. The loop returns only when the drain is done. *)
let supervised_worker d w =
  (* OCaml 5 GC alarms are domain-local: each worker domain installs its
     own end-of-major-cycle hook for the pause estimator *)
  Runtime.install_alarm ();
  let rec go () =
    match worker_loop d w with
    | () -> ()
    | exception e ->
      Obs.Counter.incr m_worker_restarts;
      Events.error
        ~fields:[ ("worker", string_of_int w.id); ("error", Printexc.to_string e) ]
        "serve.worker.restart";
      go ()
  in
  go ();
  Atomic.decr d.running

let install_stop_handlers stop =
  let set sg =
    try Some (sg, Sys.signal sg (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  List.filter_map set [ Sys.sigterm; Sys.sigint ]

let restore_handlers saved =
  List.iter
    (fun (sg, old) -> try Sys.set_signal sg old with Invalid_argument _ | Sys_error _ -> ())
    saved

let run ?(on_ready = fun _ -> ()) cfg =
  let workers = max 1 cfg.workers in
  (* A daemon serving many small requests allocates far faster than it
     retains (codec scratch dies young): the stock GC settings promote
     enough of that churn to drive major cycles — and their pauses —
     straight into the latency tail. Trade heap headroom for pause
     time. The space overhead applies immediately; the nursery size is
     only a request on OCaml 5.1 (minor heaps are sized at runtime
     startup), which is why the CLI re-execs `ccomp serve` with a tuned
     OCAMLRUNPARAM — library embedders get whatever their runtime
     honours. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024; space_overhead = 300 };
  (* a peer closing mid-write must surface as EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listener backlog;
     (* every worker selects on it: losing an accept race is just EAGAIN *)
     Unix.set_nonblock listener
   with e ->
     close_quiet listener;
     raise e);
  let bound_port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  started_at_us := Obs.now_us ();
  refresh_uptime ();
  Slow.configure ~threshold_us:(cfg.slow_threshold_ms *. 1e3) ();
  Runtime.install_alarm ();
  let facts =
    [
      ("workers", string_of_int workers);
      ("jobs", string_of_int cfg.jobs);
      ("queue_cap", string_of_int cfg.queue_cap);
      ("max_requests_per_conn", string_of_int cfg.max_requests_per_conn);
      ("host", cfg.host);
      ("port", string_of_int bound_port);
    ]
  in
  Openmetrics.set_info "serve" (("version", version) :: facts);
  Events.info ~fields:facts "serve.start";
  let stop = Atomic.make false in
  let saved = install_stop_handlers stop in
  let ws =
    Array.init workers (fun id ->
        {
          id;
          conns = [];
          on_listener = true;
          owned = Atomic.make 0;
          busy_since = Atomic.make 0;
          lock = Mutex.create ();
          current = None;
          cut = false;
          depth = Obs.Gauge.make (Printf.sprintf "serve.queue.depth.%d" id);
        })
  in
  let d =
    {
      cfg = { cfg with workers };
      ws;
      listener;
      listening = Atomic.make workers;
      held = Atomic.make 0;
      cap = workers * max 1 cfg.queue_cap;
      stop;
      running = Atomic.make workers;
      drain_shed = Atomic.make 0;
    }
  in
  let domains = Array.map (fun w -> Domain.spawn (fun () -> supervised_worker d w)) ws in
  on_ready bound_port;
  Fun.protect ~finally:(fun () -> restore_handlers saved) @@ fun () ->
  (* the workers do all the serving; this domain only waits for the
     stop flag, which a signal may set on any domain *)
  (try
     while not (Atomic.get stop) do
       Unix.sleepf 0.05
     done
   with Sys.Break -> Atomic.set stop true);
  (* Drain: the workers see [stop] within one select tick, leave the
     listener, close their idle connections and serve what is already
     readable. This domain gives them the budget, then cuts them: each
     sheds its leftovers with typed replies, and the frame in service
     is shut down so the join is bounded by the budget, not by a slow
     peer's idle/io allowance. *)
  let t0 = Obs.now_us () in
  Events.info ~fields:[ ("budget_s", Printf.sprintf "%g" cfg.drain_s) ] "serve.drain.begin";
  let deadline = t0 +. (cfg.drain_s *. 1e6) in
  while Obs.now_us () < deadline && Atomic.get d.running > 0 do
    Unix.sleepf 0.02
  done;
  let interrupted = Array.fold_left (fun n w -> if interrupt w then n + 1 else n) 0 ws in
  if interrupted > 0 then
    Events.warn ~fields:[ ("connections", string_of_int interrupted) ] "serve.drain.interrupt";
  Array.iter Domain.join domains;
  Events.info
    ~fields:
      [
        ("shed", string_of_int (Atomic.get d.drain_shed));
        ("interrupted", string_of_int interrupted);
        ("elapsed_s", Printf.sprintf "%.3f" ((Obs.now_us () -. t0) /. 1e6));
      ]
    "serve.drain.end";
  Events.info "serve.stop"

(* --- clients ------------------------------------------------------------- *)

let describe_timeout ~host ~port timeout_s what =
  Printf.sprintf "%s:%d: timed out%s during %s (daemon dead or overloaded?)" host port
    (match timeout_s with Some t -> Printf.sprintf " after %gs" t | None -> "")
    what

(* Resolve and connect, trying EVERY getaddrinfo candidate — the
   resolver may return IPv6 first while the daemon listens on IPv4 —
   and reporting the LAST error when none connects. Returns the
   connected fd and the connect cost in microseconds (resolution
   included: that is the price a reconnecting client actually pays). *)
let connect_fd ?timeout_s ~host ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let t0 = Obs.now_us () in
  match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
  | [] -> Error (Printf.sprintf "cannot resolve %s" host)
  | candidates ->
    let connect_one ai =
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype ai.Unix.ai_protocol in
      (* request-response over a persistent connection is exactly the
         write-read alternation Nagle penalises: without TCP_NODELAY
         every frame after the first can stall behind a delayed ACK *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      match
        match timeout_s with
        | None -> Unix.connect fd ai.Unix.ai_addr
        | Some t ->
          (* non-blocking connect + bounded wait so a dead host cannot
             hold the client in connect(2) past the timeout *)
          Unix.set_nonblock fd;
          (match Unix.connect fd ai.Unix.ai_addr with
          | () -> ()
          | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
            let deadline = Obs.now_us () +. (t *. 1e6) in
            if fd_int fd >= fd_setsize then begin
              (* select cannot watch this fd (FD_SETSIZE): poll
                 connect(2) itself until it reports a verdict *)
              let rec poll () =
                match Unix.connect fd ai.Unix.ai_addr with
                | () -> ()
                | exception Unix.Unix_error (Unix.EISCONN, _, _) -> ()
                | exception
                    Unix.Unix_error
                      ( (Unix.EALREADY | Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EINTR),
                        _,
                        _ ) ->
                  if Obs.now_us () >= deadline then
                    raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
                  else begin
                    Unix.sleepf 0.01;
                    poll ()
                  end
              in
              poll ()
            end
            else begin
              (* EINTR (or a spurious wake) retries with the REMAINING
                 budget — a signal mid-wait must not misreport as
                 ETIMEDOUT, and repeated signals must not extend it *)
              let rec wait () =
                let left = (deadline -. Obs.now_us ()) /. 1e6 in
                if left <= 0.0 then raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
                else
                  match Unix.select [] [ fd ] [] left with
                  | _, [], _ -> wait ()
                  | _ -> (
                    match Unix.getsockopt_error fd with
                    | None -> ()
                    | Some e -> raise (Unix.Unix_error (e, "connect", "")))
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
              in
              wait ()
            end);
          Unix.clear_nonblock fd;
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
           with Unix.Unix_error _ -> ())
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, fn, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (e, fn)
    in
    let rec try_all last = function
      | [] -> (
        let e, fn = last in
        match e with
        | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK ->
          Error (describe_timeout ~host ~port timeout_s fn)
        | _ -> Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e)))
      | ai :: rest -> (
        match connect_one ai with
        | Ok fd -> Ok (fd, Obs.now_us () -. t0)
        | Error e -> try_all e rest)
    in
    try_all (Unix.ECONNREFUSED, "connect") candidates

let with_connection ?timeout_s ~host ~port f =
  match connect_fd ?timeout_s ~host ~port () with
  | Error msg -> Error msg
  | Ok (fd, _connect_us) -> (
    match
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd)
    with
    | v -> v
    | exception Unix.Unix_error ((Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK), fn, _) ->
      Error (describe_timeout ~host ~port timeout_s fn)
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e)))

let read_until_eof fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- persistent client connections (CCQ1v4) ------------------------------ *)

module Conn = struct
  type t = {
    fd : Unix.file_descr;
    timeout_s : float option;
    connect_us : float;
    mutable served : int;
    mutable alive : bool;
  }

  type error =
    | Stale of string
        (** the server closed the connection between frames (idle
            timeout or [--max-requests-per-conn] recycle): open a fresh
            connection and resend — nothing was half-done *)
    | Transport of string  (** a real failure; blind resend may not be safe *)

  let error_message = function Stale m | Transport m -> m

  let connect ?timeout_s ~host ~port () =
    match connect_fd ?timeout_s ~host ~port () with
    | Error msg -> Error msg
    | Ok (fd, connect_us) -> Ok { fd; timeout_s; connect_us; served = 0; alive = true }

  let connect_us t = t.connect_us
  let is_alive t = t.alive

  let close t =
    if t.alive then begin
      t.alive <- false;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  let deadline t = deadline_after_s t.timeout_s

  (* Replies are read by frame, not to EOF — the connection stays open
     for the next request. EOF before the FIRST header byte on a reused
     connection is the recycle race: the server closed between our
     frames, and the request was never read — [Stale], safe to resend
     on a fresh connection. EOF anywhere later is mid-reply truncation. *)
  let read_reply t =
    let deadline_us = deadline t in
    let first =
      let buf = Bytes.create 1 in
      let rec go () =
        if not (arm ~send:false t.fd deadline_us) then Error (Timed_out "response header")
        else
          match Unix.read t.fd buf 0 1 with
          | 0 -> Ok None
          | _ -> Ok (Some (Bytes.get buf 0))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Error (Timed_out "response header")
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Ok None
      in
      go ()
    in
    match first with
    | Error pe -> Error (Transport (protocol_error_to_string pe))
    | Ok None ->
      if t.served > 0 then Error (Stale "server closed between frames")
      else Error (Transport "peer closed before any reply byte")
    | Ok (Some c) -> (
      match read_exact ?deadline_us ~what:"response header" t.fd (resp_header_len - 1) with
      | Error pe -> Error (Transport (protocol_error_to_string pe))
      | Ok rest ->
        let header = String.make 1 c ^ rest in
        if String.sub header 0 4 <> resp_magic then Error (Transport "bad response magic")
        else begin
          let timing_len = Char.code header.[5] in
          let len = read_be32 header 6 in
          (* both lengths come from the peer: validate them before
             reading (or allocating) the body they describe *)
          if timing_len <> 0 && timing_len <> timing_record_len then
            Error (Transport (Printf.sprintf "unknown timing record length %d" timing_len))
          else if len > max_payload then
            Error
              (Transport
                 (protocol_error_to_string (Frame_too_large { limit = max_payload; got = len })))
          else
            match read_exact ?deadline_us ~what:"response body" t.fd (timing_len + len) with
            | Error pe -> Error (Transport (protocol_error_to_string pe))
            | Ok body -> (
              match decode_response (header ^ body) with
              | Ok v -> Ok v
              | Error msg -> Error (Transport msg))
        end)

  let submit_timed ?(deadline_ms = 0) ?(request_id = 0L) t req =
    if not t.alive then Error (Transport "connection closed")
    else begin
      let frame = encode_request ~deadline_ms ~request_id req in
      let reused = t.served > 0 in
      let r =
        match write_all ?deadline_us:(deadline t) ~what:"request write" t.fd frame with
        | Error (Truncated msg) when reused -> Error (Stale msg)
        | Error pe -> Error (Transport (protocol_error_to_string pe))
        | Ok () -> read_reply t
      in
      (* a failed exchange leaves the stream unusable: release the fd
         now, so a caller that drops the dead connection leaks nothing *)
      (match r with Ok _ -> t.served <- t.served + 1 | Error _ -> close t);
      r
    end

  let submit ?deadline_ms t req = Result.map fst (submit_timed ?deadline_ms t req)
end

let submit ?timeout_s ?deadline_ms ~host ~port req =
  match Conn.connect ?timeout_s ~host ~port () with
  | Error msg -> Error msg
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Conn.close c)
      (fun () -> Result.map_error Conn.error_message (Conn.submit ?deadline_ms c req))

(* Jittered exponential backoff: attempt [k] sleeps in
   [0.5, 1.5) * base * 2^k — seeded, so a retry schedule replays. *)
let backoff_sleep g ~base attempt =
  let cap = base *. (2.0 ** float_of_int attempt) in
  Unix.sleepf (cap *. (0.5 +. Prng.float g))

let request ?(timeout_s = 30.0) ?(deadline_ms = 0) ?(retries = 0) ?(backoff_s = 0.05) ?(seed = 1)
    ~host ~port req =
  let g = Prng.create (Int64.of_int seed) in
  let rec attempt k =
    let retryable, result =
      match submit ~timeout_s ~deadline_ms ~host ~port req with
      | Ok (Payload p) -> (false, Ok p)
      | Ok (Failed msg) -> (false, Error msg)
      | Ok (Overloaded msg) -> (true, Error ("overloaded: " ^ msg))
      | Ok (Deadline_expired msg) -> (false, Error ("deadline expired: " ^ msg))
      | Error msg -> (true, Error msg)
    in
    if (not retryable) || k >= retries then result
    else begin
      backoff_sleep g ~base:backoff_s k;
      attempt (k + 1)
    end
  in
  attempt 0

let http_get ?timeout_s ~host ~port target =
  with_connection ?timeout_s ~host ~port (fun fd ->
      let q = Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" target host in
      match write_all ~what:"request write" fd q with
      | Error pe -> Error (protocol_error_to_string pe)
      | Ok () -> (
        let raw = read_until_eof fd in
        match String.index_opt raw ' ' with
        | None -> Error "malformed HTTP response"
        | Some i -> (
          let rest = String.sub raw (i + 1) (String.length raw - i - 1) in
          let status =
            match String.split_on_char ' ' rest with
            | code :: _ -> int_of_string_opt code
            | [] -> None
          in
          match status with
          | None -> Error "malformed HTTP status"
          | Some status ->
            let body =
              let rec find j =
                if j + 4 > String.length raw then String.length raw
                else if String.sub raw j 4 = "\r\n\r\n" then j + 4
                else find (j + 1)
              in
              let start = find 0 in
              String.sub raw start (String.length raw - start)
            in
            Ok (status, body))))
