module Prng = Ccomp_util.Prng
module Events = Ccomp_obs.Events
module Serve = Ccomp_serve.Serve
module Samc = Ccomp_core.Samc
module Image = Ccomp_image.Image

type config = {
  host : string;
  port : int;
  seed : int;
  rounds : int;
  flood : int;
  stall_s : float;
  timeout_s : float;
  crash_workers : bool;
}

type report = {
  seed : int;
  valid_jobs : int;
  byte_identical : int;
  mismatched : int;
  shed_typed : int;
  deadline_replies : int;
  deadline_probes : int;
  transport_errors : int;
  slowloris : int;
  truncations : int;
  oversize : int;
  churn : int;
  resets : int;
  crash_ops : int;
  pipeline_bursts : int;
  pipelined_replies : int;
  order_violations : int;
  midstream_truncations : int;
  midstream_intact : int;
  stalls : int;
  stall_closes : int;
  bombs : int;
  bombs_refused : int;
  alive_after : bool;
}

(* --- raw-socket attack plumbing ------------------------------------------ *)

(* Attacks talk Unix sockets directly: the point is to misbehave in
   ways the Serve clients are built not to. Every helper is total —
   the daemon closing on us, resetting us, or timing us out is the
   expected outcome, not an error. *)

let connect ~timeout_s ~host ~port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    (try Unix.connect fd addr with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
    (match Unix.select [] [ fd ] [] timeout_s with
    | _, [ _ ], _ when Unix.getsockopt_error fd = None -> ()
    | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", "")));
    Unix.clear_nonblock fd;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
  with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write as much of [s] as the peer will take; stop quietly on EPIPE,
   reset, or send-timeout. Returns bytes written. *)
let write_best_effort fd s =
  let n = String.length s in
  let rec go pos =
    if pos >= n then pos
    else
      match Unix.write_substring fd s pos (n - pos) with
      | 0 -> pos
      | k -> go (pos + k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        -> pos
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

(* Read until EOF, error, or timeout — whatever the daemon sent back. *)
let read_reply fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes b chunk 0 k;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents b

let be32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let rd32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* Read exactly [n] bytes; None on EOF, reset or timeout. *)
let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go pos =
    if pos >= n then Some (Bytes.to_string buf)
    else
      match Unix.read fd buf pos (n - pos) with
      | 0 -> None
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error _ -> None
  in
  go 0

(* One framed CCR1 reply off a keep-alive connection:
   (status, echoed request id if a timing record rode along, payload).
   None on EOF at a frame boundary (the server closed: recycle or idle)
   or any mid-frame surprise. *)
let read_frame fd =
  match read_exactly fd 10 with
  | None -> None
  | Some h ->
    if String.sub h 0 4 <> "CCR1" then None
    else begin
      let status = Char.code h.[4] in
      let tlen = Char.code h.[5] in
      let plen = rd32 h 6 in
      match read_exactly fd (tlen + plen) with
      | None -> None
      | Some body ->
        (* timing record: request_id(8,BE) then three u32 stages; the
           harness's ids are small, so the low word is the id *)
        let id = if tlen >= 8 then Some (rd32 body 4) else None in
        Some (status, id, String.sub body tlen plen)
    end

(* --- the attack mix ------------------------------------------------------ *)

type counters = {
  mutable c_valid : int;
  mutable c_identical : int;
  mutable c_mismatched : int;
  mutable c_shed : int;
  mutable c_deadline : int;
  mutable c_deadline_probes : int;
  mutable c_transport : int;
  mutable c_slowloris : int;
  mutable c_trunc : int;
  mutable c_oversize : int;
  mutable c_churn : int;
  mutable c_resets : int;
  mutable c_crash : int;
  mutable c_pipeline : int;
  mutable c_pipelined_replies : int;
  mutable c_order_violations : int;
  mutable c_midstream : int;
  mutable c_midstream_ok : int;
  mutable c_stalls : int;
  mutable c_stall_closed : int;
  mutable c_bombs : int;
  mutable c_bombs_refused : int;
}

let random_code g len =
  (* multiple-of-4 so the MIPS path sees whole words *)
  let len = (len + 3) land lnot 3 in
  String.init len (fun _ -> Char.chr (Prng.int g 256))

(* A well-formed job, checked byte-for-byte against the local oracle:
   handle_request is the daemon's own dispatch, so the served reply
   must be identical unless the daemon legitimately shed it. *)
let valid_job cfg g c =
  let algo = if Prng.bool g then Serve.Samc else Serve.Sadc in
  let code = random_code g (64 + Prng.int g 512) in
  let req = Serve.Compress { algo; isa = Serve.Mips; block_size = 32; code } in
  c.c_valid <- c.c_valid + 1;
  (* this draw once picked between two client wire shapes; it stays so
     that every seed still replays the same attack mix *)
  ignore (Prng.bool g);
  match Serve.submit ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port req with
  | Error _ -> c.c_transport <- c.c_transport + 1
  | Ok (Serve.Overloaded _) ->
    c.c_shed <- c.c_shed + 1
  | Ok (Serve.Deadline_expired _) ->
    c.c_deadline <- c.c_deadline + 1
  | Ok served ->
    let oracle = Serve.handle_request ~jobs:1 req in
    if served = oracle then c.c_identical <- c.c_identical + 1
    else begin
      c.c_mismatched <- c.c_mismatched + 1;
      Events.error
        ~fields:[ ("seed", string_of_int cfg.seed); ("algo", if algo = Serve.Samc then "samc" else "sadc") ]
        "chaos.mismatch"
    end

(* Drip a valid frame one byte at a time with long pauses: the
   daemon's per-frame i/o deadline must cut us off rather than pin a
   worker forever. *)
let slowloris cfg g c =
  match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd ->
    let frame = Serve.encode_request (Serve.Decompress (random_code g 64)) in
    let dripped = ref 0 in
    (try
       for i = 0 to String.length frame - 1 do
         if Unix.write_substring fd frame i 1 = 1 then incr dripped;
         Unix.sleepf (0.05 +. Prng.float g *. 0.1)
       done
     with Unix.Unix_error _ -> ());
    ignore (read_reply fd);
    close_quietly fd;
    c.c_slowloris <- c.c_slowloris + 1

(* Promise a payload, deliver part of it, hang up. *)
let truncation cfg g c =
  match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd ->
    let promised = 64 + Prng.int g 256 in
    let delivered = Prng.int g promised in
    (* header prefix up to payload_len: magic, op=decompress, algo/isa,
       block, deadline, request_id — all zero; declares [promised] bytes *)
    let raw = "CCQ1\x02" ^ String.make 16 '\x00' ^ be32 promised ^ random_code g delivered in
    let _ = write_best_effort fd raw in
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    ignore (read_reply fd);
    close_quietly fd;
    c.c_trunc <- c.c_trunc + 1

(* Declare a payload past max_payload; the daemon must refuse before
   allocating and answer with a typed Failed. *)
let oversize cfg g c =
  match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd ->
    let header =
      "CCQ1\x02\x00\x00\x00\x00"
      ^ be32 0 (* deadline *)
      ^ String.make 8 '\x00' (* request id *)
      ^ be32 (Serve.max_payload + 1 + Prng.int g 1024)
    in
    let _ = write_best_effort fd header in
    ignore (read_reply fd);
    close_quietly fd;
    c.c_oversize <- c.c_oversize + 1

(* Connect and vanish, repeatedly. *)
let churn cfg _g c =
  (match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd -> close_quietly fd);
  c.c_churn <- c.c_churn + 1

(* Abort the connection with a RST (SO_LINGER 0) mid-frame. *)
let reset cfg g c =
  match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd ->
    let junk = String.sub (Serve.encode_request Serve.Ping) 0 (1 + Prng.int g 10) in
    let _ = write_best_effort fd junk in
    (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0) with Unix.Unix_error _ -> ());
    close_quietly fd;
    c.c_resets <- c.c_resets + 1

(* A compress too big to finish inside 1 ms: the daemon must answer
   Deadline_expired, not burn the time and reply late. *)
let deadline_probe cfg g c =
  let code = random_code g (1 lsl 19) in
  let req = Serve.Compress { algo = Serve.Samc; isa = Serve.Mips; block_size = 32; code } in
  c.c_deadline_probes <- c.c_deadline_probes + 1;
  match
    Serve.submit ~timeout_s:cfg.timeout_s ~deadline_ms:1 ~host:cfg.host ~port:cfg.port req
  with
  | Error _ -> c.c_transport <- c.c_transport + 1
  | Ok (Serve.Deadline_expired _) ->
    c.c_deadline <- c.c_deadline + 1
  | Ok (Serve.Overloaded _) ->
    c.c_shed <- c.c_shed + 1
  | Ok _ -> ()

(* Hold [flood] silent connections open (each takes one of the
   daemon's held-connection slots until its idle budget runs out), then
   probe: the probe must get a typed Overloaded reply once every slot
   is taken — the daemon sheds instead of stalling its accepts. *)
let overload_flood cfg _g c =
  if cfg.flood > 0 then begin
    let held =
      List.filter_map
        (fun _ -> connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port)
        (List.init cfg.flood (fun i -> i))
    in
    let probes = max 2 (cfg.flood / 4) in
    for _ = 1 to probes do
      match Serve.submit ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port Serve.Ping with
      | Ok (Serve.Overloaded _) ->
        c.c_shed <- c.c_shed + 1
      | Ok _ -> ()
      | Error _ -> c.c_transport <- c.c_transport + 1
    done;
    List.iter close_quietly held
  end

(* Ask the daemon to kill the worker handling us: the connection dies
   replyless and supervision must respawn the worker (visible in
   serve_worker_restarts_total). *)
let crash_op cfg _g c =
  if cfg.crash_workers then begin
    (match Serve.submit ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port Serve.Crash_worker with
    | Ok _ | Error _ -> ());
    c.c_crash <- c.c_crash + 1
  end

(* Several oracle-checked jobs down ONE persistent connection: the
   keep-alive loop must serve them all without reconnects. A Stale
   error is legitimate (the daemon recycled or idled us out between
   frames) and just ends the burst early. *)
let keepalive_jobs cfg g c =
  match Serve.Conn.connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port () with
  | Error _ -> c.c_transport <- c.c_transport + 1
  | Ok conn ->
    let jobs = 2 + Prng.int g 2 in
    (try
       for _ = 1 to jobs do
         let algo = if Prng.bool g then Serve.Samc else Serve.Sadc in
         let code = random_code g (64 + Prng.int g 256) in
         let req = Serve.Compress { algo; isa = Serve.Mips; block_size = 32; code } in
         c.c_valid <- c.c_valid + 1;
         match Serve.Conn.submit conn req with
         | Error (Serve.Conn.Stale _) -> raise Exit
         | Error (Serve.Conn.Transport _) ->
           c.c_transport <- c.c_transport + 1;
           raise Exit
         | Ok (Serve.Overloaded _) ->
           c.c_shed <- c.c_shed + 1
         | Ok served ->
           if served = Serve.handle_request ~jobs:1 req then
             c.c_identical <- c.c_identical + 1
           else begin
             c.c_mismatched <- c.c_mismatched + 1;
             Events.error
               ~fields:[ ("seed", string_of_int cfg.seed); ("conn", "keepalive") ]
               "chaos.mismatch"
           end
       done
     with Exit -> ());
    Serve.Conn.close conn

(* Write a burst of ping frames back-to-back before reading anything:
   the daemon must answer all of them, in order, on the one
   connection. Distinct request ids ask for timing echoes, and the
   echoed id is how we catch reordered or crossed replies. *)
let pipeline_burst cfg g c =
  match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd ->
    let k = 2 + Prng.int g 3 in
    let burst = Buffer.create 256 in
    for i = 0 to k - 1 do
      Buffer.add_string burst
        (Serve.encode_request ~request_id:(Int64.of_int (1000 + i)) Serve.Ping)
    done;
    let raw = Buffer.contents burst in
    if write_best_effort fd raw = String.length raw then begin
      let got = ref 0 and shed = ref false in
      (try
         for i = 0 to k - 1 do
           match read_frame fd with
           | None -> raise Exit (* recycle/close mid-burst: allowed *)
           | Some (2, _, _) ->
             (* overloaded: the daemon sheds the whole rest, fine *)
             shed := true;
             raise Exit
           | Some (0, Some id, _) ->
             incr got;
             if id <> 1000 + i then begin
               c.c_order_violations <- c.c_order_violations + 1;
               Events.error
                 ~fields:
                   [ ("expected", string_of_int (1000 + i)); ("got", string_of_int id) ]
                 "chaos.pipeline.order"
             end
           | Some _ -> incr got
         done
       with Exit -> ());
      if not (!shed && !got = 0) then begin
        c.c_pipeline <- c.c_pipeline + 1;
        c.c_pipelined_replies <- c.c_pipelined_replies + !got
      end
    end;
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    ignore (read_reply fd);
    close_quietly fd

(* One complete frame, then a partial second frame, then hang up: the
   first job was whole and must be answered before the daemon notices
   the torn successor. The recycle race lives here too — under
   --max-requests-per-conn 1 the daemon closes after the first reply
   and never sees the torn bytes at all. *)
let midstream_truncation cfg g c =
  match connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port with
  | None -> c.c_transport <- c.c_transport + 1
  | Some fd ->
    let whole = Serve.encode_request ~request_id:777L Serve.Ping in
    let second = Serve.encode_request (Serve.Decompress (random_code g 64)) in
    let cut = 1 + Prng.int g (String.length second - 1) in
    let raw = whole ^ String.sub second 0 cut in
    let _ = write_best_effort fd raw in
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    c.c_midstream <- c.c_midstream + 1;
    (match read_frame fd with
    | Some (0, _, _) -> c.c_midstream_ok <- c.c_midstream_ok + 1
    | Some _ | None -> ());
    ignore (read_reply fd);
    close_quietly fd

(* Answer one frame, then go silent past the daemon's idle timeout:
   the daemon must close the idle connection (EOF on our next read)
   rather than hold the fd forever. Gated on --stall because the sleep
   costs real wall clock and only proves anything when the daemon runs
   with an idle timeout shorter than the stall. *)
let interframe_stall cfg _g c =
  if cfg.stall_s > 0.0 then begin
    match connect ~timeout_s:(cfg.stall_s +. cfg.timeout_s) ~host:cfg.host ~port:cfg.port with
    | None -> c.c_transport <- c.c_transport + 1
    | Some fd ->
      let frame = Serve.encode_request Serve.Ping in
      let _ = write_best_effort fd frame in
      c.c_stalls <- c.c_stalls + 1;
      (match read_frame fd with
      | None -> ()
      | Some _ ->
        Unix.sleepf cfg.stall_s;
        (match read_frame fd with
        | None -> c.c_stall_closed <- c.c_stall_closed + 1
        | Some _ -> ()));
      close_quietly fd
  end

(* A CRC-valid SECF whose SAMC header declares 2^31 original bytes in
   empty 65532-byte blocks, as many as that size requires: 120,900 bytes
   that [Image.read] accepts and only the decoder's size cap keeps from
   becoming a 2 GB allocation. *)
let decompression_bomb () =
  let cfg = Samc.mips_config ~block_size:65532 () in
  let z = Samc.compress cfg (String.make 64 '\x00') in
  let original_size = 1 lsl 31 in
  let blocks = Array.make (Samc.block_count cfg ~code_bytes:original_size) "" in
  Image.write (Image.of_samc ~isa:Image.Mips { z with Samc.blocks; original_size })

let bomb = lazy (decompression_bomb ())

(* A well-formed decompress job carrying the bomb, on a fresh
   connection: the daemon must answer a typed Failed naming the
   overflow at once, not decode for a minute. *)
let bomb_probe cfg c =
  c.c_bombs <- c.c_bombs + 1;
  match
    Serve.submit ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port
      (Serve.Decompress (Lazy.force bomb))
  with
  | Ok (Serve.Failed msg) when String.starts_with ~prefix:"length overflow" msg ->
    c.c_bombs_refused <- c.c_bombs_refused + 1
  | Ok _ -> ()
  | Error _ -> c.c_transport <- c.c_transport + 1

let alive cfg =
  match Serve.http_get ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port "/healthz" with
  | Ok (200, _) -> true
  | Ok _ | Error _ -> false

(* --- driver -------------------------------------------------------------- *)

let run cfg =
  if not (alive cfg) then
    Error (Printf.sprintf "no live daemon at %s:%d (/healthz failed)" cfg.host cfg.port)
  else begin
    Events.info ~fields:[ ("seed", string_of_int cfg.seed) ] "chaos.begin";
    let g = Prng.create (Int64.of_int cfg.seed) in
    let c =
      {
        c_valid = 0;
        c_identical = 0;
        c_mismatched = 0;
        c_shed = 0;
        c_deadline = 0;
        c_deadline_probes = 0;
        c_transport = 0;
        c_slowloris = 0;
        c_trunc = 0;
        c_oversize = 0;
        c_churn = 0;
        c_resets = 0;
        c_crash = 0;
        c_pipeline = 0;
        c_pipelined_replies = 0;
        c_order_violations = 0;
        c_midstream = 0;
        c_midstream_ok = 0;
        c_stalls = 0;
        c_stall_closed = 0;
        c_bombs = 0;
        c_bombs_refused = 0;
      }
    in
    (* The weighted mix: hostile traffic drawn deterministically from
       the seed, valid jobs interleaved throughout so corruption under
       pressure (not just in isolation) would be caught. Slowloris is
       rare because each one deliberately costs an i/o-timeout's worth
       of wall clock. *)
    let attacks =
      [|
        (6, valid_job);
        (1, slowloris);
        (3, truncation);
        (2, oversize);
        (3, churn);
        (2, reset);
        (2, deadline_probe);
        (1, crash_op);
        (3, keepalive_jobs);
        (2, pipeline_burst);
        (2, midstream_truncation);
      |]
    in
    for _round = 1 to cfg.rounds do
      for _ = 1 to 8 do
        let attack = Prng.weighted g attacks in
        attack cfg g c
      done;
      overload_flood cfg g c;
      interframe_stall cfg g c;
      (* guaranteed once per round (not left to the weighted draw): the
         report's deadline and supervision verdicts need these to have
         run under every seed, same as the flood and the stall *)
      deadline_probe cfg g c;
      crash_op cfg g c;
      (* after each round of abuse the daemon must still answer
         cleanly: a fresh valid job through the full stack *)
      valid_job cfg g c;
      (* takes no PRNG, so every seed's attack mix replays unchanged *)
      bomb_probe cfg c
    done;
    let alive_after = alive cfg in
    Events.info
      ~fields:
        [
          ("seed", string_of_int cfg.seed);
          ("valid", string_of_int c.c_valid);
          ("mismatched", string_of_int c.c_mismatched);
          ("shed", string_of_int c.c_shed);
          ("alive", string_of_bool alive_after);
        ]
      "chaos.end";
    Ok
      {
        seed = cfg.seed;
        valid_jobs = c.c_valid;
        byte_identical = c.c_identical;
        mismatched = c.c_mismatched;
        shed_typed = c.c_shed;
        deadline_replies = c.c_deadline;
        deadline_probes = c.c_deadline_probes;
        transport_errors = c.c_transport;
        slowloris = c.c_slowloris;
        truncations = c.c_trunc;
        oversize = c.c_oversize;
        churn = c.c_churn;
        resets = c.c_resets;
        crash_ops = c.c_crash;
        pipeline_bursts = c.c_pipeline;
        pipelined_replies = c.c_pipelined_replies;
        order_violations = c.c_order_violations;
        midstream_truncations = c.c_midstream;
        midstream_intact = c.c_midstream_ok;
        stalls = c.c_stalls;
        stall_closes = c.c_stall_closed;
        bombs = c.c_bombs;
        bombs_refused = c.c_bombs_refused;
        alive_after;
      }
  end

let passed cfg r =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not r.alive_after then fail "daemon dead after chaos (seed %d)" r.seed
  else if r.mismatched > 0 then
    fail "%d served jobs differed from the offline oracle (seed %d)" r.mismatched r.seed
  else if r.byte_identical = 0 then
    fail "no valid job completed — nothing was actually verified (seed %d)" r.seed
  else if cfg.flood > 0 && r.shed_typed = 0 then
    fail "flood of %d never produced a typed overload reply (seed %d)" cfg.flood r.seed
  else if r.deadline_probes > 0 && r.deadline_replies = 0 then
    fail "no deadline probe got a typed deadline-expired reply (seed %d)" r.seed
  else if r.order_violations > 0 then
    fail "%d pipelined replies arrived out of order (seed %d)" r.order_violations r.seed
  else if r.pipeline_bursts > 0 && r.pipelined_replies < 2 then
    fail "pipelining never yielded multiple replies on one connection (seed %d)" r.seed
  else if r.midstream_truncations > 0 && r.midstream_intact = 0 then
    fail
      "no complete frame survived a torn successor — mid-stream truncation poisons whole \
       connections (seed %d)"
      r.seed
  else if r.stalls > 0 && r.stall_closes = 0 then
    fail "no inter-frame stall was idle-closed by the daemon (seed %d)" r.seed
  else if r.bombs_refused < r.bombs then
    fail "%d of %d decompression bombs got no typed length-overflow refusal (seed %d)"
      (r.bombs - r.bombs_refused) r.bombs r.seed
  else Ok ()

let report_lines r =
  [
    Printf.sprintf "chaos seed %d: %s" r.seed
      (if r.alive_after then "daemon alive" else "DAEMON DEAD");
    Printf.sprintf "  valid jobs        %6d  (%d byte-identical, %d MISMATCHED)" r.valid_jobs
      r.byte_identical r.mismatched;
    Printf.sprintf "  typed sheds       %6d" r.shed_typed;
    Printf.sprintf "  deadline replies  %6d  (of %d probes)" r.deadline_replies r.deadline_probes;
    Printf.sprintf "  slowloris         %6d" r.slowloris;
    Printf.sprintf "  truncations       %6d" r.truncations;
    Printf.sprintf "  oversize frames   %6d" r.oversize;
    Printf.sprintf "  churn connects    %6d" r.churn;
    Printf.sprintf "  rst aborts        %6d" r.resets;
    Printf.sprintf "  crash ops         %6d" r.crash_ops;
    Printf.sprintf "  pipeline bursts   %6d  (%d replies, %d ORDER VIOLATIONS)" r.pipeline_bursts
      r.pipelined_replies r.order_violations;
    Printf.sprintf "  midstream cuts    %6d  (%d first-frame replies intact)"
      r.midstream_truncations r.midstream_intact;
    Printf.sprintf "  interframe stalls %6d  (%d idle-closed)" r.stalls r.stall_closes;
    Printf.sprintf "  decompress bombs  %6d  (%d refused typed)" r.bombs r.bombs_refused;
    Printf.sprintf "  transport errors  %6d" r.transport_errors;
  ]
