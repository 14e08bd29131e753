(** [ccomp serve]: a dependency-free, overload-safe compression daemon.

    One TCP listener (plain [Unix] sockets) speaks two protocols,
    distinguished by the first four bytes of each connection:

    {ul
    {- a length-prefixed binary job protocol ({!section-protocol}) for
       compress/decompress/ping jobs — the service path; and}
    {- HTTP/1.0 [GET] for the observability surface: [/metrics]
       (OpenMetrics text, including the [serve] info metric,
       [serve.uptime_seconds] and the [runtime.*] GC/allocation
       telemetry), [/healthz], [/events] (JSON lines, newest last,
       [?n=] to bound, [?level=] to filter at-or-above a severity),
       [/snapshot] (the metrics snapshot as JSON — what [ccomp top]
       polls) and [/slow] (the tail-sampled slow-request ring as JSON
       lines, oldest first, [?n=] to bound — see {!Slow}).}}

    Jobs run through exactly the same codec paths as the offline CLI,
    so a served compression is byte-identical to [ccomp compress] with
    the same flags.

    {2 Overload safety}

    Each worker domain runs one [select] loop over the shared
    non-blocking listener and the connections it owns. A worker keeps
    every connection it accepts for that connection's whole life and
    serves each readable frame to completion on its own domain; no
    connection ever moves between domains. A worker accepts only while
    no worker holding fewer connections is free to (one busy serving
    for over 100 ms does not count as free), so connections spread
    evenly over the workers without waiting behind a long frame. Each
    wakeup admits the backlog before serving. The daemon degrades
    predictably instead of stalling:

    - {b Admission}: the daemon holds at most [workers * queue_cap]
      connections. An accept beyond that — or one whose descriptor is
      past [FD_SETSIZE] — is {e shed}: a typed {!Overloaded} reply (or
      HTTP 503) written non-blockingly, then closed, so a worker never
      stalls on the overload it is shedding; once the daemon is full
      every free worker selects on the listener ([serve.shed_total] counts
      the sheds; the [serve.queue.depth.N] gauges count worker [N]'s
      readable connections not yet served).
    - {b Per-request deadlines}: the CCQ1 header carries a relative
      [deadline_ms] budget; the daemon answers {!Deadline_expired}
      (status 3, counted in [serve.deadline_expired_total]) when the
      budget is spent before, during or after decode rather than doing
      work nobody is waiting for.
    - {b Per-connection budgets}: an idle timeout on the first byte, an
      i/o deadline per frame (re-armed to the remaining budget before
      every read/write, so slowloris peers are bounded), counted in
      [serve.io_timeouts]. In-flight work is bounded by the worker
      count; held connections by [workers * queue_cap].
    - {b Graceful drain}: SIGTERM/SIGINT make every worker stop
      accepting and close its idle connections; frames already
      readable are served within [drain_s], the remainder is shed with
      typed replies, and the frame still in service once the budget is
      spent is force-shutdown (so a silent peer cannot hold the join
      past [drain_s]; counted in the [serve.drain.interrupt] event).
      The listener is closed only after every worker has stopped
      selecting on it. Then the workers are joined and telemetry
      flushed ([serve.drain.begin]/[serve.drain.end] events).
    - {b Supervision}: a worker whose loop dies is logged, counted in
      [serve.worker_restarts_total] and restarted in place over the
      same connection set — a crash (including the chaos harness's
      deliberate {!Crash_worker} op) closes only the connection that
      caused it and never takes the daemon down.

    {2 Explaining the tail}

    With metrics on, every binary request additionally records what the
    OCaml runtime did to it: [Gc.quick_stat] probes at each stage
    boundary give per-stage GC deltas (collections and words allocated
    on the serving domain), folded into the global [runtime.*] counters
    by {!Ccomp_obs.Runtime.sample}; each worker domain installs a
    [Gc.create_alarm] hook that feeds the [runtime.gc.major_pause_us]
    estimator. Requests slower than [slow_threshold_ms] — and {e all}
    shed / deadline-expired outcomes — land in the bounded {!Slow} ring
    with their stage split, per-stage GC deltas and the number of ready
    connections served ahead of them on their worker, retrievable via [GET /slow] and
    [ccomp stats --slow].

    {2 Keep-alive (CCQ1v4)}

    A binary connection carries a {e sequence} of frames: the daemon
    answers each in order and then waits for the next preamble, so a
    client can pipeline requests without paying connect(2) per job.
    Either side may close cleanly {e between} frames — a client by
    closing (or shutting down its send side after its last frame), the
    server when the inter-frame gap exceeds [idle_timeout_s] (counted
    in [serve_keepalive_idle_closes_total]) or when a connection
    reaches [max_requests_per_conn] frames (a {e recycle}, counted in
    [serve_conn_recycles_total]; clients treat the close-between-frames
    as a signal to reconnect and resend). Io budgets are re-armed per
    frame. Between frames a connection costs its worker nothing but a
    slot in the [select] set. [serve_frames_total] counts frames
    served, [serve_connections_total] connections — their ratio is the
    realised reuse factor.

    {2:protocol Wire format}

    Request (25-byte header): ["CCQ1"] · opcode(1) · algo(1) · isa(1)
    · block_size(2,BE) · deadline_ms(4,BE) · request_id(8,BE) ·
    payload_len(4,BE) · payload. Opcodes: [1] compress, [2] decompress,
    [3] ping, [4] crash-worker (chaos testing; refused unless the
    daemon allows it). Algo: [0] samc, [1] sadc. ISA: [0] mips, [1]
    x86. [deadline_ms = 0] means no deadline; otherwise it is the
    client's remaining budget, measured by the server from the moment
    the frame finished arriving. [request_id] is client-chosen and
    opaque; a nonzero id asks the daemon to echo a per-request timing
    record in the reply ([0] = no tracing).

    Response (10-byte header): ["CCR1"] · status(1) · timing_len(1) ·
    payload_len(4,BE) · timing record ([timing_len] bytes) · payload.
    Status: [0] ok (result bytes), [1] error, [2] overloaded (shed),
    [3] deadline expired — the payload of a non-ok status is a message.
    [timing_len] is [0] (no record) or [20]: request_id(8,BE) ·
    queue_us(4,BE) · service_us(4,BE) · server_us(4,BE), each duration
    capped at [0xffffffff]. [server_us] covers queue + frame read +
    job, {e excluding} the reply write (the record rides inside that
    write), so a client's network share is its end-to-end latency minus
    [server_us], pessimistic by the write cost. *)

type algo = Samc | Sadc

type isa = Mips | X86

type request =
  | Compress of { algo : algo; isa : isa; block_size : int; code : string }
  | Decompress of string
  | Ping
  | Crash_worker
      (** Chaos-harness op: makes the handling worker raise
          {!Worker_crashed}. The daemon refuses it unless started with
          [allow_crash_op]. *)

type response =
  | Payload of string  (** success — the job's result bytes *)
  | Failed of string  (** the job or the frame was bad; message inside *)
  | Overloaded of string  (** shed by admission control or drain *)
  | Deadline_expired of string  (** the request's [deadline_ms] ran out *)

exception Worker_crashed
(** Raised by {!handle_request} on {!Crash_worker}: deliberately
    escapes the per-connection guard so the supervised worker loop
    books a restart. *)

type protocol_error =
  | Frame_too_large of { limit : int; got : int }
      (** The frame declared a payload longer than the daemon will
          allocate ([limit] is {!max_payload}). *)
  | Truncated of string  (** The peer closed before the frame was complete. *)
  | Malformed of string  (** Bad magic, tags, lengths or opcode. *)
  | Timed_out of string  (** An i/o deadline fired mid-frame. *)

val protocol_error_to_string : protocol_error -> string

val max_payload : int
(** Largest request or reply payload (bytes); longer frames are refused
    with {!Frame_too_large} before any allocation. Equal to
    [Image.max_original_bytes], so every image the daemon compresses it
    can also decode and reply with. *)

type frame_meta = {
  deadline_ms : int;  (** [0] = no deadline *)
  request_id : int64;  (** [0L] = tracing not requested *)
}

type timing = {
  t_request_id : int64;  (** echo of the request's id *)
  t_queue_us : int;
      (** from the [select] that found the connection readable to
          the start of service on its owning worker *)
  t_service_us : int;  (** the codec job itself *)
  t_server_us : int;  (** queue + frame read + job (write excluded) *)
}

val encode_request : ?deadline_ms:int -> ?request_id:int64 -> request -> string
(** [deadline_ms] (default [0] = none) is the client's remaining
    budget for the whole job; a nonzero [request_id] (default [0L])
    asks the server to echo a {!timing} record in the reply. *)

val decode_request : string -> (request * frame_meta, protocol_error) result
(** Inverse of {!encode_request} on a complete request frame. *)

val encode_response : ?timing:timing -> response -> string

val decode_response : string -> (response * timing option, string) result

val handle_request : ?deadline_us:float -> jobs:int -> request -> response
(** Run one job locally (no socket) — the daemon's dispatch, exposed
    for tests, the chaos harness's byte-identity oracle, and both
    protocols. [deadline_us] is an absolute {!Ccomp_obs.Obs.now_us}
    instant; when it passes before or during the job, the reply is
    {!Deadline_expired} (and the partial result is discarded). A
    decompress runs [Image.decompress] under [Decode_error.protect]: an
    image it refuses (bad tags, a declared size past the cap, corrupt
    blocks) gets {!Failed} with the typed error's text. Raises
    {!Worker_crashed} on {!Crash_worker}. *)

val http_response : string -> (int * string * string) option
(** [http_response target] routes an HTTP request-target to
    [Some (status, content_type, body)], or [None] for an unknown
    path. *)

val handle_connection :
  ?idle_timeout_s:float ->
  ?io_timeout_s:float ->
  ?allow_crash_op:bool ->
  ?max_requests:int ->
  jobs:int ->
  Unix.file_descr ->
  unit
(** Serve one connection to completion on an already-accepted
    descriptor, repeating the per-frame step a daemon worker runs on a
    readable connection: sniff the 4-byte preamble — a CCQ1 frame is
    answered and the next preamble awaited (keep-alive); an HTTP
    request is answered one-shot. Reads and writes retry over [EINTR]
    and short transfers; [idle_timeout_s] bounds the wait for each
    frame's first byte (the inter-frame gap) and [io_timeout_s] bounds
    each frame and each response (both default to unbounded, for
    driving the framing path over a socketpair in tests).
    [max_requests] (default [0] = unbounded) closes the connection
    after that many frames — the recycle bound. The descriptor is not
    closed. *)

type config = {
  host : string;  (** address to bind (default ["127.0.0.1"]) *)
  port : int;  (** [0] picks an ephemeral port *)
  jobs : int;  (** block-codec domains per job *)
  workers : int;  (** worker domains, one [select] loop each *)
  queue_cap : int;
      (** connections held per worker, idle keep-alive ones included:
          the daemon holds at most [workers * queue_cap], and sheds
          accepts beyond that *)
  max_requests_per_conn : int;  (** recycle bound; [0] = unbounded *)
  idle_timeout_s : float;  (** inter-frame gap budget per connection *)
  io_timeout_s : float;  (** per-frame read and per-response write budget *)
  drain_s : float;  (** SIGTERM budget for serving already-readable frames *)
  allow_crash_op : bool;  (** honour the {!Crash_worker} chaos op *)
  slow_threshold_ms : float;  (** tail-sample requests at/above this; [0.] = all *)
  slow_capacity : int;  (** bounded slow-request ring size *)
}

val default_config : config
(** [{host = "127.0.0.1"; port = 7070; jobs = 1; workers = 2;
    queue_cap = 64; max_requests_per_conn = 0;
    idle_timeout_s = 10.; io_timeout_s = 30.; drain_s = 5.;
    allow_crash_op = false; slow_threshold_ms = 100.;
    slow_capacity = 64}] *)

val run : ?on_ready:(int -> unit) -> config -> unit
(** Bind, call [on_ready] with the bound port, then serve until
    SIGTERM/SIGINT, which trigger the graceful drain described above.
    [workers] domains each run one [select] loop over the listener and
    the connections they accepted; the calling domain only waits for
    the stop signal and runs the drain. SIGPIPE is ignored
    for the process (a peer closing mid-write must surface as [EPIPE],
    not kill the daemon). *)

(** {2 Clients}

    Minimal clients for the two protocols — what [ccomp submit],
    [ccomp scrape], [ccomp top], [ccomp loadgen] and the chaos harness
    use. All take [?timeout_s], covering connect (non-blocking +
    select, every [getaddrinfo] candidate tried in order) and each
    read/write (socket timeouts), so a dead or wedged daemon produces a
    clear error instead of a hang. *)

(** A persistent CCQ1v4 client connection: submit many requests over
    one socket, replies read by frame (not to EOF). Not thread-safe —
    one domain per connection. *)
module Conn : sig
  type t

  type error =
    | Stale of string
        (** the server closed between frames — idle timeout or
            [max_requests_per_conn] recycle. The request was never
            read: reconnect and resend. *)
    | Transport of string
        (** a transport or framing failure mid-frame; a blind resend
            may duplicate work *)

  val error_message : error -> string

  val connect : ?timeout_s:float -> host:string -> port:int -> unit -> (t, string) result
  (** Open a persistent connection. [timeout_s] bounds the connect and
      every subsequent per-request read/write. *)

  val submit_timed :
    ?deadline_ms:int ->
    ?request_id:int64 ->
    t ->
    request ->
    (response * timing option, error) result
  (** One request/reply exchange on the open connection; a nonzero
      [request_id] asks the daemon to echo its {!timing} record. After
      any [Error] the connection is dead ({!is_alive} [= false]) and its
      descriptor released; {!Stale} means a fresh connection should
      retry the same request. A reply header declaring more than
      {!max_payload} bytes, or an unknown timing-record length, is a
      {!Transport} error before any of the body is read. *)

  val submit : ?deadline_ms:int -> t -> request -> (response, error) result

  val connect_us : t -> float
  (** Connect cost paid to open this connection (resolution included),
      in microseconds — what [ccomp loadgen]'s connect-cost columns
      aggregate. *)

  val served : t -> int
  (** Frames successfully exchanged so far. *)

  val is_alive : t -> bool

  val close : t -> unit
  (** Idempotent. *)
end

val submit :
  ?timeout_s:float ->
  ?deadline_ms:int ->
  host:string ->
  port:int ->
  request ->
  (response, string) result
(** One binary-protocol round-trip, returning the daemon's typed reply
    ([Error] is a transport or framing failure). *)

val request :
  ?timeout_s:float ->
  ?deadline_ms:int ->
  ?retries:int ->
  ?backoff_s:float ->
  ?seed:int ->
  host:string ->
  port:int ->
  request ->
  (string, string) result
(** {!submit} plus policy: [Ok payload] on success; {!Overloaded}
    replies and transport errors are retried up to [retries] times
    (default [0]) with seeded jittered exponential backoff
    ([backoff_s] base, default 50 ms); {!Failed} and
    {!Deadline_expired} are not retried. [timeout_s] defaults to
    30 s. *)

val http_get :
  ?timeout_s:float -> host:string -> port:int -> string -> (int * string, string) result
(** One HTTP/1.0 GET; [Ok (status, body)]. *)
