(** [ccomp loadgen]: seeded, open-loop, coordinated-omission-safe
    traffic generation against a running daemon.

    Consumers: [tools/loadgen_check.sh], [tools/serve_check.sh] step 5,
    [test_loadgen], and experiments E20–E23 ([--ramp] in E21/E22).
    perfbench's [serve] workload is a closed loop over {!Serve.Conn}: it
    measures what the daemon costs per operation, but not what this
    module exists for — an open-loop schedule that a slow server cannot
    throttle, the coordinated-omission correction that charges a stall
    to every request it delayed, and the SLO ramp that finds the
    highest offered rate the daemon carries within its bounds.

    Open loop: the Poisson arrival schedule (from a seed) is fixed
    before the first request; a late slot is sent immediately, never
    rescheduled, so a slow server cannot throttle the offered load. Coordinated-omission safety: each latency is measured from
    the request's {e scheduled} send instant, so client-side queueing
    behind a stall is charged to the requests it delayed.

    Latency distributions aggregate into the {!Ccomp_obs.Obs} log-scale
    histograms ([loadgen.latency_us] and, from echoed {!Serve.timing}
    records, [loadgen.queue_us] / [loadgen.service_us] /
    [loadgen.network_us]), and the report carries
    p50/p95/p99/p99.9/max plus shed and deadline-expired rates checked
    against declared SLOs. *)

type config = {
  host : string;
  port : int;
  rate_rps : float;  (** offered arrival rate, requests/second *)
  duration_s : float;  (** schedule horizon *)
  seed : int;  (** drives the schedule, payload and job mix *)
  senders : int;  (** concurrent sender domains (min 1) *)
  conns : int;
      (** persistent-connection slots fleet-wide ([0] = one per
          sender); each sender round-robins its share per request *)
  conn_reuse : bool;
      (** keep connections open across requests (CCQ1v4 keep-alive,
          the default); [false] reconnects per request — the pre-v4
          behaviour, kept measurable for on/off comparisons *)
  payload_bytes : int;  (** compress-job body size (min 4) *)
  algo : Serve.algo;
  isa : Serve.isa;
  block_size : int;
  deadline_ms : int;  (** per-request budget; [0] = none *)
  timeout_s : float;  (** client transport timeout *)
  mix_compress : int;  (** job-mix weights (total must be positive) *)
  mix_decompress : int;
  mix_ping : int;
  slo_p99_ms : float option;  (** declared SLOs; [None] = unchecked *)
  slo_shed_rate : float option;
  slo_deadline_rate : float option;
}

val schedule : rate_rps:float -> duration_s:float -> seed:int -> float array
(** Arrival offsets in seconds from the run start, strictly within
    [[0, duration_s)]: cumulative seeded exponential (Poisson)
    inter-arrivals. Empty when rate or duration is non-positive.
    Deterministic in [(rate, duration, seed)]. *)

type report = {
  r_offered_rps : float;
  r_achieved_rps : float;  (** ok replies per wall-clock second *)
  r_duration_s : float;
  r_elapsed_s : float;
  r_sent : int;
  r_ok : int;
  r_shed : int;
  r_deadline_expired : int;
  r_failed : int;
  r_transport : int;
  r_timed : int;  (** replies that carried a server timing record *)
  r_p50_ms : float;  (** corrected (scheduled-send) latency, ok replies *)
  r_p95_ms : float;
  r_p99_ms : float;
  r_p999_ms : float;
  r_max_ms : float;
  r_queue_p50_ms : float;  (** server-side split from echoed timing *)
  r_queue_p99_ms : float;
  r_service_p50_ms : float;
  r_service_p99_ms : float;
  r_network_p50_ms : float;  (** corrected latency minus server time *)
  r_network_p99_ms : float;
  r_shed_rate : float;  (** shed / sent *)
  r_deadline_rate : float;  (** deadline-expired / sent *)
  r_conn_reuse : bool;  (** echoed from the config *)
  r_conns : int;  (** client connection slots in play *)
  r_connects : int;  (** connect(2) calls paid, reconnects included *)
  r_reconnects : int;
      (** reopens after the server closed between frames (idle timeout
          or recycle) — each also counts in [r_connects] *)
  r_connect_p50_ms : float;  (** connect cost, resolution included *)
  r_connect_p99_ms : float;
  r_remainder_clamped : int;
      (** ok replies whose network remainder (corrected latency minus
          echoed [server_us]) went negative under clock skew and was
          clamped to 0 instead of skewing [r_network_*] *)
  r_slo_p99_ms : float option;  (** the declared bounds, echoed *)
  r_slo_shed_rate : float option;
  r_slo_deadline_rate : float option;
  r_slo_violations : string list;  (** empty = every declared SLO held *)
  r_runtime : (string * float) list;
      (** daemon-side ["runtime.*"] telemetry bracketing this run:
          [/snapshot] is scraped before and after and the GC counters
          differenced, yielding [runtime.minor_collections] /
          [.major_collections] / [.major_cycles] / [.alloc_mb] /
          [.alloc_kb_per_req] / [.minor_collections_per_req] /
          [.gc_pauses_per_mb] (major cycles per MB served) and, when
          the daemon observed any, [runtime.gc_major_pause_p99_us].
          Empty when the daemon was unreachable or predates the
          telemetry. *)
}

val run : config -> (report, string) result
(** Check [/healthz], build the schedule and payloads, fire the load
    from [senders] domains, aggregate. [Error] covers an unreachable
    or unhealthy daemon and degenerate configs (empty schedule,
    zero-weight mix) — transport failures {e during} the run are
    counted in [r_transport], not fatal. Each call resets the loadgen
    histograms first, so back-to-back runs (a {!ramp}) measure only
    their own traffic. *)

val ramp : ?progress:(string -> unit) -> config -> (report * float, string) result
(** Binary-search the daemon's SLO capacity: confirm 25 rps passes and
    2000 rps fails, then bisect 5 times, each probe a full {!run} at
    [cfg.duration_s]. Returns the last {e passing} report and its
    offered rate — the highest load the daemon carried within its
    declared SLOs ([loadgen.capacity_rps]); [(failing 25 rps report,
    0.)] when even 25 rps violates, [(2000 rps report, 2000.)] when
    2000 rps passes. [Error] when no SLO is declared or a probe could
    not run at all. [progress] (default silent) receives one line
    per probe. *)

val render : config -> report -> string
(** Human-readable multi-line summary, SLO verdicts last. *)

val json_keys : report -> (string * float) list
(** The report flattened to ["loadgen.*"] keys (plus the [r_runtime]
    ["runtime.*"] keys). Declared SLO bounds and runtime telemetry
    appear only when present, so a reader can tell a bound that was
    not declared from one that held. *)

val emit_json : ?extra:(string * float) list -> path:string -> report -> unit
(** Write the keys of {!json_keys} (plus [extra], e.g.
    [loadgen.capacity_rps] from a {!ramp}) as a flat JSON object,
    one key per line, under the schema marker ["ccomp-bench-v1"];
    [tools/loadgen_check.sh] reads it. *)

(** Pure single-sender simulation of the measurement model, exposed for
    property tests. *)
module For_tests : sig
  val replay : scheduled:float array -> service:float array -> (float * float) array
  (** [replay ~scheduled ~service] runs requests back-to-back through
      one simulated sender ([service.(i)] seconds each) and returns
      [(corrected, naive)] latency pairs: corrected is measured from
      the scheduled instant, naive from the actual send. Corrected is
      always >= naive; under a stall they diverge. *)
end
