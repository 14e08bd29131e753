(** Socket-level chaos against a live [ccomp serve] daemon.

    Where {!Campaign} damages stored images, this harness damages the
    {e transport}: it replays, deterministically from one seed, the
    ways a network peer goes bad — slowloris writers that drip one
    byte per 50–150 ms, frames truncated mid-payload, connect-and-hang-up
    churn, [SO_LINGER 0] resets mid-frame, frames declaring
    payloads past [max_payload], an overload flood that takes every
    held-connection slot, 1 ms-deadline probes, and (opt-in) the
    crash-worker opcode — with well-formed jobs interleaved throughout.

    The CCQ1v4 keep-alive path gets its own battery: oracle-checked
    job sequences down one persistent {!Ccomp_serve.Serve.Conn},
    pipelined bursts whose echoed request ids expose reordered or
    crossed replies, a complete frame followed by a torn successor
    (the first job must still be answered — and under
    [--max-requests-per-conn 1] this doubles as a recycle race), and
    (opt-in via [stall_s]) an inter-frame stall that the daemon must
    idle-close rather than hold forever.

    The contract it checks is the ISSUE-6 acceptance criterion: the
    daemon {e never} deadlocks or dies; every job that completes is
    byte-identical to the local oracle ({!Ccomp_serve.Serve.handle_request},
    the daemon's own dispatch); overload produces {e typed}
    [Overloaded] replies rather than stalls; expired deadlines produce
    typed [Deadline_expired] replies.

    Everything random draws from one {!Ccomp_util.Prng.t} seeded by
    [config.seed], and the seed rides in the report and every emitted
    event, so any failure replays exactly. *)

type config = {
  host : string;
  port : int;
  seed : int;  (** drives the whole attack mix; logged everywhere *)
  rounds : int;  (** repetitions of the attack mix *)
  flood : int;
      (** silent connections held open per round to force
          connection-limit shedding; [0] skips the flood (and its
          assertion) *)
  stall_s : float;
      (** inter-frame stall length, once per round; only proves
          anything when it exceeds the daemon's [--idle-timeout].
          [0.] (the default) skips the stall (and its assertion) *)
  timeout_s : float;  (** chaos-side budget per connect/read/write *)
  crash_workers : bool;
      (** send the crash-worker opcode — requires a daemon started
          with [--unsafe-crash-op] *)
}

val default_config : config
(** [127.0.0.1:7070], seed 1, 3 rounds, no flood, no stall, 5 s
    timeouts, no crash ops. *)

type report = {
  seed : int;
  valid_jobs : int;
  byte_identical : int;  (** served reply = local oracle, byte for byte *)
  mismatched : int;  (** corruption — any nonzero fails {!passed} *)
  shed_typed : int;  (** typed [Overloaded] replies received *)
  deadline_replies : int;  (** typed [Deadline_expired] replies received *)
  deadline_probes : int;
  transport_errors : int;  (** connects/reads the chaos side lost — expected *)
  slowloris : int;
  truncations : int;
  oversize : int;
  churn : int;
  resets : int;
  crash_ops : int;
  pipeline_bursts : int;  (** bursts that got at least one reply unshed *)
  pipelined_replies : int;
  order_violations : int;  (** echoed id <> expected — any nonzero fails *)
  midstream_truncations : int;
  midstream_intact : int;  (** first frames answered despite a torn successor *)
  stalls : int;
  stall_closes : int;  (** stalls the daemon idle-closed, as it must *)
  alive_after : bool;  (** [/healthz] answered 200 after the last round *)
}

val run : config -> (report, string) result
(** Execute the campaign against a live daemon. [Error] only when no
    daemon answers [/healthz] before the first attack — everything the
    daemon does {e during} the campaign is evidence, not an error. *)

val passed : config -> report -> (unit, string) result
(** The acceptance gate: alive after, zero mismatches, at least one
    byte-identical completion, a typed shed if [flood > 0], a typed
    deadline reply if any probe ran, zero order violations, multiple
    pipelined replies if any burst ran, at least one intact first
    frame if any mid-stream truncation ran, and at least one
    idle-close if any stall ran. *)

val report_lines : report -> string list
(** Human-readable summary, seed first. *)
