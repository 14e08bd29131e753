(** Server-side request-latency stages and the "what dominates p99"
    attribution report.

    The daemon stamps every binary request through four stages — queue
    (readable, not yet served by its worker), read (frame arrival +
    decode), work (the codec job) and write (reply leaving) — into per-stage
    log-scale histograms, plus one end-to-end [serve.request_us]
    histogram. This module owns the stage names so the daemon,
    [ccomp stats] and [ccomp top] agree on them. *)

type stage = Queue | Read | Work | Write

val stages : stage list
(** Wire order: queue, read, work, write. *)

val stage_name : stage -> string

val histogram_name : stage -> string
(** Registry name, e.g. ["serve.stage.queue_us"]. *)

val total_histogram_name : string
(** ["serve.request_us"] — end-to-end time from readable to reply written. *)

val observe : stage -> float -> unit
(** Record a stage duration in microseconds. No-op while metrics are
    disabled. *)

val observe_total : float -> unit

(** {1 Attribution} *)

type stage_stats = {
  st_stage : string;
  st_count : int;
  st_p50_us : float;
  st_p99_us : float;
  st_sum_us : float;
}

type report = {
  rp_stages : stage_stats list;  (** stages with samples, wire order *)
  rp_total : Ccomp_obs.Obs.histogram_stats option;
  rp_dominant : string;  (** stage with the largest p99 *)
  rp_dominant_share : float;  (** its fraction of the summed stage p99s *)
}

val attribution : Ccomp_obs.Obs.snapshot -> report option
(** Build the attribution report from a snapshot (live or loaded from
    [--metrics] JSON). [None] when no stage histogram has samples. *)

val render : report -> string
(** Human-readable multi-line table ending in the dominance verdict. *)
