(** Domain-safe OCaml runtime telemetry: per-domain [Gc.quick_stat]
    delta sampling, a major-GC pause estimator fed by
    [Gc.create_alarm] end-of-cycle hooks, and allocation-rate gauges.

    Consumers: the daemon's request path, whose counters
    [tools/runtime_check.sh], [ccomp loadgen]'s [runtime.*] report
    keys and perfbench's [serve] workload read back; [test_runtime].

    Registry surface (all rendered on [/metrics] via {!Openmetrics}):

    - counters [runtime.gc.minor_collections] / [.major_collections] /
      [.compactions] / [.minor_words] / [.promoted_words] /
      [.major_words] / [.major_cycles] — summed over every domain that
      calls {!sample};
    - gauges [runtime.gc.heap_words] / [.space_overhead],
      [runtime.alloc_rate_mbps] (MB/s allocated by the most recently
      sampling domain over its sampling interval) and
      [runtime.domains] (domains that have sampled at least once);
    - histogram [runtime.gc.major_pause_us] — estimated mutator stall
      at the end of each major cycle.

    The pause estimate is a hiccup-meter bound, not a measured slice:
    the alarm fires while the finishing domain's mutator is stopped and
    observes [now - last tick], where {!tick} (called at serve
    request-stage boundaries) stamps "the mutator was running here".
    Estimates older than ~250 ms of tick silence are discarded as
    idle-domain artifacts rather than booked as pauses.

    Every entry point is behind the registry's one-atomic-load guard:
    with {!Obs.set_metrics} off, all of these return immediately and
    observe nothing. *)

type delta = {
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  d_minor_words : float;  (** words allocated on the minor heap *)
  d_promoted_words : float;  (** words that survived into the major heap *)
  d_major_words : float;  (** words allocated directly on the major heap *)
}

val delta_zero : delta

val alloc_mb : delta -> float
(** Megabytes allocated: [(minor + major) words * word size]. *)

val probe : unit -> Gc.stat option
(** [Some (Gc.quick_stat ())] when metrics are enabled, else [None] —
    the cheap per-stage boundary reading. *)

val stage_delta : Gc.stat option -> Gc.stat option -> delta
(** Componentwise [b - a] of two {!probe} results, clamped at zero;
    {!delta_zero} when either side was taken with metrics off.
    [d_major_words] excludes promoted words, so [d_minor_words +
    d_major_words] is the total the mutator allocated between the two
    readings. *)

val tick : unit -> unit
(** Stamp "this domain's mutator is running now" — feeds the pause
    estimator. Call at request-stage boundaries; one atomic load plus a
    clock read when metrics are on, one atomic load when off. *)

val sample : unit -> delta
(** Fold this domain's GC growth since its previous [sample] into the
    global counters, refresh the heap/allocation gauges, and return the
    delta. Per-domain deltas are non-negative and the global counters
    are monotone however many domains sample concurrently. *)

val install_alarm : unit -> unit
(** Install this domain's end-of-major-cycle hook (counts
    [runtime.gc.major_cycles], observes [runtime.gc.major_pause_us]).
    Idempotent per domain; each worker domain must install its own —
    OCaml 5 alarms are domain-local. *)

val major_pause_histogram_name : string
(** ["runtime.gc.major_pause_us"] — shared with consumers that read it
    back out of snapshots. *)
