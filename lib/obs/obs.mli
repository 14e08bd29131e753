(** Unified observability: process-wide metrics registry + span tracing.

    Consumers: the CLI's [--metrics]/[--trace] files
    ([tools/obs_check.sh]), [ccomp stats], the daemon's [/metrics] and
    [/snapshot], [ccomp top], perfbench's traced runs, and [test_obs],
    whose inventory names the reader of every registered metric.

    Counters, gauges and log-scale histograms live in one global,
    Domain-safe registry keyed by name ([make] is get-or-create, so two
    modules declaring the same name share the metric). Span tracing
    collects Chrome [trace_event] slices viewable in chrome://tracing or
    Perfetto.

    Both layers are disabled by default and cost one atomic load per
    guarded site when off. Enabling them never changes any codec output:
    instrumentation only observes.

    Threading: all operations may be called concurrently from any domain
    of the par pool. Counters and gauges are lock-free; histogram
    observation and span recording take a short mutex each, which is
    negligible at block/phase granularity. *)

val metrics_enabled : unit -> bool

val tracing_enabled : unit -> bool

val set_metrics : bool -> unit

val set_tracing : bool -> unit

val reset : unit -> unit
(** Zero every registered metric and drop all recorded trace events.
    Registrations (and the enabled switches) are kept. *)

val now_us : unit -> float
(** Wall-clock microseconds — the clock spans and the bench harness
    share. *)

module Counter : sig
  type t

  val make : string -> t
  (** Get or create the counter registered under this name. *)

  val incr : t -> unit

  val add : t -> int -> unit
  (** Counters are monotonic: a negative increment raises
      [Invalid_argument]. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t

  val set : t -> float -> unit

  val value : t -> float
end

module Histogram : sig
  type t

  val make : string -> t

  val observe : t -> float -> unit
  (** Record one observation. Binned into log-scale buckets (8 per
      octave), so percentile estimates carry at most ~9% relative
      error; count/sum/min/max are exact. *)

  val count : t -> int

  val sum : t -> float

  val min_value : t -> float

  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile h q] for [q] in \[0, 100\]: nearest-rank estimate,
      clamped into \[min, max\] (0 for an empty histogram). *)

  type export = { ex_count : int; ex_sum : float; ex_buckets : (float * int) list }
  (** One histogram read under one lock acquisition. [ex_buckets] holds
      the non-empty log-scale buckets as [(upper_bound,
      cumulative_count)] pairs in increasing bound order, always ending
      with [(infinity, ex_count)] — the shape an OpenMetrics histogram
      exposition needs. Exporters must use this rather than separate
      [count]/[sum] calls — with other domains observing concurrently,
      separate reads can disagree. *)

  val export : t -> export

  val reset : t -> unit
  (** Zero this one histogram (count, sum, min/max, buckets), keeping
      its registration. For multi-iteration harnesses that reuse a
      histogram between probes. *)
end

type metric_kind = Counter_kind | Gauge_kind | Histogram_kind

val registered_metrics : unit -> (string * metric_kind) list
(** Every metric any linked module has declared, active or not, sorted
    by name. Exporters use this to expose zero-valued series too, so a
    scrape always carries the full schema. *)

val timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float
(** [timed name f] runs [f], returning its result and the elapsed time
    in seconds; when tracing is enabled the interval is also recorded as
    a complete ("ph":"X") trace slice on the calling domain's track.
    The interval is recorded (and the duration returned) even if [f]
    raises. *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [timed] without the duration; when tracing is disabled this is just
    [f ()] — no clock reads. *)

(** Minimal JSON values: what {!snapshot_to_json} and the trace emit,
    and what [ccomp stats] parses back. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result

  val escape : string -> string

  val member : string -> t -> t option
end

type histogram_stats = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_stats list;
}
(** Every field sorted by name; only metrics that saw activity are
    included. *)

val snapshot : unit -> snapshot

val snapshot_to_json : snapshot -> string
(** Schema ["ccomp-obs-v1"]: one object with ["counters"], ["gauges"]
    and ["histograms"] members. *)

val snapshot_of_json : string -> (snapshot, string) result

val render_table : snapshot -> string
(** Human-readable report — what [ccomp stats] prints. *)

val trace_json : unit -> string
(** All recorded spans as a Chrome trace_event JSON array. *)

val event_count : unit -> int

val write_metrics : string -> unit
(** Write [snapshot_to_json (snapshot ())] to a file. *)

val write_trace : string -> unit
