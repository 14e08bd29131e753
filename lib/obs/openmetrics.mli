(** Prometheus/OpenMetrics text exposition of the metrics registry —
    what a scrape of [ccomp serve]'s [/metrics] endpoint returns.

    Consumers: [/metrics], which [tools/serve_check.sh],
    [tools/chaos_check.sh] and [tools/runtime_check.sh] scrape, and
    [test_openmetrics].

    Dotted registry names are sanitised into the OpenMetrics alphabet
    ([a-zA-Z0-9_:], no leading digit), counters gain the [_total]
    suffix, and histograms are exposed as cumulative [_bucket{le="…"}]
    series plus [_sum]/[_count]. The exposition ends with [# EOF] as
    the OpenMetrics spec requires. *)

val sanitize_metric_name : string -> string
(** Map every character outside [[a-zA-Z0-9_:]] to ['_'] and prefix
    ['_'] if the result would start with a digit (["" ] becomes
    ["_"]). *)

val sanitize_label_name : string -> string
(** Like {!sanitize_metric_name} but [':'] is also mapped to ['_']
    (colons are invalid in label names). *)

val escape_label_value : string -> string
(** Escape ['\\'], ['"'] and newline for use inside
    [label="…"]. *)

val counter_name : string -> string
(** Sanitised name with exactly one [_total] suffix. *)

val set_info : string -> (string * string) list -> unit
(** [set_info name labels] declares (or replaces) an OpenMetrics info
    metric: build/config facts exposed as labels on a constant-1 sample.
    {!render} emits it as [# TYPE name info] followed by
    [name_info{label="value",…} 1]. Label names are sanitised and
    values escaped; safe from any domain. *)

val info_metrics : unit -> (string * (string * string) list) list
(** Every info metric declared with {!set_info}, sorted by name. *)

val render : unit -> string
(** Render the live registry — every registered metric, including ones
    still at zero, so the exposed schema is stable across scrapes. Info
    metrics declared with {!set_info} lead the exposition. *)

type sample = { om_name : string; om_labels : (string * string) list; om_value : float }

val parse : string -> (sample list, string) result
(** Parse an exposition back into its samples: comment lines are
    skipped (a missing [# EOF] terminator is an error), every other
    line must be [name[{labels}] value]. Supports the subset {!render}
    emits — enough for conformance round-trip tests. *)
