(** [ccomp top]: a terminal dashboard over a running [ccomp serve].

    Consumers: [tools/serve_check.sh] step 6 ([--plain --frames 1]) and
    [test_top] ({!render_frame}).

    Polls the daemon's [/snapshot], [/events] and [/slow] endpoints
    every [interval_s] seconds, feeds the samples into an
    {!Ccomp_obs.Window} and renders windowed per-second rates (a row
    for every counter that has counted anything, busiest first),
    histogram percentiles, the decode-cache hit ratio, the event tail
    and the slow-request/GC correlation panel (what share of the
    sampled tail overlapped a major collection). A daemon predating
    [/slow] just loses that panel.

    Keys (when stdin is a TTY): [q] quits, [r] resets the rolling
    window. With [frames > 0] the dashboard exits after that many
    frames — scripts use [--frames 1] for a one-shot render; [plain]
    suppresses the screen-clearing escape codes. *)

type options = {
  host : string;
  port : int;
  interval_s : float;
  frames : int;  (** 0 = run until [q]/Ctrl-C *)
  window_s : float;
  plain : bool;
  timeout_s : float;  (** connect/read budget per poll — a dead daemon errors, never hangs *)
}

val render_frame :
  ?slow:Slow.record list ->
  window:Ccomp_obs.Window.t ->
  snapshot:Ccomp_obs.Obs.snapshot ->
  events_tail:string list ->
  title:string ->
  unit ->
  string
(** Pure frame renderer, exposed for [test_top]: windowed rates come from
    [window], instantaneous values from [snapshot], the tail/GC
    correlation panel from [slow] (default: no panel). *)

val run : options -> (unit, string) result
