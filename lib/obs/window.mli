(** Rolling time-window aggregation over sampled metric values.

    Consumer: [ccomp top] ({!Ccomp_serve.Top}), which feeds it each
    [/snapshot] it polls and renders the windowed rates and the
    decode-cache hit ratio; [test_window] and [test_top] drive it with a
    fake clock.

    A {!t} holds one bounded ring of [(timestamp, value)] pairs per
    series name. A poller feeds it absolute (cumulative) values —
    {!of_snapshot} applied to successive {!Obs.snapshot}s — and reads
    come back as per-second rates and hit ratios over the last
    [window_s] seconds.

    The clock is entirely caller-supplied ([~now], in seconds): nothing
    here reads wall time. "The window" below always means
    [\[newest - window_s, newest\]] — relative to the most recent
    sample, not to any hidden notion of the present. *)

type t

val make : ?capacity:int -> window_s:float -> unit -> t
(** [capacity] bounds each per-series ring (default 512 samples;
    minimum 2). [window_s] must be positive. *)

val window_seconds : t -> float

val observe : t -> now:float -> (string * float) list -> unit
(** Record one sample of each named series at time [now]. Samples whose
    [now] does not advance past a series' newest timestamp are ignored
    for that series (the poller restarted, or a duplicate scrape). *)

val of_snapshot : Obs.snapshot -> (string * float) list
(** Flatten a snapshot for {!observe}: counters keep their name,
    gauges keep theirs, and each histogram contributes
    ["<name>.count"] and ["<name>.sum"] series. *)

val rate : t -> string -> float option
(** Change of a cumulative series per second across the window: the
    newest value minus the value at the oldest in-window sample, over
    the seconds between them. [None] with fewer than two in-window
    samples. Counter resets (a decrease) clamp to 0. *)

val ratio : t -> string -> string -> float option
(** [ratio w hits misses]: windowed [Δhits / (Δhits + Δmisses)] — e.g.
    the decode-cache hit ratio over the last N seconds. [None] when
    either series has fewer than two in-window samples or both deltas
    are 0. *)
