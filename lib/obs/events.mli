(** Leveled, structured event log: a bounded in-process ring of
    timestamped events plus an optional JSON-lines file sink.

    Consumers: the daemon's [/events] endpoint ([tools/serve_check.sh]
    step 4, [ccomp top]'s event tail), the CLI's [--events FILE] sink,
    and [test_events].

    Like the metrics registry, the log is off by default and every
    emission site costs one atomic load when disabled. Enabling it never
    changes any codec output — events only observe.

    Producers call {!debug}/{!info}/{!warn}/{!error} with an event name
    and optional [(key, value)] fields. Events below the configured
    level ({!set_level}) are dropped; the rest land in a bounded ring
    (oldest overwritten first) and, when a sink is set, are appended to
    the sink file as one JSON object per line.

    Threading: emission and tail reads are safe from any domain. *)

type level = Debug | Info | Warn | Error

type event = {
  ev_ts_us : float;  (** {!Obs.now_us} at emission *)
  ev_level : level;
  ev_name : string;
  ev_fields : (string * string) list;
}

val enabled : unit -> bool

val set_enabled : bool -> unit

val set_level : level -> unit
(** Minimum level recorded; defaults to [Debug]. *)

val level_to_string : level -> string

val level_of_string : string -> level option

val set_capacity : int -> unit
(** Resize the ring (default 1024, minimum 1), keeping the newest
    events that fit. *)

val debug : ?fields:(string * string) list -> string -> unit

val info : ?fields:(string * string) list -> string -> unit

val warn : ?fields:(string * string) list -> string -> unit

val error : ?fields:(string * string) list -> string -> unit

val tail : ?min_level:level -> int -> event list
(** [tail n]: the most recent [n] retained events (at most the ring's
    capacity), oldest first. [min_level] keeps only events at or above
    that level {e before} taking the newest [n] — so
    [tail ~min_level:Warn 5] is the last five warnings/errors in the
    ring, however much debug chatter arrived in between. *)

val total : unit -> int
(** Events recorded since the last {!clear} — including those the ring
    has since overwritten. *)

val dropped : unit -> int
(** Of {!total}, how many have been overwritten (ring overflow). *)

val clear : unit -> unit
(** Empty the ring and reset the counters. Keeps the enabled switch,
    level, capacity and sink. *)

val set_sink : ?max_bytes:int -> string option -> unit
(** [set_sink (Some path)] opens [path] for append and streams every
    subsequent event to it as a JSON line (flushed per event, so a
    crashed process still leaves evidence). [set_sink None] closes the
    current sink.

    The sink is size-capped: when appending the next record would push
    the file past [max_bytes] (default 16 MiB, minimum 1), the file is
    rotated to [path ^ ".1"] — replacing any earlier rotation — and a
    fresh [path] is started, so a long-running daemon holds at most
    about [2 * max_bytes] of event log on disk. An existing file's size
    counts against the cap, so rotation also triggers across restarts.
    Both the live file and the rotation keep the whole-line flush
    discipline, so {!load_sink_file}'s torn-final-line tolerance applies
    to each. *)

val load_sink_file : string -> (string list, string) result
(** Read a sink file back as its complete JSON lines. Because the sink
    flushes per event, a process killed mid-write (SIGTERM, crash) can
    tear only the {e final} line — so exactly one unparseable trailing
    line is silently dropped, while an unparseable line with valid
    records after it is corruption and returns [Error]. *)

val to_json_line : event -> string
(** One-line JSON object: [{"ts_us":…,"level":"warn","event":"…",…}]
    with each field as a string member. No trailing newline. *)

val tail_json : ?min_level:level -> int -> string
(** {!tail} rendered as newline-terminated JSON lines. *)
