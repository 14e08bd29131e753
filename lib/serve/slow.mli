(** Tail-sampled slow-request capture: a bounded, Domain-safe ring of
    full per-request records for the requests worth explaining.

    The latency histograms say which stage owns p99 in aggregate; this
    ring says what specific tail requests experienced — stage split,
    per-stage GC deltas on the serving domain, and how many ready
    connections its worker served ahead of it. A request is sampled when
    its total latency reaches the configured threshold, and {e always}
    when it was shed, refused as overloaded, or expired its deadline,
    however fast the refusal was.

    The ring is bounded (overflow keeps the most recent records) so
    sampling can stay on for the life of the daemon. The daemon serves
    it as JSON lines on [GET /slow]; [ccomp stats --slow] fetches and
    renders the same records; [ccomp top] shows the major-GC-overlap
    correlation. Sampling sites run only when {!Obs.metrics_enabled}. *)

type record = {
  sr_ts_us : float;  (** completion instant *)
  sr_id : int64;  (** wire request id; [0L] = untraced request *)
  sr_kind : string;  (** compress | decompress | ping | protocol_error | shed | ... *)
  sr_outcome : string;  (** ok | failed | overloaded | deadline_expired | shed *)
  sr_total_us : float;  (** queue + read + work + write *)
  sr_queue_us : float;
  sr_read_us : float;
  sr_work_us : float;
  sr_write_us : float;
  sr_queue_depth : int;  (** ready connections served ahead of this one on its worker *)
  sr_gc_read : Ccomp_obs.Runtime.delta;  (** serving domain's GC activity per stage *)
  sr_gc_work : Ccomp_obs.Runtime.delta;
  sr_gc_write : Ccomp_obs.Runtime.delta;
}

val configure : ?capacity:int -> ?threshold_us:float -> unit -> unit
(** Set ring capacity (default 64, minimum 1; resizing drops retained
    records) and/or sampling threshold (default 100 ms, clamped at 0 —
    a zero threshold samples every request). *)

val capacity : unit -> int

val threshold_us : unit -> float

val maybe_sample : record -> bool
(** Record the request if it qualifies (total at/above threshold, or a
    forced outcome: [overloaded] / [deadline_expired] / [shed]).
    Returns whether it was sampled. Bumps [serve.slow.sampled_total]
    (and [serve.slow.forced_total] for forced outcomes). *)

val note : record -> unit
(** Unconditionally push a record (tests and replay tooling). *)

val tail : int -> record list
(** The most recent [min n len] records, oldest first. *)

val clear : unit -> unit

val to_json_line : record -> string
(** One-line JSON object; GC deltas nest under ["gc"."read"/"work"/
    "write"] as [{minor, major, alloc_w}]. No trailing newline. *)

val of_json_line : string -> (record, string) result
(** Parse a {!to_json_line} line (client side of [/slow]). Stage
    allocation comes back in [d_minor_words]; the minor/major split is
    not round-tripped. *)

val tail_json : int -> string
(** {!tail} as newline-terminated JSON lines — the [/slow] body. *)

val overlapped_major : record -> bool
(** Did any stage of this request see a major collection finish? *)

val correlation : record list -> int * int
(** [(sampled, of which overlapped a major collection)]. *)

val correlation_line : record list -> string option
(** Human sentence for the correlation, [None] when no samples. *)

val render_table : record list -> string
(** Operator-facing table (oldest first) plus the correlation line. *)
