(** Fault-injection campaigns over compressed codecs.

    Each trial damages a pristine encoding with the {!Injector}, runs the
    codec's decoder wrapped in {!Ccomp_util.Decode_error.protect}, and
    books one of three outcomes:

    - [Detected]: the decoder returned a typed error — the system can
      retry, trap, or serve a stale line ({!Ccomp_memsys.System});
    - [Recovered]: the decode round-tripped to the reference bytes (the
      fault hit dead wire space, or cancelled out);
    - [Miscompared]: the decode "succeeded" with wrong bytes — silent
      corruption, acceptable only when the codec carries no integrity
      metadata ([integrity_checked = false]).

    Exceptions that escape [protect] are deliberately not caught: a
    decoder raising one is the bug this harness exists to find, and must
    abort the campaign. *)

type outcome = Detected | Miscompared | Recovered

val outcome_name : outcome -> string

type codec = {
  name : string;
  encoded : string;  (** pristine wire bytes to damage *)
  reference : string;  (** expected decode of the pristine bytes *)
  decode : string -> (string, Ccomp_util.Decode_error.t) result;
  integrity_checked : bool;
      (** true when [decode] verifies CRCs — then [Miscompared] is a
          harness failure, not a statistic *)
}

val image_codec : string -> Ccomp_image.Image.t -> reference:string -> codec
(** A SECF target: [image] with per-block CRC-8 tags attached, decoded by
    [Image.read_checked] then [Image.decompress] under [protect] — the
    path the daemon and [ccomp decompress] take.
    [integrity_checked = true]. *)

type report = {
  codec_name : string;
  seed : int;  (** the seed this campaign ran with — replays it exactly *)
  trials : int;
  faults_per_trial : int;
  detected : int;
  recovered : int;
  miscompared : int;
  integrity_checked : bool;
}

val trial : codec -> string -> outcome
(** Decode one damaged encoding and classify. *)

val run :
  ?faults_per_trial:int ->
  ?kinds:Injector.kind array ->
  ?jobs:int ->
  seed:int ->
  trials:int ->
  codec ->
  report
(** [run ~seed ~trials codec] — deterministic in [seed]. Default one
    single-bit flip per trial. [jobs] (default 1) fans the trial decodes
    over that many domains; fault placement stays sequential, so the
    report is identical for every [jobs] value. *)

val sweep :
  ?kinds:Injector.kind array ->
  seed:int ->
  trials:int ->
  fault_counts:int list ->
  codec ->
  report list
(** One {!run} per entry of [fault_counts] (seeds offset so the sweeps
    are independent). *)

val report_header : string

val report_row : report -> string
(** Fixed-width row matching {!report_header}. *)
