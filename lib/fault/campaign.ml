module Prng = Ccomp_util.Prng
module Decode_error = Ccomp_util.Decode_error
module Image = Ccomp_image.Image
module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events

(* Campaign outcomes as metrics: one counter per disposition, summed
   across codecs, so a fuzz run's `--metrics` dump shows
   injections/detections/escapes next to the codec-level telemetry. *)
let m_trials = Obs.Counter.make "fault.trials"

let m_injected = Obs.Counter.make "fault.injected"

let m_detected = Obs.Counter.make "fault.detected"

let m_recovered = Obs.Counter.make "fault.recovered"

let m_miscompared = Obs.Counter.make "fault.miscompared"

type outcome = Detected | Miscompared | Recovered

let outcome_name = function
  | Detected -> "detected"
  | Miscompared -> "miscompared"
  | Recovered -> "recovered"

type codec = {
  name : string;
  encoded : string;
  reference : string;
  decode : string -> (string, Decode_error.t) result;
  integrity_checked : bool;
}

let image_codec name image ~reference =
  let image = Image.with_block_crcs Image.Crc8_tags image in
  {
    name;
    encoded = Image.write image;
    reference;
    decode =
      (fun s ->
        Result.bind (Image.read_checked s) (fun image ->
            Decode_error.protect ~section:"image" (fun () -> Image.decompress image)));
    integrity_checked = true;
  }

type report = {
  codec_name : string;
  seed : int;
  trials : int;
  faults_per_trial : int;
  detected : int;
  recovered : int;
  miscompared : int;
  integrity_checked : bool;
}

(* Deliberately no [try] here: a [decode] that raises instead of
   returning [Error _] is a totality bug, and the campaign must fail
   loudly rather than book it under any outcome. *)
let trial codec damaged =
  match codec.decode damaged with
  | Error _ -> Detected
  | Ok out -> if String.equal out codec.reference then Recovered else Miscompared

let run ?(faults_per_trial = 1) ?kinds ?(jobs = 1) ~seed ~trials codec =
  Obs.with_span ~cat:"fault" ("fault.campaign." ^ codec.name) @@ fun () ->
  (* Fault placement consumes the PRNG sequentially so the damaged
     inputs are identical for every [jobs] value; only the (pure)
     decode-and-compare of each trial fans out over the pool. *)
  let g = Prng.create (Int64.of_int seed) in
  let damaged =
    Array.init trials (fun _ -> fst (Injector.inject ?kinds ~count:faults_per_trial g codec.encoded))
  in
  let outcomes = Ccomp_par.Pool.map ~jobs (trial codec) damaged in
  let detected = ref 0 and recovered = ref 0 and miscompared = ref 0 in
  Array.iter
    (function
      | Detected -> incr detected
      | Recovered -> incr recovered
      | Miscompared -> incr miscompared)
    outcomes;
  if Obs.metrics_enabled () then begin
    Obs.Counter.add m_trials trials;
    Obs.Counter.add m_injected (trials * faults_per_trial);
    Obs.Counter.add m_detected !detected;
    Obs.Counter.add m_recovered !recovered;
    Obs.Counter.add m_miscompared !miscompared
  end;
  Events.info
    ~fields:
      [
        ("codec", codec.name);
        ("seed", string_of_int seed);
        ("trials", string_of_int trials);
        ("miscompared", string_of_int !miscompared);
      ]
    "fault.campaign";
  {
    codec_name = codec.name;
    seed;
    trials;
    faults_per_trial;
    detected = !detected;
    recovered = !recovered;
    miscompared = !miscompared;
    integrity_checked = codec.integrity_checked;
  }

let sweep ?kinds ~seed ~trials ~fault_counts codec =
  List.map
    (fun count -> run ~faults_per_trial:count ?kinds ~seed:(seed + count) ~trials codec)
    fault_counts

(* the seed rides in every row so any failure line alone is enough to
   replay the exact campaign that produced it *)
let report_row r =
  Printf.sprintf "%-14s %10d %7d %6d %9d %10d %12d%s" r.codec_name r.seed r.trials
    r.faults_per_trial r.detected r.recovered r.miscompared
    (if r.integrity_checked then "" else "  (integrity off)")

let report_header =
  Printf.sprintf "%-14s %10s %7s %6s %9s %10s %12s" "codec" "seed" "trials" "faults" "detected"
    "recovered" "miscompared"
