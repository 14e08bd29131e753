module Obs = Ccomp_obs.Obs
module Samc = Ccomp_core.Samc
module Byte_huffman = Ccomp_baselines.Byte_huffman

(* The registry and the enabled switches are process-global, so every
   test restores a clean slate (all metrics zeroed, observation off)
   no matter how it exits. *)
let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics false;
      Obs.set_tracing false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      f ())

let test_counter_monotonic () =
  isolated @@ fun () ->
  let c = Obs.Counter.make "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Counter.add: counters are monotonic (negative increment)") (fun () ->
      Obs.Counter.add c (-1));
  Alcotest.(check int) "value unchanged after rejected add" 42 (Obs.Counter.value c)

let test_counter_shared () =
  isolated @@ fun () ->
  let a = Obs.Counter.make "test.shared" in
  let b = Obs.Counter.make "test.shared" in
  Obs.Counter.add a 5;
  Obs.Counter.add b 7;
  Alcotest.(check int) "same name, same counter" 12 (Obs.Counter.value a)

let test_histogram_percentiles () =
  isolated @@ fun () ->
  let h = Obs.Histogram.make "test.hist" in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Obs.Histogram.percentile h 50.0);
  for i = 1 to 1000 do
    Obs.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count exact" 1000 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum exact" 500500.0 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "min exact" 1.0 (Obs.Histogram.min_value h);
  Alcotest.(check (float 1e-6)) "max exact" 1000.0 (Obs.Histogram.max_value h);
  (* log-scale buckets (8 per octave) bound percentile error at ~9% *)
  List.iter
    (fun (q, expected) ->
      let got = Obs.Histogram.percentile h q in
      let rel = abs_float (got -. expected) /. expected in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f=%.1f within 10%% of %.1f" q got expected)
        true (rel < 0.10))
    [ (50.0, 500.0); (95.0, 950.0); (99.0, 990.0); (100.0, 1000.0) ];
  Alcotest.(check bool) "percentiles stay within [min, max]" true
    (List.for_all
       (fun q ->
         let p = Obs.Histogram.percentile h q in
         p >= 1.0 && p <= 1000.0)
       [ 0.0; 50.0; 95.0; 99.0; 100.0 ])

let test_snapshot_roundtrip () =
  isolated @@ fun () ->
  Obs.Counter.add (Obs.Counter.make "test.rt.counter") 123;
  Obs.Gauge.set (Obs.Gauge.make "test.rt.gauge") 0.75;
  let h = Obs.Histogram.make "test.rt.hist" in
  List.iter (Obs.Histogram.observe h) [ 1.0; 10.0; 100.0 ];
  let snap = Obs.snapshot () in
  match Obs.snapshot_of_json (Obs.snapshot_to_json snap) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok back ->
    Alcotest.(check (list (pair string int))) "counters survive" snap.Obs.counters
      back.Obs.counters;
    Alcotest.(check int) "gauge count" (List.length snap.Obs.gauges)
      (List.length back.Obs.gauges);
    List.iter2
      (fun (n, v) (n', v') ->
        Alcotest.(check string) "gauge name" n n';
        Alcotest.(check (float 1e-6)) ("gauge " ^ n) v v')
      snap.Obs.gauges back.Obs.gauges;
    List.iter2
      (fun (h : Obs.histogram_stats) (h' : Obs.histogram_stats) ->
        Alcotest.(check string) "hist name" h.Obs.hs_name h'.Obs.hs_name;
        Alcotest.(check int) "hist count" h.Obs.hs_count h'.Obs.hs_count;
        Alcotest.(check (float 1e-3)) "hist sum" h.Obs.hs_sum h'.Obs.hs_sum;
        Alcotest.(check (float 1e-3)) "hist p95" h.Obs.hs_p95 h'.Obs.hs_p95)
      snap.Obs.histograms back.Obs.histograms

let test_reset_clears () =
  isolated @@ fun () ->
  Obs.Counter.add (Obs.Counter.make "test.reset.c") 9;
  Obs.Histogram.observe (Obs.Histogram.make "test.reset.h") 3.0;
  Obs.reset ();
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "no counter survives reset" true
    (not (List.mem_assoc "test.reset.c" snap.Obs.counters));
  Alcotest.(check bool) "no histogram survives reset" true
    (List.for_all (fun h -> h.Obs.hs_name <> "test.reset.h") snap.Obs.histograms)

let test_span_records () =
  isolated @@ fun () ->
  Obs.set_tracing true;
  let before = Obs.event_count () in
  let v, dt = Obs.timed ~cat:"test" "test.span" (fun () -> 17) in
  Alcotest.(check int) "timed returns value" 17 v;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0);
  Alcotest.(check int) "one slice recorded" (before + 1) (Obs.event_count ());
  let j = Obs.trace_json () in
  Alcotest.(check bool) "trace is an array" true (String.length j > 0 && j.[0] = '[');
  let contains needle hay =
    let n = String.length needle and ln = String.length hay in
    let rec go i = i + n <= ln && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "slice named" true (contains "\"test.span\"" j)

(* Concurrent increments from the par pool must not lose updates:
   counters are atomics, histogram observation takes the registry
   mutex. *)
let test_parallel_increments () =
  isolated @@ fun () ->
  Obs.set_metrics true;
  let c = Obs.Counter.make "test.par.counter" in
  let h = Obs.Histogram.make "test.par.hist" in
  let n = 4000 in
  let results =
    Ccomp_par.Pool.map ~jobs:4
      (fun i ->
        Obs.Counter.incr c;
        Obs.Histogram.observe h (float_of_int (1 + (i mod 64)));
        i)
      (Array.init n (fun i -> i))
  in
  Alcotest.(check int) "pool mapped everything" n (Array.length results);
  Alcotest.(check int) "no lost counter increment" n (Obs.Counter.value c);
  Alcotest.(check int) "no lost histogram observation" n (Obs.Histogram.count h)

(* The byte-identity guarantee: switching metrics and tracing on must
   not change a single bit of any codec's output. *)
let obs_identity_test name gen encode =
  QCheck.Test.make ~count:30 ~name gen (fun input ->
      isolated @@ fun () ->
      let plain = encode input in
      Obs.set_metrics true;
      Obs.set_tracing true;
      let observed = encode input in
      String.equal plain observed)

(* Multi-domain hammer: worker domains register fresh metrics and
   observe histograms while other domains snapshot and render the
   OpenMetrics exposition. Catches two regressions at once: any
   unguarded registry access (crash/corruption under parallel
   registration) and the histogram export race where a scrape paired a
   bucket table with a count from a different moment — every parsed
   render must satisfy `x_bucket{le="+Inf"} = x_count` per family. *)
let test_multidomain_registration_during_snapshot () =
  isolated @@ fun () ->
  let module Openmetrics = Ccomp_obs.Openmetrics in
  let rounds = 120 in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let writers =
    Array.init 2 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to rounds - 1 do
              let c = Obs.Counter.make (Printf.sprintf "hammer.w%d.c%d" w i) in
              Obs.Counter.incr c;
              let h = Obs.Histogram.make (Printf.sprintf "hammer.w%d.h%d" w (i mod 7)) in
              for k = 1 to 20 do
                Obs.Histogram.observe h (float_of_int k)
              done
            done))
  in
  let readers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let snap = Obs.snapshot () in
              List.iter
                (fun (hs : Obs.histogram_stats) ->
                  if hs.Obs.hs_count < 0 then Atomic.incr failures)
                snap.Obs.histograms;
              match Openmetrics.parse (Openmetrics.render ()) with
              | Error _ -> Atomic.incr failures
              | Ok samples ->
                (* per histogram family: +Inf bucket must equal _count *)
                let counts = Hashtbl.create 16 and infs = Hashtbl.create 16 in
                List.iter
                  (fun (s : Openmetrics.sample) ->
                    let n = s.Openmetrics.om_name in
                    let has_suffix suf =
                      let ln = String.length n and ls = String.length suf in
                      ln > ls && String.sub n (ln - ls) ls = suf
                    in
                    if has_suffix "_count" then
                      Hashtbl.replace counts
                        (String.sub n 0 (String.length n - 6))
                        s.Openmetrics.om_value
                    else if
                      has_suffix "_bucket"
                      && List.assoc_opt "le" s.Openmetrics.om_labels = Some "+Inf"
                    then
                      Hashtbl.replace infs
                        (String.sub n 0 (String.length n - 7))
                        s.Openmetrics.om_value)
                  samples;
                Hashtbl.iter
                  (fun fam inf ->
                    match Hashtbl.find_opt counts fam with
                    | Some c when c <> inf -> Atomic.incr failures
                    | Some _ -> ()
                    | None -> Atomic.incr failures)
                  infs
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Alcotest.(check int) "no torn snapshot or render under parallel registration" 0
    (Atomic.get failures);
  (* all registrations made it: every writer-registered counter exists *)
  let snap = Obs.snapshot () in
  let registered = List.length snap.Obs.counters in
  Alcotest.(check bool)
    (Printf.sprintf "all %d hammered counters registered (got %d)" (2 * rounds) registered)
    true
    (registered >= 2 * rounds)

let word_string =
  let g =
    QCheck.Gen.(
      int_range 1 48 >>= fun words ->
      map Bytes.unsafe_to_string (bytes_size (return (4 * words))))
  in
  QCheck.make ~print:(Printf.sprintf "%S") g

let samc_identity =
  obs_identity_test "samc compress identical under obs" word_string (fun s ->
      let cfg = Samc.byte_config ~block_size:16 () in
      let z = Samc.compress cfg s in
      String.concat "" (Array.to_list z.Samc.blocks) ^ Samc.decompress z)

let huffman_identity =
  obs_identity_test "byte-huffman serialize identical under obs"
    QCheck.(string_of_size Gen.(int_range 1 512))
    (fun s -> Byte_huffman.serialize (Byte_huffman.compress ~block_size:16 s))

(* Every statically registered metric, each with the one consumer that
   reads it: a [tools/*.sh] gate, a test, [ccomp top], [ccomp loadgen]'s
   report, perfbench, or an EXPERIMENTS.md entry. A metric that names
   no consumer is deleted, so adding or removing one means editing this
   list. *)
let metric_inventory =
  [
    "loadgen.connect_us" (* loadgen *);
    "loadgen.latency_us" (* loadgen *);
    "loadgen.network_us" (* loadgen *);
    "loadgen.queue_us" (* loadgen *);
    "loadgen.service_us" (* loadgen *);
    "memsys.decode_cache.hits" (* top *);
    "memsys.decode_cache.misses" (* top *);
    "par.epochs" (* test *);
    "par.jobs" (* test *);
    "par.queue_depth" (* test *);
    "par.spawns" (* E19 *);
    "par.tasks" (* test *);
    "par.worker_busy_us" (* test *);
    "runtime.alloc_rate_mbps" (* test *);
    "runtime.domains" (* gate *);
    "runtime.gc.compactions" (* test *);
    "runtime.gc.heap_words" (* gate *);
    "runtime.gc.major_collections" (* perfbench *);
    "runtime.gc.major_cycles" (* gate *);
    "runtime.gc.major_pause_us" (* gate *);
    "runtime.gc.major_words" (* perfbench *);
    "runtime.gc.minor_collections" (* gate *);
    "runtime.gc.minor_words" (* gate *);
    "runtime.gc.promoted_words" (* test *);
    "runtime.gc.space_overhead" (* gate *);
    "serve.bytes_out" (* loadgen *);
    "serve.conn_recycles" (* gate *);
    "serve.connections" (* gate *);
    "serve.deadline_expired_total" (* gate *);
    "serve.frames" (* gate *);
    "serve.inflight" (* gate *);
    "serve.jobs.compress" (* gate *);
    "serve.jobs.decompress" (* gate *);
    "serve.keepalive_idle_closes" (* gate *);
    "serve.request_us" (* gate *);
    "serve.shed_total" (* gate *);
    "serve.slow.forced_total" (* test *);
    "serve.slow.sampled_total" (* test *);
    "serve.stage.queue_us" (* gate *);
    "serve.stage.read_us" (* gate *);
    "serve.stage.work_us" (* gate *);
    "serve.stage.write_us" (* gate *);
    "serve.uptime_seconds" (* gate *);
    "serve.worker_restarts_total" (* gate *);
  ]

(* Names outside the inventory by construction: the per-codec block
   families ([<codec>.compress.*], [<codec>.decompress.*]), the
   per-stream SAMC costs ([samc.streamN.*]), the per-worker queue depth
   gauges ([serve.queue.depth.N]), and the names the tests themselves
   register. *)
let dynamic_or_test name =
  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  match String.split_on_char '.' name with
  | ("test" | "hammer" | "om") :: _ -> true
  | _ :: ("compress" | "decompress") :: _ -> true
  | [ "samc"; stream; _ ] ->
    String.starts_with ~prefix:"stream" stream && digits (String.sub stream 6 (String.length stream - 6))
  | [ "serve"; "queue"; "depth"; n ] -> digits n
  | _ -> false

let test_metric_inventory () =
  let registered =
    List.filter_map
      (fun (name, _) -> if dynamic_or_test name then None else Some name)
      (Obs.registered_metrics ())
  in
  let missing l = List.filter (fun n -> not (List.mem n l)) in
  Alcotest.(check (list string)) "registered but not in the inventory" []
    (missing metric_inventory registered);
  Alcotest.(check (list string)) "in the inventory but not registered" []
    (missing registered metric_inventory)

let suite =
  [
    Alcotest.test_case "counter monotonic + rejects negative" `Quick test_counter_monotonic;
    Alcotest.test_case "counter registry is get-or-create" `Quick test_counter_shared;
    Alcotest.test_case "histogram percentiles within bucket error" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "snapshot JSON round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "reset clears values" `Quick test_reset_clears;
    Alcotest.test_case "timed records a trace slice" `Quick test_span_records;
    Alcotest.test_case "parallel increments lose nothing" `Quick test_parallel_increments;
    Alcotest.test_case "registration hammered during snapshot/render" `Quick
      test_multidomain_registration_during_snapshot;
    Alcotest.test_case "every registered metric names its consumer" `Quick
      test_metric_inventory;
    QCheck_alcotest.to_alcotest samc_identity;
    QCheck_alcotest.to_alcotest huffman_identity;
  ]
