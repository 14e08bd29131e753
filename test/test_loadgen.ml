(* Load-generator invariants, socketless: the arrival schedule is a
   deterministic pure function of its seed, and the measurement model
   is coordinated-omission safe — latencies charged from the scheduled
   send instant can only exceed naive send-time latencies, and under an
   injected stall they must. The live path (real daemon, real sockets)
   is exercised by tools/loadgen_check.sh. *)

module Loadgen = Ccomp_serve.Loadgen

let sched ?(arrivals = Loadgen.Poisson) ?(rate = 100.0) ?(duration = 2.0) seed =
  Loadgen.schedule ~arrivals ~rate_rps:rate ~duration_s:duration ~seed

let test_schedule_deterministic () =
  List.iter
    (fun arrivals ->
      Alcotest.(check bool)
        (Printf.sprintf "same seed, same %s schedule" (Loadgen.arrivals_to_string arrivals))
        true
        (sched ~arrivals 7 = sched ~arrivals 7))
    [ Loadgen.Poisson; Loadgen.Uniform ];
  Alcotest.(check bool) "different seeds, different poisson schedules" false
    (sched 7 = sched 8)

let test_schedule_bounds () =
  List.iter
    (fun seed ->
      let s = sched ~duration:1.5 seed in
      Alcotest.(check bool) "non-empty at 100 rps for 1.5s" true (Array.length s > 0);
      Array.iteri
        (fun i off ->
          if off < 0.0 || off >= 1.5 then
            Alcotest.failf "offset %d = %f outside [0, duration)" i off;
          if i > 0 && off < s.(i - 1) then Alcotest.failf "offsets not sorted at %d" i)
        s)
    [ 1; 2; 42 ];
  Alcotest.(check int) "uniform count is rate * duration" 150
    (Array.length (sched ~arrivals:Loadgen.Uniform ~duration:1.5 1));
  Alcotest.(check int) "degenerate rate yields empty schedule" 0
    (Array.length (Loadgen.schedule ~arrivals:Loadgen.Poisson ~rate_rps:0.0 ~duration_s:5.0 ~seed:1))

let test_poisson_rate () =
  (* over a long horizon the empirical rate approaches the offered one *)
  let s = sched ~rate:200.0 ~duration:30.0 3 in
  let n = float_of_int (Array.length s) in
  Alcotest.(check bool)
    (Printf.sprintf "poisson arrival count %.0f near 6000" n)
    true
    (n > 5400.0 && n < 6600.0)

let test_replay_stall_divergence () =
  (* dense schedule, one 100 ms stall at request 0: the stall queues
     every later request behind it. Corrected latency charges that
     queueing; naive latency (from the actual, late send) hides it. *)
  let n = 50 in
  let scheduled = Array.init n (fun i -> 0.001 *. float_of_int i) in
  let service = Array.init n (fun i -> if i = 0 then 0.1 else 0.0001) in
  let pairs = Loadgen.For_tests.replay ~scheduled ~service in
  let corrected_max = Array.fold_left (fun m (c, _) -> Float.max m c) 0.0 pairs in
  let naive_max = Array.fold_left (fun m (_, nv) -> Float.max m nv) 0.0 pairs in
  Alcotest.(check bool)
    (Printf.sprintf "corrected max %.4f sees the stall" corrected_max)
    true (corrected_max >= 0.09);
  Alcotest.(check bool)
    (Printf.sprintf "naive max %.4f (beyond the stall itself) hides it" naive_max)
    true
    (* request 0 pays its own service time either way; every later
       request's naive latency is just its tiny service time *)
    (Array.for_all (fun i -> snd pairs.(i) < 0.01) (Array.init (n - 1) (fun i -> i + 1)))

let qcheck_corrected_ge_naive =
  let gen =
    QCheck.make
      ~print:(fun (sched, svc) ->
        Printf.sprintf "scheduled=[%s] service=[%s]"
          (String.concat ";" (List.map string_of_float (Array.to_list sched)))
          (String.concat ";" (List.map string_of_float (Array.to_list svc))))
      QCheck.Gen.(
        int_range 1 40 >>= fun n ->
        let pos = map (fun f -> 0.001 +. (f *. 0.2)) (float_bound_inclusive 1.0) in
        pair
          (map
             (fun l ->
               let a = Array.of_list l in
               Array.sort compare a;
               a)
             (list_repeat n pos))
          (map Array.of_list (list_repeat n pos)))
  in
  QCheck.Test.make ~count:200 ~name:"replay: corrected latency >= naive latency always" gen
    (fun (scheduled, service) ->
      Array.for_all
        (fun (corrected, naive) -> corrected >= naive -. 1e-12)
        (Loadgen.For_tests.replay ~scheduled ~service))

let qcheck_schedule_deterministic =
  QCheck.Test.make ~count:100 ~name:"schedule is a pure function of its seed"
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, poisson) ->
      let arrivals = if poisson then Loadgen.Poisson else Loadgen.Uniform in
      sched ~arrivals seed = sched ~arrivals seed)

let mk_report () =
  {
    Loadgen.r_offered_rps = 100.0;
    r_achieved_rps = 99.0;
    r_duration_s = 5.0;
    r_elapsed_s = 5.1;
    r_sent = 500;
    r_ok = 490;
    r_shed = 8;
    r_deadline_expired = 2;
    r_failed = 0;
    r_transport = 0;
    r_timed = 490;
    r_p50_ms = 1.0;
    r_p95_ms = 4.0;
    r_p99_ms = 9.0;
    r_p999_ms = 20.0;
    r_max_ms = 25.0;
    r_queue_p50_ms = 0.1;
    r_queue_p99_ms = 2.0;
    r_service_p50_ms = 0.5;
    r_service_p99_ms = 5.0;
    r_network_p50_ms = 0.2;
    r_network_p99_ms = 1.0;
    r_shed_rate = 0.016;
    r_deadline_rate = 0.004;
    r_conn_reuse = true;
    r_conns = 4;
    r_connects = 5;
    r_reconnects = 1;
    r_connect_p50_ms = 0.2;
    r_connect_p99_ms = 0.8;
    r_remainder_clamped = 3;
    r_slo_p99_ms = Some 50.0;
    r_slo_shed_rate = Some 0.05;
    r_slo_deadline_rate = None;
    r_slo_violations = [];
    r_runtime = [];
  }

let test_json_keys () =
  let r = mk_report () in
  let keys = Loadgen.json_keys r in
  let get k =
    match List.assoc_opt k keys with
    | Some v -> v
    | None -> Alcotest.failf "missing key %s" k
  in
  Alcotest.(check (float 1e-9)) "p99 exported" 9.0 (get "loadgen.p99_ms");
  Alcotest.(check (float 1e-9)) "p99.9 exported" 20.0 (get "loadgen.p999_ms");
  Alcotest.(check (float 1e-9)) "declared p99 SLO exported" 50.0 (get "loadgen.slo_p99_ms");
  Alcotest.(check (float 1e-9)) "shed rate exported" 0.016 (get "loadgen.shed_rate");
  Alcotest.(check (float 1e-9)) "conn reuse exported as 1/0" 1.0 (get "loadgen.conn_reuse");
  Alcotest.(check (float 1e-9)) "connects exported" 5.0 (get "loadgen.connects");
  Alcotest.(check (float 1e-9)) "reconnects exported" 1.0 (get "loadgen.reconnects");
  Alcotest.(check (float 1e-9)) "connect p99 exported" 0.8 (get "loadgen.connect_p99_ms");
  Alcotest.(check (float 1e-9)) "remainder clamp count exported" 3.0
    (get "loadgen.remainder_clamped");
  Alcotest.(check bool) "unset SLO omitted" true
    (List.assoc_opt "loadgen.slo_deadline_rate" keys = None);
  (* every key is namespaced so a merge cannot collide with perf keys *)
  List.iter
    (fun (k, _) ->
      if not (String.length k > 8 && String.sub k 0 8 = "loadgen.") then
        Alcotest.failf "unnamespaced key %s" k)
    keys

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_emit_json () =
  let r = mk_report () in
  let path = Filename.temp_file "lg_emit" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Loadgen.emit_json ~path r;
      let text = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "carries the schema" true
        (contains ~needle:"\"schema\": \"ccomp-bench-v1\"" text);
      Alcotest.(check bool) "carries p99" true (contains ~needle:"\"loadgen.p99_ms\": 9.000" text))

let suite =
  [
    Alcotest.test_case "schedule deterministic in its seed" `Quick test_schedule_deterministic;
    Alcotest.test_case "schedule offsets sorted and bounded" `Quick test_schedule_bounds;
    Alcotest.test_case "poisson empirical rate near offered" `Quick test_poisson_rate;
    Alcotest.test_case "stall: corrected diverges from naive" `Quick test_replay_stall_divergence;
    QCheck_alcotest.to_alcotest qcheck_corrected_ge_naive;
    QCheck_alcotest.to_alcotest qcheck_schedule_deterministic;
    Alcotest.test_case "json keys namespaced and SLO-gated" `Quick test_json_keys;
    Alcotest.test_case "emit bench JSON" `Quick test_emit_json;
  ]
