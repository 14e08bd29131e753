(* Rolling-window aggregation under a fake clock: rates, expiry,
   counter-reset clamping and hit ratios are all pure functions of
   (timestamp, value) samples the test feeds in. *)

module Obs = Ccomp_obs.Obs
module Window = Ccomp_obs.Window

let feed w samples =
  List.iter (fun (t, v) -> Window.observe w ~now:t [ ("s", v) ]) samples

let test_rate_fake_clock () =
  let w = Window.make ~window_s:60.0 () in
  feed w [ (0.0, 0.0); (1.0, 100.0); (2.0, 250.0); (3.0, 300.0) ];
  Alcotest.(check (option (float 1e-9))) "rate = delta / span" (Some 100.0)
    (Window.rate w "s")

let test_window_expiry () =
  let w = Window.make ~window_s:5.0 () in
  (* flat for 5s, then 100/s for 5s; only the last 5s are in the window,
     so the rate is 100/s, not the whole history's 50/s *)
  feed w (List.init 11 (fun i -> (float_of_int i, float_of_int (max 0 (i - 5) * 100))));
  Alcotest.(check (option (float 1e-9))) "rate over trailing window" (Some 100.0)
    (Window.rate w "s")

let test_counter_reset_clamp () =
  let w = Window.make ~window_s:60.0 () in
  feed w [ (0.0, 100.0); (1.0, 40.0) ];
  Alcotest.(check (option (float 1e-9))) "reset clamps the rate to 0" (Some 0.0)
    (Window.rate w "s")

let test_single_sample () =
  let w = Window.make ~window_s:60.0 () in
  feed w [ (0.0, 7.0) ];
  Alcotest.(check (option (float 1e-9))) "one sample: no rate" None (Window.rate w "s");
  Alcotest.(check (option (float 1e-9))) "one sample: no ratio" None (Window.ratio w "s" "s")

let test_non_advancing_ignored () =
  let w = Window.make ~window_s:60.0 () in
  feed w [ (5.0, 1.0); (5.0, 999.0); (4.0, 999.0); (6.0, 2.0) ];
  Alcotest.(check (option (float 1e-9))) "stale timestamps ignored" (Some 1.0)
    (Window.rate w "s")

let test_capacity_bound () =
  let w = Window.make ~capacity:8 ~window_s:1e9 () in
  feed w (List.init 100 (fun i -> (float_of_int i, float_of_int (i * i))));
  (* ring keeps the newest 8 samples: 92..99, so the rate is
     (99^2 - 92^2) / 7 = 191, not the whole history's 99 *)
  Alcotest.(check (option (float 1e-9))) "rate over retained ring" (Some 191.0)
    (Window.rate w "s")

let test_ratio () =
  let w = Window.make ~window_s:60.0 () in
  let obs now h m = Window.observe w ~now [ ("hits", h); ("misses", m) ] in
  obs 0.0 0.0 0.0;
  obs 1.0 80.0 20.0;
  (match Window.ratio w "hits" "misses" with
  | None -> Alcotest.fail "ratio should be available"
  | Some r -> Alcotest.(check (float 1e-9)) "hit ratio" 0.8 r);
  let w2 = Window.make ~window_s:60.0 () in
  Window.observe w2 ~now:0.0 [ ("hits", 5.0); ("misses", 5.0) ];
  Window.observe w2 ~now:1.0 [ ("hits", 5.0); ("misses", 5.0) ];
  Alcotest.(check (option (float 1e-9))) "no traffic in window: None" None
    (Window.ratio w2 "hits" "misses")

let test_of_snapshot () =
  let snap =
    {
      Obs.counters = [ ("c", 5) ];
      gauges = [ ("g", 0.5) ];
      histograms =
        [
          {
            Obs.hs_name = "h";
            hs_count = 3;
            hs_sum = 6.0;
            hs_min = 1.0;
            hs_max = 3.0;
            hs_p50 = 2.0;
            hs_p95 = 3.0;
            hs_p99 = 3.0;
          };
        ];
    }
  in
  let flat = Window.of_snapshot snap in
  let get n =
    match List.assoc_opt n flat with
    | Some v -> v
    | None -> Alcotest.failf "series %s missing" n
  in
  Alcotest.(check (float 0.0)) "counter" 5.0 (get "c");
  Alcotest.(check (float 0.0)) "gauge" 0.5 (get "g");
  Alcotest.(check (float 0.0)) "histogram count" 3.0 (get "h.count");
  Alcotest.(check (float 0.0)) "histogram sum" 6.0 (get "h.sum")

let suite =
  [
    Alcotest.test_case "rate under a fake clock" `Quick test_rate_fake_clock;
    Alcotest.test_case "samples expire out of the window" `Quick test_window_expiry;
    Alcotest.test_case "counter reset clamps to zero" `Quick test_counter_reset_clamp;
    Alcotest.test_case "single sample yields no rate" `Quick test_single_sample;
    Alcotest.test_case "non-advancing timestamps ignored" `Quick test_non_advancing_ignored;
    Alcotest.test_case "ring capacity bounds retention" `Quick test_capacity_bound;
    Alcotest.test_case "windowed hit ratio" `Quick test_ratio;
    Alcotest.test_case "snapshot flattening" `Quick test_of_snapshot;
  ]
