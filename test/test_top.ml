(* [ccomp top]'s frame renderer on a synthetic snapshot: no daemon, no
   socket, a fake clock. *)

module Obs = Ccomp_obs.Obs
module Window = Ccomp_obs.Window
module Top = Ccomp_serve.Top

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Twenty busy counters outpace serve.frames, which still gets its row;
   a counter that never counted gets none. *)
let test_counter_panel_keeps_quiet_counters () =
  let busy = List.init 20 (fun i -> (Printf.sprintf "runtime.gc.busy%02d" i, 1000 * (i + 1))) in
  let counters =
    List.sort compare ((("serve.frames", 5) :: ("serve.idle", 0) :: busy))
  in
  let snapshot = { Obs.counters; gauges = []; histograms = [] } in
  let window = Window.make ~window_s:60.0 () in
  Window.observe window ~now:0.0 (List.map (fun (n, _) -> (n, 0.0)) counters);
  Window.observe window ~now:1.0 (Window.of_snapshot snapshot);
  let frame = Top.render_frame ~window ~snapshot ~events_tail:[] ~title:"t" () in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " row present") true (contains frame (name ^ " ")))
    busy;
  Alcotest.(check bool) "serve.frames row present" true (contains frame "serve.frames ");
  Alcotest.(check bool) "zero-total counter omitted" false (contains frame "serve.idle")

let suite =
  [
    Alcotest.test_case "counter panel lists every counted counter" `Quick
      test_counter_panel_keeps_quiet_counters;
  ]
