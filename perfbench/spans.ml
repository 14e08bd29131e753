(* Benchmark-side tracing. Each call into a layer is wrapped in an
   [Obs] span, so a traced run opens in Perfetto; alongside, the span
   tree's per-name self time (duration minus the part its child spans
   cover) and call count are accumulated here, which is where the per-layer
   metrics come from. Spans are only ever opened from the main domain.
   When tracing is off, [span] is a plain call. *)

module Obs = Ccomp_obs.Obs

type acc = { mutable self_s : float; mutable calls : int }

let table : (string, acc) Hashtbl.t = Hashtbl.create 64

(* Time covered by the children of each open span, innermost first. *)
let open_children : float ref list ref = ref []

let enabled () = Obs.tracing_enabled ()

let set_enabled b = Obs.set_tracing b

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
    let a = { self_s = 0.0; calls = 0 } in
    Hashtbl.replace table name a;
    a

let span name f =
  if not (enabled ()) then f ()
  else begin
    let children = ref 0.0 in
    open_children := children :: !open_children;
    let v, dt =
      Fun.protect
        ~finally:(fun () -> open_children := List.tl !open_children)
        (fun () -> Obs.timed ~cat:"perfbench" name f)
    in
    (match !open_children with p :: _ -> p := !p +. dt | [] -> ());
    let a = acc name in
    a.self_s <- a.self_s +. (dt -. !children);
    a.calls <- a.calls + 1;
    v
  end

let self_s name = match Hashtbl.find_opt table name with Some a -> a.self_s | None -> 0.0

let calls name = match Hashtbl.find_opt table name with Some a -> a.calls | None -> 0

(* The progen layer's time per setup, taken once setup is done; the
   accounts are then cleared so the rounds start from zero (setup's
   warm-up ops do not count as round work). *)
let setup_layers () =
  let per name = Report.m (name ^ "_s") "s" (self_s name /. float_of_int Measure.setup_reps) in
  let ms = List.map per [ "progen.generate"; "progen.lower" ] in
  Hashtbl.reset table;
  ms

type 'a round = { traced : bool; wall_s : float; usage : Measure.usage; value : 'a }

(* The measurement loop: whole rounds of identical work until [seconds]
   have elapsed, so every round of a seed sees the same inputs. In a
   traced run rounds alternate untraced / traced; only the traced ones
   open spans, and the trace keeps the spans of the last traced round. *)
let rounds ~seconds ~trace f =
  let t0 = Measure.now_ns () in
  let min_rounds = if trace then 2 else 1 in
  let rec go i acc =
    if i >= min_rounds && Measure.secs_since t0 >= seconds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      if traced then Obs.reset ();
      set_enabled traced;
      let u0 = Measure.usage () in
      let r0 = Measure.now_ns () in
      let value = f ~traced in
      let wall_s = Measure.secs_since r0 in
      let usage = Measure.usage_since u0 in
      set_enabled false;
      go (i + 1) ({ traced; wall_s; usage; value } :: acc)
    end
  in
  go 0 []

let traced rs = List.filter (fun r -> r.traced) rs

let untraced rs = List.filter (fun r -> not r.traced) rs

(* The process's allocation, collections and CPU time per op, over the
   untraced rounds (spans allocate); [ops] is the ops of one round. *)
let process_layers ~ops rs =
  let us = List.map (fun r -> r.usage) (untraced rs) in
  let n = float_of_int (ops * List.length us) in
  let per f = Measure.sum (List.map f us) /. n in
  [
    Report.m "alloc_kb_per_op" "KB" (per (fun u -> u.Measure.alloc_w) *. float_of_int (Sys.word_size / 8) /. 1024.0);
    Report.m "gc.minor_collections_per_op" "count" (per (fun u -> float_of_int u.Measure.minor));
    Report.m "gc.major_collections_per_op" "count" (per (fun u -> float_of_int u.Measure.major));
    Report.m "cpu_ms_per_op" "ms" (1e3 *. per (fun u -> u.Measure.cpu));
  ]

(* Traced minus untraced round time, as a share of untraced. *)
let overhead_pct rs =
  let med l = Measure.median (List.map (fun r -> r.wall_s) l) in
  let u = med (untraced rs) in
  100.0 *. (med (traced rs) -. u) /. u

(* Writes the Perfetto trace of a traced run; returns its path. *)
let write_trace ~workload ~seed =
  (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf ".bench_out/trace-%s-seed%d.json" workload seed in
  Obs.write_trace path;
  path
