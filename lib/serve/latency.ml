(* Per-request latency stages for the serve layer.

   Every binary request moves through four server-side stages — queue
   (readable but not yet served by its worker), read (frame arriving
   and being decoded), work (the codec job itself) and write (reply
   leaving) — each recorded into its own log-scale histogram. The names live here,
   in one place, because three consumers must agree on them: the daemon
   observing them, `ccomp stats` attributing p99 from a snapshot, and
   `ccomp top` rendering the live breakdown panel. *)

module Obs = Ccomp_obs.Obs

type stage = Queue | Read | Work | Write

let stages = [ Queue; Read; Work; Write ]

let stage_name = function
  | Queue -> "queue"
  | Read -> "read"
  | Work -> "work"
  | Write -> "write"

let histogram_name st = Printf.sprintf "serve.stage.%s_us" (stage_name st)

let total_histogram_name = "serve.request_us"

let h_queue = Obs.Histogram.make (histogram_name Queue)

let h_read = Obs.Histogram.make (histogram_name Read)

let h_work = Obs.Histogram.make (histogram_name Work)

let h_write = Obs.Histogram.make (histogram_name Write)

let h_total = Obs.Histogram.make total_histogram_name

let histogram = function
  | Queue -> h_queue
  | Read -> h_read
  | Work -> h_work
  | Write -> h_write

let observe st us = if Obs.metrics_enabled () then Obs.Histogram.observe (histogram st) us

let observe_total us = if Obs.metrics_enabled () then Obs.Histogram.observe h_total us

(* --- "what dominates p99" attribution ----------------------------------- *)

type stage_stats = {
  st_stage : string;
  st_count : int;
  st_p50_us : float;
  st_p99_us : float;
  st_sum_us : float;
}

type report = {
  rp_stages : stage_stats list;  (** wire order: queue, read, work, write *)
  rp_total : Obs.histogram_stats option;
  rp_dominant : string;  (** stage with the largest p99 *)
  rp_dominant_share : float;  (** its fraction of the summed stage p99s *)
}

let attribution (snap : Obs.snapshot) =
  let find name =
    List.find_opt (fun (h : Obs.histogram_stats) -> h.Obs.hs_name = name) snap.Obs.histograms
  in
  let stats =
    List.filter_map
      (fun st ->
        match find (histogram_name st) with
        | Some h when h.Obs.hs_count > 0 ->
          Some
            {
              st_stage = stage_name st;
              st_count = h.Obs.hs_count;
              st_p50_us = h.Obs.hs_p50;
              st_p99_us = h.Obs.hs_p99;
              st_sum_us = h.Obs.hs_sum;
            }
        | _ -> None)
      stages
  in
  match stats with
  | [] -> None
  | _ ->
    let p99_mass = List.fold_left (fun acc s -> acc +. s.st_p99_us) 0.0 stats in
    let dominant =
      List.fold_left (fun best s -> if s.st_p99_us > best.st_p99_us then s else best)
        (List.hd stats) stats
    in
    Some
      {
        rp_stages = stats;
        rp_total = find total_histogram_name;
        rp_dominant = dominant.st_stage;
        rp_dominant_share =
          (if p99_mass > 0.0 then dominant.st_p99_us /. p99_mass else 0.0);
      }

let render r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "request latency by stage (server side):";
  line "  %-8s %10s %12s %12s %9s" "stage" "count" "p50 us" "p99 us" "Σ share";
  let sum_mass = List.fold_left (fun acc s -> acc +. s.st_sum_us) 0.0 r.rp_stages in
  List.iter
    (fun s ->
      line "  %-8s %10d %12.0f %12.0f %8.1f%%" s.st_stage s.st_count s.st_p50_us s.st_p99_us
        (if sum_mass > 0.0 then 100.0 *. s.st_sum_us /. sum_mass else 0.0))
    r.rp_stages;
  (match r.rp_total with
  | Some t ->
    line "  p99 dominated by %s (%.1f%% of stage p99 mass); request p99 %.0f us over %d requests"
      r.rp_dominant
      (100.0 *. r.rp_dominant_share)
      t.Obs.hs_p99 t.Obs.hs_count
  | None ->
    line "  p99 dominated by %s (%.1f%% of stage p99 mass)" r.rp_dominant
      (100.0 *. r.rp_dominant_share));
  Buffer.contents b
