(* Terminal dashboard: poll /snapshot + /events, window the samples,
   render. Rendering is a pure function of (window, snapshot, events)
   so tests can drive it with a fake clock and no socket. *)

module Obs = Ccomp_obs.Obs
module Window = Ccomp_obs.Window

type options = {
  host : string;
  port : int;
  interval_s : float;
  frames : int;
  window_s : float;
  plain : bool;
  timeout_s : float;
}

let fmt_num v =
  if Float.abs v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.2fk" (v /. 1e3)
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let render_frame ?(slow = []) ~window ~snapshot ~events_tail ~title () =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" title;
  line "%s" (String.make (String.length title) '-');
  (* counters: windowed rate + running total, busiest first; every
     counter that has counted anything gets a row *)
  let rated =
    List.filter_map
      (fun (name, total) ->
        if total = 0 then None
        else Some (name, total, Option.value ~default:0.0 (Window.rate window name)))
      snapshot.Obs.counters
    |> List.sort (fun (n1, _, r1) (n2, _, r2) -> compare (-.r1, n1) (-.r2, n2))
  in
  if rated <> [] then begin
    line "";
    line "  %-40s %12s %14s" "counter" "rate/s" "total";
    List.iter (fun (name, total, r) -> line "  %-40s %12s %14d" name (fmt_num r) total) rated
  end;
  (* decode-cache hits over the window, not since process start *)
  (match Window.ratio window "memsys.decode_cache.hits" "memsys.decode_cache.misses" with
  | Some ratio -> line "  %-40s %12.1f%%" "decode-cache hit ratio (window)" (100.0 *. ratio)
  | None -> ());
  if snapshot.Obs.gauges <> [] then begin
    line "";
    line "  %-40s %12s" "gauge" "value";
    List.iter (fun (name, v) -> line "  %-40s %12.4g" name v) snapshot.Obs.gauges
  end;
  if snapshot.Obs.histograms <> [] then begin
    line "";
    line "  %-32s %10s %9s %9s %9s %9s" "histogram" "obs/s" "p50" "p95" "p99" "max";
    List.iter
      (fun (h : Obs.histogram_stats) ->
        let obs_rate =
          match Window.rate window (h.Obs.hs_name ^ ".count") with
          | Some r -> fmt_num r
          | None -> "-"
        in
        line "  %-32s %10s %9.3g %9.3g %9.3g %9.3g" h.Obs.hs_name obs_rate h.Obs.hs_p50
          h.Obs.hs_p95 h.Obs.hs_p99 h.Obs.hs_max)
      snapshot.Obs.histograms
  end;
  (* live latency breakdown: which serve stage owns the tail right now *)
  (match Latency.attribution snapshot with
  | None -> ()
  | Some report ->
    line "";
    List.iter
      (fun l -> if l <> "" then line "  %s" l)
      (String.split_on_char '\n' (Latency.render report)));
  (* tail/GC correlation: of the tail-sampled slow requests, how many
     had a major collection finish mid-request — "is the GC the tail?" *)
  (match Slow.correlation_line slow with
  | None -> ()
  | Some corr ->
    line "";
    line "  slow-request ring (%d sampled):" (List.length slow);
    line "    %s" corr;
    let worst =
      List.filteri (fun i _ -> i >= List.length slow - 3) slow (* newest 3 *)
    in
    List.iter
      (fun (r : Slow.record) ->
        line "    %-10s %-16s total %8.2f ms  queue %6.0f us  work %8.0f us  depth %d%s" r.Slow.sr_kind
          r.Slow.sr_outcome (r.Slow.sr_total_us /. 1e3) r.Slow.sr_queue_us r.Slow.sr_work_us
          r.Slow.sr_queue_depth
          (if Slow.overlapped_major r then "  [major GC]" else ""))
      worst);
  if events_tail <> [] then begin
    line "";
    line "  recent events:";
    List.iter (fun e -> line "    %s" e) events_tail
  end;
  line "";
  line "  [q] quit   [r] reset window   (%.0fs rolling window)" (Window.window_seconds window);
  Buffer.contents b

(* --- terminal handling --------------------------------------------------- *)

let with_raw_stdin f =
  if Unix.isatty Unix.stdin then begin
    match Unix.tcgetattr Unix.stdin with
    | saved ->
      let raw = { saved with Unix.c_icanon = false; c_echo = false; c_vmin = 0; c_vtime = 0 } in
      Unix.tcsetattr Unix.stdin Unix.TCSANOW raw;
      Fun.protect ~finally:(fun () -> Unix.tcsetattr Unix.stdin Unix.TCSANOW saved) f
    | exception Unix.Unix_error _ -> f ()
  end
  else f ()

(* Wait up to [interval] seconds, returning the key pressed (if any).
   Off a TTY this is just a sleep. *)
let poll_key interval =
  if Unix.isatty Unix.stdin then begin
    match Unix.select [ Unix.stdin ] [] [] interval with
    | [ _ ], _, _ ->
      let buf = Bytes.create 1 in
      if Unix.read Unix.stdin buf 0 1 = 1 then Some (Bytes.get buf 0) else None
    | _ -> None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  end
  else begin
    Unix.sleepf interval;
    None
  end

let fetch opts =
  let ( let* ) = Result.bind in
  let get = Serve.http_get ~timeout_s:opts.timeout_s ~host:opts.host ~port:opts.port in
  let* _, snap_json = get "/snapshot" in
  let* snapshot =
    match Obs.snapshot_of_json snap_json with
    | Ok s -> Ok s
    | Error e -> Error ("bad /snapshot payload: " ^ e)
  in
  let* _, events_body = get "/events?n=8" in
  let events_tail =
    String.split_on_char '\n' events_body |> List.filter (fun l -> String.trim l <> "")
  in
  (* tolerant: a daemon predating /slow answers 404 — the panel is
     simply absent rather than the dashboard failing *)
  let slow =
    match get "/slow?n=50" with
    | Ok (200, body) ->
      String.split_on_char '\n' body
      |> List.filter (fun l -> String.trim l <> "")
      |> List.filter_map (fun l -> Result.to_option (Slow.of_json_line l))
    | Ok _ | Error _ -> []
  in
  Ok (snapshot, events_tail, slow)

let run opts =
  let window = ref (Window.make ~window_s:opts.window_s ()) in
  let clear = if opts.plain || not (Unix.isatty Unix.stdout) then "" else "\x1b[2J\x1b[H" in
  with_raw_stdin @@ fun () ->
  let rec loop frame =
    match fetch opts with
    | Error e -> Error e
    | Ok (snapshot, events_tail, slow) ->
      let now = Obs.now_us () /. 1e6 in
      Window.observe !window ~now (Window.of_snapshot snapshot);
      let title =
        Printf.sprintf "ccomp top — %s:%d — frame %d — %s" opts.host opts.port frame
          (let t = Unix.localtime (Unix.time ()) in
           Printf.sprintf "%02d:%02d:%02d" t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec)
      in
      print_string (clear ^ render_frame ~slow ~window:!window ~snapshot ~events_tail ~title ());
      flush stdout;
      if opts.frames > 0 && frame >= opts.frames then Ok ()
      else begin
        match poll_key opts.interval_s with
        | Some 'q' -> Ok ()
        | Some 'r' ->
          window := Window.make ~window_s:opts.window_s ();
          loop (frame + 1)
        | _ -> loop (frame + 1)
      end
  in
  loop 1
