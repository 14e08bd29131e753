(* Open-loop, coordinated-omission-safe load generator for the daemon.

   Open loop: the arrival schedule is fixed up front (seeded Poisson or
   uniform), and a request whose slot has passed is sent immediately
   rather than waiting its turn — a slow server cannot slow the offered
   load down, which is exactly the failure closed-loop generators hide.

   Coordinated omission: every latency is measured from the request's
   *scheduled* send instant, not the actual one. When senders fall
   behind (server stall, scheduler hiccup), the queueing delay the
   client suffered is charged to the request instead of vanishing.

   The per-request ids let the daemon echo its server-side stage split
   (queue/service), so the report can attribute tail latency to the
   server or the network without guessing. *)

module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events
module Prng = Ccomp_util.Prng

type arrivals = Poisson | Uniform

type config = {
  host : string;
  port : int;
  rate_rps : float;
  duration_s : float;
  arrivals : arrivals;
  seed : int;
  senders : int;
  conns : int;
  conn_reuse : bool;
  payload_bytes : int;
  algo : Serve.algo;
  isa : Serve.isa;
  block_size : int;
  deadline_ms : int;
  timeout_s : float;
  mix_compress : int;
  mix_decompress : int;
  mix_ping : int;
  slo_p99_ms : float option;
  slo_shed_rate : float option;
  slo_deadline_rate : float option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7070;
    rate_rps = 50.0;
    duration_s = 5.0;
    arrivals = Poisson;
    seed = 42;
    senders = 4;
    conns = 0;
    conn_reuse = true;
    payload_bytes = 4096;
    algo = Serve.Samc;
    isa = Serve.Mips;
    block_size = 32;
    deadline_ms = 0;
    timeout_s = 10.0;
    mix_compress = 1;
    mix_decompress = 1;
    mix_ping = 2;
    slo_p99_ms = None;
    slo_shed_rate = None;
    slo_deadline_rate = None;
  }

(* The whole schedule as offsets (seconds) from the run's start instant.
   Seeded, so the same config replays the same arrival process. *)
let schedule ~arrivals ~rate_rps ~duration_s ~seed =
  if rate_rps <= 0.0 || duration_s <= 0.0 then [||]
  else
    match arrivals with
    | Uniform ->
      let n = int_of_float (rate_rps *. duration_s) in
      Array.init n (fun i -> float_of_int i /. rate_rps)
    | Poisson ->
      let g = Prng.create (Int64.of_int seed) in
      let acc = ref [] and t = ref 0.0 and stop = ref false in
      while not !stop do
        (* exponential inter-arrival; 1 - u > 0 because u is in [0,1) *)
        t := !t +. (-.log (1.0 -. Prng.float g) /. rate_rps);
        if !t < duration_s then acc := !t :: !acc else stop := true
      done;
      Array.of_list (List.rev !acc)

(* --- per-request accounting --------------------------------------------- *)

type outcome = Ok_reply | Shed | Deadline | Job_failed | Transport

type sample = {
  s_outcome : outcome;
  s_corrected_us : float;  (** completion - scheduled send (CO-safe) *)
  s_naive_us : float;  (** completion - actual send *)
  s_timing : Serve.timing option;
}

let h_latency = Obs.Histogram.make "loadgen.latency_us"

let h_queue = Obs.Histogram.make "loadgen.queue_us"

let h_service = Obs.Histogram.make "loadgen.service_us"

let h_network = Obs.Histogram.make "loadgen.network_us"

let h_connect = Obs.Histogram.make "loadgen.connect_us"

(* --- report -------------------------------------------------------------- *)

type report = {
  r_offered_rps : float;
  r_achieved_rps : float;  (** ok replies per wall-clock second *)
  r_duration_s : float;
  r_elapsed_s : float;
  r_sent : int;
  r_ok : int;
  r_shed : int;
  r_deadline_expired : int;
  r_failed : int;
  r_transport : int;
  r_timed : int;  (** replies that carried a server timing record *)
  r_p50_ms : float;
  r_p95_ms : float;
  r_p99_ms : float;
  r_p999_ms : float;
  r_max_ms : float;
  r_queue_p50_ms : float;
  r_queue_p99_ms : float;
  r_service_p50_ms : float;
  r_service_p99_ms : float;
  r_network_p50_ms : float;
  r_network_p99_ms : float;
  r_shed_rate : float;
  r_deadline_rate : float;
  r_conn_reuse : bool;
  r_conns : int;  (** client connection slots in play *)
  r_connects : int;  (** connect(2) calls paid, reconnects included *)
  r_reconnects : int;  (** reopens after a server close between frames *)
  r_connect_p50_ms : float;
  r_connect_p99_ms : float;
  r_remainder_clamped : int;
      (** ok replies whose network remainder went negative (u32-capped
          [server_us] exceeding the client-measured latency under clock
          skew) and was clamped to 0 instead of skewing percentiles *)
  r_slo_p99_ms : float option;
  r_slo_shed_rate : float option;
  r_slo_deadline_rate : float option;
  r_slo_violations : string list;
  r_runtime : (string * float) list;
      (** daemon-side [runtime.*] deltas over this run (empty when the
          daemon's /snapshot was unreachable or metrics were off) *)
}

let slo_check cfg ~p99_ms ~shed_rate ~deadline_rate =
  let v = ref [] in
  (match cfg.slo_p99_ms with
  | Some bound when p99_ms > bound ->
    v := Printf.sprintf "p99 %.2f ms exceeds the %.2f ms SLO" p99_ms bound :: !v
  | _ -> ());
  (match cfg.slo_shed_rate with
  | Some bound when shed_rate > bound ->
    v := Printf.sprintf "shed rate %.4f exceeds the %.4f SLO" shed_rate bound :: !v
  | _ -> ());
  (match cfg.slo_deadline_rate with
  | Some bound when deadline_rate > bound ->
    v := Printf.sprintf "deadline-expired rate %.4f exceeds the %.4f SLO" deadline_rate bound :: !v
  | _ -> ());
  List.rev !v

let aggregate ?(conns = 0) ?(connects = 0) ?(reconnects = 0) ?(remainder_clamped = 0) cfg ~n
    ~elapsed_s results =
  let count o = Array.fold_left (fun acc s ->
      match s with Some s when s.s_outcome = o -> acc + 1 | _ -> acc) 0 results
  in
  let ok = count Ok_reply in
  let shed = count Shed in
  let deadline = count Deadline in
  let failed = count Job_failed in
  let transport = count Transport in
  let timed =
    Array.fold_left (fun acc s ->
        match s with Some { s_timing = Some _; _ } -> acc + 1 | _ -> acc) 0 results
  in
  let sent = ok + shed + deadline + failed + transport in
  let rate k = if sent > 0 then float_of_int k /. float_of_int sent else 0.0 in
  let p h q = Obs.Histogram.percentile h q /. 1e3 in
  let p99_ms = p h_latency 99.0 in
  let shed_rate = rate shed and deadline_rate = rate deadline in
  {
    r_offered_rps = (if cfg.duration_s > 0.0 then float_of_int n /. cfg.duration_s else 0.0);
    r_achieved_rps = (if elapsed_s > 0.0 then float_of_int ok /. elapsed_s else 0.0);
    r_duration_s = cfg.duration_s;
    r_elapsed_s = elapsed_s;
    r_sent = sent;
    r_ok = ok;
    r_shed = shed;
    r_deadline_expired = deadline;
    r_failed = failed;
    r_transport = transport;
    r_timed = timed;
    r_p50_ms = p h_latency 50.0;
    r_p95_ms = p h_latency 95.0;
    r_p99_ms = p99_ms;
    r_p999_ms = p h_latency 99.9;
    r_max_ms = Obs.Histogram.max_value h_latency /. 1e3;
    r_queue_p50_ms = p h_queue 50.0;
    r_queue_p99_ms = p h_queue 99.0;
    r_service_p50_ms = p h_service 50.0;
    r_service_p99_ms = p h_service 99.0;
    r_network_p50_ms = p h_network 50.0;
    r_network_p99_ms = p h_network 99.0;
    r_shed_rate = shed_rate;
    r_deadline_rate = deadline_rate;
    r_conn_reuse = cfg.conn_reuse;
    r_conns = conns;
    r_connects = connects;
    r_reconnects = reconnects;
    r_connect_p50_ms = p h_connect 50.0;
    r_connect_p99_ms = p h_connect 99.0;
    r_remainder_clamped = remainder_clamped;
    r_slo_p99_ms = cfg.slo_p99_ms;
    r_slo_shed_rate = cfg.slo_shed_rate;
    r_slo_deadline_rate = cfg.slo_deadline_rate;
    r_slo_violations = slo_check cfg ~p99_ms ~shed_rate ~deadline_rate;
    r_runtime = [];
  }

(* --- daemon runtime telemetry, bracketing the run ------------------------- *)

(* Scrape /snapshot before and after the run and difference the
   runtime.* counters: what the daemon's GC did *during* this load, not
   since boot. Gauges and histogram percentiles are read from the after
   side (cumulative, but the pause histogram only ever grows under
   load). Everything degrades to an empty list — an old daemon or one
   with metrics off just yields no runtime keys. *)
let scrape_snapshot cfg =
  match Serve.http_get ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port "/snapshot" with
  | Ok (200, body) -> (
    match Obs.snapshot_of_json body with Ok snap -> Some snap | Error _ -> None)
  | Ok _ | Error _ -> None

let runtime_keys ~before ~after r =
  match (before, after) with
  | Some (b : Obs.snapshot), Some (a : Obs.snapshot) ->
    let counter (s : Obs.snapshot) name =
      match List.assoc_opt name s.Obs.counters with Some v -> float_of_int v | None -> 0.0
    in
    let dc name = Float.max 0.0 (counter a name -. counter b name) in
    let minor = dc "runtime.gc.minor_collections" in
    let major = dc "runtime.gc.major_collections" in
    let cycles = dc "runtime.gc.major_cycles" in
    let alloc_words = dc "runtime.gc.minor_words" +. dc "runtime.gc.major_words" in
    let alloc_mb = alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6 in
    let served_mb = dc "serve.bytes_out" /. 1e6 in
    let per_req v = if r.r_ok > 0 then v /. float_of_int r.r_ok else 0.0 in
    let pause_p99 =
      match
        List.find_opt
          (fun (h : Obs.histogram_stats) -> h.Obs.hs_name = Ccomp_obs.Runtime.major_pause_histogram_name)
          a.Obs.histograms
      with
      | Some h -> [ ("runtime.gc_major_pause_p99_us", h.Obs.hs_p99) ]
      | None -> []
    in
    [
      ("runtime.minor_collections", minor);
      ("runtime.major_collections", major);
      ("runtime.major_cycles", cycles);
      ("runtime.alloc_mb", alloc_mb);
      ("runtime.alloc_kb_per_req", per_req (alloc_mb *. 1e3));
      ("runtime.minor_collections_per_req", per_req minor);
      ("runtime.gc_pauses_per_mb", (if served_mb > 0.0 then cycles /. served_mb else 0.0));
    ]
    @ pause_p99
  | _ -> []

(* --- the run ------------------------------------------------------------- *)

let arrivals_to_string = function Poisson -> "poisson" | Uniform -> "uniform"

let arrivals_of_string = function
  | "poisson" -> Some Poisson
  | "uniform" -> Some Uniform
  | _ -> None

let run cfg =
  match Serve.http_get ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port "/healthz" with
  | Error e -> Error (Printf.sprintf "daemon not reachable at %s:%d: %s" cfg.host cfg.port e)
  | Ok (st, _) when st <> 200 ->
    Error (Printf.sprintf "daemon unhealthy at %s:%d: /healthz returned %d" cfg.host cfg.port st)
  | Ok _ -> (
    (* module-global histograms would otherwise accumulate across runs —
       a ramp's probes must each measure only their own traffic *)
    Obs.Histogram.reset h_latency;
    Obs.Histogram.reset h_queue;
    Obs.Histogram.reset h_service;
    Obs.Histogram.reset h_network;
    Obs.Histogram.reset h_connect;
    let sched =
      schedule ~arrivals:cfg.arrivals ~rate_rps:cfg.rate_rps ~duration_s:cfg.duration_s
        ~seed:cfg.seed
    in
    let n = Array.length sched in
    if n = 0 then Error "empty schedule: rate * duration yields no requests"
    else if cfg.mix_compress + cfg.mix_decompress + cfg.mix_ping <= 0 then
      Error "job mix has zero total weight"
    else
      (* Fixed payloads, built once: a compress body of [payload_bytes]
         seeded random code, and its compressed image for decompress
         jobs (via the same dispatch the daemon uses, so the job is
         guaranteed well-formed). *)
      let g0 = Prng.create (Int64.of_int cfg.seed) in
      let code =
        String.init (max 4 cfg.payload_bytes) (fun _ -> Char.chr (Prng.int g0 256))
      in
      let compress_req =
        Serve.Compress { algo = cfg.algo; isa = cfg.isa; block_size = cfg.block_size; code }
      in
      match Serve.handle_request ~jobs:1 compress_req with
      | exception e -> Error ("cannot build decompress payload: " ^ Printexc.to_string e)
      | Serve.Failed e -> Error ("cannot build decompress payload: " ^ e)
      | Serve.Overloaded e | Serve.Deadline_expired e ->
        Error ("cannot build decompress payload: " ^ e)
      | Serve.Payload image ->
        let mix =
          [|
            (cfg.mix_compress, compress_req);
            (cfg.mix_decompress, Serve.Decompress image);
            (cfg.mix_ping, Serve.Ping);
          |]
        in
        let results = Array.make n None in
        let next = Atomic.make 0 in
        let connects = Atomic.make 0 in
        let reconnects = Atomic.make 0 in
        let senders = max 1 cfg.senders in
        (* connection slots per sender: [--conns] is the fleet-wide
           total, floored at one per sender; without reuse the slot is
           torn down after every request (the pre-v4 behaviour, kept
           measurable for the on/off comparison) *)
        let per_sender = if cfg.conns <= 0 then 1 else max 1 (cfg.conns / senders) in
        let rt_before = scrape_snapshot cfg in
        (* small lead so request 0 is not born late *)
        let start_us = Obs.now_us () +. 50_000.0 in
        let sender () =
          let slots = Array.make per_sender None in
          let drop j =
            (match slots.(j) with Some c -> Serve.Conn.close c | None -> ());
            slots.(j) <- None
          in
          let conn j =
            match slots.(j) with
            | Some c when Serve.Conn.is_alive c -> Ok c
            | _ ->
              drop j;
              (match
                 Serve.Conn.connect ~timeout_s:cfg.timeout_s ~host:cfg.host ~port:cfg.port ()
               with
              | Error e -> Error e
              | Ok c ->
                Atomic.incr connects;
                Obs.Histogram.observe h_connect (Serve.Conn.connect_us c);
                slots.(j) <- Some c;
                Ok c)
          in
          (* one transparent retry on [Stale]: the server closing
             between frames (idle or recycle) means the request was
             never read, so resending on a fresh connection is safe *)
          let submit_framed j ~request_id req =
            match conn j with
            | Error e -> Error e
            | Ok c -> (
              match Serve.Conn.submit_timed ~deadline_ms:cfg.deadline_ms ~request_id c req with
              | Ok v -> Ok v
              | Error (Serve.Conn.Stale _) -> (
                drop j;
                Atomic.incr reconnects;
                match conn j with
                | Error e -> Error e
                | Ok c2 -> (
                  match
                    Serve.Conn.submit_timed ~deadline_ms:cfg.deadline_ms ~request_id c2 req
                  with
                  | Ok v -> Ok v
                  | Error e ->
                    drop j;
                    Error (Serve.Conn.error_message e)))
              | Error e ->
                drop j;
                Error (Serve.Conn.error_message e))
          in
          let k = ref 0 in
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (* request identity is a function of (seed, i) alone, so
                 the traffic is identical however senders interleave *)
              let g = Prng.create (Int64.of_int ((cfg.seed * 1_000_003) + i + 1)) in
              let req = Prng.weighted g mix in
              let sched_us = start_us +. (sched.(i) *. 1e6) in
              let rec wait () =
                let now = Obs.now_us () in
                if now < sched_us then begin
                  Unix.sleepf (Float.min 0.05 ((sched_us -. now) /. 1e6));
                  wait ()
                end
              in
              wait ();
              let send_us = Obs.now_us () in
              let j = !k mod per_sender in
              incr k;
              let res = submit_framed j ~request_id:(Int64.of_int (i + 1)) req in
              if not cfg.conn_reuse then drop j;
              let done_us = Obs.now_us () in
              let outcome, timing =
                match res with
                | Ok (Serve.Payload _, t) -> (Ok_reply, t)
                | Ok (Serve.Overloaded _, t) -> (Shed, t)
                | Ok (Serve.Deadline_expired _, t) -> (Deadline, t)
                | Ok (Serve.Failed _, t) -> (Job_failed, t)
                | Error _ -> (Transport, None)
              in
              (* index-owned slot: no two senders share an i *)
              results.(i) <-
                Some
                  {
                    s_outcome = outcome;
                    s_corrected_us = done_us -. sched_us;
                    s_naive_us = done_us -. send_us;
                    s_timing = timing;
                  };
              loop ()
            end
          in
          loop ();
          Array.iteri (fun j _ -> drop j) slots
        in
        let domains = Array.init senders (fun _ -> Domain.spawn (fun () -> sender ())) in
        Array.iter Domain.join domains;
        let elapsed_s = (Obs.now_us () -. start_us) /. 1e6 in
        let remainder_clamped = ref 0 in
        Array.iter
          (fun s ->
            match s with
            | Some { s_outcome = Ok_reply; s_corrected_us; s_timing; _ } -> (
              Obs.Histogram.observe h_latency (Float.max 0.0 s_corrected_us);
              match s_timing with
              | None -> ()
              | Some t ->
                Obs.Histogram.observe h_queue (float_of_int t.Serve.t_queue_us);
                Obs.Histogram.observe h_service (float_of_int t.Serve.t_service_us);
                (* the server excludes its reply write from server_us, so
                   this floor under-counts the network by at most that;
                   clock skew can push it below zero — clamp and count
                   rather than let a negative poison the percentiles *)
                let remainder = s_corrected_us -. float_of_int t.Serve.t_server_us in
                if remainder < 0.0 then incr remainder_clamped;
                Obs.Histogram.observe h_network (Float.max 0.0 remainder))
            | _ -> ())
          results;
        let rt_after = scrape_snapshot cfg in
        let report =
          aggregate
            ~conns:(per_sender * senders)
            ~connects:(Atomic.get connects) ~reconnects:(Atomic.get reconnects)
            ~remainder_clamped:!remainder_clamped cfg ~n ~elapsed_s results
        in
        let report =
          { report with r_runtime = runtime_keys ~before:rt_before ~after:rt_after report }
        in
        Events.info
          ~fields:
            [
              ("sent", string_of_int report.r_sent);
              ("ok", string_of_int report.r_ok);
              ("p99_ms", Printf.sprintf "%.2f" report.r_p99_ms);
            ]
          "loadgen.done";
        Ok report)

(* --- ramp: binary-search the SLO knee ------------------------------------- *)

(* Find the highest offered rate the daemon can carry within its
   declared SLOs: confirm [low] passes and [high] fails, then bisect.
   Each probe is a full open-loop run at [cfg.duration_s]; the returned
   report is the last *passing* probe (the measurement at capacity) and
   [capacity_rps] is its offered rate — 0 with the failing low report
   when even [low] violates the SLO. *)
let ramp ?(low = 25.0) ?(high = 2000.0) ?(iters = 5) ?(progress = fun _ -> ()) cfg =
  if cfg.slo_p99_ms = None && cfg.slo_shed_rate = None && cfg.slo_deadline_rate = None then
    Error "ramp needs a declared SLO (--slo-p99-ms, --slo-shed-rate or --slo-deadline-rate)"
  else if not (low > 0.0 && high > low) then
    Error (Printf.sprintf "ramp bounds must satisfy 0 < low < high (got %g, %g)" low high)
  else
    let probe rate =
      match run { cfg with rate_rps = rate } with
      | Error e -> Error e
      | Ok r ->
        let pass = r.r_slo_violations = [] in
        progress
          (Printf.sprintf "ramp: %7.1f rps -> p99 %.2f ms, shed %.4f: %s" rate r.r_p99_ms
             r.r_shed_rate
             (if pass then "PASS" else "FAIL (" ^ String.concat "; " r.r_slo_violations ^ ")"));
        Ok (pass, r)
    in
    let ( let* ) = Result.bind in
    let* low_pass, low_r = probe low in
    if not low_pass then Ok (low_r, 0.0)
    else
      let* high_pass, high_r = probe high in
      if high_pass then Ok (high_r, high)
      else
        let rec bisect k lo lo_r hi =
          if k <= 0 then Ok (lo_r, lo)
          else
            let mid = (lo +. hi) /. 2.0 in
            let* pass, r = probe mid in
            if pass then bisect (k - 1) mid r hi else bisect (k - 1) lo lo_r mid
        in
        bisect iters low low_r high

(* --- rendering ----------------------------------------------------------- *)

let render cfg r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "loadgen: %s arrivals, %.1f rps offered for %.1fs (seed %d, %d senders)"
    (arrivals_to_string cfg.arrivals)
    r.r_offered_rps r.r_duration_s cfg.seed (max 1 cfg.senders);
  line "  sent %d: ok %d, shed %d, deadline-expired %d, failed %d, transport errors %d"
    r.r_sent r.r_ok r.r_shed r.r_deadline_expired r.r_failed r.r_transport;
  line "  achieved %.1f rps over %.1fs wall clock" r.r_achieved_rps r.r_elapsed_s;
  line "  latency (from scheduled send — coordinated-omission safe):";
  line "    p50 %8.2f ms   p95 %8.2f ms   p99 %8.2f ms   p99.9 %8.2f ms   max %8.2f ms"
    r.r_p50_ms r.r_p95_ms r.r_p99_ms r.r_p999_ms r.r_max_ms;
  if r.r_timed > 0 then begin
    line "  server-side split (%d replies carried timing):" r.r_timed;
    line "    queue   p50 %8.2f ms   p99 %8.2f ms" r.r_queue_p50_ms r.r_queue_p99_ms;
    line "    service p50 %8.2f ms   p99 %8.2f ms" r.r_service_p50_ms r.r_service_p99_ms;
    line "    network p50 %8.2f ms   p99 %8.2f ms" r.r_network_p50_ms r.r_network_p99_ms
  end;
  line "  shed rate %.4f, deadline-expired rate %.4f" r.r_shed_rate r.r_deadline_rate;
  line "  connections: reuse %s, %d slots, %d connects (%d reconnects), connect p50 %.2f ms p99 %.2f ms"
    (if r.r_conn_reuse then "on" else "off")
    r.r_conns r.r_connects r.r_reconnects r.r_connect_p50_ms r.r_connect_p99_ms;
  if r.r_remainder_clamped > 0 then
    line "  network remainder clamped to 0 on %d replies (clock skew vs echoed server_us)"
      r.r_remainder_clamped;
  (match r.r_runtime with
  | [] -> ()
  | keys ->
    let get k = List.assoc_opt k keys in
    (match (get "runtime.alloc_kb_per_req", get "runtime.minor_collections") with
    | Some kb, Some minor ->
      line "  daemon runtime: %.1f KB allocated/request, %.0f minor + %.0f major collections"
        kb minor
        (match get "runtime.major_collections" with Some v -> v | None -> 0.0)
    | _ -> ());
    match (get "runtime.gc_pauses_per_mb", get "runtime.gc_major_pause_p99_us") with
    | Some per_mb, Some p99 ->
      line "  daemon GC: %.3f major cycles/MB served, pause p99 %.0f us" per_mb p99
    | Some per_mb, None -> line "  daemon GC: %.3f major cycles/MB served" per_mb
    | _ -> ());
  (match (r.r_slo_p99_ms, r.r_slo_shed_rate, r.r_slo_deadline_rate) with
  | None, None, None -> ()
  | _ ->
    if r.r_slo_violations = [] then line "  SLOs: all within bounds"
    else List.iter (fun v -> line "  SLO VIOLATION: %s" v) r.r_slo_violations);
  Buffer.contents b

(* --- JSON report --------------------------------------------------------- *)

let json_keys r =
  let base =
    [
      ("loadgen.offered_rps", r.r_offered_rps);
      ("loadgen.achieved_rps", r.r_achieved_rps);
      ("loadgen.duration_s", r.r_duration_s);
      ("loadgen.elapsed_s", r.r_elapsed_s);
      ("loadgen.sent", float_of_int r.r_sent);
      ("loadgen.ok", float_of_int r.r_ok);
      ("loadgen.shed", float_of_int r.r_shed);
      ("loadgen.deadline_expired", float_of_int r.r_deadline_expired);
      ("loadgen.failed", float_of_int r.r_failed);
      ("loadgen.transport_errors", float_of_int r.r_transport);
      ("loadgen.timed", float_of_int r.r_timed);
      ("loadgen.p50_ms", r.r_p50_ms);
      ("loadgen.p95_ms", r.r_p95_ms);
      ("loadgen.p99_ms", r.r_p99_ms);
      ("loadgen.p999_ms", r.r_p999_ms);
      ("loadgen.max_ms", r.r_max_ms);
      ("loadgen.queue_p50_ms", r.r_queue_p50_ms);
      ("loadgen.queue_p99_ms", r.r_queue_p99_ms);
      ("loadgen.service_p50_ms", r.r_service_p50_ms);
      ("loadgen.service_p99_ms", r.r_service_p99_ms);
      ("loadgen.network_p50_ms", r.r_network_p50_ms);
      ("loadgen.network_p99_ms", r.r_network_p99_ms);
      ("loadgen.shed_rate", r.r_shed_rate);
      ("loadgen.deadline_rate", r.r_deadline_rate);
      ("loadgen.conn_reuse", if r.r_conn_reuse then 1.0 else 0.0);
      ("loadgen.conns", float_of_int r.r_conns);
      ("loadgen.connects", float_of_int r.r_connects);
      ("loadgen.reconnects", float_of_int r.r_reconnects);
      ("loadgen.connect_p50_ms", r.r_connect_p50_ms);
      ("loadgen.connect_p99_ms", r.r_connect_p99_ms);
      ("loadgen.remainder_clamped", float_of_int r.r_remainder_clamped);
      ("loadgen.slo_violations", float_of_int (List.length r.r_slo_violations));
    ]
  in
  let opt key v = match v with None -> [] | Some x -> [ (key, x) ] in
  base
  @ opt "loadgen.slo_p99_ms" r.r_slo_p99_ms
  @ opt "loadgen.slo_shed_rate" r.r_slo_shed_rate
  @ opt "loadgen.slo_deadline_rate" r.r_slo_deadline_rate
  @ r.r_runtime

(* Flat, one key per line, so the shell gates can read it with awk. *)
let emit_json ?(extra = []) ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\n  \"schema\": \"ccomp-bench-v1\",\n";
      output_string oc
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "  %S: %.3f" k v) (json_keys r @ extra)));
      output_string oc "\n}\n")

(* --- pure replay, for property tests ------------------------------------- *)

module For_tests = struct
  (* Single-sender simulation of the measurement model: requests go out
     in schedule order, the "server" takes service.(i) seconds each,
     back-to-back. Returns (corrected, naive) latency pairs — corrected
     charges queueing behind a stalled predecessor, naive hides it. *)
  let replay ~scheduled ~service =
    let t = ref 0.0 in
    Array.mapi
      (fun i sched ->
        let send = Float.max sched !t in
        let fin = send +. service.(i) in
        t := fin;
        (fin -. sched, fin -. send))
      scheduled
end
