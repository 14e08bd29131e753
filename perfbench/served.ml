(* [serve]: a [ccomp serve] child with its defaults (2 workers, --jobs 1,
   its own OCAMLRUNPARAM re-exec), driven by this one process in a
   closed loop over [conns] persistent CCQ1 connections. A round is the
   seeded job sequence of [Inputs.serve_jobs]: 4 decompress ops per
   compress op, every (program, ISA, codec) alike, on the embedded
   programs. Framing, admission, worker scheduling and daemon GC share
   the work with the codecs, and compress and decompress interleave on
   one daemon heap. *)

module Serve = Ccomp_serve.Serve
module Obs = Ccomp_obs.Obs
module I = Inputs

(* One connection, although the host has two cores: with two, the
   client and both daemon workers kept both cores busy, and on a shared
   virtual machine a quarter of that CPU time was stolen by the
   hypervisor, which spread run-to-run throughput by over 60%. One
   connection keeps the closed loop within [nproc], with both op kinds
   on one daemon heap. *)
let conns = 1

let host = "127.0.0.1"

(* --- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; port : int; log : string }

let live : daemon option ref = ref None

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  (try Sys.remove d.log with Sys_error _ -> ());
  live := None

let () = at_exit (fun () -> Option.iter stop !live)

let find_sub s key =
  let n = String.length s and m = String.length key in
  let rec go i = if i + m > n then None else if String.sub s i m = key then Some i else go (i + 1) in
  go 0

let listening_port log =
  let s = Measure.read_file log in
  let key = "listening on " ^ host ^ ":" in
  match find_sub s key with
  | None -> None
  | Some i ->
    let j = i + String.length key in
    let k = ref j in
    while !k < String.length s && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
    if !k > j && !k < String.length s then Some (int_of_string (String.sub s j (!k - j))) else None

let spawn ccomp =
  (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let log = Printf.sprintf ".bench_out/serve-%d.log" (Unix.getpid ()) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process ccomp [| ccomp; "serve"; "--port"; "0" |] Unix.stdin fd fd)
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_port () =
    match listening_port log with
    | Some port -> port
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("serve: daemon exited during start-up: " ^ Measure.read_file log));
      if Unix.gettimeofday () > deadline then failwith "serve: daemon did not report its port";
      Unix.sleepf 0.002;
      wait_port ()
  in
  let d = { pid; port = 0; log } in
  live := Some d;
  let d = { d with port = wait_port () } in
  live := Some d;
  let rec healthy () =
    match Serve.http_get ~timeout_s:5.0 ~host ~port:d.port "/healthz" with
    | Ok (200, _) -> ()
    | _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      healthy ()
    | _ -> failwith "serve: /healthz never answered 200"
  in
  healthy ();
  d

let connect d =
  match Serve.Conn.connect ~timeout_s:30.0 ~host ~port:d.port () with
  | Ok c -> c
  | Error e -> failwith ("serve: connect: " ^ e)

(* --- jobs and their offline oracles ------------------------------------- *)

type prepared = {
  request : Serve.request;
  expect : string;  (** the offline [handle_request] reply *)
  orig : int;  (** bytes of the program's code *)
}

(* Best offline time of each distinct job over the setup repetitions. *)
let offline_s : (int * Serve.isa * Serve.algo * I.kind, float) Hashtbl.t = Hashtbl.create 64

let key (j : I.job) = (j.prog, j.isa, j.algo, j.kind)

let offline req =
  let t0 = Measure.now_ns () in
  match Serve.handle_request ~jobs:1 req with
  | Serve.Payload p -> (p, Measure.secs_since t0)
  | _ -> failwith "serve setup: offline job failed"

let prepare programs =
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun prog p ->
      List.iter
        (fun isa ->
          let code = match isa with Serve.Mips -> I.mips_code p | Serve.X86 -> I.x86_code p in
          List.iter
            (fun algo ->
              let creq = Serve.Compress { algo; isa; block_size = 32; code } in
              let image, tc = offline creq in
              let dreq = Serve.Decompress image in
              let back, td = offline dreq in
              if back <> code then failwith "serve setup: offline round trip differs";
              List.iter
                (fun (kind, req, expect, t) ->
                  let k = (prog, isa, algo, kind) in
                  Hashtbl.replace table k { request = req; expect; orig = String.length code };
                  let best = Option.value (Hashtbl.find_opt offline_s k) ~default:infinity in
                  Hashtbl.replace offline_s k (Float.min best t))
                [ (I.Compress, creq, image, tc); (I.Decompress, dreq, code, td) ])
            [ Serve.Samc; Serve.Sadc ])
        [ Serve.Mips; Serve.X86 ])
    programs;
  table

(* --- a round ------------------------------------------------------------ *)

type op = {
  mutable lat_us : float;  (** client-side, around [submit_timed] *)
  mutable timing : Serve.timing option;
  mutable ok : bool;  (** an ok reply equal to the offline oracle *)
}

type daemon_delta = { cpu_s : float; before : Obs.snapshot; after : Obs.snapshot }

type round = { ops : op array; wall_s : float; client_cpu_s : float; daemon : daemon_delta option }

(* Each connection's domain takes the next job until the round is done.
   A connection that fails is replaced; its op counts as failed. *)
let drive d cs (jobs : I.job array) table ~traced ~base_id =
  let n = Array.length jobs in
  let ops = Array.init n (fun _ -> { lat_us = 0.0; timing = None; ok = false }) in
  let replies = Array.make n None in
  let next = Atomic.make 0 in
  let worker i () =
    let rec loop () =
      let j = Atomic.fetch_and_add next 1 in
      if j < n then begin
        let job = jobs.(j) in
        let request = (Hashtbl.find table (key job)).request in
        let request_id = Int64.of_int (base_id + j + 1) in
        let submit () =
          let t0 = Measure.now_ns () in
          let r = Serve.Conn.submit_timed ~request_id cs.(i) request in
          ops.(j).lat_us <- float_of_int (Measure.now_ns () - t0) /. 1e3;
          r
        in
        (match
           if traced then
             Obs.with_span ~cat:(Printf.sprintf "request_id=%Ld" request_id)
               ("serve." ^ I.population job) submit
           else submit ()
         with
        | Ok (resp, timing) ->
          ops.(j).timing <- timing;
          replies.(j) <- Some resp
        | Error _ ->
          Serve.Conn.close cs.(i);
          cs.(i) <- connect d);
        loop ()
      end
    in
    loop ()
  in
  let t0 = Measure.now_ns () in
  Array.iter Domain.join (Array.init (Array.length cs) (fun i -> Domain.spawn (worker i)));
  let wall_s = Measure.secs_since t0 in
  (* the oracle check, after the clock stops *)
  Array.iteri
    (fun j r ->
      ops.(j).ok <-
        (match r with
        | Some (Serve.Payload b) -> b = (Hashtbl.find table (key jobs.(j))).expect
        | _ -> false))
    replies;
  (ops, wall_s)

let snapshot d =
  match Serve.http_get ~timeout_s:30.0 ~host ~port:d.port "/snapshot" with
  | Ok (200, body) -> (
    match Obs.snapshot_of_json body with Ok s -> s | Error e -> failwith ("serve: /snapshot: " ^ e))
  | _ -> failwith "serve: /snapshot failed"

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A traced round also brackets the daemon's GC counters and CPU time,
   outside the ops' clock. *)
let round d cs jobs table ~traced ~base_id =
  let before = if traced then Some (snapshot d, Measure.cpu_s d.pid) else None in
  let c0 = client_cpu () in
  let ops, wall_s = drive d cs jobs table ~traced ~base_id in
  let client_cpu_s = client_cpu () -. c0 in
  let daemon =
    Option.map
      (fun (b, cpu0) -> { cpu_s = Measure.cpu_s d.pid -. cpu0; before = b; after = snapshot d })
      before
  in
  { ops; wall_s; client_cpu_s; daemon }

(* --- setup -------------------------------------------------------------- *)

type ready = {
  d : daemon;
  cs : Serve.Conn.t array;
  programs : I.program array;
  table : (int * Serve.isa * Serve.algo * I.kind, prepared) Hashtbl.t;
  jobs : I.job array;
}

let setup ~ccomp ~seed () =
  let programs = I.generate ~x86:true ~seed Ccomp_progen.Profile.embedded in
  let table = prepare programs in
  let jobs = I.serve_jobs ~seed ~programs:(Array.length programs) () in
  (match I.check_mix ~expected_s:(fun j -> Hashtbl.find offline_s (key j)) jobs with
  | Ok () -> ()
  | Error e -> failwith ("serve setup: refusing the job mix: " ^ e));
  let d = spawn ccomp in
  let cs = Array.init conns (fun _ -> connect d) in
  (* warm-up: every distinct job once *)
  let distinct = Hashtbl.fold (fun (prog, isa, algo, kind) _ acc -> { I.prog; isa; algo; kind } :: acc) table [] in
  let warm, _ = drive d cs (Array.of_list (List.sort compare distinct)) table ~traced:false ~base_id:0 in
  if not (Array.for_all (fun o -> o.ok) warm) then failwith "serve setup: warm-up replies differ from the oracle";
  { d; cs; programs; table; jobs }

let teardown r =
  Array.iter Serve.Conn.close r.cs;
  stop r.d

(* --- the run ------------------------------------------------------------ *)

let counter (s : Obs.snapshot) name =
  match List.assoc_opt name s.Obs.counters with Some v -> float_of_int v | None -> 0.0

(* The static codec-layer metrics of the offline images. *)
let image_facts table algo =
  Hashtbl.fold
    (fun ((_, _, a, kind) : _ * _ * _ * I.kind) p acc ->
      if a <> algo || kind <> I.Compress then acc
      else
        match Ccomp_image.Image.read p.expect with
        | Ok img -> Rom.add_facts acc (Rom.facts_of ~orig:p.orig img)
        | Error e -> failwith ("serve: offline image: " ^ e))
    table Rom.no_facts

let run ~ccomp ~seed ~seconds ~trace ~since =
  let r, setup_s = Measure.repeat_setup ~since ~discard:teardown (setup ~ccomp ~seed) in
  let progen = Spans.setup_layers () in
  let per_round = Array.length r.jobs in
  let count = ref 0 in
  let rs =
    Spans.rounds ~seconds ~trace (fun ~traced ->
        incr count;
        round r.d r.cs r.jobs r.table ~traced ~base_id:(!count * per_round))
  in
  let peak_rss = Measure.peak_rss_mb (string_of_int r.d.pid) in
  let daemon_env = Measure.environ_var r.d.pid "OCAMLRUNPARAM" in
  teardown r;
  let values l = List.map (fun (x : _ Spans.round) -> x.value) l in
  let all = values rs and plain = values (Spans.untraced rs) in
  let ops_of l = List.concat_map (fun x -> Array.to_list (Array.mapi (fun j o -> (r.jobs.(j), o)) x.ops)) l in
  let attempted = List.length (ops_of all) in
  let failed = List.length (List.filter (fun (_, o) -> not o.ok) (ops_of all)) in
  let codecs = [ Serve.Samc; Serve.Sadc ] in
  let e2e =
    let ops = ops_of plain in
    let ok = List.length (List.filter (fun (_, o) -> o.ok) ops) in
    let of_pop algo kind = List.filter (fun ((j : I.job), _) -> j.algo = algo && j.kind = kind) ops in
    (* original bytes through a population over its summed latency *)
    let mbps pop =
      let bytes = List.fold_left (fun a (j, _) -> a + (Hashtbl.find r.table (key j)).orig) 0 pop in
      float_of_int bytes /. Measure.sum (List.map (fun (_, o) -> o.lat_us) pop)
    in
    Report.m "setup_s" "s" setup_s
    :: Report.m "peak_rss_mb" "MB" peak_rss
    :: Report.m "ops_per_s" "1/s" (float_of_int ok /. Measure.sum (List.map (fun x -> x.wall_s) plain))
    :: List.concat_map
         (fun algo ->
           let c = I.algo_name algo in
           let f = image_facts r.table algo in
           let rom =
             Hashtbl.fold
               (fun ((_, _, a, kind) : _ * _ * _ * I.kind) p acc ->
                 if a = algo && kind = I.Compress then acc + String.length p.expect else acc)
               r.table 0
           in
           let dec = of_pop algo I.Decompress in
           let lat = Measure.sorted_floats (List.map (fun (_, o) -> o.lat_us) dec) in
           [
             Report.m (c ^ ".compress_mbps") "MB/s" (mbps (of_pop algo I.Compress));
             Report.m (c ^ ".decompress_mbps") "MB/s" (mbps dec);
             Report.m (c ^ ".rom_ratio") "ratio" (float_of_int rom /. float_of_int f.Rom.orig);
             Report.m (c ^ ".decompress_p50_us") "us" (Measure.percentile_sorted lat 0.5);
             Report.m (c ^ ".decompress_tail_us") "us" (Measure.percentile_sorted lat 0.99);
           ])
         codecs
  in
  let layer () =
    let traced = values (Spans.traced rs) in
    let timed =
      List.filter_map (fun ((j : I.job), o) -> Option.map (fun t -> (j, o, t)) o.timing) (ops_of traced)
    in
    let n_ops = float_of_int (List.length (ops_of traced)) in
    let mean l = Measure.sum l /. float_of_int (List.length l) in
    (* the daemon's echoed service time: the codec job itself *)
    let service algo kind =
      mean
        (List.filter_map
           (fun ((j : I.job), _, t) ->
             if j.algo = algo && j.kind = kind then Some (float_of_int t.Serve.t_service_us) else None)
           timed)
    in
    let deltas = List.filter_map (fun x -> x.daemon) traced in
    let dsum name = Measure.sum (List.map (fun dd -> counter dd.after name -. counter dd.before name) deltas) in
    let alloc_words = dsum "runtime.gc.minor_words" +. dsum "runtime.gc.major_words" in
    let med_wall l = Measure.median (List.map (fun x -> x.wall_s) l) in
    let u = med_wall plain in
    [ Report.m "trace_overhead_pct" "%" (100.0 *. (med_wall traced -. u) /. u) ]
    @ progen
    @ [
        Report.m "samc.compress_us_per_op" "us" (service Serve.Samc I.Compress);
        Report.m "sadc.compress_us_per_op" "us" (service Serve.Sadc I.Compress);
        Report.m "samc.decode_us_per_op" "us" (service Serve.Samc I.Decompress);
        Report.m "sadc.decode_us_per_op" "us" (service Serve.Sadc I.Decompress);
        Report.m "outside_codec_us_per_op" "us"
          (mean (List.map (fun (_, o, t) -> o.lat_us -. float_of_int t.Serve.t_service_us) timed));
      ]
    @ Rom.codec_layers ~samc:(image_facts r.table Serve.Samc) ~sadc:(image_facts r.table Serve.Sadc)
    @ [
        (* the daemon is the process doing the codec work *)
        Report.m "alloc_kb_per_op" "KB" (alloc_words *. float_of_int (Sys.word_size / 8) /. 1024.0 /. n_ops);
        Report.m "gc.minor_collections_per_op" "count" (dsum "runtime.gc.minor_collections" /. n_ops);
        Report.m "gc.major_collections_per_op" "count" (dsum "runtime.gc.major_collections" /. n_ops);
        Report.m "cpu_ms_per_op" "ms" (1e3 *. Measure.sum (List.map (fun dd -> dd.cpu_s) deltas) /. n_ops);
      ]
  in
  let count_of p = Array.fold_left (fun a j -> if I.population j = p then a + 1 else a) 0 r.jobs in
  let bytes_of code = Array.fold_left (fun a p -> a + String.length (code p)) 0 r.programs in
  let facts =
    [
      ("daemon_OCAMLRUNPARAM", match daemon_env with Some v -> Report.str v | None -> "null");
      ("daemon", Report.str "ccomp serve --port 0 (2 workers, --jobs 1)");
      ("client", Report.str (Printf.sprintf "closed loop, %d persistent connection(s), one process" conns));
      ("programs", string_of_int (Array.length r.programs));
      ("mips_bytes", string_of_int (bytes_of I.mips_code));
      ("x86_bytes", string_of_int (bytes_of I.x86_code));
      ("ops_per_round", string_of_int per_round);
      ( "ops_per_round_by_kind",
        Report.obj
          (List.map
             (fun p -> (p, string_of_int (count_of p)))
             [ "samc.compress"; "sadc.compress"; "samc.decompress"; "sadc.decompress" ]) );
      ("samples", string_of_int (List.length (ops_of plain)));
      ("rounds", string_of_int (List.length rs));
    ]
  in
  {
    Report.attempted;
    failed;
    correct = failed = 0;
    e2e;
    layer = (if trace then layer () else []);
    facts;
  }
