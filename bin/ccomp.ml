(* ccomp — command-line driver for the code-compression toolkit.

   Subcommands:
     generate    build a synthetic SPEC95-profile benchmark image
     compress    compress a raw code image into a SECF container
     decompress  expand a SECF container back to raw code
     info        describe a SECF container
     ratios      compare all algorithms on one image
     simulate    run the compressed-memory-system model on a profile
                 (optionally with refill faults: --fault-rate/--fault-response)
     fuzz        fault-injection campaign over every decoder
     verify      differential testing of every redundant-implementation
                 pair, plus golden-corpus format-drift checks
     stats       render a --metrics JSON snapshot as a report
                 (--diff BASELINE: per-metric deltas between snapshots)
     asm         assemble MIPS text into a raw code image
     disasm      disassemble a raw code image
     serve       compression daemon: binary job protocol + HTTP
                 /metrics (OpenMetrics), /healthz, /events, /snapshot
     submit      send one compress/decompress job to a daemon
     scrape      GET an HTTP path from a daemon (e.g. /metrics)
     top         live terminal dashboard over a daemon's /snapshot
     chaos       seeded socket-level chaos campaign against a daemon:
                 slowloris, truncation, resets, overload floods —
                 asserts liveness, typed sheds, byte-identical jobs
     loadgen     seeded open-loop traffic generator: CO-safe latency
                 percentiles, shed/deadline rates, server-side
                 queue/service/network split, gated --slo-* bounds

   compress, decompress, simulate and fuzz accept --metrics FILE (write
   the lib/obs metrics snapshot as JSON), --trace FILE (write a Chrome
   trace_event array of spans, viewable in Perfetto) and --events FILE
   (stream the structured event log as JSON lines); all three are
   flushed on abnormal exits too (Ctrl-C, faults, decode errors).
   Argument errors are uniform across subcommands: a bad flag or flag
   value names the offender and prints the subcommand's usage line. *)

open Cmdliner
module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events
module Image = Ccomp_image.Image
module Paper = Ccomp_paper.Paper
module Serve = Ccomp_serve.Serve
module Top = Ccomp_serve.Top
module Latency = Ccomp_serve.Latency
module Loadgen = Ccomp_serve.Loadgen
module Slow = Ccomp_serve.Slow

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

(* --- shared arguments ------------------------------------------------ *)

let isa_conv =
  let parse s =
    match Image.isa_of_name s with
    | Some isa -> Ok isa
    | None -> Error (`Msg (Printf.sprintf "unknown ISA %S (expected mips or x86)" s))
  in
  let print fmt isa = Format.pp_print_string fmt (Image.isa_name isa) in
  Arg.conv (parse, print)

let isa_arg =
  Arg.(value & opt isa_conv Image.Mips & info [ "isa" ] ~docv:"ISA" ~doc:"Target ISA: mips or x86.")

(* Profiles are validated at parse time, so `--profile bogus` fails
   before any work starts, names the flag and prints usage — the same
   contract every other flag has. *)
let profile_conv =
  let parse s =
    match Ccomp_progen.Profile.find s with
    | p -> Ok p
    | exception Not_found ->
      Error
        (`Msg
          (Printf.sprintf "unknown profile %S; available: %s" s
             (String.concat ", " (Ccomp_progen.Profile.names ()))))
  in
  let print fmt p = Format.pp_print_string fmt p.Ccomp_progen.Profile.name in
  Arg.conv (parse, print)

let profile_arg =
  let doc = "SPEC95 benchmark profile name (e.g. gcc, go, swim)." in
  Arg.(
    value
    & opt profile_conv (Ccomp_progen.Profile.find "gcc")
    & info [ "profile" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Program size scale factor.")

let block_size_arg =
  Arg.(value & opt int 32 & info [ "block-size" ] ~docv:"BYTES" ~doc:"Cache block size in bytes.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains for per-block parallel work (1 = serial, 0 = one per core). Output is \
           byte-identical for every value.")

let resolve_jobs n = if n <= 0 then Ccomp_par.Pool.default_jobs () else n

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Print per-phase wall-clock time and throughput.")

(* Per-phase timing for --verbose: wall-clock plus MB/s over the phase's
   input bytes. The clock is an obs span, so under --trace each phase
   also shows up as a slice in the trace viewer. *)
(* [bytes] maps the phase's result to the byte count its throughput is
   quoted over (input size, output size, ... — whichever the phase is
   conventionally measured in). *)
let phase ~verbose ~bytes name f =
  Events.debug ~fields:[ ("phase", name); ("transition", "begin") ] "ccomp.phase";
  let result, dt = Obs.timed ~cat:"phase" name f in
  Events.info
    ~fields:[ ("phase", name); ("transition", "end"); ("seconds", Printf.sprintf "%.6f" dt) ]
    "ccomp.phase";
  if verbose then begin
    let n = bytes result in
    let mbs = if dt > 0.0 then float_of_int n /. 1e6 /. dt else Float.infinity in
    Printf.printf "  %-12s %8.3fs  %8.1f MB/s  (%d bytes)\n%!" name dt mbs n
  end;
  result

(* --metrics/--trace plumbing shared by the workload subcommands:
   switch the requested observation on before the body runs and write
   the outputs afterwards even if the body fails — a failing run's
   partial telemetry is often the interesting part. *)
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc:"Write a metrics snapshot (JSON) to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write recorded spans to $(docv) as a Chrome trace_event JSON array (load in \
           chrome://tracing or Perfetto).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Stream the structured event log (faults, CRC failures, phase transitions) to $(docv) \
           as JSON lines, flushed per event.")

(* The finally-block runs on every exit path: clean completion, a typed
   decode error, a fault-abort exception, and — because main installs
   Sys.catch_break plus a SIGTERM handler that raises — an interrupt.
   A crashed run still leaves its telemetry behind. *)
let with_obs ?(events = None) ~metrics ~trace f =
  Obs.reset ();
  Events.clear ();
  Obs.set_metrics (metrics <> None);
  Obs.set_tracing (trace <> None);
  (match events with
  | Some path ->
    Events.set_enabled true;
    Events.set_sink (Some path)
  | None -> ());
  let finish () =
    (match metrics with
    | Some path ->
      Obs.write_metrics path;
      Printf.printf "wrote %s: metrics snapshot\n%!" path
    | None -> ());
    (match trace with
    | Some path ->
      Obs.write_trace path;
      Printf.printf "wrote %s: %d trace events\n%!" path (Obs.event_count ())
    | None -> ());
    (match events with
    | Some path ->
      Events.set_sink None;
      Printf.printf "wrote %s: %d events\n%!" path (Events.total ());
      Events.set_enabled false
    | None -> ());
    Obs.set_metrics false;
    Obs.set_tracing false
  in
  Fun.protect ~finally:finish f

let layout isa prog =
  match isa with
  | Image.Mips -> snd (Ccomp_progen.Mips_backend.lower prog)
  | Image.X86 -> snd (Ccomp_progen.X86_backend.lower prog)

let lower isa prog = (layout isa prog).Ccomp_progen.Layout.code

(* --- generate --------------------------------------------------------- *)

let generate_cmd =
  let run profile isa seed scale output =
    let prog = Ccomp_progen.Generator.generate ~scale ~seed:(Int64.of_int seed) profile in
    let code = lower isa prog in
    let path =
      match output with
      | Some p -> p
      | None ->
        Printf.sprintf "%s.%s.bin" profile.Ccomp_progen.Profile.name (Image.isa_name isa)
    in
    write_file path code;
    Printf.printf "wrote %s: %d bytes of %s code\n" path (String.length code)
      (match isa with Image.Mips -> "MIPS" | Image.X86 -> "x86");
    `Ok ()
  in
  let term = Term.(ret (const run $ profile_arg $ isa_arg $ seed_arg $ scale_arg $ output_arg)) in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic benchmark code image.") term

(* --- compress ---------------------------------------------------------- *)

let algo_arg =
  let doc = "Compression algorithm: $(docv) is samc or sadc." in
  let algos = List.map (fun a -> (Image.algo_name a, a)) [ Image.Samc; Image.Sadc ] in
  Arg.(value & opt (enum algos) Image.Samc & info [ "algo" ] ~docv:"ALGO" ~doc)

let quantize_arg =
  Arg.(value & flag & info [ "quantize" ] ~doc:"SAMC: power-of-two probabilities (shift-only).")

let prune_arg =
  Arg.(value & opt int 0 & info [ "prune" ] ~docv:"N"
         ~doc:"SAMC: prune Markov nodes seen fewer than N times.")

let context_arg =
  Arg.(value & opt int 2 & info [ "context-bits" ] ~docv:"N" ~doc:"SAMC connected-tree context bits.")

let compress_cmd =
  let run algo isa block_size context_bits quantize prune_below jobs verbose metrics trace events
      input output =
    let jobs = resolve_jobs jobs in
    with_obs ~events ~metrics ~trace @@ fun () ->
    let code = phase ~verbose ~bytes:String.length "read" (fun () -> read_file input) in
    let bytes = String.length code in
    let compress_phase = phase ~verbose ~bytes:(fun _ -> bytes) "compress" in
    let image =
      compress_phase (fun () ->
          Image.compress ~jobs ~context_bits ~quantize ~prune_below ~algo ~isa ~block_size code)
    in
    let path = match output with Some p -> p | None -> input ^ ".secf" in
    let written = Image.write image in
    phase ~verbose ~bytes:(fun () -> String.length written) "write" (fun () ->
        write_file path written);
    Printf.printf "%s\n" (Image.describe image);
    Printf.printf "wrote %s: %d bytes total (original %d)\n" path (String.length written)
      (String.length code);
    `Ok ()
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let term =
    Term.(
      ret
        (const run $ algo_arg $ isa_arg $ block_size_arg $ context_arg $ quantize_arg $ prune_arg
       $ jobs_arg $ verbose_arg $ metrics_arg $ trace_out_arg $ events_arg $ input $ output_arg))
  in
  Cmd.v (Cmd.info "compress" ~doc:"Compress a raw code image into a SECF container.") term

(* --- decompress -------------------------------------------------------- *)

(* A bad image is bad input, not a bad command line: exit 1 like a
   refused decode, not cmdliner's usage-error 124. *)
let unreadable_image e =
  prerr_endline ("ccomp: cannot read image: " ^ e);
  exit 1

let decompress_cmd =
  let run jobs verbose metrics trace events input output =
    let jobs = resolve_jobs jobs in
    let outcome =
      with_obs ~events ~metrics ~trace @@ fun () ->
      let data = phase ~verbose ~bytes:String.length "read" (fun () -> read_file input) in
      match
        phase ~verbose ~bytes:(fun _ -> String.length data) "parse" (fun () ->
            Image.read data)
      with
      | Error e -> `Unreadable e
      | Ok image -> (
        (* decompress throughput is conventionally over output bytes *)
        match
          phase ~verbose ~bytes:(function Ok code -> String.length code | Error _ -> 0)
            "decompress" (fun () ->
              Ccomp_util.Decode_error.protect ~section:"image" (fun () ->
                  Image.decompress ~jobs image))
        with
        | Error e -> `Undecodable e
        | Ok code ->
          let path = match output with Some p -> p | None -> input ^ ".out" in
          phase ~verbose ~bytes:(fun () -> String.length code) "write" (fun () ->
              write_file path code);
          Printf.printf "wrote %s: %d bytes\n" path (String.length code);
          `Ok ())
    in
    match outcome with
    | `Unreadable e -> unreadable_image e
    | `Undecodable e ->
      prerr_endline ("ccomp: cannot decompress image: " ^ Ccomp_util.Decode_error.to_string e);
      exit 1
    | `Ok () -> `Ok ()
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let term =
    Term.(
      ret
        (const run $ jobs_arg $ verbose_arg $ metrics_arg $ trace_out_arg $ events_arg $ input
       $ output_arg))
  in
  Cmd.v (Cmd.info "decompress" ~doc:"Expand a SECF container back to raw code.") term

(* --- info ---------------------------------------------------------------- *)

let info_cmd =
  let run input =
    match Image.read (read_file input) with
    | Error e -> unreadable_image e
    | Ok image ->
      print_endline (Image.describe image);
      (match image.Image.payload with
      | Image.Sadc_mips z ->
        let st = Ccomp_core.Sadc.Mips.stats z in
        Printf.printf
          "dictionary: %d entries (%d base, %d groups, %d specialised), longest group %d, %d rounds\n"
          st.entries st.base_entries st.group_entries st.specialized_entries st.longest_group
          st.rounds
      | Image.Sadc_x86 z ->
        let st = Ccomp_core.Sadc.X86.stats z in
        Printf.printf
          "dictionary: %d entries (%d base, %d groups, %d specialised), longest group %d, %d rounds\n"
          st.entries st.base_entries st.group_entries st.specialized_entries st.longest_group
          st.rounds
      | Image.Samc z ->
        let m = z.Ccomp_core.Samc.model in
        Printf.printf "markov model: %d probabilities, %d context(s), %d bytes\n"
          (Ccomp_core.Markov_model.probability_count m)
          (Ccomp_core.Markov_model.contexts m)
          (Ccomp_core.Markov_model.storage_bytes m));
      Printf.printf "LAT: %d entries, %d bytes\n"
        (Ccomp_memsys.Lat.entries image.Image.lat)
        (Ccomp_memsys.Lat.storage_bytes image.Image.lat);
      `Ok ()
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  Cmd.v (Cmd.info "info" ~doc:"Describe a SECF container.") Term.(ret (const run $ input))

(* --- ratios ----------------------------------------------------------- *)

let ratios_cmd =
  let run isa block_size input =
    let { Paper.lzw; gzip; huffman; samc; sadc } =
      Paper.ratios ~block_size ~isa (read_file input)
    in
    Printf.printf "%-10s %8s %8s %8s %8s %8s\n" "file" "compress" "gzip" "huffman" "samc" "sadc";
    Printf.printf "%-10s %8.3f %8.3f %8.3f %8.3f %8.3f\n" (Filename.basename input) lzw gzip huffman
      samc sadc;
    `Ok ()
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let term = Term.(ret (const run $ isa_arg $ block_size_arg $ input)) in
  Cmd.v (Cmd.info "ratios" ~doc:"Compare compression ratios of all algorithms on one image.") term

(* --- fuzz -------------------------------------------------------------- *)

(* Fault kinds are validated at parse time like every other flag value:
   `--kinds flip,bogus` names the bad kind and prints usage before any
   codec is built. *)
let kind_names =
  [
    ("flip", Ccomp_fault.Injector.Flip);
    ("byte", Ccomp_fault.Injector.Byte);
    ("trunc", Ccomp_fault.Injector.Trunc);
    ("dup", Ccomp_fault.Injector.Dup);
  ]

let kinds_conv =
  let parse s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun k -> k <> "")
    in
    let rec go acc = function
      | [] ->
        let kinds = Array.of_list (List.rev acc) in
        Ok (if Array.length kinds = 0 then [| Ccomp_fault.Injector.Flip |] else kinds)
      | k :: rest -> (
        match List.assoc_opt k kind_names with
        | Some v -> go (v :: acc) rest
        | None ->
          Error
            (`Msg (Printf.sprintf "unknown fault kind %S (expected flip|byte|trunc|dup)" k)))
    in
    go [] parts
  in
  let print fmt kinds =
    let name v = fst (List.find (fun (_, v') -> v' = v) kind_names) in
    Format.pp_print_string fmt (String.concat "," (List.map name (Array.to_list kinds)))
  in
  Arg.conv (parse, print)

let fuzz_cmd =
  let run profile seed trials faults kinds scale jobs metrics trace events =
    let jobs = resolve_jobs jobs in
    with_obs ~events ~metrics ~trace @@ fun () ->
    let prog = Ccomp_progen.Generator.generate ~scale ~seed:(Int64.of_int seed) profile in
    let mips = lower Image.Mips prog and x86 = lower Image.X86 prog in
    let image = Ccomp_fault.Campaign.image_codec in
    let max_output = String.length mips in
    let baseline name encoded decode =
      {
        Ccomp_fault.Campaign.name;
        encoded;
        reference = mips;
        decode = (fun s -> Ccomp_util.Decode_error.protect ~section:name (fun () -> decode s));
        integrity_checked = false;
      }
    in
    let codecs =
      [
        image ~algo:Image.Samc ~isa:Image.Mips mips;
        image ~algo:Image.Samc ~isa:Image.X86 x86;
        image ~algo:Image.Sadc ~isa:Image.Mips mips;
        image ~algo:Image.Sadc ~isa:Image.X86 x86;
        baseline "byte-huffman"
          Ccomp_baselines.Byte_huffman.(serialize (compress mips))
          (fun s ->
            let z, _ = Ccomp_baselines.Byte_huffman.deserialize s ~pos:0 in
            Ccomp_baselines.Byte_huffman.decompress ~max_output z);
        baseline "lzw" (Ccomp_baselines.Lzw.compress mips)
          (Ccomp_baselines.Lzw.decompress ~max_output);
        baseline "lzss" (Ccomp_baselines.Lzss.compress mips)
          (Ccomp_baselines.Lzss.decompress ~max_output);
      ]
    in
    print_endline Ccomp_fault.Campaign.report_header;
    let reports =
      List.map
        (fun codec ->
          let r =
            Ccomp_fault.Campaign.run ~faults_per_trial:faults ~kinds ~jobs ~seed ~trials codec
          in
          print_endline (Ccomp_fault.Campaign.report_row r);
          r)
        codecs
    in
    let bad =
      List.filter
        (fun r ->
          r.Ccomp_fault.Campaign.integrity_checked && r.Ccomp_fault.Campaign.miscompared > 0)
        reports
    in
    if bad = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "silent miscompares on integrity-checked codecs: %s"
            (String.concat ", " (List.map (fun r -> r.Ccomp_fault.Campaign.codec_name) bad)) )
  in
  let trials_arg =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"N" ~doc:"Fault-injection trials per codec.")
  in
  let faults_arg =
    Arg.(value & opt int 1 & info [ "faults" ] ~docv:"N" ~doc:"Faults injected per trial.")
  in
  let kinds_arg =
    Arg.(
      value
      & opt kinds_conv [| Ccomp_fault.Injector.Flip |]
      & info [ "kinds" ] ~docv:"LIST" ~doc:"Comma-separated fault kinds: flip,byte,trunc,dup.")
  in
  let fuzz_scale_arg =
    Arg.(value & opt float 0.25 & info [ "scale" ] ~docv:"S" ~doc:"Program size scale factor.")
  in
  let term =
    Term.(
      ret
        (const run $ profile_arg $ seed_arg $ trials_arg $ faults_arg $ kinds_arg $ fuzz_scale_arg
       $ jobs_arg $ metrics_arg $ trace_out_arg $ events_arg))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Inject storage faults into compressed images and check every decoder fails closed \
          (exit 1 on any silent miscompare of an integrity-checked codec).")
    term

(* --- simulate ---------------------------------------------------------- *)

let simulate_cmd =
  let run profile isa seed cache_bytes trace_length decode_cache fault_rate response trap_cycles
      flip_back fault_seed metrics trace_out events =
    with_obs ~events ~metrics ~trace:trace_out @@ fun () ->
      let prog = Ccomp_progen.Generator.generate ~seed:(Int64.of_int seed) profile in
      let layout = layout isa prog in
      let trace =
        Ccomp_progen.Trace.generate prog layout ~seed:(Int64.of_int (seed + 1)) ~length:trace_length
      in
      let lat =
        (Image.compress ~algo:Image.Samc ~isa ~block_size:32 layout.Ccomp_progen.Layout.code)
          .Image.lat
      in
      let base =
        Ccomp_memsys.System.run (Ccomp_memsys.System.default_config ~cache_bytes ()) ~trace ()
      in
      let comp =
        Ccomp_memsys.System.run
          (Ccomp_memsys.System.default_config ~cache_bytes
             ~decompressor:Ccomp_memsys.System.samc_decompressor
             ~decode_cache_entries:decode_cache ())
          ~lat ~trace ()
      in
      Printf.printf "profile %s on %s: %d fetches, cache %d bytes\n"
        profile.Ccomp_progen.Profile.name (Image.isa_name isa) (Array.length trace) cache_bytes;
      Printf.printf "  uncompressed: CPI %.3f, hit ratio %.4f\n" base.Ccomp_memsys.System.cpi
        base.Ccomp_memsys.System.hit_ratio;
      Printf.printf "  samc:         CPI %.3f, CLB misses %d, slowdown %.3f\n"
        comp.Ccomp_memsys.System.cpi comp.Ccomp_memsys.System.clb_misses
        (Ccomp_memsys.System.slowdown ~compressed:comp ~uncompressed:base);
      if decode_cache > 0 then
        Printf.printf "  decode cache: %d entries, %d hits / %d misses (%.1f%% of refills decode-free)\n"
          decode_cache comp.Ccomp_memsys.System.decode_cache_hits
          comp.Ccomp_memsys.System.decode_cache_misses
          (let h = comp.Ccomp_memsys.System.decode_cache_hits
           and m = comp.Ccomp_memsys.System.decode_cache_misses in
           if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m));
      if fault_rate > 0.0 then begin
        let fault =
          {
            Ccomp_memsys.System.default_fault_config with
            fault_rate;
            response;
            trap_cycles;
            flip_back;
            fault_seed;
          }
        in
        let faulty =
          Ccomp_memsys.System.run
            (Ccomp_memsys.System.default_config ~cache_bytes
               ~decompressor:Ccomp_memsys.System.samc_decompressor ~fault ())
            ~lat ~trace ()
        in
        Printf.printf
          "  samc+faults:  CPI %.3f, slowdown %.3f (rate %g, %s)\n"
          faulty.Ccomp_memsys.System.cpi
          (Ccomp_memsys.System.slowdown ~compressed:faulty ~uncompressed:base)
          fault_rate
          (match response with
          | Ccomp_memsys.System.Retry n -> Printf.sprintf "retry:%d" n
          | Ccomp_memsys.System.Trap -> "trap"
          | Ccomp_memsys.System.Stale -> "stale");
        Printf.printf
          "                faults %d, retries %d, traps %d, stale lines %d, undetected %d\n"
          faulty.Ccomp_memsys.System.faults_injected faulty.Ccomp_memsys.System.fault_retries
          faulty.Ccomp_memsys.System.fault_traps faulty.Ccomp_memsys.System.stale_lines
          faulty.Ccomp_memsys.System.undetected_faults
      end;
      `Ok ()
  in
  let cache_arg =
    Arg.(value & opt int 8192 & info [ "cache" ] ~docv:"BYTES" ~doc:"I-cache size in bytes.")
  in
  let trace_arg =
    Arg.(value & opt int 500000 & info [ "trace-length" ] ~docv:"N" ~doc:"Fetches to simulate.")
  in
  let decode_cache_arg =
    Arg.(
      value & opt int 0
      & info [ "decode-cache" ] ~docv:"N"
          ~doc:
            "Decoded-block LRU entries in the refill engine (0 = off): repeated misses to a \
             recently decoded block skip re-decompression.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P" ~doc:"Probability a refill's decode is faulty (0 = off).")
  in
  let fault_response_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "trap" ] -> Ok Ccomp_memsys.System.Trap
      | [ "stale" ] -> Ok Ccomp_memsys.System.Stale
      | [ "retry"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Ok (Ccomp_memsys.System.Retry n)
        | _ -> Error (`Msg (Printf.sprintf "bad retry budget %S" n)))
      | _ -> Error (`Msg (Printf.sprintf "unknown fault response %S (retry:N|trap|stale)" s))
    in
    let print fmt r =
      Format.pp_print_string fmt
        (match r with
        | Ccomp_memsys.System.Retry n -> Printf.sprintf "retry:%d" n
        | Ccomp_memsys.System.Trap -> "trap"
        | Ccomp_memsys.System.Stale -> "stale")
    in
    Arg.conv (parse, print)
  in
  let fault_response_arg =
    Arg.(
      value
      & opt fault_response_conv (Ccomp_memsys.System.Retry 3)
      & info [ "fault-response" ] ~docv:"R" ~doc:"Refill fault response: retry:N, trap or stale.")
  in
  let trap_cycles_arg =
    Arg.(value & opt int 200 & info [ "trap-cycles" ] ~docv:"N" ~doc:"Trap handler cost in cycles.")
  in
  let flip_back_arg =
    Arg.(
      value & opt float 0.5
      & info [ "flip-back" ] ~docv:"P" ~doc:"Probability one retry of a transient fault succeeds.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-injection PRNG seed.")
  in
  let term =
    Term.(
      ret
        (const run $ profile_arg $ isa_arg $ seed_arg $ cache_arg $ trace_arg $ decode_cache_arg
       $ fault_rate_arg $ fault_response_arg $ trap_cycles_arg $ flip_back_arg $ fault_seed_arg
       $ metrics_arg $ trace_out_arg $ events_arg))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the compressed-memory-system model on a profile.") term

(* --- stats -------------------------------------------------------------- *)

(* Per-metric deltas between two snapshot files: `stats --diff A.json
   B.json` prints B relative to A (before/after runs). Union of names;
   metrics present on only one side show up with a one-sided value. *)
let render_diff (a : Obs.snapshot) (b : Obs.snapshot) =
  let buf = Buffer.create 1024 in
  let union names_a names_b =
    List.sort_uniq compare (List.map fst names_a @ List.map fst names_b)
  in
  let counters = union a.Obs.counters b.Obs.counters in
  if counters <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "counters:\n  %-44s %14s %14s %14s\n" "" "before" "after" "delta");
    List.iter
      (fun name ->
        let va = Option.value ~default:0 (List.assoc_opt name a.Obs.counters) in
        let vb = Option.value ~default:0 (List.assoc_opt name b.Obs.counters) in
        if va <> 0 || vb <> 0 then
          Buffer.add_string buf (Printf.sprintf "  %-44s %14d %14d %+14d\n" name va vb (vb - va)))
      counters
  end;
  let gauges = union a.Obs.gauges b.Obs.gauges in
  if gauges <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "gauges:\n  %-44s %14s %14s %14s\n" "" "before" "after" "delta");
    List.iter
      (fun name ->
        let va = Option.value ~default:0.0 (List.assoc_opt name a.Obs.gauges) in
        let vb = Option.value ~default:0.0 (List.assoc_opt name b.Obs.gauges) in
        Buffer.add_string buf
          (Printf.sprintf "  %-44s %14.4g %14.4g %+14.4g\n" name va vb (vb -. va)))
      gauges
  end;
  let hist_names =
    List.sort_uniq compare
      (List.map (fun (h : Obs.histogram_stats) -> h.Obs.hs_name) a.Obs.histograms
      @ List.map (fun (h : Obs.histogram_stats) -> h.Obs.hs_name) b.Obs.histograms)
  in
  if hist_names <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "histograms:\n  %-34s %14s %14s %10s %10s\n" "" "Δcount" "Δsum" "p95 before"
         "p95 after");
    List.iter
      (fun name ->
        let find (s : Obs.snapshot) =
          List.find_opt (fun (h : Obs.histogram_stats) -> h.Obs.hs_name = name) s.Obs.histograms
        in
        let ca, sa, pa =
          match find a with Some h -> (h.Obs.hs_count, h.Obs.hs_sum, h.Obs.hs_p95) | None -> (0, 0.0, 0.0)
        in
        let cb, sb, pb =
          match find b with Some h -> (h.Obs.hs_count, h.Obs.hs_sum, h.Obs.hs_p95) | None -> (0, 0.0, 0.0)
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-34s %+14d %+14.4g %10.4g %10.4g\n" name (cb - ca) (sb -. sa) pa pb))
      hist_names
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "no metrics in either snapshot\n";
  Buffer.contents buf

let host_arg =
  Arg.(
    value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind/connect.")

let port_arg ~default =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (serve: 0 = ephemeral).")

let timeout_arg =
  Arg.(
    value & opt float 10.0
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Connect/read/write budget — a dead or wedged daemon errors instead of hanging.")

let stats_cmd =
  let run json diff slow host port timeout n input =
    let load path =
      match Obs.snapshot_of_json (read_file path) with
      | Error e -> Error (Printf.sprintf "cannot read %s: %s" path e)
      | Ok snap -> Ok snap
    in
    if slow then begin
      (* live mode: pull the daemon's tail-sampled slow-request ring *)
      match
        Serve.http_get ~timeout_s:timeout ~host ~port (Printf.sprintf "/slow?n=%d" (max 1 n))
      with
      | Error e -> `Error (false, "stats --slow: " ^ e)
      | Ok (status, _) when status <> 200 ->
        `Error (false, Printf.sprintf "stats --slow: daemon answered HTTP %d" status)
      | Ok (_, body) -> (
        let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body) in
        let parsed = List.map Slow.of_json_line lines in
        match List.find_opt Result.is_error parsed with
        | Some (Error e) -> `Error (false, "stats --slow: bad record from daemon: " ^ e)
        | _ ->
          let records = List.filter_map Result.to_option parsed in
          if json then List.iter (fun r -> print_endline (Slow.to_json_line r)) records
          else print_string (Slow.render_table records);
          `Ok ())
    end
    else
      match input with
      | None ->
        `Error (true, "a METRICS.json argument is required (or use --slow against a daemon)")
      | Some input -> (
        match diff with
        | Some before_path -> (
          match (load before_path, load input) with
          | Error e, _ | _, Error e -> `Error (false, e)
          | Ok before, Ok after ->
            print_string (render_diff before after);
            `Ok ())
        | None -> (
          match load input with
          | Error e -> `Error (false, e)
          | Ok snap ->
            if json then print_string (Obs.snapshot_to_json snap)
            else begin
              print_string (Obs.render_table snap);
              (* "what dominates p99": stage attribution, when the snapshot
                 came from a daemon that recorded serve.stage.* *)
              match Latency.attribution snap with
              | None -> ()
              | Some report ->
                print_newline ();
                print_string (Latency.render report)
            end;
            `Ok ()))
  in
  let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"METRICS.json") in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Re-emit the snapshot as canonical JSON (with --slow: raw JSON lines).")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "diff" ] ~docv:"BASELINE.json"
          ~doc:
            "Print per-metric deltas of METRICS.json relative to $(docv) (before/after runs) \
             instead of a report.")
  in
  let slow_arg =
    Arg.(
      value & flag
      & info [ "slow" ]
          ~doc:
            "Fetch a running daemon's tail-sampled slow-request ring (GET /slow) and render the \
             per-stage split, GC deltas and queue depth of each sampled request.")
  in
  let slow_n_arg =
    Arg.(
      value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"With --slow: fetch at most $(docv) records.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render a --metrics JSON snapshot as a human-readable report, diff two snapshots, or \
          (--slow) fetch a daemon's slow-request samples.")
    Term.(
      ret
        (const run $ json_arg $ diff_arg $ slow_arg $ host_arg $ port_arg ~default:7070
       $ timeout_arg $ slow_n_arg $ input))

(* --- serve / submit / scrape / top -------------------------------------- *)

let serve_cmd =
  (* The daemon's codec jobs allocate megabytes of short-lived scratch
     per request; with the stock 256k-word nursery that churn is
     promoted into major-GC pauses that land straight in the latency
     tail. OCaml 5.1 fixes each domain's minor-heap size at process
     startup — [Gc.set] cannot grow it later — so the only way to serve
     with a bigger nursery is to enter the runtime with one: re-exec
     once with a tuned OCAMLRUNPARAM. An operator who set their own
     OCAMLRUNPARAM keeps it untouched. *)
  let retune_runtime () =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some _ -> ()
    | None -> (
      try
        Unix.putenv "OCAMLRUNPARAM" "s=4M,o=300";
        Unix.execv Sys.executable_name Sys.argv
      with Unix.Unix_error _ -> ())
  in
  let run host port jobs workers queue_cap max_requests idle_timeout io_timeout drain
      allow_crash slow_threshold slow_ring metrics trace events =
    retune_runtime ();
    let jobs = resolve_jobs jobs in
    with_obs ~events ~metrics ~trace @@ fun () ->
    (* the daemon IS the observability surface: metrics and the event
       ring are always live while it runs *)
    Obs.set_metrics true;
    Events.set_enabled true;
    let cfg =
      {
        Serve.host;
        port;
        jobs;
        workers = max 1 workers;
        queue_cap = max 1 queue_cap;
        max_requests_per_conn = max 0 max_requests;
        idle_timeout_s = idle_timeout;
        io_timeout_s = io_timeout;
        drain_s = drain;
        allow_crash_op = allow_crash;
        slow_threshold_ms = slow_threshold;
        slow_capacity = max 1 slow_ring;
      }
    in
    match
      Serve.run cfg ~on_ready:(fun p ->
          Printf.printf "ccomp serve: listening on %s:%d\n%!" host p)
    with
    | () -> `Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
      `Error (false, Printf.sprintf "serve: %s: %s" fn (Unix.error_message e))
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains, each running one select loop over the listener and the connections it \
             accepted (each job still fans out over --jobs).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Connections held per worker: the daemon holds at most --workers times $(docv), and \
             sheds accepts beyond that with a typed overload reply.")
  in
  let max_requests_arg =
    Arg.(
      value & opt int 0
      & info [ "max-requests-per-conn" ] ~docv:"N"
          ~doc:
            "Recycle a keep-alive connection after $(docv) frames (clients reconnect and resend; \
             0 = unbounded).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:"Close a connection that sends nothing for this long.")
  in
  let io_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "io-timeout" ] ~docv:"SECS"
          ~doc:"Budget for reading one request frame / writing one response (bounds slowloris peers).")
  in
  let drain_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain" ] ~docv:"SECS"
          ~doc:
            "On SIGTERM: serve already-readable frames for up to this long, then shed the rest \
             and exit.")
  in
  let crash_op_arg =
    Arg.(
      value & flag
      & info [ "unsafe-crash-op" ]
          ~doc:
            "Honour the crash-worker opcode (chaos testing: kills a worker domain to exercise \
             supervision). Never enable in production.")
  in
  let slow_threshold_arg =
    Arg.(
      value & opt float 100.0
      & info [ "slow-threshold-ms" ] ~docv:"MS"
          ~doc:
            "Tail-sample any request whose total latency reaches $(docv) into the /slow ring (0 = \
             sample every request); shed and deadline-expired outcomes are always sampled.")
  in
  let slow_ring_arg =
    Arg.(
      value & opt int 64
      & info [ "slow-ring" ] ~docv:"N"
          ~doc:"Capacity of the slow-request ring; overflow keeps the most recent records.")
  in
  let term =
    Term.(
      ret
        (const run $ host_arg $ port_arg ~default:7070 $ jobs_arg $ workers_arg $ queue_cap_arg
       $ max_requests_arg $ idle_timeout_arg $ io_timeout_arg $ drain_arg
       $ crash_op_arg $ slow_threshold_arg $ slow_ring_arg $ metrics_arg $ trace_out_arg
       $ events_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compression daemon: length-prefixed compress/decompress jobs (keep-alive: a \
          connection carries a sequence of frames) plus /metrics (OpenMetrics), /healthz, \
          /events, /snapshot and /slow over HTTP/1.0 on one port. Each worker domain runs one \
          select loop over the listener and the connections it owns. Overload-safe: a bounded \
          connection count with typed shed replies, per-request deadlines, per-connection i/o \
          budgets, graceful drain on SIGTERM, supervised workers. With metrics on, per-domain \
          GC/runtime telemetry lands in runtime.* and the slowest requests are tail-sampled with \
          per-stage GC deltas.")
    term

let submit_cmd =
  let run host port timeout deadline_ms retries op algo isa block_size input output =
    let data = read_file input in
    let req =
      match op with
      | "compress" ->
        Serve.Compress
          {
            algo;
            isa;
            block_size;
            code = data;
          }
      | "decompress" -> Serve.Decompress data
      | _ -> Serve.Ping
    in
    match Serve.request ~timeout_s:timeout ~deadline_ms ~retries ~host ~port req with
    | Error e -> `Error (false, "submit: " ^ e)
    | Ok payload ->
      let path =
        match output with
        | Some p -> p
        | None -> input ^ (if op = "compress" then ".secf" else ".out")
      in
      write_file path payload;
      Printf.printf "wrote %s: %d bytes (%s via %s:%d)\n" path (String.length payload) op host
        port;
      `Ok ()
  in
  let op_arg =
    Arg.(
      value
      & opt (enum [ ("compress", "compress"); ("decompress", "decompress") ]) "compress"
      & info [ "op" ] ~docv:"OP" ~doc:"Job type: compress or decompress.")
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let deadline_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline carried in the frame header; the daemon answers `deadline \
             expired' instead of finishing late work (0 = none).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry transport errors and typed overload replies with jittered backoff.")
  in
  let term =
    Term.(
      ret
        (const run $ host_arg $ port_arg ~default:7070 $ timeout_arg $ deadline_arg $ retries_arg
       $ op_arg $ algo_arg $ isa_arg $ block_size_arg $ input $ output_arg))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit one compress/decompress job to a running `ccomp serve` daemon.")
    term

let scrape_cmd =
  let run host port timeout target =
    match Serve.http_get ~timeout_s:timeout ~host ~port target with
    | Error e -> `Error (false, "scrape: " ^ e)
    | Ok (200, body) ->
      print_string body;
      `Ok ()
    | Ok (status, body) ->
      `Error (false, Printf.sprintf "scrape: HTTP %d from %s: %s" status target (String.trim body))
  in
  let target =
    Arg.(value & pos 0 string "/metrics" & info [] ~docv:"PATH" ~doc:"Endpoint path to fetch.")
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:"Fetch one HTTP endpoint (/metrics, /healthz, /events, /snapshot) from a daemon.")
    Term.(ret (const run $ host_arg $ port_arg ~default:7070 $ timeout_arg $ target))

let top_cmd =
  let run host port interval frames window plain timeout =
    match
      Top.run
        {
          Top.host;
          port;
          interval_s = interval;
          frames;
          window_s = window;
          plain;
          timeout_s = timeout;
        }
    with
    | Ok () -> `Ok ()
    | Error e -> `Error (false, "top: " ^ e)
  in
  let interval_arg =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between polls.")
  in
  let frames_arg =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N" ~doc:"Render N frames then exit (0 = run until q/Ctrl-C).")
  in
  let window_arg =
    Arg.(
      value & opt float 30.0 & info [ "window" ] ~docv:"SECS" ~doc:"Rolling-window length for rates.")
  in
  let plain_arg =
    Arg.(value & flag & info [ "plain" ] ~doc:"No screen clearing — append frames to stdout.")
  in
  let term =
    Term.(
      ret
        (const run $ host_arg $ port_arg ~default:7070 $ interval_arg $ frames_arg $ window_arg
       $ plain_arg $ timeout_arg))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running daemon: windowed rates, histogram percentiles and the \
          event tail.")
    term

let chaos_cmd =
  let run host port seed rounds flood stall timeout crash metrics events =
    with_obs ~events ~metrics ~trace:None @@ fun () ->
    Obs.set_metrics true;
    Events.set_enabled true;
    let cfg =
      {
        Ccomp_fault.Net_chaos.host;
        port;
        seed;
        rounds;
        flood;
        stall_s = Float.max 0.0 stall;
        timeout_s = timeout;
        crash_workers = crash;
      }
    in
    match Ccomp_fault.Net_chaos.run cfg with
    | Error e -> `Error (false, "chaos: " ^ e)
    | Ok report -> (
      List.iter print_endline (Ccomp_fault.Net_chaos.report_lines report);
      match Ccomp_fault.Net_chaos.passed cfg report with
      | Ok () ->
        Printf.printf "chaos: PASS (replay with --seed %d)\n" seed;
        `Ok ()
      | Error why -> `Error (false, "chaos: FAIL: " ^ why))
  in
  let rounds_arg =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Repetitions of the attack mix.")
  in
  let flood_arg =
    Arg.(
      value & opt int 0
      & info [ "flood" ] ~docv:"N"
          ~doc:
            "Hold N silent connections open per round to force connection-limit shedding (pick N > \
             workers * queue-cap; 0 = skip).")
  in
  let stall_arg =
    Arg.(
      value & opt float 0.0
      & info [ "stall" ] ~docv:"SECONDS"
          ~doc:
            "Once per round, answer one frame then go silent for SECONDS on the open \
             connection; the daemon must idle-close it. Pick a value above the daemon's \
             --idle-timeout (0 = skip).")
  in
  let crash_arg =
    Arg.(
      value & flag
      & info [ "crash-workers" ]
          ~doc:
            "Also send the crash-worker opcode (the daemon must be running with \
             --unsafe-crash-op) to exercise worker supervision.")
  in
  let term =
    Term.(
      ret
        (const run $ host_arg $ port_arg ~default:7070 $ seed_arg $ rounds_arg $ flood_arg
       $ stall_arg $ timeout_arg $ crash_arg $ metrics_arg $ events_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded socket-level chaos campaign against a live daemon: slowloris, mid-frame \
          truncation, connection churn, RST aborts, oversized frames, overload floods, deadline \
          probes, and keep-alive abuse (pipelined bursts with reply-order checks, torn frames \
          mid-stream, inter-frame stalls via --stall), with byte-identity checks on every \
          completed job. Exits \
          non-zero unless the daemon stays live and sheds with typed replies; any failure \
          replays from the printed seed.")
    term

let loadgen_cmd =
  let run host port rate duration arrivals seed senders conns no_reuse payload_bytes algo isa
      block_size deadline_ms timeout mix_compress mix_decompress mix_ping slo_p99 slo_shed
      slo_deadline ramp ramp_low ramp_high ramp_iters emit_json print_schedule metrics
      events =
    let arrivals =
      match Loadgen.arrivals_of_string arrivals with
      | Some a -> a
      | None -> Loadgen.Poisson (* unreachable: enum-checked by cmdliner *)
    in
    if print_schedule > 0 then begin
      (* schedule preview: deterministic, no daemon needed — what the
         shell smoke test uses to assert seeded replay *)
      let sched = Loadgen.schedule ~arrivals ~rate_rps:rate ~duration_s:duration ~seed in
      Array.iteri
        (fun i off -> if i < print_schedule then Printf.printf "%.6f\n" off)
        sched;
      `Ok ()
    end
    else begin
      with_obs ~events ~metrics ~trace:None @@ fun () ->
      Obs.set_metrics true;
      Events.set_enabled true;
      let cfg =
        {
          Loadgen.host;
          port;
          rate_rps = rate;
          duration_s = duration;
          arrivals;
          seed;
          senders;
          conns;
          conn_reuse = not no_reuse;
          payload_bytes;
          algo;
          isa;
          block_size;
          deadline_ms;
          timeout_s = timeout;
          mix_compress;
          mix_decompress;
          mix_ping;
          slo_p99_ms = slo_p99;
          slo_shed_rate = slo_shed;
          slo_deadline_rate = slo_deadline;
        }
      in
      let result =
        if ramp then
          (* ramp mode: failing probes are the search mechanism, not a
             CLI failure — only "couldn't search at all" is an error *)
          Result.map
            (fun (report, capacity) -> (report, [ ("loadgen.capacity_rps", capacity) ]))
            (Loadgen.ramp ~low:ramp_low ~high:ramp_high ~iters:ramp_iters
               ~progress:print_endline cfg)
        else Result.map (fun report -> (report, [])) (Loadgen.run cfg)
      in
      match result with
      | Error e -> `Error (false, "loadgen: " ^ e)
      | Ok (report, extra) -> (
        print_string (Loadgen.render cfg report);
        List.iter (fun (k, v) -> Printf.printf "  %s = %.1f\n" k v) extra;
        (match emit_json with
        | Some path ->
          Loadgen.emit_json ~extra ~path report;
          Printf.printf "wrote %s\n" path
        | None -> ());
        if (not ramp) && report.Loadgen.r_slo_violations <> [] then
          `Error
            (false, "loadgen: SLO violated: " ^ String.concat "; " report.Loadgen.r_slo_violations)
        else `Ok ())
    end
  in
  let rate_arg =
    Arg.(
      value & opt float 50.0
      & info [ "rate" ] ~docv:"RPS" ~doc:"Offered arrival rate, requests per second (open loop).")
  in
  let duration_arg =
    Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"SECS" ~doc:"Schedule horizon.")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt (enum [ ("poisson", "poisson"); ("uniform", "uniform") ]) "poisson"
      & info [ "arrivals" ] ~docv:"KIND"
          ~doc:"Arrival process: seeded poisson (exponential inter-arrivals) or uniform.")
  in
  let senders_arg =
    Arg.(
      value & opt int 4
      & info [ "senders" ] ~docv:"N" ~doc:"Concurrent sender domains pulling from one schedule.")
  in
  let conns_arg =
    Arg.(
      value & opt int 0
      & info [ "conns" ] ~docv:"N"
          ~doc:
            "Persistent connection slots fleet-wide, spread over --senders (0 = one per sender); \
             each sender round-robins its share per request.")
  in
  let no_reuse_arg =
    Arg.(
      value & flag
      & info [ "no-reuse" ]
          ~doc:
            "Tear the connection down after every request (the pre-keep-alive behaviour) instead \
             of reusing it — for measuring what connection reuse buys.")
  in
  let payload_arg =
    Arg.(
      value & opt int 4096
      & info [ "payload-bytes" ] ~docv:"BYTES" ~doc:"Compress-job body size (seeded random code).")
  in
  let deadline_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline in the frame header (0 = none).")
  in
  let mix_arg name ~default what =
    Arg.(
      value & opt int default
      & info [ "mix-" ^ name ] ~docv:"W" ~doc:(Printf.sprintf "Job-mix weight for %s." what))
  in
  let slo_arg name docv what =
    Arg.(
      value
      & opt (some float) None
      & info [ name ] ~docv
          ~doc:(Printf.sprintf "Declared SLO: fail (exit non-zero) when %s exceeds this." what))
  in
  let ramp_arg =
    Arg.(
      value & flag
      & info [ "ramp" ]
          ~doc:
            "Binary-search the offered rate for the daemon's SLO capacity instead of one run: \
             probe --ramp-low and --ramp-high, bisect --ramp-iters times, report the highest \
             passing rate as loadgen.capacity_rps. Requires a declared --slo-* bound; failing \
             probes are part of the search and do not fail the command.")
  in
  let ramp_low_arg =
    Arg.(
      value & opt float 25.0
      & info [ "ramp-low" ] ~docv:"RPS" ~doc:"Ramp lower bound (must pass the SLO).")
  in
  let ramp_high_arg =
    Arg.(
      value & opt float 2000.0
      & info [ "ramp-high" ] ~docv:"RPS" ~doc:"Ramp upper bound (expected to trip the SLO).")
  in
  let ramp_iters_arg =
    Arg.(
      value & opt int 5
      & info [ "ramp-iters" ] ~docv:"N" ~doc:"Bisection steps between the ramp bounds.")
  in
  let emit_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-json" ] ~docv:"FILE"
          ~doc:"Write the report as flat JSON, one loadgen.* key per line.")
  in
  let print_schedule_arg =
    Arg.(
      value & opt int 0
      & info [ "print-schedule" ] ~docv:"N"
          ~doc:
            "Print the first N arrival offsets (seconds) and exit without contacting a daemon — \
             the schedule is a pure function of --arrivals/--rate/--duration/--seed.")
  in
  let term =
    Term.(
      ret
        (const run $ host_arg $ port_arg ~default:7070 $ rate_arg $ duration_arg $ arrivals_arg
       $ seed_arg $ senders_arg $ conns_arg $ no_reuse_arg $ payload_arg $ algo_arg $ isa_arg
       $ block_size_arg $ deadline_arg $ timeout_arg
       $ mix_arg "compress" ~default:1 "compress jobs"
       $ mix_arg "decompress" ~default:1 "decompress jobs"
       $ mix_arg "ping" ~default:2 "ping jobs"
       $ slo_arg "slo-p99-ms" "MS" "the corrected p99 latency (ms)"
       $ slo_arg "slo-shed-rate" "RATE" "the shed fraction of sent requests"
       $ slo_arg "slo-deadline-rate" "RATE" "the deadline-expired fraction of sent requests"
       $ ramp_arg $ ramp_low_arg $ ramp_high_arg $ ramp_iters_arg $ emit_json_arg
       $ print_schedule_arg $ metrics_arg $ events_arg))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Generate seeded open-loop traffic against a running daemon and report \
          coordinated-omission-safe latency percentiles (p50/p95/p99/p99.9), throughput, shed and \
          deadline-expired rates, the server-side queue/service/network split from per-request \
          wire timing, and the daemon's runtime.* GC telemetry bracketing the run. Declared \
          --slo-* bounds turn violations into a non-zero exit; --ramp binary-searches the offered \
          rate for the SLO capacity instead.")
    term

(* --- asm / disasm ------------------------------------------------------- *)

let asm_cmd =
  let run input output =
    match Ccomp_isa.Mips_asm.parse_program (read_file input) with
    | Error e -> `Error (false, e)
    | Ok instrs ->
      let code = Ccomp_isa.Mips.encode_program instrs in
      let path = match output with Some p -> p | None -> input ^ ".bin" in
      write_file path code;
      Printf.printf "assembled %d instructions (%d bytes) into %s\n" (List.length instrs)
        (String.length code) path;
      `Ok ()
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.S") in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble MIPS text into a raw code image.")
    Term.(ret (const run $ input $ output_arg))

let disasm_cmd =
  let run isa input =
    let code = read_file input in
    match isa with
    | Image.Mips ->
      if String.length code mod 4 <> 0 then `Error (false, "image size not a multiple of 4")
      else begin
        let decoded = Ccomp_isa.Mips.decode_program code in
        Array.iteri
          (fun k d ->
            match d with
            | Some i ->
              Printf.printf "%08x:  %08x  %s\n" (4 * k) (Ccomp_isa.Mips.encode i)
                (Ccomp_isa.Mips.to_string i)
            | None -> Printf.printf "%08x:  <undecodable>\n" (4 * k))
          decoded;
        `Ok ()
      end
    | Image.X86 -> (
      match Ccomp_isa.X86.decode_program code with
      | None -> `Error (false, "image does not decode as x86")
      | Some instrs ->
        let addr = ref 0 in
        List.iter
          (fun i ->
            Printf.printf "%08x:  %s\n" !addr (Ccomp_isa.X86.to_string i);
            addr := !addr + Ccomp_isa.X86.length i)
          instrs;
        `Ok ())
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a raw code image.")
    Term.(ret (const run $ isa_arg $ input))

(* --- verify ------------------------------------------------------------ *)

module Verify = Ccomp_verify.Verify

let verify_cmd =
  let run pairs_csv profiles_csv scale seed block_size jobs golden bless golden_only fast
      shrink_budget repro_dir metrics trace events =
    let jobs = resolve_jobs jobs in
    with_obs ~events ~metrics ~trace @@ fun () ->
    let parse_csv s =
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")
    in
    let parse_pairs s =
      if s = "all" then Ok Verify.all_pairs
      else
        List.fold_left
          (fun acc name ->
            match (acc, Verify.pair_of_name name) with
            | Error _, _ -> acc
            | Ok _, (None | Some Verify.Golden) -> Error name
            | Ok ps, Some p -> Ok (ps @ [ p ]))
          (Ok []) (parse_csv s)
    in
    match parse_pairs pairs_csv with
    | Error name ->
      `Error
        ( false,
          Printf.sprintf "unknown pair %S (expected kernel, parallel, serve, roundtrip or all)"
            name )
    | Ok pairs -> (
      let profiles = if fast then [ "gcc" ] else parse_csv profiles_csv in
      let scale = if fast then 0.05 else scale in
      match
        List.find_opt
          (fun p -> match Ccomp_progen.Profile.find p with _ -> false | exception Not_found -> true)
          profiles
      with
      | Some bad ->
        `Error
          ( false,
            Printf.sprintf "unknown profile %S; available: %s" bad
              (String.concat ", " (Ccomp_progen.Profile.names ())) )
      | None -> (
        let log = print_endline in
        (* The golden corpus first: blessing rewrites it, checking is the
           format-drift tripwire, and its inputs then join the pair sweep. *)
        let golden_state =
          match golden with
          | None -> Ok (0, [], [])
          | Some dir -> (
            let entries =
              if bless then begin
                let es = Verify.bless_golden ~dir in
                Printf.printf "blessed %d golden entries into %s\n" (List.length es) dir;
                Ok es
              end
              else Verify.load_golden ~dir
            in
            match entries with
            | Error e -> Error e
            | Ok entries -> (
              let checks, divs = Verify.check_golden ~log ~dir entries in
              match Verify.golden_inputs ~dir entries with
              | inputs -> Ok (checks, divs, inputs)
              | exception Sys_error e -> Error e))
        in
        match golden_state with
        | Error e -> `Error (false, "golden corpus: " ^ e)
        | Ok (golden_checks, golden_divs, golden_inputs) ->
          let inputs =
            if golden_only then []
            else
              golden_inputs
              @ Verify.progen_inputs ~profiles ~scale ~seed
          in
          let options = { Verify.jobs; block_size; shrink_budget } in
          let report = Verify.run ~options ~log ~pairs inputs in
          let divergences = golden_divs @ report.Verify.divergences in
          List.iteri
            (fun i d ->
              match d.Verify.d_repro with
              | None -> ()
              | Some repro ->
                let path =
                  Filename.concat repro_dir (Printf.sprintf "verify-repro-%d.bin" (i + 1))
                in
                write_file path repro;
                Printf.printf "wrote %s: %d-byte reproducer for %s %s\n" path
                  (String.length repro)
                  (Verify.pair_name d.Verify.d_pair)
                  d.Verify.d_case)
            divergences;
          let checks = golden_checks + report.Verify.checks in
          if divergences = [] then begin
            Printf.printf "verify: %d checks, 0 divergences\n" checks;
            `Ok ()
          end
          else
            `Error
              ( false,
                Printf.sprintf "verify: %d checks, %d divergence(s)" checks
                  (List.length divergences) )))
  in
  let pairs_arg =
    Arg.(
      value & opt string "all"
      & info [ "pairs" ] ~docv:"CSV"
          ~doc:
            "Equivalence pairs to test: comma-separated subset of kernel, parallel, serve, \
             roundtrip — or all.")
  in
  let profiles_arg =
    Arg.(
      value & opt string "gcc,swim"
      & info [ "profiles" ] ~docv:"CSV" ~doc:"Progen profiles to sweep (both ISAs each).")
  in
  let vscale_arg =
    Arg.(
      value & opt float 0.12
      & info [ "scale" ] ~docv:"S" ~doc:"Program size scale factor for generated inputs.")
  in
  let golden_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"DIR"
          ~doc:
            "Golden corpus directory: check its CRCs and format stability, and sweep its \
             inputs too.")
  in
  let bless_arg =
    Arg.(value & flag & info [ "bless" ] ~doc:"Regenerate the golden corpus before checking it.")
  in
  let golden_only_arg =
    Arg.(
      value & flag
      & info [ "golden-only" ]
          ~doc:"Only run the golden corpus integrity checks; skip the pair sweep.")
  in
  let fast_arg =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:"Smoke tier: one profile (gcc) at a small scale; overrides --profiles/--scale.")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 60
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Predicate-call budget for shrinking each diverging input.")
  in
  let repro_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "repro-dir" ] ~docv:"DIR" ~doc:"Where minimal reproducers are written.")
  in
  let term =
    Term.(
      ret
        (const run $ pairs_arg $ profiles_arg $ vscale_arg $ seed_arg $ block_size_arg $ jobs_arg
       $ golden_arg $ bless_arg $ golden_only_arg $ fast_arg $ shrink_budget_arg $ repro_dir_arg
       $ metrics_arg $ trace_out_arg $ events_arg))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differential verification: test every redundant-implementation pair (fast vs \
          reference kernels, parallel vs serial, served vs offline, round-trips) over generated \
          programs and the golden corpus; shrink and report any divergence.")
    term

let () =
  (* SIGINT/SIGTERM raise Sys.Break, so every Fun.protect finaliser —
     in particular with_obs's metrics/trace/events flush — runs before
     the process dies: an interrupted run still leaves evidence. *)
  Sys.catch_break true;
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break))
   with Invalid_argument _ | Sys_error _ -> ());
  let doc = "code compression for embedded systems (Lekatsas & Wolf, DAC'98 reproduction)" in
  let info = Cmd.info "ccomp" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd; compress_cmd; decompress_cmd; info_cmd; ratios_cmd; simulate_cmd; fuzz_cmd;
        verify_cmd; stats_cmd; serve_cmd; submit_cmd; scrape_cmd; top_cmd; chaos_cmd; loadgen_cmd;
        asm_cmd;
        disasm_cmd;
      ]
  in
  exit
    (match Cmd.eval group with
    | code -> code
    | exception Sys.Break ->
      prerr_endline "ccomp: interrupted";
      130)
