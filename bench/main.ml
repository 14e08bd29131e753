(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the DESIGN.md ablations, then runs a Bechamel
   timing suite over the codecs.

   Usage: dune exec bench/main.exe -- [--scale S] [--tables LIST] [--no-timing]
                                      [--trace FILE]
     --scale S        workload size multiplier (default 1.0)
     --tables LIST    comma list of fig7,fig8,fig9,block,streams,quantize,
                      memsys,dict,ppm,dense,prune,x86fields,lat,codepack,
                      embedded (default: all)
     --no-timing      skip the Bechamel timing suite (T1): block kernels
                      beside their reference kernels, and a jobs sweep
                      over whole-image decompress
     --trace FILE     write the harness's obs spans (workload generation,
                      each table, the timing suite) as a Chrome
                      trace_event JSON array *)

module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Byte_huffman = Ccomp_baselines.Byte_huffman
module Huffman = Ccomp_huffman.Huffman
module Bit_reader = Ccomp_bitio.Bit_reader
module Obs = Ccomp_obs.Obs
module Paper = Ccomp_paper.Paper

let usage =
  "usage: bench [--scale S] [--tables LIST] [--no-timing] [--trace FILE]\n\
  \  --scale S        workload size multiplier (default 1.0)\n\
  \  --tables LIST    comma list of fig7,fig8,fig9,block,streams,quantize,\n\
  \                   memsys,dict,ppm,dense,prune,x86fields,lat,codepack,embedded\n\
  \  --no-timing      skip the Bechamel timing suite\n\
  \  --trace FILE     write harness spans as Chrome trace_event JSON"

type args = { scale : float; tables : string list; timing : bool; trace : string option }

let parse_args () =
  let args =
    ref
      {
        scale = 1.0;
        tables = [ "fig7"; "fig8"; "fig9"; "block"; "streams"; "quantize"; "memsys"; "dict"; "ppm"; "dense"; "prune"; "x86fields"; "lat"; "codepack"; "embedded" ];
        timing = true;
        trace = None;
      }
  in
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench: %s\n%s\n" msg usage;
        exit 2)
      fmt
  in
  let rec go = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
      | Some scale -> args := { !args with scale }
      | None -> die "invalid value %S for --scale" v);
      go rest
    | "--tables" :: v :: rest ->
      args := { !args with tables = String.split_on_char ',' v };
      go rest
    | "--no-timing" :: rest ->
      args := { !args with timing = false };
      go rest
    | "--trace" :: v :: rest ->
      args := { !args with trace = Some v };
      go rest
    | [ flag ] when List.mem flag [ "--scale"; "--tables"; "--trace" ] ->
      die "option %s expects a value" flag
    | flag :: _ -> die "unknown option %s" flag
  in
  go (List.tl (Array.to_list Sys.argv));
  !args

(* --- Bechamel timing suite (T1) ---------------------------------------- *)

(* What the repo benchmark (perfbench/) cannot see: each optimised block
   kernel beside the reference kernel it replaced, and whole-image
   decompress swept over pool sizes. *)
let timing_tests () =
  let open Bechamel in
  (* One fixed workload, truncated so each run is a few milliseconds. *)
  let w = Paper.prepare ~scale:0.3 (Ccomp_progen.Profile.find "go") in
  let code = Paper.mips_code w in
  let code = String.sub code 0 (min (String.length code) 32768) in
  let samc_cfg = Samc.mips_config () in
  let samc = Samc.compress samc_cfg code in
  let sadc = Sadc.Mips.compress_image (Sadc.default_config ~max_rounds:64 ()) code in
  (* the phases of a SADC boot (E31): the image read, whose Huffman
     table rebuild is timed here, and whole-image decode on each ISA *)
  let sadc_image = Ccomp_image.Image.(write (of_sadc_mips sadc)) in
  let sadc_x86 = Sadc.X86.compress_image (Sadc.default_config ~max_rounds:64 ()) (Paper.x86_code w) in
  let huff = Byte_huffman.compress code in
  let samc_block = samc.Samc.blocks.(Array.length samc.Samc.blocks / 2) in
  let huff_block = 3 in
  (* the bit-serial tree walk over one block: same code table as the
     LUT kernel, read through Bit_reader + decode_symbol_tree *)
  let huff_tree_decode () =
    let r = Bit_reader.create huff.Byte_huffman.blocks.(huff_block) in
    for _ = 1 to huff.Byte_huffman.block_size do
      ignore (Huffman.decode_symbol_tree huff.Byte_huffman.code r)
    done
  in
  let jobs = [ 1; 2; 4; 8 ] in
  Test.make_grouped ~name:"codec" ~fmt:"%s/%s"
    [
      Test.make ~name:"samc-compress" (Staged.stage (fun () -> Samc.compress samc_cfg code));
      Test.make ~name:"sadc-compress"
        (Staged.stage (fun () -> Sadc.Mips.compress_image (Sadc.default_config ()) code));
      Test.make ~name:"samc-decompress-block"
        (Staged.stage (fun () ->
             Samc.decompress_block samc_cfg samc.Samc.model ~original_bytes:32 samc_block));
      Test.make ~name:"samc-decompress-block-ref"
        (Staged.stage (fun () ->
             Samc.decompress_block_ref samc_cfg samc.Samc.model ~original_bytes:32 samc_block));
      Test.make ~name:"sadc-decompress-block"
        (Staged.stage (fun () -> Sadc.Mips.decompress_block sadc (Sadc.Mips.block_count sadc / 2)));
      Test.make ~name:"huffman-decompress-block"
        (Staged.stage (fun () -> Byte_huffman.decompress_block huff huff_block));
      Test.make ~name:"huffman-decompress-block-tree" (Staged.stage huff_tree_decode);
      Test.make ~name:"lzw-compress"
        (Staged.stage (fun () -> Ccomp_baselines.Lzw.compress code));
      Test.make ~name:"lzss-compress"
        (Staged.stage (fun () -> Ccomp_baselines.Lzss.compress code));
      Test.make_indexed ~name:"samc-decompress" ~fmt:"%s-jobs%d" ~args:jobs (fun jobs ->
          Staged.stage (fun () -> Samc.decompress ~jobs samc));
      Test.make_indexed ~name:"sadc-decompress" ~fmt:"%s-jobs%d" ~args:jobs (fun jobs ->
          Staged.stage (fun () -> Sadc.Mips.decompress ~jobs sadc));
      Test.make ~name:"sadc-decompress-x86" (Staged.stage (fun () -> Sadc.X86.decompress sadc_x86));
      Test.make ~name:"sadc-read" (Staged.stage (fun () -> Ccomp_image.Image.read sadc_image));
      Test.make_indexed ~name:"huffman-decompress" ~fmt:"%s-jobs%d" ~args:jobs (fun jobs ->
          Staged.stage (fun () -> Byte_huffman.decompress ~jobs huff));
    ]

let run_timing () =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (timing_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n=== T1: codec timing (monotonic clock, ns/run) ===\n";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-40s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-40s %14s\n" name "n/a")
    (List.sort compare rows)

let main { scale; tables; timing; trace = _ } =
  let wants t = List.mem t tables in
  let table name f = if wants name then Obs.with_span ~cat:"bench" ("bench.table." ^ name) f in
  Printf.printf "code compression benchmark harness (scale %.2f)\n" scale;
  let t0 = Unix.gettimeofday () in
  let suite, gen_s =
    Obs.timed ~cat:"bench" "bench.workloads" (fun () -> Paper.suite ~scale ())
  in
  Printf.printf "generated %d workloads in %.1fs\n%!" (Array.length suite) gen_s;
  let mips_rows =
    if wants "fig7" || wants "fig9" then
      Some (Obs.with_span ~cat:"bench" "bench.table.fig7" (fun () -> Tables.fig7 suite))
    else None
  in
  let x86_rows =
    if wants "fig8" || wants "fig9" then
      Some (Obs.with_span ~cat:"bench" "bench.table.fig8" (fun () -> Tables.fig8 suite))
    else None
  in
  (match (mips_rows, x86_rows) with
  | Some m, Some x when wants "fig9" -> Tables.fig9 ~mips_rows:m ~x86_rows:x
  | _ -> ());
  table "block" (fun () -> Tables.block_size_table suite);
  table "streams" (fun () -> Tables.stream_table suite);
  table "quantize" (fun () -> Tables.quantize_table suite);
  table "memsys" (fun () -> Tables.memsys_table suite);
  table "dict" (fun () -> Tables.dict_table suite);
  table "ppm" (fun () -> Tables.ppm_table suite);
  table "dense" (fun () -> Tables.dense_table suite);
  table "prune" (fun () -> Tables.prune_table suite);
  table "x86fields" (fun () -> Tables.x86_fields_table suite);
  table "lat" (fun () -> Tables.lat_table suite);
  table "codepack" (fun () -> Tables.codepack_table suite);
  table "embedded" (fun () -> Tables.embedded_table ());
  if timing then Obs.with_span ~cat:"bench" "bench.timing" run_timing;
  Printf.printf "\ntotal harness time: %.1fs\n" (Unix.gettimeofday () -. t0)

let () =
  let args = parse_args () in
  (match args.trace with Some _ -> Obs.set_tracing true | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match args.trace with
      | Some path ->
        Obs.write_trace path;
        Printf.printf "wrote %s: %d trace events\n" path (Obs.event_count ())
      | None -> ())
    (fun () -> main args)
