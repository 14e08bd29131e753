(* Reproduction of every table/figure in the paper's evaluation (§5) plus
   the ablation experiments indexed in DESIGN.md. Each function prints one
   artifact in the same rows/series as the paper. *)

module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Stream_split = Ccomp_core.Stream_split
module Bit_stats = Ccomp_entropy.Bit_stats
module Lzss = Ccomp_baselines.Lzss
module Byte_huffman = Ccomp_baselines.Byte_huffman
module System = Ccomp_memsys.System
module Lat = Ccomp_memsys.Lat
module P = Ccomp_progen
module Image = Ccomp_image.Image
module Paper = Ccomp_paper.Paper

let header () = Printf.printf "%-10s %9s %9s %9s %9s %9s\n" "benchmark" "compress" "gzip" "huffman" "samc" "sadc"

let row name { Paper.lzw; gzip; huffman; samc; sadc } =
  Printf.printf "%-10s %9.3f %9.3f %9.3f %9.3f %9.3f\n%!" name lzw gzip huffman samc sadc

(* SADC dictionary construction dominates the harness run time and the
   same image is needed by several tables; memoise per code image. *)
let sadc_mips_cache : (string, Sadc.Mips.compressed) Hashtbl.t = Hashtbl.create 32

let sadc_mips code =
  match Hashtbl.find_opt sadc_mips_cache code with
  | Some z -> z
  | None ->
    let z = Sadc.Mips.compress_image (Sadc.default_config ()) code in
    Hashtbl.add sadc_mips_cache code z;
    z

(* --- Figures 7 and 8: per-benchmark compression ratios ----------------- *)

let figure ~title ~isa suite =
  Printf.printf "\n=== %s ===\n" title;
  header ();
  let rows =
    Array.to_list (Array.map (fun w -> let r = Paper.measure ~isa w in row w.Paper.name r; r) suite)
  in
  row "AVERAGE" (Paper.average rows);
  rows

let fig7 = figure ~title:"Figure 7: compression ratios, MIPS (SPEC95 profiles)" ~isa:Image.Mips

let fig8 = figure ~title:"Figure 8: compression ratios, x86 (SPEC95 profiles)" ~isa:Image.X86

(* --- Figure 9: instruction-compression algorithms, suite averages ------ *)

let fig9 ~mips_rows ~x86_rows =
  Printf.printf "\n=== Figure 9: instruction compression algorithms (suite averages) ===\n";
  Printf.printf "%-6s %9s %9s %9s\n" "isa" "huffman" "samc" "sadc";
  let p isa rows =
    let a = Paper.average rows in
    Printf.printf "%-6s %9.3f %9.3f %9.3f\n" isa a.Paper.huffman a.samc a.sadc
  in
  p "mips" mips_rows;
  p "x86" x86_rows

(* --- E1: cache block size sensitivity (§5 claim: minimal impact) ------- *)

let block_size_table suite =
  Printf.printf "\n=== E1: block size sensitivity (SAMC / SADC ratios, MIPS) ===\n";
  Printf.printf "%-10s" "benchmark";
  let sizes = [ 16; 32; 64; 128 ] in
  List.iter (fun s -> Printf.printf "   samc@%-3d sadc@%-3d" s s) sizes;
  print_newline ();
  List.iter
    (fun name ->
      let code = Paper.mips_code (Paper.find suite name) in
      Printf.printf "%-10s" name;
      List.iter
        (fun block_size ->
          let samc = Samc.ratio (Samc.compress (Samc.mips_config ~block_size ()) code) in
          let sadc =
            Sadc.Mips.ratio (Sadc.Mips.compress_image (Sadc.default_config ~block_size ()) code)
          in
          Printf.printf "   %8.3f %8.3f" samc sadc)
        sizes;
      print_newline ())
    [ "gcc"; "go"; "swim" ]

(* --- E2: stream subdivision (§3: 4x8 close to optimal) ----------------- *)

let word_stats code =
  let stats = Bit_stats.create ~width:32 in
  String.iteri
    (fun i _ ->
      if i mod 4 = 0 then
        Bit_stats.add_word stats
          (Int64.of_int
             ((Char.code code.[i] lsl 24) lor (Char.code code.[i + 1] lsl 16)
             lor (Char.code code.[i + 2] lsl 8) lor Char.code code.[i + 3])))
    code;
  stats

let stream_table suite =
  Printf.printf "\n=== E2: SAMC stream subdivision (MIPS) ===\n";
  Printf.printf "%-10s %10s %10s %10s %10s   %s\n" "benchmark" "2x16" "4x8" "8x4" "opt-4x8"
    "(model bytes: 786k / 6k / 0.7k / 6k)";
  List.iter
    (fun name ->
      let code = Paper.mips_code (Paper.find suite name) in
      let ratio_for streams = Samc.ratio (Samc.compress (Samc.mips_config ~streams ()) code) in
      let stats = word_stats code in
      Printf.printf "%-10s %10.3f %10.3f %10.3f %10.3f\n%!" name
        (ratio_for (Stream_split.consecutive ~word_bits:32 ~streams:2))
        (ratio_for (Stream_split.consecutive ~word_bits:32 ~streams:4))
        (ratio_for (Stream_split.consecutive ~word_bits:32 ~streams:8))
        (ratio_for (Stream_split.optimize ~seed:1L ~streams:4 stats)))
    [ "gcc"; "perl"; "swim" ]

(* --- E3: shift-only probability quantisation (§3: ~95% efficiency) ----- *)

let quantize_table suite =
  Printf.printf "\n=== E3: power-of-two probability quantisation (SAMC, MIPS) ===\n";
  Printf.printf "%-10s %10s %10s %12s\n" "benchmark" "exact" "shift-only" "efficiency";
  let effs =
    Array.to_list suite
    |> List.map (fun w ->
           let code = Paper.mips_code w in
           let exact = Samc.ratio (Samc.compress (Samc.mips_config ()) code) in
           let quant = Samc.ratio (Samc.compress (Samc.mips_config ~quantize:true ()) code) in
           let eff = exact /. quant in
           Printf.printf "%-10s %10.3f %10.3f %11.1f%%\n%!" w.Paper.name exact quant (100.0 *. eff);
           eff)
  in
  let avg = List.fold_left ( +. ) 0.0 effs /. float_of_int (List.length effs) in
  Printf.printf "%-10s %33.1f%%   (paper cites ~95%% worst case)\n" "AVERAGE" (100.0 *. avg)

(* --- E4: memory system performance vs cache size (§1/§2) -------------- *)

let memsys_table suite =
  Printf.printf "\n=== E4: compressed memory system (Wolfe-Chanin), CPI vs cache size ===\n";
  List.iter
    (fun name ->
      let w = Paper.find suite name in
      let code = Paper.mips_code w in
      let trace = P.Trace.generate w.Paper.program w.Paper.mips_layout ~seed:17L ~length:1_000_000 in
      let samc = Samc.compress (Samc.mips_config ()) code in
      let sadc = sadc_mips code in
      let huff = Byte_huffman.compress code in
      let samc_lat = Lat.of_blocks samc.Samc.blocks in
      let sadc_lat =
        Lat.build (Array.init (Sadc.Mips.block_count sadc) (Sadc.Mips.block_payload_bytes sadc))
      in
      let huff_lat = Lat.of_blocks huff.Byte_huffman.blocks in
      Printf.printf "\n%s (text %d bytes):\n" name (String.length code);
      Printf.printf "%8s %10s %8s | %8s %8s %8s | %9s %9s %9s\n" "cache" "hit ratio" "plain"
        "huffman" "samc" "sadc" "slow-huf" "slow-samc" "slow-sadc";
      List.iter
        (fun cache_bytes ->
          let base = System.run (System.default_config ~cache_bytes ()) ~trace () in
          let run d lat =
            System.run (System.default_config ~cache_bytes ~decompressor:d ()) ~lat ~trace ()
          in
          let h = run System.huffman_decompressor huff_lat in
          let s = run System.samc_decompressor samc_lat in
          let d = run System.sadc_decompressor sadc_lat in
          Printf.printf "%7dB %10.4f %8.3f | %8.3f %8.3f %8.3f | %8.3fx %8.3fx %8.3fx\n%!"
            cache_bytes base.System.hit_ratio base.System.cpi h.System.cpi s.System.cpi d.System.cpi
            (System.slowdown ~compressed:h ~uncompressed:base)
            (System.slowdown ~compressed:s ~uncompressed:base)
            (System.slowdown ~compressed:d ~uncompressed:base))
        [ 256; 512; 1024; 2048; 4096; 8192 ])
    [ "go"; "gcc" ]

(* --- E6: finite-context-model headroom (§1) ---------------------------- *)

let ppm_table suite =
  Printf.printf "\n=== E6: finite-context headroom and model memory (the paper's §1 objection) ===\n";
  Printf.printf "%-10s %8s %8s %8s %8s %13s %11s\n" "benchmark" "gzip" "samc" "ppm-o2" "dmc"
    "ppm model B" "dmc states";
  List.iter
    (fun name ->
      let code = Paper.mips_code (Paper.find suite name) in
      let gzip = Lzss.ratio code in
      let samc = Samc.ratio (Samc.compress (Samc.mips_config ()) code) in
      let ppm = Ccomp_baselines.Ppm.ratio code in
      let dmc = Ccomp_baselines.Dmc.ratio code in
      let mem = Ccomp_baselines.Ppm.model_memory code in
      let states = Ccomp_baselines.Dmc.model_states code in
      Printf.printf "%-10s %8.3f %8.3f %8.3f %8.3f %13d %11d\n%!" name gzip samc ppm dmc
        mem.Ccomp_baselines.Ppm.approx_bytes states)
    [ "compress"; "go"; "swim"; "vortex" ]

(* --- E7: dense re-encoding vs compression (§2's other road) ------------ *)

let dense_table suite =
  Printf.printf "\n=== E7: dense 16/32-bit re-encoding (Thumb-style) vs compression, MIPS ===\n";
  Printf.printf "%-10s %8s %8s %8s %8s %9s %9s\n" "benchmark" "dense" "samc" "sadc" "huffman"
    "16-bit %" "escaped %";
  Array.iter
    (fun w ->
      let code = Paper.mips_code w in
      let instrs =
        Array.to_list (Array.map Option.get (Ccomp_isa.Mips.decode_program code))
      in
      let st = Ccomp_isa.Dense16.stats instrs in
      let pct x = 100.0 *. float_of_int x /. float_of_int st.Ccomp_isa.Dense16.instructions in
      Printf.printf "%-10s %8.3f %8.3f %8.3f %8.3f %8.1f%% %8.1f%%\n%!" w.Paper.name
        (Ccomp_isa.Dense16.ratio instrs)
        (Samc.ratio (Samc.compress (Samc.mips_config ()) code))
        (Sadc.Mips.ratio (sadc_mips code))
        Byte_huffman.(ratio (compress code))
        (pct st.Ccomp_isa.Dense16.half_forms)
        (pct st.Ccomp_isa.Dense16.escaped))
    suite

(* --- E9: x86 field-level stream subdivision (§5 conjecture) ------------- *)

let x86_fields_table suite =
  Printf.printf
    "\n=== E9: SADC x86 stream subdivision: byte streams vs ModRM/SIB fields ===\n";
  Printf.printf "%-10s %12s %13s %10s\n" "benchmark" "byte-streams" "field-streams" "delta";
  List.iter
    (fun name ->
      let code = Paper.x86_code (Paper.find suite name) in
      let cfg = Sadc.default_config () in
      let bytes_z = Sadc.X86.compress_image cfg code in
      let fields_z = Sadc.X86_fields.compress_image cfg code in
      if not (String.equal (Sadc.X86_fields.decompress fields_z) code) then
        failwith "x86-fields round-trip failed";
      let rb = Sadc.X86.ratio bytes_z and rf = Sadc.X86_fields.ratio fields_z in
      Printf.printf "%-10s %12.3f %13.3f %9.3f%%\n%!" name rb rf (100.0 *. (rb -. rf) /. rb))
    [ "compress"; "gcc"; "go"; "swim"; "vortex" ]

(* --- E8: Markov model pruning (§6 future work) -------------------------- *)

let prune_table suite =
  Printf.printf "\n=== E8: Markov tree pruning, ratio vs model memory (SAMC, MIPS) ===\n";
  Printf.printf "%-10s" "benchmark";
  let thresholds = [ 0; 4; 16; 64 ] in
  List.iter (fun t -> Printf.printf "   r@%-3d modelB@%-4d" t t) thresholds;
  print_newline ();
  List.iter
    (fun name ->
      let code = Paper.mips_code (Paper.find suite name) in
      Printf.printf "%-10s" name;
      List.iter
        (fun prune_below ->
          let z = Samc.compress (Samc.mips_config ~prune_below ()) code in
          Printf.printf "   %5.3f %11d" (Samc.ratio z) (Samc.model_bytes z))
        thresholds;
      print_newline ())
    [ "gcc"; "swim"; "compress" ]

(* --- E12: embedded-class firmware (the paper's motivating domain) ------- *)

let embedded_table () =
  Printf.printf
    "\n=== E12: embedded firmware suite (the domain SS 1 motivates), MIPS ===\n";
  Printf.printf "%-12s %7s %9s %9s %9s %9s %9s %11s\n" "firmware" "bytes" "compress" "gzip"
    "huffman" "samc" "sadc" "sadc+tables";
  let rows =
    Array.to_list
      (Array.map
         (fun profile ->
           let code = Paper.mips_code (Paper.prepare profile) in
           let r = Paper.ratios ~isa:Image.Mips code in
           Printf.printf "%-12s %7d %9.3f %9.3f %9.3f %9.3f %9.3f %11.3f\n%!"
             profile.P.Profile.name (String.length code) r.Paper.lzw r.gzip r.huffman r.samc r.sadc
             (Sadc.Mips.ratio_with_tables (sadc_mips code));
           r)
         P.Profile.embedded)
  in
  row "AVERAGE" (Paper.average rows);
  Printf.printf
    "(small images pay proportionally more for shipped tables: the semiadaptive trade)\n"

(* --- E11: the industrial follow-on: CodePack-style coding --------------- *)

let codepack_table suite =
  Printf.printf "\n=== E11: CodePack-style half-word coding vs the paper's schemes (MIPS) ===\n";
  Printf.printf "%-10s %9s %9s %9s %9s %12s\n" "benchmark" "codepack" "huffman" "samc" "sadc"
    "cp tables";
  let rows =
    Array.to_list suite
    |> List.map (fun w ->
           let code = Paper.mips_code w in
           let cp = Ccomp_baselines.Codepack.compress code in
           if not (String.equal (Ccomp_baselines.Codepack.decompress cp) code) then
             failwith "codepack round-trip failed";
           let r =
             ( Ccomp_baselines.Codepack.ratio cp,
               Byte_huffman.(ratio (compress code)),
               Samc.ratio (Samc.compress (Samc.mips_config ()) code),
               Sadc.Mips.ratio (sadc_mips code) )
           in
           let a, b, c, d = r in
           Printf.printf "%-10s %9.3f %9.3f %9.3f %9.3f %12d\n%!" w.Paper.name a b c d
             (Ccomp_baselines.Codepack.table_bytes cp);
           r)
  in
  let n = float_of_int (List.length rows) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
  Printf.printf "%-10s %9.3f %9.3f %9.3f %9.3f\n" "AVERAGE"
    (avg (fun (a, _, _, _) -> a))
    (avg (fun (_, b, _, _) -> b))
    (avg (fun (_, _, c, _) -> c))
    (avg (fun (_, _, _, d) -> d))

(* --- E10: LAT size vs line padding (Wolfe-Chanin trade, §2) ------------- *)

let lat_table suite =
  Printf.printf "\n=== E10: LAT storage vs compressed-line padding (SAMC, MIPS) ===\n";
  Printf.printf "%-10s %8s" "benchmark" "quantum";
  List.iter (fun q -> Printf.printf " %14s" (Printf.sprintf "pad+LAT @%d" q)) [ 1; 2; 4; 8; 16 ];
  print_newline ();
  List.iter
    (fun name ->
      let code = Paper.mips_code (Paper.find suite name) in
      let z = Samc.compress (Samc.mips_config ()) code in
      let lat = Lat.of_blocks z.Samc.blocks in
      Printf.printf "%-10s %8s" name "";
      List.iter
        (fun quantum ->
          let q = Lat.quantize ~quantum lat in
          let padded_code = Lat.total_compressed q in
          let table = (Lat.storage_bits ~quantum q + 7) / 8 in
          Printf.printf " %8d +%4d" padded_code table)
        [ 1; 2; 4; 8; 16 ];
      Printf.printf "   (code %d)\n%!" (String.length code))
    [ "gcc"; "swim" ]

(* --- E5: dictionary contents (§4) -------------------------------------- *)

let dict_table suite =
  Printf.printf "\n=== E5: SADC dictionary statistics (MIPS) ===\n";
  Printf.printf "%-10s %8s %6s %7s %6s %8s %7s %10s %11s\n" "benchmark" "entries" "base" "groups"
    "spec" "longest" "rounds" "dict bytes" "tables bytes";
  Array.iter
    (fun w ->
      let code = Paper.mips_code w in
      let z = sadc_mips code in
      let st = Sadc.Mips.stats z in
      Printf.printf "%-10s %8d %6d %7d %6d %8d %7d %10d %11d\n%!" w.Paper.name
        st.Sadc.entries st.Sadc.base_entries st.Sadc.group_entries st.Sadc.specialized_entries
        st.Sadc.longest_group st.Sadc.rounds (Sadc.Mips.dict_bytes z) (Sadc.Mips.tables_bytes z))
    suite
