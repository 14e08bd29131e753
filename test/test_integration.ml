(* Cross-library integration tests: the full pipelines a user of the
   toolkit runs, from program generation to compressed execution. *)

module P = Ccomp_progen
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Image = Ccomp_image.Image
module System = Ccomp_memsys.System
module Lat = Ccomp_memsys.Lat
module Paper = Ccomp_paper.Paper

let profile =
  { (P.Profile.find "ijpeg") with P.Profile.name = "it"; target_ops = 1500; functions = 12 }

let test_full_samc_pipeline_mips () =
  (* generate -> lower -> compress -> container -> reload -> refill-decode
     every line touched by an execution trace *)
  let prog = P.Generator.generate ~seed:21L profile in
  let _, layout = P.Mips_backend.lower prog in
  let code = layout.P.Layout.code in
  let rom = Image.write (Image.compress ~algo:Image.Samc ~isa:Image.Mips ~block_size:32 code) in
  let img =
    match Image.read rom with Ok i -> i | Error e -> Alcotest.failf "image: %s" e
  in
  let z = match img.Image.payload with Image.Samc z -> z | _ -> Alcotest.fail "payload kind" in
  let trace = P.Trace.generate prog layout ~seed:22L ~length:50_000 in
  let seen = Hashtbl.create 128 in
  Array.iter
    (fun addr ->
      let b = addr / 32 in
      if not (Hashtbl.mem seen b) then begin
        Hashtbl.add seen b ();
        let original_bytes = min 32 (String.length code - (b * 32)) in
        let line = Samc.decompress_block z.Samc.config z.Samc.model ~original_bytes z.Samc.blocks.(b) in
        Alcotest.(check string) (Printf.sprintf "refill block %d" b)
          (String.sub code (b * 32) original_bytes)
          line
      end)
    trace;
  Alcotest.(check bool) "trace touched several lines" true (Hashtbl.length seen > 10)

let test_full_sadc_pipeline_x86 () =
  let prog = P.Generator.generate ~seed:23L profile in
  let _, layout = P.X86_backend.lower prog in
  let code = layout.P.Layout.code in
  let rom = Image.write (Image.compress ~algo:Image.Sadc ~isa:Image.X86 ~block_size:32 code) in
  match Image.read rom with
  | Error e -> Alcotest.failf "image: %s" e
  | Ok img ->
    Alcotest.(check string) "rom decompresses to the program" code (Image.decompress img);
    (* decode a few blocks in isolation through the container's LAT *)
    let z = match img.Image.payload with Image.Sadc_x86 z -> z | _ -> Alcotest.fail "kind" in
    for b = 0 to min 10 (Sadc.X86.block_count z - 1) do
      Alcotest.(check int)
        (Printf.sprintf "lat agrees with payload %d" b)
        (Sadc.X86.block_payload_bytes z b)
        (Lat.length img.Image.lat b)
    done

let test_memsys_on_real_program_and_lat () =
  let prog = P.Generator.generate ~seed:25L profile in
  let _, layout = P.Mips_backend.lower prog in
  let code = layout.P.Layout.code in
  let trace = P.Trace.generate prog layout ~seed:26L ~length:100_000 in
  let z = Samc.compress (Samc.mips_config ()) code in
  let lat = Lat.of_blocks z.Samc.blocks in
  let base = System.run (System.default_config ~cache_bytes:1024 ()) ~trace () in
  let comp =
    System.run
      (System.default_config ~cache_bytes:1024 ~decompressor:System.samc_decompressor ())
      ~lat ~trace ()
  in
  Alcotest.(check int) "same fetch count" base.System.fetches comp.System.fetches;
  Alcotest.(check int) "same miss count (cache behaviour unchanged)" base.System.misses
    comp.System.misses;
  let slowdown = System.slowdown ~compressed:comp ~uncompressed:base in
  Alcotest.(check bool)
    (Printf.sprintf "slowdown %.3f in [1.0, 3.0]" slowdown)
    true
    (slowdown >= 1.0 && slowdown < 3.0)

let test_same_ir_both_backends_compress_consistently () =
  (* The same IR lowered to both ISAs: both images must round-trip through
     their respective SADC instances and show plausible ratios. *)
  let prog = P.Generator.generate ~seed:27L profile in
  let mips = (snd (P.Mips_backend.lower prog)).P.Layout.code in
  let x86 = (snd (P.X86_backend.lower prog)).P.Layout.code in
  let zm = Sadc.Mips.compress_image (Ccomp_core.Sadc.default_config ()) mips in
  let zx = Sadc.X86.compress_image (Ccomp_core.Sadc.default_config ()) x86 in
  Alcotest.(check string) "mips roundtrip" mips (Sadc.Mips.decompress zm);
  Alcotest.(check string) "x86 roundtrip" x86 (Sadc.X86.decompress zx);
  Alcotest.(check bool) "both compress" true (Sadc.Mips.ratio zm < 0.9 && Sadc.X86.ratio zx < 0.9)

(* --- the paper's result: Fig. 7/8 ratios -------------------------------- *)

(* Suite averages of `bench/main.exe --scale 0.25 --tables fig7,fig8`
   (all 18 profiles, seed 7), as its AVERAGE rows print them. A change
   may improve any of them; it may not make one worse. *)
let committed_mips =
  { Paper.lzw = 0.625; gzip = 0.426; huffman = 0.734; samc = 0.552; sadc = 0.485 }

let committed_x86 =
  { Paper.lzw = 0.697; gzip = 0.520; huffman = 0.806; samc = 0.743; sadc = 0.541 }

let test_paper_ratios_and_orderings () =
  let suite = Array.to_list (Paper.suite ~scale:0.25 ()) in
  let mips = List.map (Paper.measure ~isa:Image.Mips) suite in
  let x86 = List.map (Paper.measure ~isa:Image.X86) suite in
  (* per program, on MIPS: SAMC beats byte Huffman, SADC beats SAMC *)
  List.iter2
    (fun (w : Paper.prepared) (r : Paper.ratios) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: samc %.3f < huffman %.3f" w.name r.samc r.huffman)
        true (r.samc < r.huffman);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sadc %.3f < samc %.3f" w.name r.sadc r.samc)
        true (r.sadc < r.samc))
    suite mips;
  let gate isa committed rows =
    let avg = Paper.average rows in
    Alcotest.(check (list string)) (isa ^ " averages no worse than committed") []
      (Paper.regressions ~committed avg);
    avg
  in
  let ordered isa avg names =
    let described, holds = Paper.ordering avg names in
    Alcotest.(check bool) (isa ^ " ordering " ^ described) true holds
  in
  ordered "mips" (gate "mips" committed_mips mips)
    [ "gzip"; "sadc"; "samc"; "compress"; "huffman" ];
  ordered "x86" (gate "x86" committed_x86 x86) [ "gzip"; "sadc"; "samc"; "huffman" ]

let suite =
  [
    Alcotest.test_case "samc pipeline on mips" `Quick test_full_samc_pipeline_mips;
    Alcotest.test_case "sadc pipeline on x86" `Quick test_full_sadc_pipeline_x86;
    Alcotest.test_case "memsys on compressed program" `Quick test_memsys_on_real_program_and_lat;
    Alcotest.test_case "both backends consistent" `Quick test_same_ir_both_backends_compress_consistently;
    Alcotest.test_case "paper ordering (reduced)" `Quick test_paper_ratios_and_orderings;
  ]
