(* Cross-library integration tests: the full pipelines a user of the
   toolkit runs, from program generation to compressed execution. *)

module P = Ccomp_progen
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Image = Ccomp_image.Image
module System = Ccomp_memsys.System
module Lat = Ccomp_memsys.Lat

let profile =
  { (P.Profile.find "ijpeg") with P.Profile.name = "it"; target_ops = 1500; functions = 12 }

let test_full_samc_pipeline_mips () =
  (* generate -> lower -> compress -> container -> reload -> refill-decode
     every line touched by an execution trace *)
  let prog = P.Generator.generate ~seed:21L profile in
  let _, layout = P.Mips_backend.lower prog in
  let code = layout.P.Layout.code in
  let z = Samc.compress (Samc.mips_config ()) code in
  let rom = Image.write (Image.of_samc ~isa:Image.Mips z) in
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
  let z = Sadc.X86.compress_image (Ccomp_core.Sadc.default_config ()) code in
  let rom = Image.write (Image.of_sadc_x86 z) in
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

type ratios = { lzw : float; gzip : float; huffman : float; samc : float; sadc : float }

(* Suite averages of `bench/main.exe --scale 0.25 --tables fig7,fig8`
   (all 18 profiles, seed 7), as its AVERAGE rows print them. A change
   may improve any of them; it may not make one worse. *)
let committed_mips = { lzw = 0.625; gzip = 0.426; huffman = 0.734; samc = 0.552; sadc = 0.485 }

let committed_x86 = { lzw = 0.697; gzip = 0.520; huffman = 0.806; samc = 0.743; sadc = 0.541 }

(* The codec configurations of bench/tables.ml's measure_mips and
   measure_x86, so the averages here are the figures' AVERAGE rows. *)
let mips_ratios code =
  {
    lzw = Ccomp_baselines.Lzw.ratio code;
    gzip = Ccomp_baselines.Lzss.ratio code;
    huffman = Ccomp_baselines.Byte_huffman.(ratio (compress code));
    samc = Samc.ratio (Samc.compress (Samc.mips_config ()) code);
    sadc = Sadc.Mips.ratio (Sadc.Mips.compress_image (Sadc.default_config ()) code);
  }

let x86_ratios code =
  (* SAMC needs whole words; pad with NOPs like a linker would *)
  let padded =
    let r = String.length code mod 4 in
    if r = 0 then code else code ^ String.make (4 - r) '\x90'
  in
  {
    lzw = Ccomp_baselines.Lzw.ratio code;
    gzip = Ccomp_baselines.Lzss.ratio code;
    huffman = Ccomp_baselines.Byte_huffman.(ratio (compress code));
    samc = Samc.ratio (Samc.compress (Samc.byte_config ()) padded);
    sadc = Sadc.X86.ratio (Sadc.X86.compress_image (Sadc.default_config ()) code);
  }

let average rs =
  let n = float_of_int (List.length rs) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rs /. n in
  {
    lzw = avg (fun r -> r.lzw);
    gzip = avg (fun r -> r.gzip);
    huffman = avg (fun r -> r.huffman);
    samc = avg (fun r -> r.samc);
    sadc = avg (fun r -> r.sadc);
  }

let test_paper_ratios_and_orderings () =
  let profiles = Array.to_list P.Profile.spec95 in
  let programs = List.map (P.Generator.generate ~scale:0.25 ~seed:7L) profiles in
  let mips =
    List.map (fun prog -> mips_ratios (snd (P.Mips_backend.lower prog)).P.Layout.code) programs
  in
  let x86 =
    List.map (fun prog -> x86_ratios (snd (P.X86_backend.lower prog)).P.Layout.code) programs
  in
  (* per program, on MIPS: SAMC beats byte Huffman, SADC beats SAMC *)
  List.iter2
    (fun (profile : P.Profile.t) r ->
      let name = profile.P.Profile.name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: samc %.3f < huffman %.3f" name r.samc r.huffman)
        true (r.samc < r.huffman);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sadc %.3f < samc %.3f" name r.sadc r.samc)
        true (r.sadc < r.samc))
    profiles mips;
  let gate isa committed rows =
    let avg = average rows in
    List.iter
      (fun (codec, f) ->
        (* no worse than committed, as the harness prints it (%.3f) *)
        Alcotest.(check bool)
          (Printf.sprintf "%s %s average %.4f no worse than committed %.3f" isa codec (f avg)
             (f committed))
          true
          (f avg < f committed +. 0.0005))
      [
        ("compress", fun r -> r.lzw);
        ("gzip", fun r -> r.gzip);
        ("huffman", fun r -> r.huffman);
        ("samc", fun r -> r.samc);
        ("sadc", fun r -> r.sadc);
      ];
    avg
  in
  let ordered isa ranking =
    let names = String.concat " < " (List.map fst ranking) in
    let rec increasing = function
      | (_, a) :: ((_, b) :: _ as rest) -> a < b && increasing rest
      | _ -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s ordering %s (%s)" isa names
         (String.concat ", " (List.map (fun (_, v) -> Printf.sprintf "%.3f" v) ranking)))
      true (increasing ranking)
  in
  let m = gate "mips" committed_mips mips in
  ordered "mips"
    [ ("gzip", m.gzip); ("sadc", m.sadc); ("samc", m.samc); ("lzw", m.lzw); ("huffman", m.huffman) ];
  let x = gate "x86" committed_x86 x86 in
  ordered "x86" [ ("gzip", x.gzip); ("sadc", x.sadc); ("samc", x.samc); ("huffman", x.huffman) ]

let suite =
  [
    Alcotest.test_case "samc pipeline on mips" `Quick test_full_samc_pipeline_mips;
    Alcotest.test_case "sadc pipeline on x86" `Quick test_full_sadc_pipeline_x86;
    Alcotest.test_case "memsys on compressed program" `Quick test_memsys_on_real_program_and_lat;
    Alcotest.test_case "both backends consistent" `Quick test_same_ir_both_backends_compress_consistently;
    Alcotest.test_case "paper ordering (reduced)" `Quick test_paper_ratios_and_orderings;
  ]
