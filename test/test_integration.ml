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

(* The Fig. 7/8 suite at scale 0.25, shared by the ratio gate and the
   SADC image pin below. *)
let reduced_suite = lazy (Array.to_list (Paper.suite ~scale:0.25 ()))

let test_paper_ratios_and_orderings () =
  let suite = Lazy.force reduced_suite in
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

(* --- SADC images pinned byte for byte --------------------------------- *)

(* MD5 of [Image.write] of every SADC image of the reduced suite, with
   the dictionary's rounds and entries. Any change to a byte SADC emits
   shows here; a faster builder must reproduce these exactly. *)
let committed_sadc_images =
  [
    ("applu/mips", "e649f8e2fa8da0fa7562396c5ad0298e", 224, 256);
    ("applu/x86", "a04cbfe8c0814eceaf6ce87e8cc7ed07", 203, 256);
    ("apsi/mips", "ec3b8a434374f17ec5bc3277ae7584e2", 224, 256);
    ("apsi/x86", "0f9115e635e39de8a36811223634a668", 200, 256);
    ("compress/mips", "76d8192ccc252872199434095b6a87e1", 224, 256);
    ("compress/x86", "b33733aff22ad014427815c5ae0cb974", 144, 187);
    ("fpppp/mips", "ec14aa6bd36a1cd0799bf1f3c7747255", 225, 256);
    ("fpppp/x86", "03ecf9960d0616a0482efe52eb2e7518", 201, 256);
    ("gcc/mips", "4f0fa014cc2b72e4e01f2b6df25b00aa", 224, 256);
    ("gcc/x86", "fa75c7076edde03486d291c8453462b5", 193, 256);
    ("go/mips", "9fbb0785aee04ce9fa2249d9207e0fbe", 224, 256);
    ("go/x86", "47b24615b814c218331e04d539762a46", 194, 256);
    ("hydro2d/mips", "7e6e14e6f7bbb235df9bc98f059024a3", 224, 256);
    ("hydro2d/x86", "bf7af6250292a04c18c5fc8b4fa76665", 206, 256);
    ("ijpeg/mips", "9c8b205be187617a7b6e792e420ebc03", 224, 256);
    ("ijpeg/x86", "501cb1f32e229db0d98ad7921629a18f", 200, 256);
    ("m88ksim/mips", "69a653beec35b489c25c0654c1d5287a", 224, 256);
    ("m88ksim/x86", "55abb45f38d60564d363eb9c16c4c923", 202, 256);
    ("mgrid/mips", "522aa2b054ebe6ee9af9f491e2d581ab", 224, 256);
    ("mgrid/x86", "d9a411c0b0afc992397d70af4fb4df8a", 208, 256);
    ("perl/mips", "fcb3dd13e14add7bb7eecd6b2b186967", 224, 256);
    ("perl/x86", "5a76b2a9380b2d7c0dd320b94717af9f", 200, 256);
    ("su2cor/mips", "ebea2dbf43bfb14fb948bb4574c86ad7", 224, 256);
    ("su2cor/x86", "792e34c1914e1a3c626cc46cdc0d85f8", 203, 256);
    ("swim/mips", "d8364f7e301c03eb93173c399dfe25e2", 226, 256);
    ("swim/x86", "5027b46837ce976ae9b5864855f123a7", 195, 238);
    ("tomcatv/mips", "1765d88bc7b76790ae076fa1b4e9ac1e", 226, 256);
    ("tomcatv/x86", "987d2dd8214e29a70131f8c7aa3cd889", 211, 256);
    ("turb3d/mips", "edf90c1d534772b5938b0958587e881a", 224, 256);
    ("turb3d/x86", "d893861a0b4c46c306e563f6cb9be6e0", 203, 256);
    ("vortex/mips", "34e847f9892435088130f81ca2ed845d", 224, 256);
    ("vortex/x86", "b35fe5d25ac4cba9a859f5e4e0109bc6", 198, 256);
    ("wave5/mips", "09b54006e769b6b50acaa259de4f77b5", 224, 256);
    ("wave5/x86", "27e1cff51ea37cb74b2658e7dea547ef", 204, 256);
    ("xlisp/mips", "30f1c2d0764d62c8e7720e8eef836db5", 224, 256);
    ("xlisp/x86", "0efa8e0cb6faf0c54288087696d3b807", 205, 256);
  ]

let test_sadc_images_pinned () =
  let actual =
    List.concat_map
      (fun (w : Paper.prepared) ->
        List.map
          (fun isa ->
            let code = match isa with Image.Mips -> Paper.mips_code w | X86 -> Paper.x86_code w in
            let img = Image.compress ~algo:Image.Sadc ~isa ~block_size:32 code in
            let st =
              match img.Image.payload with
              | Image.Sadc_mips z -> Sadc.Mips.stats z
              | Image.Sadc_x86 z -> Sadc.X86.stats z
              | Image.Samc _ -> Alcotest.fail "payload kind"
            in
            ( Printf.sprintf "%s/%s" w.name (Image.isa_name isa),
              Digest.to_hex (Digest.string (Image.write img)),
              st.Sadc.rounds,
              st.Sadc.entries ))
          [ Image.Mips; Image.X86 ])
      (Lazy.force reduced_suite)
  in
  let show (name, digest, rounds, entries) =
    Printf.sprintf "(%S, %S, %d, %d);" name digest rounds entries
  in
  Alcotest.(check (list string)) "sadc images (name, md5, rounds, entries)"
    (List.map show committed_sadc_images) (List.map show actual)

(* --- SAMC images pinned byte for byte --------------------------------- *)

(* MD5 of [Image.write] of every SAMC image of the reduced suite (MIPS
   config on MIPS code, byte mode on x86), with the coded block bytes and
   the model bytes. Any change to a byte SAMC emits shows here; a faster
   compressor must reproduce these exactly. *)
let committed_samc_images =
  [
    ("applu/mips", "02d15e800d94aff8191c4cee74d406ed", 9252, 6127);
    ("applu/x86", "75c74b72e562495d9f7207a212b3e940", 9854, 1534);
    ("apsi/mips", "7cad3491d57dd0f1e8bd2a9ab0355dfd", 11151, 6127);
    ("apsi/x86", "906fdb68bb2c08f4d524418b9c20b08f", 11596, 1534);
    ("compress/mips", "aaab6dbb9d2ff6b8c70957f5604cb4a2", 1691, 6127);
    ("compress/x86", "a6dd98a0b0a19e9b321b3bef764f030f", 1821, 1534);
    ("fpppp/mips", "d94586474490dc39e1571e7d2a64d721", 14204, 6127);
    ("fpppp/x86", "3eacd06851961a817e4ba0b920560484", 14880, 1534);
    ("gcc/mips", "1fee1dcc54744bb06fd48316baffceac", 42687, 6127);
    ("gcc/x86", "cc6593a6579d376a7a05e198683db59f", 44190, 1534);
    ("go/mips", "d2f4b0982150691cf8254e125fccc372", 18107, 6127);
    ("go/x86", "e7912ee97c00c9d11fafb93f4650944b", 19149, 1534);
    ("hydro2d/mips", "da27f1d2ccd22ec01fc171f5e4cdc224", 9348, 6127);
    ("hydro2d/x86", "94f1d3eb4f6abbe36fafca807b5a8274", 10204, 1534);
    ("ijpeg/mips", "339cc6ecbb36f6b7dca582442cd6aec1", 10374, 6127);
    ("ijpeg/x86", "1c6f41b242333950d66a6256b600d273", 11126, 1534);
    ("m88ksim/mips", "8b6215d981d0b97ec7a80fcc42642c5a", 7649, 6127);
    ("m88ksim/x86", "9af16e61cda50344f20ff2b1f6bfb9f0", 8195, 1534);
    ("mgrid/mips", "40220ff72feb6194273b7d3d6ddf87e8", 4777, 6127);
    ("mgrid/x86", "c9f5f351ccd32c6398700ddaefeeb81e", 5151, 1534);
    ("perl/mips", "b67140081156730418ded3119b1115db", 16443, 6127);
    ("perl/x86", "60d752472b9aac983cd0c31602e0604f", 17481, 1534);
    ("su2cor/mips", "5ec69421b5439f915e60467455682360", 8703, 6127);
    ("su2cor/x86", "eae566d179822a018c8dbc6b882d927f", 9484, 1534);
    ("swim/mips", "06e0a7515efda7e73274a3c0ea856171", 2306, 6127);
    ("swim/x86", "da11cb635f5de63bd93a651d0a4b4c00", 2448, 1534);
    ("tomcatv/mips", "0ea88f2f5a7f18216eeb270c30769442", 3022, 6127);
    ("tomcatv/x86", "abbf542a17f779b3a3d50093afddefab", 3283, 1534);
    ("turb3d/mips", "7faeb143ffc46629b070287eaec8388e", 8484, 6127);
    ("turb3d/x86", "601eb1167c907c4ca7e83451c9855722", 9234, 1534);
    ("vortex/mips", "776f17041e71d99b98fc8ba65e389b03", 26326, 6127);
    ("vortex/x86", "f0980eed161692ef4586c65327d218c6", 27433, 1534);
    ("wave5/mips", "5ea9e9835a255b01aff5f2fb4acda987", 11445, 6127);
    ("wave5/x86", "13632b24ff1606299eabd03431a96ef5", 12308, 1534);
    ("xlisp/mips", "d64e679e1ab459fb81bf62b4e76f5426", 5408, 6127);
    ("xlisp/x86", "26206b144454b4915d9fcaac1d294b67", 5339, 1534);
  ]

let test_samc_images_pinned () =
  let actual =
    List.concat_map
      (fun (w : Paper.prepared) ->
        List.map
          (fun isa ->
            let code = match isa with Image.Mips -> Paper.mips_code w | X86 -> Paper.x86_code w in
            let img = Image.compress ~algo:Image.Samc ~isa ~block_size:32 code in
            let z = match img.Image.payload with Image.Samc z -> z | _ -> Alcotest.fail "payload kind" in
            ( Printf.sprintf "%s/%s" w.name (Image.isa_name isa),
              Digest.to_hex (Digest.string (Image.write img)),
              Samc.code_bytes z,
              Samc.model_bytes z ))
          [ Image.Mips; Image.X86 ])
      (Lazy.force reduced_suite)
  in
  let show (name, digest, code, model) = Printf.sprintf "(%S, %S, %d, %d);" name digest code model in
  Alcotest.(check (list string)) "samc images (name, md5, code_bytes, model_bytes)"
    (List.map show committed_samc_images) (List.map show actual)

let suite =
  [
    Alcotest.test_case "samc pipeline on mips" `Quick test_full_samc_pipeline_mips;
    Alcotest.test_case "sadc pipeline on x86" `Quick test_full_sadc_pipeline_x86;
    Alcotest.test_case "memsys on compressed program" `Quick test_memsys_on_real_program_and_lat;
    Alcotest.test_case "both backends consistent" `Quick test_same_ir_both_backends_compress_consistently;
    Alcotest.test_case "paper ordering (reduced)" `Quick test_paper_ratios_and_orderings;
    Alcotest.test_case "sadc images pinned (reduced)" `Quick test_sadc_images_pinned;
    Alcotest.test_case "samc images pinned (reduced)" `Quick test_samc_images_pinned;
  ]
