module Crc32 = Ccomp_image.Crc32
module Image = Ccomp_image.Image
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Lat = Ccomp_memsys.Lat
module P = Ccomp_progen

let test_crc32_known_vectors () =
  (* standard test vector *)
  Alcotest.(check int32) "crc(123456789)" 0xCBF43926l (Crc32.of_string "123456789");
  Alcotest.(check int32) "crc(empty)" 0l (Crc32.of_string "");
  Alcotest.(check int32) "crc(a)" 0xE8B7BE43l (Crc32.of_string "a")

let test_crc32_incremental () =
  let a = "hello " and b = "world" in
  Alcotest.(check int32) "incremental equals whole" (Crc32.of_string (a ^ b))
    (Crc32.update (Crc32.of_string a) b)

let test_crc32_detects_change () =
  Alcotest.(check bool) "different strings differ" true
    (Crc32.of_string "abcd" <> Crc32.of_string "abce")

let code_for seed =
  let profile =
    { (P.Profile.find "m88ksim") with P.Profile.name = "t"; target_ops = 700; functions = 8 }
  in
  (snd (P.Mips_backend.lower (P.Generator.generate ~seed profile))).P.Layout.code

let x86_code_for seed =
  let profile =
    { (P.Profile.find "m88ksim") with P.Profile.name = "t"; target_ops = 700; functions = 8 }
  in
  (snd (P.X86_backend.lower (P.Generator.generate ~seed profile))).P.Layout.code

(* Every (algorithm, ISA) pair through the container; the x86 code is
   not a whole number of words, which SAMC's byte mode must not need. *)
let test_compress_roundtrip () =
  let x86 = x86_code_for 1L in
  Alcotest.(check bool) "x86 input is not whole words" true (String.length x86 mod 4 <> 0);
  List.iter
    (fun (isa, code) ->
      Alcotest.(check bool) "isa name round-trips" true
        (Image.isa_of_name (Image.isa_name isa) = Some isa);
      List.iter
        (fun algo ->
          Alcotest.(check bool) "algo name round-trips" true
            (Image.algo_of_name (Image.algo_name algo) = Some algo);
          let label = Image.algo_name algo ^ "-" ^ Image.isa_name isa in
          let img = Image.compress ~algo ~isa ~block_size:32 code in
          match Image.read (Image.write img) with
          | Error e -> Alcotest.failf "%s: read failed: %s" label e
          | Ok img' ->
            Alcotest.(check bool) (label ^ ": isa preserved") true (img'.Image.isa = isa);
            Alcotest.(check string) (label ^ ": decompress") code (Image.decompress img');
            Alcotest.(check int) (label ^ ": lat entries") (Image.block_count img)
              (Lat.entries img'.Image.lat))
        [ Image.Samc; Image.Sadc ])
    [ (Image.Mips, code_for 1L); (Image.X86, x86) ]

let test_samc_image_roundtrip () =
  let code = code_for 1L in
  let z = Samc.compress (Samc.mips_config ()) code in
  let img = Image.of_samc ~isa:Image.Mips z in
  let bytes = Image.write img in
  match Image.read bytes with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok img' ->
    Alcotest.(check bool) "isa preserved" true (img'.Image.isa = Image.Mips);
    Alcotest.(check string) "decompress" code (Image.decompress img');
    Alcotest.(check int) "lat entries" (Array.length z.Samc.blocks) (Lat.entries img'.Image.lat)

let test_sadc_image_roundtrip () =
  let code = code_for 2L in
  let z = Sadc.Mips.compress_image (Sadc.default_config ()) code in
  let img = Image.of_sadc_mips z in
  match Image.read (Image.write img) with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok img' -> Alcotest.(check string) "decompress" code (Image.decompress img')

let test_lat_matches_payload () =
  let code = code_for 3L in
  let z = Samc.compress (Samc.mips_config ()) code in
  let img = Image.of_samc ~isa:Image.Mips z in
  Array.iteri
    (fun b blk ->
      Alcotest.(check int) (Printf.sprintf "lat length %d" b) (String.length blk)
        (Lat.length img.Image.lat b))
    z.Samc.blocks

let test_corruption_detected () =
  let code = code_for 4L in
  let bytes = Image.write (Image.compress ~algo:Image.Samc ~isa:Image.Mips ~block_size:32 code) in
  for pos = 0 to 5 do
    let target = 11 + (pos * String.length bytes / 7) in
    let corrupted = Bytes.of_string bytes in
    Bytes.set corrupted target
      (Char.chr ((Char.code (Bytes.get corrupted target) + 1) land 0xff));
    match Image.read (Bytes.to_string corrupted) with
    | Ok _ -> Alcotest.failf "corruption at %d not detected" target
    | Error _ -> ()
  done

let test_bad_magic_rejected () =
  (match Image.read "XXXX\x01\x00\x00rest" with
  | Error e -> Alcotest.(check string) "magic" "bad magic" e
  | Ok _ -> Alcotest.fail "bad magic accepted");
  match Image.read "SE" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated accepted"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_describe_mentions_algorithm () =
  let code = code_for 5L in
  let d = Image.describe (Image.compress ~algo:Image.Samc ~isa:Image.Mips ~block_size:32 code) in
  Alcotest.(check bool) "mentions samc" true (contains d "samc");
  Alcotest.(check bool) "mentions isa" true (contains d "mips")

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "crc32 detects change" `Quick test_crc32_detects_change;
    Alcotest.test_case "samc image roundtrip" `Quick test_samc_image_roundtrip;
    Alcotest.test_case "sadc image roundtrip" `Quick test_sadc_image_roundtrip;
    Alcotest.test_case "compress roundtrip, every pair" `Quick test_compress_roundtrip;
    Alcotest.test_case "lat matches payload" `Quick test_lat_matches_payload;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "bad magic rejected" `Quick test_bad_magic_rejected;
    Alcotest.test_case "describe" `Quick test_describe_mentions_algorithm;
  ]

let test_exotic_samc_configs_survive_container () =
  (* quantised + pruned + custom streams + byte mode all reload correctly *)
  let code = code_for 6L in
  List.iter
    (fun z ->
      match Image.read (Image.write (Image.of_samc ~isa:Image.Mips z)) with
      | Ok img -> Alcotest.(check string) "reload decompresses" code (Image.decompress img)
      | Error e -> Alcotest.failf "reload: %s" e)
    [
      Samc.compress (Samc.mips_config ~quantize:true ()) code;
      Samc.compress (Samc.mips_config ~prune_below:16 ()) code;
      Samc.compress (Samc.mips_config ~context_bits:0 ~block_size:64 ()) code;
      Samc.compress
        (Samc.mips_config
           ~streams:(Ccomp_core.Stream_split.consecutive ~word_bits:32 ~streams:8)
           ())
        code;
      Samc.compress (Samc.byte_config ()) code;
    ]

let test_sadc_x86_container () =
  let profile =
    { (P.Profile.find "m88ksim") with P.Profile.name = "t"; target_ops = 700; functions = 8 }
  in
  let code = (snd (P.X86_backend.lower (P.Generator.generate ~seed:7L profile))).P.Layout.code in
  let z = Sadc.X86.compress_image (Sadc.default_config ()) code in
  match Image.read (Image.write (Image.of_sadc_x86 z)) with
  | Ok img ->
    Alcotest.(check bool) "isa tag" true (img.Image.isa = Image.X86);
    Alcotest.(check string) "x86 container roundtrip" code (Image.decompress img)
  | Error e -> Alcotest.failf "reload: %s" e

let extra_suite =
  [
    Alcotest.test_case "exotic samc configs in container" `Quick test_exotic_samc_configs_survive_container;
    Alcotest.test_case "sadc x86 container" `Quick test_sadc_x86_container;
  ]

let suite = suite @ extra_suite
