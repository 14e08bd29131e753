module Prng = Ccomp_util.Prng
module Decode_error = Ccomp_util.Decode_error
module Image = Ccomp_image.Image
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Injector = Ccomp_fault.Injector
module Target = Ccomp_fault.Target
module Campaign = Ccomp_fault.Campaign
module System = Ccomp_memsys.System
module Lat = Ccomp_memsys.Lat
module Serve = Ccomp_serve.Serve
module Crc32 = Ccomp_image.Crc32
module P = Ccomp_progen

(* Every decode below runs under the one result boundary. *)
let protect f = Decode_error.protect ~section:"test" f

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

(* --- injector ---------------------------------------------------------- *)

let test_injector_deterministic () =
  let s = String.init 257 (fun i -> Char.chr (i land 0xff)) in
  let damage seed =
    let g = Prng.create seed in
    Injector.inject ~count:5 ~kinds:[| Injector.Flip; Byte; Trunc; Dup |] g s
  in
  let d1, f1 = damage 99L and d2, f2 = damage 99L in
  Alcotest.(check string) "same seed, same damage" d1 d2;
  Alcotest.(check int) "same fault count" (List.length f1) (List.length f2);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same faults" (Injector.describe_fault a)
        (Injector.describe_fault b))
    f1 f2;
  let d3, _ = damage 100L in
  Alcotest.(check bool) "different seed, different damage" true (d1 <> d3)

let test_injector_apply () =
  let s = "abcd" in
  Alcotest.(check string) "bit flip" "abcf" (Injector.apply (Injector.Bit_flip (3 * 8 + 1)) s);
  Alcotest.(check string) "byte set" "aXcd" (Injector.apply (Injector.Byte_set (1, Char.code 'X')) s);
  Alcotest.(check string) "truncate" "ab" (Injector.apply (Injector.Truncate 2) s);
  Alcotest.(check string) "duplicate" "abbcd" (Injector.apply (Injector.Duplicate (1, 1)) s);
  (* totality: out-of-range faults are no-ops *)
  Alcotest.(check string) "oob flip" s (Injector.apply (Injector.Bit_flip (100 * 8)) s);
  Alcotest.(check string) "oob byte" s (Injector.apply (Injector.Byte_set (9, 1)) s);
  Alcotest.(check string) "long truncate" s (Injector.apply (Injector.Truncate 10) s);
  Alcotest.(check string) "oob duplicate" s (Injector.apply (Injector.Duplicate (7, 2)) s)

let test_injector_range () =
  let s = String.make 64 '\x00' in
  let g = Prng.create 5L in
  for _ = 1 to 100 do
    match Injector.random_bit_flip ~range:(16, 8) g s with
    | Injector.Bit_flip bit ->
      let off = bit lsr 3 in
      Alcotest.(check bool) "flip within range" true (off >= 16 && off < 24)
    | _ -> Alcotest.fail "expected a bit flip"
  done

(* --- SECF v2 ----------------------------------------------------------- *)

let samc_image seed =
  let code = code_for seed in
  (code, Image.of_samc ~isa:Image.Mips (Samc.compress (Samc.mips_config ()) code))

let test_v2_roundtrip () =
  let code, img = samc_image 11L in
  List.iter
    (fun kind ->
      let img2 = Image.with_block_crcs kind img in
      let bytes = Image.write img2 in
      match Image.read bytes with
      | Error e -> Alcotest.failf "v2 read failed: %s" e
      | Ok img' ->
        Alcotest.(check bool) "tags present" true (img'.Image.block_crcs <> None);
        Alcotest.(check bool) "tags verify" true (Image.verify_block_crcs img' = Ok ());
        (match protect (fun () -> Image.decompress img') with
        | Ok out -> Alcotest.(check string) "decompress" code out
        | Error e -> Alcotest.failf "decompress failed: %s" (Decode_error.to_string e)))
    [ Image.Crc8_tags; Image.Crc16_tags ]

let test_v1_bytes_unchanged () =
  let _, img = samc_image 12L in
  (* attaching and removing tags must write the original v1 bytes *)
  let v1 = Image.write img in
  Alcotest.(check int) "version byte" 1 (Char.code v1.[4]);
  Alcotest.(check string) "v1 writer untouched" v1
    (Image.write (Image.without_block_crcs (Image.with_block_crcs Image.Crc8_tags img)));
  match Image.read v1 with
  | Error e -> Alcotest.failf "v1 read failed: %s" e
  | Ok img' -> Alcotest.(check bool) "no tags on v1" true (img'.Image.block_crcs = None)

let test_sections_cover_image () =
  let _, img = samc_image 13L in
  let img = Image.with_block_crcs Image.Crc8_tags img in
  let bytes = Image.write img in
  let sections = Image.sections img in
  List.iter
    (fun (sec, (off, len)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s in bounds" (Image.section_name sec))
        true
        (off >= 0 && len >= 0 && off + len <= String.length bytes))
    sections;
  (* the trailer must be the last four bytes *)
  let off, len = List.assoc Image.Sec_trailer_crc sections in
  Alcotest.(check int) "trailer length" 4 len;
  Alcotest.(check int) "trailer position" (String.length bytes - 4) off

let test_locate_corruption () =
  let _, img = samc_image 14L in
  let img = Image.with_block_crcs Image.Crc8_tags img in
  let bytes = Image.write img in
  let g = Prng.create 3L in
  let target = Image.block_count img / 2 in
  let damaged, faults =
    Target.corrupt_section ~count:1 g img (Image.Sec_block target) bytes
  in
  Alcotest.(check bool) "a fault was injected" true (faults <> []);
  match Image.read_checked ~verify_crc:false damaged with
  | Error e -> Alcotest.failf "structural read failed: %s" (Decode_error.to_string e)
  | Ok img' ->
    Alcotest.(check (list int)) "corruption localised" [ target ] (Image.locate_corruption img');
    (match protect (fun () -> Image.decompress img') with
    | Error (Decode_error.Crc_mismatch _) -> ()
    | Error e -> Alcotest.failf "expected CRC mismatch, got %s" (Decode_error.to_string e)
    | Ok _ -> Alcotest.fail "corrupt block decoded without complaint")

(* Both decode paths refuse a corrupt v2 image for the same block, and
   a decode that fails inside the domain pool leaves the pool usable. *)
let test_parallel_refusal () =
  let code, img = samc_image 15L in
  let img = Image.with_block_crcs Image.Crc8_tags img in
  let target = Image.block_count img / 3 in
  let damaged, _ =
    Target.corrupt_section ~count:1 (Prng.create 9L) img (Image.Sec_block target)
      (Image.write img)
  in
  let img' = Result.get_ok (Image.read_checked ~verify_crc:false damaged) in
  let refusal jobs =
    match protect (fun () -> Image.decompress ~jobs img') with
    | Error (Decode_error.Crc_mismatch { section; _ }) -> section
    | Error e ->
      Alcotest.failf "jobs %d: expected CRC mismatch, got %s" jobs (Decode_error.to_string e)
    | Ok _ -> Alcotest.failf "jobs %d: corrupt block decoded without complaint" jobs
  in
  Alcotest.(check string) "serial and parallel name the same block" (refusal 1) (refusal 2);
  Alcotest.(check bool) "the corrupt block is named" true
    (String.starts_with ~prefix:(Printf.sprintf "block %d " target) (refusal 2));
  (* a tagless image whose damaged block fails mid-decode, in the pool *)
  let x86 = x86_code_for 21L in
  let sadc = Image.of_sadc_x86 (Sadc.X86.compress_image (Sadc.default_config ()) x86) in
  let damaged, _ =
    Target.corrupt_section ~count:8 ~kinds:[| Injector.Byte |] (Prng.create 4L) sadc
      (Image.Sec_block 5) (Image.write sadc)
  in
  let sadc' = Result.get_ok (Image.read_checked ~verify_crc:false damaged) in
  let aborted jobs =
    match protect (fun () -> Image.decompress ~jobs sadc') with
    | Error e -> Decode_error.to_string e
    | Ok _ -> Alcotest.failf "jobs %d: damaged block decoded" jobs
  in
  Alcotest.(check string) "same in-pool failure for jobs 1 and 2" (aborted 1) (aborted 2);
  Alcotest.(check string) "pool survives an aborted dispatch" code (Image.decompress ~jobs:2 img);
  Alcotest.(check string) "pool survives an aborted dispatch (sadc)" x86
    (Image.decompress ~jobs:2 sadc)

(* --- bounded refusals -------------------------------------------------- *)

(* [f] must refuse hostile bytes fast, without allocating what they
   declare: under 1 s, and under 1 M words both allocated and added to
   the heap's high-water mark. *)
let bounded_refusal f =
  let top0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let alloc_words = (Gc.allocated_bytes () -. alloc0) /. 8.0 in
  let top_growth = (Gc.quick_stat ()).Gc.top_heap_words - top0 in
  Alcotest.(check bool) (Printf.sprintf "refused in %.3f s < 1 s" seconds) true (seconds < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f words < 1M" alloc_words)
    true (alloc_words < 1e6);
  Alcotest.(check bool)
    (Printf.sprintf "top_heap_words grew %d < 1M" top_growth)
    true (top_growth < 1_000_000);
  r

let test_bomb_refused () =
  let bomb = Ccomp_fault.Net_chaos.decompression_bomb () in
  let img =
    match Image.read bomb with Ok img -> img | Error e -> Alcotest.failf "bomb must read: %s" e
  in
  (match bounded_refusal (fun () -> protect (fun () -> Image.decompress ~jobs:2 img)) with
  | Error (Decode_error.Length_overflow { declared; limit; _ }) ->
    Alcotest.(check int) "declared" (1 lsl 31) declared;
    Alcotest.(check int) "limit" (1 lsl 28) limit
  | Error e -> Alcotest.failf "expected length overflow, got %s" (Decode_error.to_string e)
  | Ok _ -> Alcotest.fail "bomb decoded");
  match bounded_refusal (fun () -> Serve.handle_request ~jobs:2 (Serve.Decompress bomb)) with
  | Serve.Failed msg ->
    Alcotest.(check bool) ("served refusal names the overflow: " ^ msg) true
      (String.starts_with ~prefix:"length overflow" msg)
  | _ -> Alcotest.fail "daemon dispatch did not fail the bomb"

(* An SADC image whose block prefixes declare 65535 bytes each while
   the header declares the real size: decode would allocate the sum, so
   reading must refuse the disagreement. *)
let test_sadc_block_sizes_bound () =
  let img = Image.of_sadc_mips (Sadc.Mips.compress_image (Sadc.default_config ()) (code_for 31L)) in
  let bytes = Bytes.of_string (Image.write img) in
  List.iter
    (function
      | Image.Sec_block _, (off, _) ->
        (* prefix: u16 payload length, then u16 original bytes *)
        Bytes.set bytes (off - 2) '\xff';
        Bytes.set bytes (off - 1) '\xff'
      | _ -> ())
    (Image.sections img);
  let n = Bytes.length bytes in
  let crc = Crc32.of_string (Bytes.sub_string bytes 0 (n - 4)) in
  Bytes.set_int32_be bytes (n - 4) crc;
  match bounded_refusal (fun () -> Image.read_checked (Bytes.to_string bytes)) with
  | Error (Decode_error.Malformed _) -> ()
  | Error e -> Alcotest.failf "expected malformed, got %s" (Decode_error.to_string e)
  | Ok _ -> Alcotest.fail "block sizes disagreeing with the header were accepted"

(* --- hardened decoders ------------------------------------------------- *)

let test_huffman_rejects_deficient () =
  (* lengths [2;2;0]: Kraft sum 1/2 < 1 — some bit patterns decode to nothing *)
  let deficient = "\x00\x03\x01\x02\x00\x00" in
  (match Ccomp_huffman.Huffman.deserialize_lengths deficient ~pos:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deficient table accepted");
  (* the degenerate single-symbol code stays legal *)
  let single = "\x00\x01\x00\x01" in
  let code, _ = Ccomp_huffman.Huffman.deserialize_lengths single ~pos:0 in
  Alcotest.(check int) "single-symbol alphabet" 1 (Ccomp_huffman.Huffman.alphabet_size code)

let test_lzw_max_output () =
  let data = String.concat "" (List.init 50 (fun i -> Printf.sprintf "chunk %d " i)) in
  let z = Ccomp_baselines.Lzw.compress data in
  (match protect (fun () -> Ccomp_baselines.Lzw.decompress ~max_output:(String.length data) z) with
  | Ok out -> Alcotest.(check string) "roundtrip under cap" data out
  | Error e -> Alcotest.failf "in-budget decompress failed: %s" (Decode_error.to_string e));
  match protect (fun () -> Ccomp_baselines.Lzw.decompress ~max_output:10 z) with
  | Error (Decode_error.Length_overflow _) -> ()
  | Error e -> Alcotest.failf "expected overflow, got %s" (Decode_error.to_string e)
  | Ok _ -> Alcotest.fail "output exceeded max_output without complaint"

let test_lzss_max_output () =
  let data = String.concat "" (List.init 50 (fun i -> Printf.sprintf "block %d " i)) in
  let z = Ccomp_baselines.Lzss.compress data in
  (match protect (fun () -> Ccomp_baselines.Lzss.decompress ~max_output:(String.length data) z) with
  | Ok out -> Alcotest.(check string) "roundtrip under cap" data out
  | Error e -> Alcotest.failf "in-budget decompress failed: %s" (Decode_error.to_string e));
  match protect (fun () -> Ccomp_baselines.Lzss.decompress ~max_output:10 z) with
  | Error (Decode_error.Length_overflow _) -> ()
  | Error e -> Alcotest.failf "expected overflow, got %s" (Decode_error.to_string e)
  | Ok _ -> Alcotest.fail "output exceeded max_output without complaint"

(* --- campaigns --------------------------------------------------------- *)

let secf_codecs () =
  let mips = code_for 21L and x86 = x86_code_for 21L in
  [
    Campaign.image_codec ~algo:Image.Samc ~isa:Image.Mips mips;
    Campaign.image_codec ~algo:Image.Samc ~isa:Image.X86 x86;
    Campaign.image_codec ~algo:Image.Sadc ~isa:Image.Mips mips;
    Campaign.image_codec ~algo:Image.Sadc ~isa:Image.X86 x86;
  ]

(* The acceptance property, one qcheck test per algorithm/ISA: flip any
   single bit of a valid SECF image and the checked decode path either
   reports a typed error or round-trips exactly — never raises, never
   silently miscompares. 250 trials each. *)
let prop_bit_flip_never_silent codec =
  let nbits = String.length codec.Campaign.encoded * 8 in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: single-bit flips detected or recovered" codec.Campaign.name)
    ~count:250
    QCheck.(int_bound (nbits - 1))
    (fun bit ->
      let damaged = Injector.apply (Injector.Bit_flip bit) codec.Campaign.encoded in
      match Campaign.trial codec damaged with
      | Campaign.Detected | Campaign.Recovered -> true
      | Campaign.Miscompared -> false)

let test_campaign_counts () =
  let codec = List.hd (secf_codecs ()) in
  let r = Campaign.run ~seed:7 ~trials:100 codec in
  Alcotest.(check int) "all trials classified" 100 (r.Campaign.detected + r.Campaign.recovered);
  Alcotest.(check int) "no silent miscompares" 0 r.Campaign.miscompared;
  Alcotest.(check bool) "flips are detected" true (r.Campaign.detected > 90);
  let r' = Campaign.run ~seed:7 ~trials:100 codec in
  Alcotest.(check int) "campaign deterministic" r.Campaign.detected r'.Campaign.detected;
  (* the seed rides in the report so any logged row replays its run *)
  Alcotest.(check int) "report carries its seed" 7 r.Campaign.seed;
  Alcotest.(check bool) "seed printed in the report row" true
    (let row = Campaign.report_row r in
     let needle = " 7 " in
     let n = String.length needle in
     let rec find i = i + n <= String.length row && (String.sub row i n = needle || find (i + 1)) in
     find 0)

let test_campaign_multi_fault_sweep () =
  let codec = List.hd (secf_codecs ()) in
  let reports = Campaign.sweep ~seed:3 ~trials:40 ~fault_counts:[ 1; 2; 4 ] codec in
  Alcotest.(check int) "one report per count" 3 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check int) "no silent miscompares" 0 r.Campaign.miscompared;
      Alcotest.(check int) "all classified" 40 (r.Campaign.detected + r.Campaign.recovered))
    reports

(* Raw decoders carry no integrity metadata: miscompares are permitted
   (and recorded as such), but exceptions still are not — Campaign.run
   would propagate one and fail this test loudly. *)
let test_campaign_unchecked_baselines_total () =
  let data = code_for 22L in
  let codecs =
    [
      {
        Campaign.name = "lzw";
        encoded = Ccomp_baselines.Lzw.compress data;
        reference = data;
        decode =
          (fun s ->
            protect (fun () -> Ccomp_baselines.Lzw.decompress ~max_output:(String.length data) s));
        integrity_checked = false;
      };
      {
        Campaign.name = "lzss";
        encoded = Ccomp_baselines.Lzss.compress data;
        reference = data;
        decode =
          (fun s ->
            protect (fun () -> Ccomp_baselines.Lzss.decompress ~max_output:(String.length data) s));
        integrity_checked = false;
      };
      {
        Campaign.name = "byte-huffman";
        encoded = Ccomp_baselines.Byte_huffman.(serialize (compress data));
        reference = data;
        decode =
          (fun s ->
            protect (fun () ->
                let c, _ = Ccomp_baselines.Byte_huffman.deserialize s ~pos:0 in
                Ccomp_baselines.Byte_huffman.decompress ~max_output:(String.length data) c));
        integrity_checked = false;
      };
    ]
  in
  List.iter
    (fun codec ->
      let kinds = [| Injector.Flip; Byte; Trunc; Dup |] in
      let r = Campaign.run ~kinds ~seed:17 ~trials:150 codec in
      Alcotest.(check int)
        (codec.Campaign.name ^ " total")
        150
        (r.Campaign.detected + r.Campaign.recovered + r.Campaign.miscompared))
    codecs

(* --- memory-system degradation ----------------------------------------- *)

let fault_sim response ~fault_rate ?(detection = 1.0) () =
  let blocks = 256 in
  let lat = Lat.build (Array.make blocks 24) in
  (* sweep a footprint much larger than the cache so every pass misses *)
  let trace = Array.init 20_000 (fun i -> i * 32 mod (blocks * 32)) in
  let fault =
    { System.default_fault_config with fault_rate; response; detection; fault_seed = 5 }
  in
  let config cache_bytes fault =
    {
      (System.default_config ~cache_bytes ~decompressor:System.samc_decompressor ?fault ()) with
      clb_entries = 8;
    }
  in
  let clean = System.run (config 2048 None) ~lat ~trace () in
  let faulty = System.run (config 2048 (Some fault)) ~lat ~trace () in
  (clean, faulty)

let test_system_retry_counters () =
  let clean, faulty = fault_sim (System.Retry 3) ~fault_rate:0.2 () in
  Alcotest.(check bool) "faults injected" true (faulty.System.faults_injected > 0);
  Alcotest.(check bool) "retries happened" true (faulty.System.fault_retries > 0);
  Alcotest.(check int) "no stale lines under retry" 0 faulty.System.stale_lines;
  Alcotest.(check int) "nothing slips through" 0 faulty.System.undetected_faults;
  let slowdown = faulty.System.cpi /. clean.System.cpi in
  Alcotest.(check bool) "faults cost cycles" true (slowdown > 1.0);
  Alcotest.(check bool) "degradation bounded" true (slowdown < 3.0)

let test_system_trap_counters () =
  let clean, faulty = fault_sim System.Trap ~fault_rate:0.2 () in
  Alcotest.(check bool) "traps taken" true (faulty.System.fault_traps > 0);
  Alcotest.(check int) "no retries under trap" 0 faulty.System.fault_retries;
  let slowdown = faulty.System.cpi /. clean.System.cpi in
  Alcotest.(check bool) "degradation bounded" true (slowdown > 1.0 && slowdown < 4.0)

let test_system_stale_counters () =
  let clean, faulty = fault_sim System.Stale ~fault_rate:0.2 () in
  Alcotest.(check bool) "stale lines served" true (faulty.System.stale_lines > 0);
  Alcotest.(check int) "stale costs nothing extra" clean.System.total_cycles
    faulty.System.total_cycles

let test_system_undetected_faults () =
  let _, faulty = fault_sim (System.Retry 3) ~fault_rate:0.2 ~detection:0.0 () in
  Alcotest.(check bool) "faults injected" true (faulty.System.faults_injected > 0);
  Alcotest.(check int) "all slip through when detection is off"
    faulty.System.faults_injected faulty.System.undetected_faults;
  Alcotest.(check int) "no response without detection" 0
    (faulty.System.fault_retries + faulty.System.fault_traps)

let test_system_deterministic () =
  let _, f1 = fault_sim (System.Retry 2) ~fault_rate:0.1 () in
  let _, f2 = fault_sim (System.Retry 2) ~fault_rate:0.1 () in
  Alcotest.(check int) "same seed, same cycles" f1.System.total_cycles f2.System.total_cycles;
  Alcotest.(check int) "same seed, same faults" f1.System.faults_injected
    f2.System.faults_injected

let suite =
  [
    Alcotest.test_case "injector: deterministic from seed" `Quick test_injector_deterministic;
    Alcotest.test_case "injector: apply semantics + totality" `Quick test_injector_apply;
    Alcotest.test_case "injector: range-confined flips" `Quick test_injector_range;
    Alcotest.test_case "secf v2: tagged roundtrip (crc8 + crc16)" `Quick test_v2_roundtrip;
    Alcotest.test_case "secf v2: v1 writer byte-identical" `Quick test_v1_bytes_unchanged;
    Alcotest.test_case "secf v2: section map in bounds" `Quick test_sections_cover_image;
    Alcotest.test_case "secf v2: corruption localised to block" `Quick test_locate_corruption;
    Alcotest.test_case "secf: parallel refusal matches serial" `Quick test_parallel_refusal;
    Alcotest.test_case "secf: decompression bomb refused" `Quick test_bomb_refused;
    Alcotest.test_case "sadc: block sizes bound by header" `Quick test_sadc_block_sizes_bound;
    Alcotest.test_case "huffman: deficient tables rejected" `Quick test_huffman_rejects_deficient;
    Alcotest.test_case "lzw: max_output enforced" `Quick test_lzw_max_output;
    Alcotest.test_case "lzss: max_output enforced" `Quick test_lzss_max_output;
    Alcotest.test_case "campaign: counts + determinism" `Quick test_campaign_counts;
    Alcotest.test_case "campaign: multi-fault sweep" `Quick test_campaign_multi_fault_sweep;
    Alcotest.test_case "campaign: unchecked baselines stay total" `Quick
      test_campaign_unchecked_baselines_total;
    Alcotest.test_case "system: retry response counters" `Quick test_system_retry_counters;
    Alcotest.test_case "system: trap response counters" `Quick test_system_trap_counters;
    Alcotest.test_case "system: stale response counters" `Quick test_system_stale_counters;
    Alcotest.test_case "system: undetected faults counted" `Quick test_system_undetected_faults;
    Alcotest.test_case "system: deterministic from fault seed" `Quick test_system_deterministic;
  ]
  @ List.map (fun c -> QCheck_alcotest.to_alcotest (prop_bit_flip_never_silent c)) (secf_codecs ())
