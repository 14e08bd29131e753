module Samc = Ccomp_core.Samc
module Markov_model = Ccomp_core.Markov_model
module Coder = Ccomp_arith.Binary_coder
module Obs = Ccomp_obs.Obs
module Stream_split = Ccomp_core.Stream_split
module Prng = Ccomp_util.Prng
module P = Ccomp_progen

let mips_code seed =
  let profile =
    { (P.Profile.find "compress") with P.Profile.name = "t"; target_ops = 600; functions = 8 }
  in
  let prog = P.Generator.generate ~seed profile in
  (snd (P.Mips_backend.lower prog)).P.Layout.code

let test_roundtrip_mips () =
  let code = mips_code 1L in
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check int) "size preserved" (String.length code) z.Samc.original_size;
  Alcotest.(check string) "roundtrip" code (Samc.decompress z)

let test_roundtrip_bytes () =
  let g = Prng.create 2L in
  (* byte-mode on arbitrary data, like the x86 evaluation *)
  let data = String.init 4096 (fun _ -> Char.chr (Prng.int g 64)) in
  let z = Samc.compress (Samc.byte_config ()) data in
  Alcotest.(check string) "byte-mode roundtrip" data (Samc.decompress z)

let test_compression_beats_random () =
  let code = mips_code 3L in
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check bool)
    (Printf.sprintf "code compresses well (%.3f)" (Samc.ratio z))
    true (Samc.ratio z < 0.75);
  let g = Prng.create 4L in
  let noise = String.init (String.length code) (fun _ -> Char.chr (Prng.int g 256)) in
  let zn = Samc.compress (Samc.mips_config ()) noise in
  (* Being semiadaptive, the model is fitted to the very bytes it codes,
     so small noise inputs show an overfitting gain in the code stream;
     once the shipped model is charged, noise must not compress. *)
  Alcotest.(check bool)
    (Printf.sprintf "noise does not compress once the model is charged (%.3f)"
       (Samc.ratio_with_model zn))
    true
    (Samc.ratio_with_model zn > 0.98)

let test_block_isolation () =
  (* Any block decodes from its own bytes alone: the refill-engine
     property. Decode out of order and compare against the source. *)
  let code = mips_code 5L in
  let cfg = Samc.mips_config () in
  let z = Samc.compress cfg code in
  let nblocks = Array.length z.Samc.blocks in
  let order = Array.init nblocks (fun i -> nblocks - 1 - i) in
  Array.iter
    (fun b ->
      let original_bytes = min 32 (String.length code - (b * 32)) in
      let line = Samc.decompress_block cfg z.Samc.model ~original_bytes z.Samc.blocks.(b) in
      Alcotest.(check string)
        (Printf.sprintf "block %d" b)
        (String.sub code (b * 32) original_bytes)
        line)
    order

(* [decompress_block] keeps the last image's decode tables per domain:
   interleaving blocks of images with different configs and models must
   still decode each against its own. *)
let test_decompress_block_interleaved () =
  let mips = mips_code 16L in
  let g = Prng.create 17L in
  let bytes = String.init 2048 (fun _ -> Char.chr (Prng.int g 64)) in
  let images =
    [
      (Samc.mips_config (), mips);
      (Samc.byte_config (), bytes);
      (Samc.mips_config ~context_bits:0 (), mips);
    ]
    |> List.map (fun (cfg, code) -> (cfg, code, Samc.compress cfg code))
  in
  for b = 0 to 40 do
    List.iter
      (fun (cfg, code, z) ->
        let original_bytes = min 32 (String.length code - (b * 32)) in
        Alcotest.(check string)
          (Printf.sprintf "block %d" b)
          (String.sub code (b * 32) original_bytes)
          (Samc.decompress_block cfg z.Samc.model ~original_bytes z.Samc.blocks.(b)))
      images
  done

let test_block_count () =
  let cfg = Samc.mips_config () in
  Alcotest.(check int) "exact blocks" 4 (Samc.block_count cfg ~code_bytes:128);
  Alcotest.(check int) "partial tail block" 5 (Samc.block_count cfg ~code_bytes:132);
  Alcotest.(check int) "single" 1 (Samc.block_count cfg ~code_bytes:4)

let test_partial_tail_block () =
  let code = mips_code 6L in
  let code = String.sub code 0 (String.length code - (String.length code mod 32) + 4) in
  (* length = k*32 + 4: the final block holds a single instruction *)
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check string) "tail block roundtrip" code (Samc.decompress z)

let test_block_size_variants () =
  let code = mips_code 7L in
  List.iter
    (fun block_size ->
      let z = Samc.compress (Samc.mips_config ~block_size ()) code in
      Alcotest.(check string) (Printf.sprintf "block size %d" block_size) code (Samc.decompress z))
    [ 8; 16; 32; 64; 128 ]

let test_larger_blocks_compress_no_worse () =
  (* block resets cost flush bytes; bigger blocks amortise them *)
  let code = mips_code 8L in
  let r16 = Samc.ratio (Samc.compress (Samc.mips_config ~block_size:16 ()) code) in
  let r128 = Samc.ratio (Samc.compress (Samc.mips_config ~block_size:128 ()) code) in
  Alcotest.(check bool) (Printf.sprintf "128B %.3f <= 16B %.3f" r128 r16) true (r128 <= r16)

let test_context_bits_effect () =
  let code = mips_code 9L in
  List.iter
    (fun context_bits ->
      let z = Samc.compress (Samc.mips_config ~context_bits ()) code in
      Alcotest.(check string)
        (Printf.sprintf "context %d roundtrip" context_bits)
        code (Samc.decompress z))
    [ 0; 1; 2; 4 ]

let test_quantized_roundtrip_and_penalty () =
  let code = mips_code 10L in
  let exact = Samc.compress (Samc.mips_config ()) code in
  let quant = Samc.compress (Samc.mips_config ~quantize:true ()) code in
  Alcotest.(check string) "quantized roundtrip" code (Samc.decompress quant);
  (* shift-only probabilities lose some efficiency but not much (§3: ~95%) *)
  Alcotest.(check bool)
    (Printf.sprintf "penalty bounded (%.3f vs %.3f)" (Samc.ratio quant) (Samc.ratio exact))
    true
    (Samc.ratio quant >= Samc.ratio exact && Samc.ratio quant < Samc.ratio exact *. 1.35)

let test_custom_streams () =
  let code = mips_code 11L in
  let streams = Stream_split.consecutive ~word_bits:32 ~streams:8 in
  let z = Samc.compress (Samc.mips_config ~streams ()) code in
  Alcotest.(check string) "8x4 roundtrip" code (Samc.decompress z)

let test_invalid_configs_rejected () =
  let bad_block = Samc.mips_config ~block_size:10 () in
  (* 10 bytes = 2.5 words *)
  Alcotest.(check bool) "block not multiple of word" true (Samc.validate_config bad_block <> Ok ());
  let bad_streams = { (Samc.mips_config ()) with Samc.streams = [| [| 0; 1 |] |] } in
  Alcotest.(check bool) "incomplete partition" true (Samc.validate_config bad_streams <> Ok ());
  (* the block size is a u16 header field *)
  List.iter
    (fun block_size ->
      let name = Printf.sprintf "block size %d refused" block_size in
      Alcotest.(check bool) name true
        (Samc.validate_config (Samc.byte_config ~block_size ()) <> Ok ());
      match Samc.compress (Samc.byte_config ~block_size ()) "code" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "compress accepted block size %d" block_size)
    [ 0; -8; 65536 ];
  Alcotest.(check bool) "block size 65535 accepted in byte mode" true
    (Samc.validate_config (Samc.byte_config ~block_size:65535 ()) = Ok ())

let test_misaligned_input_rejected () =
  Alcotest.check_raises "odd byte count"
    (Invalid_argument "Samc.compress: code size is not a multiple of the word size") (fun () ->
      ignore (Samc.compress (Samc.mips_config ()) "abc"))

let test_serialization_roundtrip () =
  let code = mips_code 12L in
  let z = Samc.compress (Samc.mips_config ~quantize:true ()) code in
  let s = Samc.serialize z in
  let z', pos = Samc.deserialize s ~pos:0 in
  Alcotest.(check int) "all consumed" (String.length s) pos;
  Alcotest.(check string) "deserialized decompresses" code (Samc.decompress z')

let test_ratio_accounting () =
  let code = mips_code 13L in
  let z = Samc.compress (Samc.mips_config ()) code in
  let sum = Array.fold_left (fun a b -> a + String.length b) 0 z.Samc.blocks in
  Alcotest.(check int) "code_bytes is the block sum" sum (Samc.code_bytes z);
  Alcotest.(check bool) "with model is larger" true (Samc.ratio_with_model z > Samc.ratio z)

(* The per-stream metrics are priced in closed form from the training
   counts. Replay every coded bit through [Markov_model.p0] here (the
   definition) and compare: bits_in exactly, bits_out within 1 bit. *)
let replay_stream_costs (c : Samc.config) model code =
  let wb = c.Samc.word_bits / 8 in
  let words = String.length code / wb and wpb = c.Samc.block_size / wb in
  let n = Array.length c.Samc.streams in
  let bits_in = Array.make n 0 and bits_out = Array.make n 0.0 in
  let ctx = ref 0 in
  for wi = 0 to words - 1 do
    if wi mod wpb = 0 then ctx := 0;
    let word = ref 0 in
    for i = 0 to wb - 1 do
      word := (!word lsl 8) lor Char.code code.[(wi * wb) + i]
    done;
    Array.iteri
      (fun s positions ->
        let node = ref 1 in
        Array.iter
          (fun pos ->
            let bit = (!word lsr (c.Samc.word_bits - 1 - pos)) land 1 in
            let p0 = Markov_model.p0 model ~stream:s ~ctx:!ctx ~node:!node in
            let p = if bit = 0 then p0 else Coder.scale - p0 in
            bits_in.(s) <- bits_in.(s) + 1;
            bits_out.(s) <- bits_out.(s) -. Float.log2 (float_of_int p /. float_of_int Coder.scale);
            node := (2 * !node) + bit)
          positions;
        ctx := (!node - (1 lsl Array.length positions)) land ((1 lsl c.Samc.context_bits) - 1))
      c.Samc.streams
  done;
  (bits_in, bits_out)

let test_stream_costs_closed_form () =
  let mips = mips_code 14L in
  let g = Prng.create 15L in
  let bytes = String.init 4096 (fun _ -> Char.chr (min 255 (Prng.geometric g 0.1 * 8))) in
  (* a scattered split: stream s holds bits s, s+4, s+8, ... *)
  let scattered = Array.init 4 (fun s -> Array.init 8 (fun k -> s + (4 * k))) in
  let metrics = Obs.metrics_enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_metrics metrics) @@ fun () ->
  Obs.set_metrics true;
  List.iter
    (fun (name, cfg, code) ->
      Obs.reset ();
      let z = Samc.compress cfg code in
      let bits_in, bits_out = replay_stream_costs cfg z.Samc.model code in
      Array.iteri
        (fun s expected_in ->
          let counter fmt = Obs.Counter.value (Obs.Counter.make (Printf.sprintf fmt s)) in
          Alcotest.(check int)
            (Printf.sprintf "%s: stream %d bits_in" name s)
            expected_in (counter "samc.stream%d.bits_in");
          let out = counter "samc.stream%d.bits_out" in
          Alcotest.(check bool)
            (Printf.sprintf "%s: stream %d bits_out %d vs replay %.2f" name s out bits_out.(s))
            true
            (Float.abs (float_of_int out -. bits_out.(s)) <= 1.0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: stream %d ratio" name s)
            true
            (Float.abs
               (Obs.Gauge.value (Obs.Gauge.make (Printf.sprintf "samc.stream%d.ratio" s))
               -. (bits_out.(s) /. float_of_int expected_in))
            < 1e-9))
        bits_in)
    [
      ("mips 4x8", Samc.mips_config (), mips);
      ("byte mode", Samc.byte_config (), bytes);
      ("scattered", Samc.mips_config ~streams:scattered (), mips);
      ("pruned", Samc.mips_config ~prune_below:6 (), mips);
      ("pruned byte mode", Samc.byte_config ~prune_below:3 ~quantize:true (), bytes);
    ]

(* The bounds are 1.5x what compress measures on gcc at scale 0.25 with
   metrics off: 2.80 bytes per input byte for the MIPS config and 3.02 in
   byte mode. A per-bit closure or boxed value in the counting or coding
   pass costs tens of bytes per input byte and fails it. *)
let test_compress_allocation () =
  let gcc = Ccomp_paper.Paper.prepare ~scale:0.25 (P.Profile.find "gcc") in
  let metrics = Obs.metrics_enabled () in
  Obs.set_metrics false;
  Fun.protect ~finally:(fun () -> Obs.set_metrics metrics) @@ fun () ->
  List.iter
    (fun (name, cfg, code, bound) ->
      ignore (Samc.compress cfg code);
      let before = Gc.minor_words () in
      ignore (Samc.compress cfg code);
      let per_byte =
        (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8)
        /. float_of_int (String.length code)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor bytes per input byte <= %.1f" name per_byte bound)
        true (per_byte <= bound))
    [
      ("mips", Samc.mips_config (), Ccomp_paper.Paper.mips_code gcc, 4.2);
      ("byte mode", Samc.byte_config (), Ccomp_paper.Paper.x86_code gcc, 4.5);
    ]

let prop_roundtrip_random_words =
  QCheck.Test.make ~name:"samc round-trips arbitrary word streams" ~count:30
    QCheck.(pair small_int int)
    (fun (n, seed) ->
      let g = Prng.create (Int64.of_int seed) in
      let n = 4 * max 1 n in
      (* skewed bytes so the model has something to learn *)
      let data = String.init n (fun _ -> Char.chr (min 255 (Prng.geometric g 0.2 * 16))) in
      let z = Samc.compress (Samc.mips_config ()) data in
      String.equal (Samc.decompress z) data)

(* Whole-image decode pairs blocks 2k and 2k+1 through the two-lane
   kernel; it must rebuild exactly the blocks the reference kernel
   decodes one at a time, at every [jobs], for every image shape: odd
   and even block counts, a short last block, byte mode, scattered
   streams (which stay single-lane), quantised and pruned models. *)
let prop_decompress_equals_ref =
  let mips = lazy (mips_code 21L) in
  let scattered = Array.init 4 (fun s -> Array.init 8 (fun k -> s + (4 * k))) in
  let configs =
    [|
      ("mips", Samc.mips_config ());
      ("byte mode", Samc.byte_config ());
      ("scattered", Samc.mips_config ~streams:scattered ());
      ("quantised", Samc.mips_config ~quantize:true ());
      ("pruned", Samc.mips_config ~prune_below:4 ~context_bits:3 ());
      ("pruned quantised byte mode", Samc.byte_config ~prune_below:2 ~quantize:true ());
      ( "16-byte blocks, 2 streams",
        Samc.mips_config ~block_size:16
          ~streams:(Stream_split.consecutive ~word_bits:32 ~streams:2)
          () );
    |]
  in
  QCheck.Test.make ~name:"decompress equals the reference kernel's blocks" ~count:60
    QCheck.(triple (int_bound (Array.length configs - 1)) (int_range 1 400) small_int)
    (fun (ci, n_words, seed) ->
      let name, cfg = configs.(ci) in
      let code =
        if cfg.Samc.word_bits = 32 then begin
          let m = Lazy.force mips in
          let len = min (String.length m) (4 * n_words) in
          let start = 4 * (seed mod (((String.length m - len) / 4) + 1)) in
          String.sub m start len
        end
        else begin
          let g = Prng.create (Int64.of_int seed) in
          String.init n_words (fun _ -> Char.chr (min 255 (Prng.geometric g 0.15 * 8)))
        end
      in
      let z = Samc.compress cfg code in
      let expected =
        String.concat ""
          (Array.to_list
             (Array.mapi
                (fun b payload ->
                  let original_bytes =
                    min cfg.Samc.block_size (String.length code - (b * cfg.Samc.block_size))
                  in
                  Samc.decompress_block_ref cfg z.Samc.model ~original_bytes payload)
                z.Samc.blocks))
      in
      List.for_all
        (fun jobs ->
          let got = Samc.decompress ~jobs z in
          String.equal got expected
          || QCheck.Test.fail_reportf
               "%s, %d blocks, jobs %d: decompress differs from the reference" name
               (Array.length z.Samc.blocks) jobs)
        [ 1; 2 ])

(* Pairing must not halve the per-block metric family: an image with an
   odd number of blocks and a short last block still counts and
   observes every block once, at every [jobs]. *)
let test_decompress_metrics_per_block () =
  let code = mips_code 22L in
  let blocks = (((String.length code / 32) - 1) / 2 * 2) + 1 in
  let code = String.sub code 0 (((blocks - 1) * 32) + 12) in
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check int) "odd block count" blocks (Array.length z.Samc.blocks);
  let metrics = Obs.metrics_enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_metrics metrics) @@ fun () ->
  Obs.set_metrics true;
  List.iter
    (fun jobs ->
      Obs.reset ();
      Alcotest.(check string) "roundtrip" code (Samc.decompress ~jobs z);
      let counter name = Obs.Counter.value (Obs.Counter.make ("samc.decompress." ^ name)) in
      let label what = Printf.sprintf "jobs %d: %s" jobs what in
      Alcotest.(check int) (label "blocks counted") blocks (counter "blocks");
      Alcotest.(check int)
        (label "block_us observations")
        blocks
        (Obs.Histogram.count (Obs.Histogram.make "samc.decompress.block_us"));
      Alcotest.(check int) (label "bytes_in") (Samc.code_bytes z) (counter "bytes_in");
      Alcotest.(check int) (label "bytes_out") (String.length code) (counter "bytes_out"))
    [ 1; 2 ]

(* The two-lane decoder takes only what its kernel can place: equal
   blocks of a config whose streams are runs of consecutive bits. *)
let test_pair_decoder_refusals () =
  let code = mips_code 23L in
  let code = String.sub code 0 (String.length code - (String.length code mod 32) - 20) in
  let z = Samc.compress (Samc.mips_config ()) code in
  let last = Array.length z.Samc.blocks - 1 in
  let decode = Samc.pair_decoder z in
  let out = Bytes.create (String.length code) in
  Alcotest.(check int) "an equal pair" 32 (decode 0 out 0 32);
  Alcotest.(check string) "the pair rebuilds its blocks" (String.sub code 0 64)
    (Bytes.sub_string out 0 64);
  let refused name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was accepted" name
  in
  refused "a pair with a short block" (fun () -> decode (last - 1) out 0 32);
  refused "a pair past the last block" (fun () -> decode last out 0 32);
  let scattered = Array.init 4 (fun s -> Array.init 8 (fun k -> s + (4 * k))) in
  refused "scattered streams" (fun () ->
      Samc.pair_decoder (Samc.compress (Samc.mips_config ~streams:scattered ()) code))

let suite =
  [
    Alcotest.test_case "mips roundtrip" `Quick test_roundtrip_mips;
    Alcotest.test_case "byte-mode roundtrip" `Quick test_roundtrip_bytes;
    Alcotest.test_case "compresses code, not noise" `Quick test_compression_beats_random;
    Alcotest.test_case "block isolation" `Quick test_block_isolation;
    Alcotest.test_case "decompress_block across images" `Quick test_decompress_block_interleaved;
    Alcotest.test_case "block count" `Quick test_block_count;
    Alcotest.test_case "partial tail block" `Quick test_partial_tail_block;
    Alcotest.test_case "block size variants" `Quick test_block_size_variants;
    Alcotest.test_case "larger blocks amortise flush" `Quick test_larger_blocks_compress_no_worse;
    Alcotest.test_case "context bits variants" `Quick test_context_bits_effect;
    Alcotest.test_case "quantized mode" `Quick test_quantized_roundtrip_and_penalty;
    Alcotest.test_case "custom stream split" `Quick test_custom_streams;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs_rejected;
    Alcotest.test_case "misaligned input rejected" `Quick test_misaligned_input_rejected;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "ratio accounting" `Quick test_ratio_accounting;
    Alcotest.test_case "stream costs equal a per-bit replay" `Quick test_stream_costs_closed_form;
    Alcotest.test_case "compress allocation per input byte" `Quick test_compress_allocation;
    Alcotest.test_case "decompress metrics per block" `Quick test_decompress_metrics_per_block;
    Alcotest.test_case "pair decoder refusals" `Quick test_pair_decoder_refusals;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_words;
    QCheck_alcotest.to_alcotest prop_decompress_equals_ref;
  ]
