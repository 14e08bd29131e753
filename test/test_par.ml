(* The parallel block pipeline (Ccomp_par.Pool) and the PR's fast decode
   kernels: pool semantics, serial-vs-parallel byte identity across the
   codecs, LUT-vs-tree Huffman decode equivalence, the widened bit I/O,
   and the refill engine's decoded-block cache. *)

module Pool = Ccomp_par.Pool
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Byte_huffman = Ccomp_baselines.Byte_huffman
module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader
module System = Ccomp_memsys.System
module Lat = Ccomp_memsys.Lat
module Prng = Ccomp_util.Prng
module Obs = Ccomp_obs.Obs
module P = Ccomp_progen

(* --- pool semantics ---------------------------------------------------- *)

(* [Array.init n f] through the pool's per-domain-scratch entry point. *)
let init ~jobs n f = Pool.init_local ~jobs ~local:ignore n (fun () i -> f i)

let test_pool_order () =
  (* distinct values, so any reordering shows *)
  let a = Array.init 257 (fun i -> (i * 7) mod 257) in
  let f x = (x * 1000) + 1 in
  Alcotest.(check (array int)) "map order-preserving" (Array.map f a) (Pool.map ~jobs:4 f a);
  Alcotest.(check (array int))
    "init_local order-preserving"
    (Array.init 100 (fun i -> i * i))
    (init ~jobs:3 100 (fun i -> i * i));
  let seen = Array.make 100 (-1) in
  Pool.iter_n ~jobs:3 ~local:ignore 100 (fun () i -> seen.(i) <- i * i);
  Alcotest.(check (array int)) "iter_n visits every index once" (Array.init 100 (fun i -> i * i)) seen

let test_pool_degenerate () =
  Alcotest.(check (array int)) "jobs=1 serial" [| 2; 4 |] (Pool.map ~jobs:1 (fun x -> 2 * x) [| 1; 2 |]);
  Alcotest.(check (array int)) "empty input" [||] (Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "empty init_local" [||] (init ~jobs:4 0 (fun i -> i));
  Pool.iter_n ~jobs:4 ~local:ignore 0 (fun () _ -> Alcotest.fail "iter_n ran on an empty range");
  Alcotest.(check (array int))
    "more jobs than items" [| 10 |]
    (Pool.map ~jobs:8 (fun x -> 10 * x) [| 1 |])

let test_pool_exception () =
  Alcotest.check_raises "worker exception reaches the caller" (Failure "boom") (fun () ->
      ignore (init ~jobs:4 64 (fun i -> if i = 41 then failwith "boom" else i)))

(* --- pool lifecycle (PR7: domains persist across dispatches) ----------- *)

let test_pool_persistent () =
  ignore (init ~jobs:3 64 (fun i -> i));
  let resident = Pool.pool_domains () in
  Alcotest.(check bool) "workers resident after a dispatch" true (resident >= 1);
  for _ = 1 to 5 do
    ignore (init ~jobs:3 64 (fun i -> i))
  done;
  Alcotest.(check int) "no respawn across dispatches" resident (Pool.pool_domains ())

let test_pool_survives_exception () =
  ignore (init ~jobs:3 16 (fun i -> i));
  let resident = Pool.pool_domains () in
  (try Pool.iter_n ~jobs:3 ~local:ignore 64 (fun () i -> if i = 7 then failwith "kaboom")
   with Failure _ -> ());
  Alcotest.(check int) "workers survive a task exception" resident (Pool.pool_domains ());
  Alcotest.(check (array int))
    "next dispatch is clean"
    (Array.init 64 (fun i -> 2 * i))
    (init ~jobs:3 64 (fun i -> 2 * i))

let test_pool_shutdown_respawn () =
  ignore (init ~jobs:2 16 (fun i -> i));
  Pool.shutdown ();
  Alcotest.(check int) "shutdown empties the pool" 0 (Pool.pool_domains ());
  Alcotest.(check (array int))
    "pool respawns lazily"
    (Array.init 32 (fun i -> i + 1))
    (init ~jobs:2 32 (fun i -> i + 1));
  Alcotest.(check bool) "workers resident again" true (Pool.pool_domains () >= 1)

let test_pool_nested_rejected () =
  let saw = ref false in
  (try ignore (Pool.map ~jobs:2 (fun _ -> ignore (init ~jobs:2 8 (fun j -> j))) (Array.make 8 0))
   with Invalid_argument _ -> saw := true);
  Alcotest.(check bool) "nested dispatch rejected with Invalid_argument" true !saw;
  Alcotest.(check (array int))
    "pool usable after a rejected nested dispatch" [| 0; 1; 2; 3 |]
    (init ~jobs:2 4 (fun i -> i))

(* --- Blocks: whole-image runs of the block kernels ---------------------- *)

let test_blocks_declared_sizes () =
  let m = Ccomp_par.Blocks.metrics "test.blocks" in
  (* writes two bytes of its block index *)
  let two b out pos =
    Bytes.fill out pos 2 (Char.chr b);
    2
  in
  let decode ~jobs sizes =
    Ccomp_par.Blocks.decode ~jobs m ~sizes ~payload_bytes:(fun _ -> 1) (fun () -> two)
  in
  Alcotest.(check string) "blocks land at their offsets" "\000\000\001\001\002\002"
    (decode ~jobs:2 [| 2; 2; 2 |]);
  Alcotest.(check string) "no blocks" "" (decode ~jobs:2 [||]);
  match decode ~jobs:1 [| 2; 3 |] with
  | exception Ccomp_util.Decode_error.Error (Malformed _) -> ()
  | s -> Alcotest.failf "a block short of its declared size was accepted: %S" s

(* --- serial vs parallel byte identity ---------------------------------- *)

let mips_code seed =
  let profile =
    { (P.Profile.find "compress") with P.Profile.name = "t"; target_ops = 500; functions = 6 }
  in
  (snd (P.Mips_backend.lower (P.Generator.generate ~seed profile))).P.Layout.code

let x86_code seed =
  let profile =
    { (P.Profile.find "xlisp") with P.Profile.name = "t"; target_ops = 400; functions = 5 }
  in
  (snd (P.X86_backend.lower (P.Generator.generate ~seed profile))).P.Layout.code

let jobs_gen = QCheck.int_range 2 5

let prop_samc_mips_par_identity =
  QCheck.Test.make ~name:"samc mips: --jobs output byte-identical to serial" ~count:8
    QCheck.(pair jobs_gen (int_bound 3))
    (fun (jobs, seed) ->
      let code = mips_code (Int64.of_int seed) in
      let cfg = Samc.mips_config () in
      let serial = Samc.compress cfg code in
      let par = Samc.compress ~jobs cfg code in
      Samc.serialize serial = Samc.serialize par
      && Samc.decompress ~jobs serial = code
      && Samc.decompress serial = code)

let prop_samc_byte_par_identity =
  QCheck.Test.make ~name:"samc byte-mode: --jobs output byte-identical to serial" ~count:10
    QCheck.(pair jobs_gen (string_of_size (QCheck.Gen.int_range 1 2000)))
    (fun (jobs, data) ->
      let cfg = Samc.byte_config () in
      let serial = Samc.compress cfg data in
      let par = Samc.compress ~jobs cfg data in
      Samc.serialize serial = Samc.serialize par && Samc.decompress ~jobs par = data)

let prop_sadc_mips_par_identity =
  QCheck.Test.make ~name:"sadc mips: --jobs output byte-identical to serial" ~count:5
    QCheck.(pair jobs_gen (int_bound 2))
    (fun (jobs, seed) ->
      let code = mips_code (Int64.of_int seed) in
      let cfg = Sadc.default_config ~max_rounds:24 () in
      let serial = Sadc.Mips.compress_image cfg code in
      let par = Sadc.Mips.compress_image ~jobs cfg code in
      Sadc.Mips.serialize serial = Sadc.Mips.serialize par
      && Sadc.Mips.decompress ~jobs serial = code)

let prop_sadc_x86_par_identity =
  QCheck.Test.make ~name:"sadc x86: --jobs output byte-identical to serial" ~count:4
    QCheck.(pair jobs_gen (int_bound 2))
    (fun (jobs, seed) ->
      let code = x86_code (Int64.of_int seed) in
      let cfg = Sadc.default_config ~max_rounds:24 () in
      let serial = Sadc.X86.compress_image cfg code in
      let par = Sadc.X86.compress_image ~jobs cfg code in
      Sadc.X86.serialize serial = Sadc.X86.serialize par
      && Sadc.X86.decompress ~jobs serial = code)

let prop_byte_huffman_par_identity =
  QCheck.Test.make ~name:"byte-huffman: --jobs output byte-identical to serial" ~count:20
    QCheck.(pair jobs_gen (string_of_size (QCheck.Gen.int_range 1 3000)))
    (fun (jobs, data) ->
      let serial = Byte_huffman.compress data in
      let par = Byte_huffman.compress ~jobs data in
      Byte_huffman.serialize serial = Byte_huffman.serialize par
      && Byte_huffman.decompress par = data)

(* --- fast vs reference SAMC kernel ------------------------------------- *)

let test_samc_fast_kernel_equals_ref () =
  let code = mips_code 11L in
  let cfg = Samc.mips_config () in
  let z = Samc.compress cfg code in
  let words = String.length code / 4 in
  Array.iteri
    (fun b data ->
      let n_words = min 8 (words - (b * 8)) in
      let original_bytes = n_words * 4 in
      Alcotest.(check string)
        (Printf.sprintf "block %d" b)
        (Samc.decompress_block_ref cfg z.Samc.model ~original_bytes data)
        (Samc.decompress_block cfg z.Samc.model ~original_bytes data))
    z.Samc.blocks

(* --- LUT vs tree-walk Huffman decode ----------------------------------- *)

let prop_huffman_lut_equals_tree =
  (* Random length tables (via random counts, including skewed ones that
     produce codes longer than the LUT's first level) decode identically
     through the accelerated and the reference kernel. *)
  QCheck.Test.make ~name:"huffman LUT decode = tree decode" ~count:200
    QCheck.(pair (int_range 1 40) (list_of_size (QCheck.Gen.int_range 1 400) (int_bound 60)))
    (fun (alphabet, syms) ->
      let f = Freq.create (alphabet + 64) in
      (* skew: symbol s gets weight ~2^(s mod 17), forcing long codewords *)
      List.iter (fun s -> Freq.add_many f (s mod alphabet) (1 + (1 lsl (s mod 17)))) syms;
      let code = Huffman.build f in
      let syms = List.map (fun s -> s mod alphabet) syms in
      let present = List.filter (fun s -> Huffman.code_length code s > 0) syms in
      let w = Bit_writer.create () in
      List.iter (Huffman.encode_symbol code w) present;
      let bits = Bit_writer.contents w in
      let r_lut = Bit_reader.create bits in
      let r_tree = Bit_reader.create bits in
      List.for_all
        (fun s ->
          Huffman.decode_symbol code r_lut = s && Huffman.decode_symbol_tree code r_tree = s)
        present)

(* --- the pool on a real image at jobs=2 ---------------------------------- *)

(* Each call is timed in windows of at least this many seconds. *)
let window_s = 0.02

(* Calls per second of [f] over one window. *)
let rate f =
  let t0 = Obs.now_us () in
  let calls = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < window_s do
    ignore (f ());
    incr calls;
    elapsed := (Obs.now_us () -. t0) /. 1e6
  done;
  float_of_int !calls /. !elapsed

(* Best of three windows per side, alternated so both sides see the
   same machine weather: the fastest window is the least-disturbed
   estimate on a shared host. *)
let best_rates f g =
  ignore (f ());
  ignore (g ());
  Gc.full_major ();
  let bf = ref 0.0 and bg = ref 0.0 in
  for _ = 1 to 3 do
    bf := Float.max !bf (rate f);
    bg := Float.max !bg (rate g)
  done;
  (!bf, !bg)

let test_pool_runs_on_a_real_image () =
  let prog = P.Generator.generate ~scale:0.05 ~seed:7L (P.Profile.find "go") in
  let code = (snd (P.Mips_backend.lower prog)).P.Layout.code in
  let samc = Samc.compress (Samc.mips_config ()) code in
  let sadc = Sadc.Mips.compress_image (Sadc.default_config ~max_rounds:64 ()) code in
  let huff = Byte_huffman.compress code in
  let decoders =
    [
      ("samc", fun jobs -> Samc.decompress ~jobs samc);
      ("sadc", fun jobs -> Sadc.Mips.decompress ~jobs sadc);
      ("byte-huffman", fun jobs -> Byte_huffman.decompress ~jobs huff);
    ]
  in
  (* one metrics-enabled pass per codec, outside the timed windows (the
     per-block histogram mutex would distort them) *)
  let was_enabled = Obs.metrics_enabled () in
  Obs.set_metrics true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics was_enabled)
    (fun () -> List.iter (fun (_, decode) -> ignore (decode 2)) decoders);
  let at_least what floor v =
    Alcotest.(check bool) (Printf.sprintf "%s: %g >= %g" what v floor) true (v >= floor)
  in
  at_least "par.tasks" 1.0 (float_of_int (Obs.Counter.value (Obs.Counter.make "par.tasks")));
  at_least "par.epochs (one per codec)" 3.0
    (float_of_int (Obs.Counter.value (Obs.Counter.make "par.epochs")));
  Alcotest.(check (float 0.0)) "par.jobs gauge" 2.0 (Obs.Gauge.value (Obs.Gauge.make "par.jobs"));
  at_least "par.queue_depth count" 1.0
    (float_of_int (Obs.Histogram.count (Obs.Histogram.make "par.queue_depth")));
  let busy = Obs.Histogram.sum (Obs.Histogram.make "par.worker_busy_us") in
  Alcotest.(check bool) (Printf.sprintf "par.worker_busy_us sum %g > 0" busy) true (busy > 0.0);
  (* Loose on purpose: this catches a pipeline that re-grew a serial
     bottleneck or lost the pool, and tolerates a loaded host. *)
  List.iter
    (fun (name, decode) ->
      let serial, parallel = best_rates (fun () -> decode 1) (fun () -> decode 2) in
      at_least (name ^ " parallel decompress rate vs 0.5x serial") (0.5 *. serial) parallel)
    decoders

(* --- the block decoders' allocation contract ------------------------------ *)

let decode_all (blocks, decoder) out =
  let pos = ref 0 in
  for b = 0 to blocks - 1 do
    pos := !pos + decoder b out !pos
  done;
  !pos

(* SAMC's pairing in [Blocks.decode]: blocks 2k and 2k+1 of equal size
   through the two-lane decoder, an odd last or short final block
   through the single-lane one. Every block holds [block_size] bytes but
   the last. *)
let decode_all_paired ~block_size ~bytes (blocks, decoder, pair) out =
  let b = ref 0 in
  while !b < blocks do
    let pos = !b * block_size in
    if !b + 2 < blocks || (!b + 1 < blocks && bytes - pos = 2 * block_size) then begin
      ignore (pair !b out pos (pos + block_size));
      b := !b + 2
    end
    else begin
      ignore (decoder !b out pos);
      incr b
    end
  done;
  bytes

(* Minor-heap bytes per output byte that [decode_all out], decoding every
   block of [code]'s image, allocates after a warm-up pass, with metrics
   off. The output buffer is allocated outside the measurement. *)
let minor_bytes_per_output_byte decode_all code =
  let metrics = Obs.metrics_enabled () in
  Obs.set_metrics false;
  Fun.protect ~finally:(fun () -> Obs.set_metrics metrics) @@ fun () ->
  let out = Bytes.create (String.length code) in
  ignore (decode_all out);
  let before = Gc.minor_words () in
  let n = decode_all out in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the block decoders rebuild the image" true (Bytes.to_string out = code);
  words *. float_of_int (Sys.word_size / 8) /. float_of_int n

(* On gcc at scale 0.25, every production block decoder allocates nothing
   once built: SAMC's single- and two-lane decoders among them. SADC's
   writes each instruction's bytes straight into the output from its
   compiled plan, so an instruction, a closure or a string built per
   instruction fails it. *)
let test_block_decoder_allocation () =
  let gcc = Ccomp_paper.Paper.prepare ~scale:0.25 (P.Profile.find "gcc") in
  let mips = Ccomp_paper.Paper.mips_code gcc and x86 = Ccomp_paper.Paper.x86_code gcc in
  let samc cfg code =
    let z = Samc.compress cfg code in
    decode_all (Array.length z.Samc.blocks, Samc.block_decoder z)
  in
  let samc_paired cfg code =
    let z = Samc.compress cfg code in
    decode_all_paired ~block_size:cfg.Samc.block_size ~bytes:(String.length code)
      (Array.length z.Samc.blocks, Samc.block_decoder z, Samc.pair_decoder z)
  in
  let cfg = Sadc.default_config () in
  let sadc_mips = Sadc.Mips.compress_image cfg mips and sadc_x86 = Sadc.X86.compress_image cfg x86 in
  let huffman code =
    let z = Byte_huffman.compress code in
    decode_all (Array.length z.Byte_huffman.blocks, Byte_huffman.block_decoder z)
  in
  List.iter
    (fun (name, decode_all, code, bound) ->
      let per_byte = minor_bytes_per_output_byte decode_all code in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor bytes per output byte <= %g" name per_byte bound)
        true (per_byte <= bound))
    [
      ("samc mips", samc (Samc.mips_config ()) mips, mips, 0.0);
      ("samc byte mode", samc (Samc.byte_config ()) x86, x86, 0.0);
      ("samc mips, two lanes", samc_paired (Samc.mips_config ()) mips, mips, 0.0);
      ("samc byte mode, two lanes", samc_paired (Samc.byte_config ()) x86, x86, 0.0);
      ( "sadc mips",
        decode_all (Sadc.Mips.block_count sadc_mips, Sadc.Mips.block_decoder sadc_mips),
        mips,
        0.0 );
      ( "sadc x86",
        decode_all (Sadc.X86.block_count sadc_x86, Sadc.X86.block_decoder sadc_x86),
        x86,
        0.0 );
      ("byte huffman mips", huffman mips, mips, 0.0);
      ("byte huffman x86", huffman x86, x86, 0.0);
    ]

(* --- widened bit I/O --------------------------------------------------- *)

let mask_to w v = if w >= 63 then v else v land ((1 lsl w) - 1)

let prop_wide_fields_roundtrip =
  QCheck.Test.make ~name:"bit fields up to width 63 round-trip" ~count:300
    QCheck.(small_list (pair (int_range 1 63) int))
    (fun fields ->
      let fields = List.map (fun (w, v) -> (w, mask_to w v)) fields in
      let w = Bit_writer.create () in
      List.iter (fun (width, value) -> Bit_writer.put_bits w ~value ~width) fields;
      let r = Bit_reader.create (Bit_writer.contents w) in
      List.for_all (fun (width, value) -> Bit_reader.get_bits r width = value) fields)

let test_wide_width_edges () =
  let w = Bit_writer.create () in
  let v63 = -1 in
  (* all 63 bits set *)
  Bit_writer.put_bits w ~value:v63 ~width:63;
  Bit_writer.put_bits w ~value:0x5555_5555_5555 ~width:47;
  let r = Bit_reader.create (Bit_writer.contents w) in
  Alcotest.(check bool) "width 63 round-trips" true (Bit_reader.get_bits r 63 = v63);
  Alcotest.(check bool) "width 47 round-trips" true (Bit_reader.get_bits r 47 = 0x5555_5555_5555)

let test_peek_and_skip () =
  let w = Bit_writer.create () in
  Bit_writer.put_bits w ~value:0xABC ~width:12;
  Bit_writer.put_bits w ~value:0x5 ~width:3;
  let r = Bit_reader.create (Bit_writer.contents w) in
  Alcotest.(check int) "peek sees bits" 0xABC (Bit_reader.peek_bits r 12);
  Alcotest.(check int) "peek does not consume" 0xABC (Bit_reader.peek_bits r 12);
  Bit_reader.skip_bits r 12;
  Alcotest.(check int) "skip advanced" 0x5 (Bit_reader.get_bits r 3);
  (* past the end: peek zero-pads, like get_bits *)
  Alcotest.(check int) "peek past end zero-pads" 0 (Bit_reader.peek_bits r 8)

(* --- decoded-block cache in the refill engine -------------------------- *)

let loopy_trace n =
  let g = Prng.create 9L in
  let out = Array.make n 0 in
  let pc = ref 0 in
  for i = 0 to n - 1 do
    out.(i) <- !pc;
    if Prng.float g < 0.1 then pc := 4 * Prng.int g 1024 else pc := (!pc + 4) mod 4096
  done;
  out

let test_decode_cache_counters () =
  let trace = loopy_trace 50000 in
  let lat = Lat.build (Array.make 128 20) in
  let run entries =
    System.run
      (System.default_config ~cache_bytes:512 ~decompressor:System.samc_decompressor
         ~decode_cache_entries:entries ())
      ~lat ~trace ()
  in
  let off = run 0 in
  Alcotest.(check int) "disabled: no hits counted" 0 off.System.decode_cache_hits;
  Alcotest.(check int) "disabled: no misses counted" 0 off.System.decode_cache_misses;
  let on = run 64 in
  Alcotest.(check int) "every refill classified"
    on.System.misses
    (on.System.decode_cache_hits + on.System.decode_cache_misses);
  Alcotest.(check bool) "loopy trace hits the decode cache" true
    (on.System.decode_cache_hits > 0);
  Alcotest.(check bool) "decode-free refills save cycles" true
    (on.System.total_cycles <= off.System.total_cycles)

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool degenerate inputs" `Quick test_pool_degenerate;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_exception;
    Alcotest.test_case "pool domains persist across dispatches" `Quick test_pool_persistent;
    Alcotest.test_case "pool survives a task exception" `Quick test_pool_survives_exception;
    Alcotest.test_case "pool shutdown joins and respawns" `Quick test_pool_shutdown_respawn;
    Alcotest.test_case "nested dispatch is rejected" `Quick test_pool_nested_rejected;
    QCheck_alcotest.to_alcotest prop_samc_mips_par_identity;
    QCheck_alcotest.to_alcotest prop_samc_byte_par_identity;
    QCheck_alcotest.to_alcotest prop_sadc_mips_par_identity;
    QCheck_alcotest.to_alcotest prop_sadc_x86_par_identity;
    QCheck_alcotest.to_alcotest prop_byte_huffman_par_identity;
    Alcotest.test_case "samc fast kernel = reference kernel" `Quick
      test_samc_fast_kernel_equals_ref;
    QCheck_alcotest.to_alcotest prop_huffman_lut_equals_tree;
    QCheck_alcotest.to_alcotest prop_wide_fields_roundtrip;
    Alcotest.test_case "width 63 and 47 fields" `Quick test_wide_width_edges;
    Alcotest.test_case "peek and skip" `Quick test_peek_and_skip;
    Alcotest.test_case "decoded-block cache counters" `Quick test_decode_cache_counters;
    Alcotest.test_case "pool runs on a real image at jobs=2" `Quick
      test_pool_runs_on_a_real_image;
    Alcotest.test_case "Blocks.decode enforces declared sizes" `Quick test_blocks_declared_sizes;
    Alcotest.test_case "block decoders allocate nothing (sadc x86 bounded)" `Quick
      test_block_decoder_allocation;
  ]
