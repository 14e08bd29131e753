module Sadc = Ccomp_core.Sadc
module Mips = Ccomp_isa.Mips
module X86 = Ccomp_isa.X86
module P = Ccomp_progen
module Prng = Ccomp_util.Prng

let small name ops =
  { (P.Profile.find name) with P.Profile.name = "t"; target_ops = ops; functions = 8 }

let mips_code seed = (snd (P.Mips_backend.lower (P.Generator.generate ~seed (small "xlisp" 700)))).P.Layout.code

let x86_code seed = (snd (P.X86_backend.lower (P.Generator.generate ~seed (small "xlisp" 700)))).P.Layout.code

let cfg = Sadc.default_config ()

let test_roundtrip_mips () =
  let code = mips_code 1L in
  let z = Sadc.Mips.compress_image cfg code in
  Alcotest.(check int) "original size" (String.length code) (Sadc.Mips.original_size z);
  Alcotest.(check string) "roundtrip" code (Sadc.Mips.decompress z)

let test_roundtrip_x86 () =
  let code = x86_code 2L in
  let z = Sadc.X86.compress_image cfg code in
  Alcotest.(check string) "roundtrip" code (Sadc.X86.decompress z)

let test_block_isolation_mips () =
  let code = mips_code 3L in
  let z = Sadc.Mips.compress_image cfg code in
  let offset = ref 0 in
  for b = 0 to Sadc.Mips.block_count z - 1 do
    let instrs = Sadc.Mips.decompress_block z b in
    let bytes = Mips.encode_program instrs in
    Alcotest.(check string)
      (Printf.sprintf "block %d" b)
      (String.sub code !offset (String.length bytes))
      bytes;
    offset := !offset + String.length bytes
  done;
  Alcotest.(check int) "blocks tile the program" (String.length code) !offset

let test_block_original_sizes_mips () =
  (* fixed-width ISA: every block except possibly the last covers exactly
     block_size bytes *)
  let code = mips_code 4L in
  let z = Sadc.Mips.compress_image cfg code in
  for b = 0 to Sadc.Mips.block_count z - 2 do
    Alcotest.(check int) "full block" 32 (Sadc.Mips.block_original_bytes z b)
  done

let test_block_sizes_x86_bounded () =
  let code = x86_code 5L in
  let z = Sadc.X86.compress_image cfg code in
  for b = 0 to Sadc.X86.block_count z - 1 do
    Alcotest.(check bool) "within block size" true (Sadc.X86.block_original_bytes z b <= 32)
  done

let test_dictionary_bounds () =
  let code = mips_code 6L in
  let z = Sadc.Mips.compress_image cfg code in
  let st = Sadc.Mips.stats z in
  Alcotest.(check bool) "entries within cap" true (st.Sadc.entries <= 256);
  Alcotest.(check bool) "has base entries" true (st.Sadc.base_entries > 0);
  Alcotest.(check int) "partition of kinds" st.Sadc.entries
    (st.Sadc.base_entries + st.Sadc.group_entries + st.Sadc.specialized_entries)

let test_dictionary_entries_well_formed () =
  let code = mips_code 7L in
  let z = Sadc.Mips.compress_image cfg code in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "non-empty entry" true (Array.length e.Sadc.Mips.prims > 0);
      Array.iter
        (fun p ->
          Alcotest.(check bool) "symbol in range" true
            (p.Sadc.Mips.sym >= 0 && p.Sadc.Mips.sym < Mips.opcode_count);
          List.iter
            (fun (s, pos, v) ->
              Alcotest.(check bool) "stream in range" true (s >= 0 && s < 3);
              Alcotest.(check bool) "pos plausible" true (pos >= 0 && pos < 4);
              Alcotest.(check bool) "value in stream range" true (v >= 0 && v < 1 lsl 26))
            p.Sadc.Mips.fixed)
        e.Sadc.Mips.prims)
    (Sadc.Mips.dictionary z)

let test_groups_learned_on_repetitive_code () =
  (* a program that is one idiom repeated must yield group entries *)
  let spec = Mips.spec_of_mnemonic in
  let idiom =
    [
      Mips.make (spec "lw") ~rs:4 ~rt:2 ~imm:8 ();
      Mips.make (spec "addiu") ~rs:2 ~rt:2 ~imm:1 ();
      Mips.make (spec "sw") ~rs:4 ~rt:2 ~imm:8 ();
      Mips.make (spec "bne") ~rs:2 ~rt:3 ~imm:0xfffc ();
    ]
  in
  let program = List.concat (List.init 200 (fun _ -> idiom)) in
  let z = Sadc.Mips.compress_image (Sadc.default_config ()) (Mips.encode_program program) in
  let st = Sadc.Mips.stats z in
  Alcotest.(check bool) "found groups" true (st.Sadc.group_entries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "repetition compresses hard (%.3f)" (Sadc.Mips.ratio z))
    true
    (Sadc.Mips.ratio z < 0.2);
  Alcotest.(check string) "roundtrip" (Mips.encode_program program) (Sadc.Mips.decompress z)

let test_specialization_learned () =
  (* jr $31 with a hot register: the paper's own example. Neighbours are
     drawn from a 20-opcode rotation with random operands, so no opcode
     pair repeats often enough to beat the register specialization. *)
  let spec = Mips.spec_of_mnemonic in
  let g = Prng.create 8L in
  let fillers =
    [| "addu"; "subu"; "and"; "or"; "xor"; "slt"; "addiu"; "ori"; "andi"; "lw"; "sw"; "lb";
       "sb"; "lh"; "sh"; "lui"; "sll"; "srl"; "sra"; "nor" |]
  in
  let filler i =
    let sp = spec fillers.(i mod Array.length fillers) in
    let regs = List.init (Mips.reg_arity sp) (fun _ -> Prng.int g 32) in
    let imm = if Mips.has_immediate sp then Some (Prng.int g 65536) else None in
    Mips.reassemble sp ~regs ~imm ~limm:None
  in
  let program =
    List.concat (List.init 300 (fun i -> [ filler i; Mips.make (spec "jr") ~rs:31 () ]))
  in
  let z = Sadc.Mips.compress_image (Sadc.default_config ()) (Mips.encode_program program) in
  let has_jr31 =
    Array.exists
      (fun e ->
        Array.length e.Sadc.Mips.prims >= 1
        && Array.exists
             (fun p ->
               Mips.specs.(p.Sadc.Mips.sym).Mips.mnemonic = "jr"
               && List.exists (fun (s, _, v) -> s = 0 && v = 31) p.Sadc.Mips.fixed)
             e.Sadc.Mips.prims)
      (Sadc.Mips.dictionary z)
  in
  Alcotest.(check bool) "jr $31 specialised or grouped" true has_jr31;
  Alcotest.(check string) "roundtrip" (Mips.encode_program program) (Sadc.Mips.decompress z)

let test_max_entries_respected () =
  let code = mips_code 9L in
  let z = Sadc.Mips.compress_image (Sadc.default_config ~max_entries:64 ()) code in
  Alcotest.(check bool) "small cap respected" true ((Sadc.Mips.stats z).Sadc.entries <= 64);
  Alcotest.(check string) "roundtrip" code (Sadc.Mips.decompress z)

let test_smaller_dictionary_worse_ratio () =
  let code = mips_code 10L in
  let r64 = Sadc.Mips.ratio (Sadc.Mips.compress_image (Sadc.default_config ~max_entries:64 ()) code) in
  let r256 = Sadc.Mips.ratio (Sadc.Mips.compress_image cfg code) in
  Alcotest.(check bool) (Printf.sprintf "256 (%.3f) <= 64 (%.3f)" r256 r64) true (r256 <= r64 +. 0.005)

let test_block_size_variants () =
  let code = mips_code 11L in
  List.iter
    (fun block_size ->
      let z = Sadc.Mips.compress_image (Sadc.default_config ~block_size ()) code in
      Alcotest.(check string) (Printf.sprintf "block %d" block_size) code (Sadc.Mips.decompress z))
    [ 16; 32; 64; 128 ]

let test_x86_block_isolation () =
  let code = x86_code 12L in
  let z = Sadc.X86.compress_image cfg code in
  let total = ref 0 in
  for b = 0 to Sadc.X86.block_count z - 1 do
    let bytes = X86.encode_program (Sadc.X86.decompress_block z b) in
    Alcotest.(check int) "declared block size" (Sadc.X86.block_original_bytes z b)
      (String.length bytes);
    total := !total + String.length bytes
  done;
  Alcotest.(check int) "blocks cover program" (String.length code) !total

let test_undecodable_image_rejected () =
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Sadc.compress_image: image does not decode") (fun () ->
      ignore (Sadc.X86.compress_image cfg "\xf4\xf4\xf4"))

(* The block size is a u16 header field: 0 used to write a one-instruction-
   per-block image, and -8 or 65536 died in the serializer. *)
let test_block_size_range () =
  let code = mips_code 13L in
  List.iter
    (fun block_size ->
      let cfg = Sadc.default_config ~block_size () in
      Alcotest.(check bool)
        (Printf.sprintf "block size %d refused" block_size)
        true
        (Sadc.validate_config cfg <> Ok ());
      match Sadc.Mips.compress_image cfg code with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "compress accepted block size %d" block_size)
    [ 0; -8; 65536 ];
  Alcotest.(check bool) "block size 65535 accepted" true
    (Sadc.validate_config (Sadc.default_config ~block_size:65535 ()) = Ok ())

let test_serialization_roundtrip () =
  let code = mips_code 13L in
  let z = Sadc.Mips.compress_image cfg code in
  let s = Sadc.Mips.serialize z in
  let z', pos = Sadc.Mips.deserialize s ~pos:0 in
  Alcotest.(check int) "all consumed" (String.length s) pos;
  Alcotest.(check string) "decompresses after reload" code (Sadc.Mips.decompress z');
  Alcotest.(check int) "same dict size" (Sadc.Mips.stats z).Sadc.entries
    (Sadc.Mips.stats z').Sadc.entries

let test_ratio_better_than_tokens_alone () =
  (* sanity: sadc on real-ish code is clearly below 1.0 and accounting
     fields are consistent *)
  let code = mips_code 14L in
  let z = Sadc.Mips.compress_image cfg code in
  Alcotest.(check bool) (Printf.sprintf "ratio %.3f < 0.8" (Sadc.Mips.ratio z)) true (Sadc.Mips.ratio z < 0.8);
  Alcotest.(check bool) "with tables larger" true
    (Sadc.Mips.ratio_with_tables z > Sadc.Mips.ratio z);
  Alcotest.(check bool) "dict bytes positive" true (Sadc.Mips.dict_bytes z > 0);
  Alcotest.(check bool) "tables bytes positive" true (Sadc.Mips.tables_bytes z > 0)

(* --- incremental vs naive dictionary builder ------------------------- *)

let mips_instrs code = Mips.decode_program code |> Array.to_list |> List.map Option.get

let x86_instrs code = Option.get (X86.decode_program code)

(* The incremental builder must be observationally identical to the
   full-rescan reference: same dictionary entries (symbols, fixed
   operands, order) and same number of specialization rounds. On x86,
   instructions of one symbol can differ in operand count, which is the
   absent-position path of specialisation candidates. *)
let prop_incremental_matches_naive ~isa ~lower ~instrs ~naive ~incremental =
  QCheck.Test.make
    ~name:(Printf.sprintf "sadc %s: incremental dictionary builder matches naive" isa)
    ~count:8
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (seed, prof) ->
      let base = if prof = 0 then "xlisp" else "go" in
      let code =
        (snd (lower (P.Generator.generate ~seed:(Int64.of_int (seed + 41)) (small base 500))))
          .P.Layout.code
      in
      let instrs = instrs code in
      naive cfg instrs = incremental cfg instrs)

let prop_mips_incremental_matches_naive =
  prop_incremental_matches_naive ~isa:"mips" ~lower:P.Mips_backend.lower ~instrs:mips_instrs
    ~naive:Sadc.Mips.For_tests.build_naive
    ~incremental:(fun c i -> Sadc.Mips.For_tests.build_incremental c i)

let prop_x86_incremental_matches_naive =
  prop_incremental_matches_naive ~isa:"x86" ~lower:P.X86_backend.lower ~instrs:x86_instrs
    ~naive:Sadc.X86.For_tests.build_naive
    ~incremental:(fun c i -> Sadc.X86.For_tests.build_incremental c i)

(* --- the block kernel against the list walk --------------------------- *)

(* Whole-image [decompress], the compiled plan's kernel, writes what the
   per-block walk through [I.read] rebuilds, and both give back the
   program. Dictionaries of 64-112 entries on programs of about 300
   operations take specialisations in every MIPS and x86 stream (and
   in the SIB fields from about 96), so absorbed operands of every
   stream go through the plan's templates. *)
let prop_decompress_matches_list_walk name lower ~compress_image ~block_count ~decompress_block
    ~decompress encode_list =
  QCheck.Test.make
    ~name:(Printf.sprintf "sadc %s: decompress equals the per-block list walk" name)
    ~count:25
    QCheck.(triple (int_bound 100_000) (int_range 64 112) (int_bound 2))
    (fun (seed, max_entries, prof) ->
      let base = [| "xlisp"; "go"; "gcc" |].(prof) in
      let code =
        (snd (lower (P.Generator.generate ~seed:(Int64.of_int seed) (small base 300)))).P.Layout.code
      in
      let z = compress_image (Sadc.default_config ~max_entries ()) code in
      let walk =
        String.concat "" (List.init (block_count z) (fun b -> encode_list (decompress_block z b)))
      in
      decompress z = walk && walk = code)

let prop_mips_decompress_matches_list_walk =
  let open Sadc.Mips in
  prop_decompress_matches_list_walk "mips" P.Mips_backend.lower ~compress_image:(compress_image ?jobs:None)
    ~block_count ~decompress_block ~decompress:(decompress ?jobs:None) Mips.encode_program

let prop_x86_decompress_matches_list_walk =
  let open Sadc.X86 in
  prop_decompress_matches_list_walk "x86" P.X86_backend.lower ~compress_image:(compress_image ?jobs:None)
    ~block_count ~decompress_block ~decompress:(decompress ?jobs:None) X86.encode_program

let prop_x86_fields_decompress_matches_list_walk =
  let open Sadc.X86_fields in
  prop_decompress_matches_list_walk "x86-fields" P.X86_backend.lower
    ~compress_image:(compress_image ?jobs:None) ~block_count ~decompress_block
    ~decompress:(decompress ?jobs:None) X86.encode_program

(* ~check:true re-derives every candidate count by full rescan at the
   start of each round and raises on any disagreement with the
   incrementally maintained counts — this exercises the per-round
   bookkeeping, not just the final dictionary. *)
let incremental_counts_checked ~code ~instrs ~naive ~checked () =
  List.iter
    (fun (seed, c, label) ->
      let instrs = instrs (code seed) in
      let naive = naive c instrs in
      let checked = checked c instrs in
      Alcotest.(check bool) (label ^ ": dict and rounds equal") true (naive = checked);
      Alcotest.(check bool) (label ^ ": ran at least one round") true (snd checked >= 1))
    [
      (21L, cfg, "default config");
      (22L, cfg, "default config seed 22");
      (23L, Sadc.default_config ~max_rounds:64 (), "max_rounds 64");
    ]

let test_incremental_counts_checked =
  incremental_counts_checked ~code:mips_code ~instrs:mips_instrs
    ~naive:Sadc.Mips.For_tests.build_naive
    ~checked:(Sadc.Mips.For_tests.build_incremental ~check:true)

let test_x86_incremental_counts_checked =
  incremental_counts_checked ~code:x86_code ~instrs:x86_instrs
    ~naive:Sadc.X86.For_tests.build_naive
    ~checked:(Sadc.X86.For_tests.build_incremental ~check:true)

(* --- allocation contract -------------------------------------------- *)

(* Minor-heap bytes, and bytes allocated directly in the major heap
   (major words less those promoted from the minor heap), of one
   compress per input byte, after a warm-up call, with metrics off. *)
let bytes_per_input_byte compress code =
  let metrics = Ccomp_obs.Obs.metrics_enabled () in
  Ccomp_obs.Obs.set_metrics false;
  Fun.protect ~finally:(fun () -> Ccomp_obs.Obs.set_metrics metrics) @@ fun () ->
  compress code;
  let s0 = Gc.quick_stat () in
  compress code;
  let s1 = Gc.quick_stat () in
  let per_byte words = words *. float_of_int (Sys.word_size / 8) /. float_of_int (String.length code) in
  ( per_byte (s1.Gc.minor_words -. s0.Gc.minor_words),
    per_byte
      (s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)) )

let gcc_compressors () =
  let gcc = Ccomp_paper.Paper.prepare ~scale:0.25 (P.Profile.find "gcc") in
  [
    ("mips", (fun c -> ignore (Sadc.Mips.compress_image cfg c)), Ccomp_paper.Paper.mips_code gcc);
    ("x86", (fun c -> ignore (Sadc.X86.compress_image cfg c)), Ccomp_paper.Paper.x86_code gcc);
  ]

let check_allocation ~heap pick bounds =
  List.iter2
    (fun (isa, compress, code) bound ->
      let per_byte = pick (bytes_per_input_byte compress code) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f %s bytes per input byte <= %.0f" isa per_byte heap bound)
        true (per_byte <= bound))
    (gcc_compressors ()) bounds

(* The bounds are 1.5x the 40 (MIPS) and 113 (x86) minor bytes per
   input byte the compressor measured on gcc at scale 0.25 when they
   were set; it now measures 4.6 and 15.6. *)
let test_compress_allocation () = check_allocation ~heap:"minor" fst [ 60.0; 168.0 ]

(* The bounds are 1.5x the direct major bytes per input byte the
   compressor measures on gcc at scale 0.25: 73.1 on MIPS and 95.1 on
   x86. The dictionary build's tables are most of them. *)
let test_compress_major_allocation () =
  check_allocation ~heap:"direct major" snd [ 110.0; 143.0 ]

(* --- hostile tables ---------------------------------------------------- *)

(* SADC's wire form as [serialize] lays it out: a 12-byte header, the
   dictionary (a u16 count, then per entry its primitives, each a u16
   symbol and its absorbed operands as (stream, position, u32 value)),
   the token code's length table, a presence byte and a length table per
   (stream, chunk width), then the blocks. *)
let dict_end s =
  let p = ref 14 in
  for _ = 1 to String.get_uint16_be s 12 do
    let prims = Char.code s.[!p] in
    incr p;
    for _ = 1 to prims do
      p := !p + 3 + (6 * Char.code s.[!p + 2])
    done
  done;
  !p

(* Offset of each absorbed operand's stream byte in the dictionary. *)
let absorbed_offsets s =
  let p = ref 14 and acc = ref [] in
  for _ = 1 to String.get_uint16_be s 12 do
    let prims = Char.code s.[!p] in
    incr p;
    for _ = 1 to prims do
      let n = Char.code s.[!p + 2] in
      for k = 0 to n - 1 do
        acc := (!p + 3 + (6 * k)) :: !acc
      done;
      p := !p + 3 + (6 * n)
    done
  done;
  !acc

(* The end of the length table at [p]. *)
let table_end s p =
  let n = String.get_uint16_be s p in
  let rec go q filled = if filled >= n then q else go (q + 2) (filled + Char.code s.[q] + 1) in
  go (p + 2) 0

(* A length table of [n] symbols: [runs] of (count <= 256, length). *)
let length_table n runs =
  let b = Buffer.create 16 in
  Buffer.add_uint16_be b n;
  List.iter
    (fun (count, len) ->
      Buffer.add_uint8 b (count - 1);
      Buffer.add_uint8 b len)
    runs;
  Buffer.contents b

let splice s ~pos ~len repl = String.sub s 0 pos ^ repl ^ String.sub s (pos + len) (String.length s - pos - len)

(* A hostile wire form must fail the image decode typed: read and
   decompressed through [Image], never wrong bytes, never an exception
   outside [Decode_error]. *)
let check_refused what wire =
  let module Image = Ccomp_image.Image in
  let module Decode_error = Ccomp_util.Decode_error in
  let z, _ = Sadc.Mips.deserialize wire ~pos:0 in
  let image = Image.write (Image.of_sadc_mips z) in
  match Image.read_checked image with
  | Error _ -> Alcotest.failf "%s: the image must read" what
  | Ok t -> (
    match Decode_error.protect ~section:"image" (fun () -> Image.decompress t) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decoded without complaint" what)

(* Random operands leave registers to the register code; with them,
   [jr $31] between fillers absorbs a register. *)
let random_operands ?(jr31 = false) seed =
  let g = Prng.create seed in
  let fillers = [| "addu"; "subu"; "and"; "or"; "xor"; "slt"; "addiu"; "lw"; "sw" |] in
  List.concat
    (List.init 400 (fun i ->
         let sp = Mips.spec_of_mnemonic fillers.(i mod Array.length fillers) in
         let regs = List.init (Mips.reg_arity sp) (fun _ -> Prng.int g 32) in
         let imm = if Mips.has_immediate sp then Some (Prng.int g 65536) else None in
         Mips.reassemble sp ~regs ~imm ~limm:None
         :: (if jr31 then [ Mips.make (Mips.spec_of_mnemonic "jr") ~rs:31 () ] else [])))

let wire_of program = Sadc.Mips.serialize (Sadc.Mips.compress_image cfg (Mips.encode_program program))

(* Every absorbed operand of [stream] set to [bad], just past its field:
   the jr $31 program absorbs a register, and one idiom repeated its
   immediates and its jump target. *)
let test_hostile_absorbed_operands () =
  let spec = Mips.spec_of_mnemonic in
  let idiom =
    [
      Mips.make (spec "lw") ~rs:4 ~rt:2 ~imm:8 ();
      Mips.make (spec "addiu") ~rs:2 ~rt:2 ~imm:1 ();
      Mips.make (spec "j") ~imm:0x40 ();
    ]
  in
  let repeated = wire_of (List.concat (List.init 200 (fun _ -> idiom))) in
  List.iter
    (fun (wire, stream, bad, what) ->
      let at = List.filter (fun o -> Char.code wire.[o] = stream) (absorbed_offsets wire) in
      Alcotest.(check bool) (what ^ ": the dictionary absorbs some") true (at <> []);
      let b = Bytes.of_string wire in
      List.iter (fun o -> Bytes.set_int32_be b (o + 2) (Int32.of_int bad)) at;
      check_refused what (Bytes.to_string b))
    [
      (wire_of (random_operands ~jr31:true 8L), 0, 32, "register 32");
      (repeated, 1, 1 lsl 16, "immediate 2^16");
      (repeated, 2, 1 lsl 26, "jump target 2^26");
    ]

(* The 5-bit register code relabelled into 40 symbols: registers 0-7
   move to symbols 32-39 with their code lengths, so every block still
   decodes in step, but a register pulled there is out of range. *)
let test_hostile_chunk_alphabet () =
  let module Huffman = Ccomp_huffman.Huffman in
  let wire = wire_of (random_operands 9L) in
  let regs = table_end wire (dict_end wire) in
  Alcotest.(check char) "the register code is present" '\001' wire.[regs];
  let code, stop = Huffman.deserialize_lengths wire ~pos:(regs + 1) in
  let lengths = Huffman.lengths code in
  let wide = Array.init 40 (fun r -> if r < 8 then 0 else if r < 32 then lengths.(r) else lengths.(r - 32)) in
  check_refused "40-symbol register code"
    (splice wire ~pos:(regs + 1) ~len:(stop - regs - 1)
       (Huffman.serialize_lengths (Huffman.of_lengths wide)))

(* The token code swapped for one whose only codewords name the two
   entries past the dictionary. *)
let test_hostile_token () =
  let wire = wire_of (random_operands 9L) in
  let entries = String.get_uint16_be wire 12 and tokens = dict_end wire in
  Alcotest.(check bool) "at most 256 entries" true (entries <= 256);
  let past = length_table (entries + 2) [ (entries, 0); (2, 1) ] in
  check_refused "token past the dictionary"
    (splice wire ~pos:tokens ~len:(table_end wire tokens - tokens) past)

let suite =
  [
    Alcotest.test_case "mips roundtrip" `Quick test_roundtrip_mips;
    Alcotest.test_case "x86 roundtrip" `Quick test_roundtrip_x86;
    Alcotest.test_case "mips block isolation" `Quick test_block_isolation_mips;
    Alcotest.test_case "mips block sizes" `Quick test_block_original_sizes_mips;
    Alcotest.test_case "x86 block sizes bounded" `Quick test_block_sizes_x86_bounded;
    Alcotest.test_case "dictionary bounds" `Quick test_dictionary_bounds;
    Alcotest.test_case "dictionary well-formed" `Quick test_dictionary_entries_well_formed;
    Alcotest.test_case "groups learned" `Quick test_groups_learned_on_repetitive_code;
    Alcotest.test_case "specialization learned" `Quick test_specialization_learned;
    Alcotest.test_case "max entries respected" `Quick test_max_entries_respected;
    Alcotest.test_case "dictionary size vs ratio" `Quick test_smaller_dictionary_worse_ratio;
    Alcotest.test_case "block size variants" `Quick test_block_size_variants;
    Alcotest.test_case "x86 block isolation" `Quick test_x86_block_isolation;
    Alcotest.test_case "undecodable image rejected" `Quick test_undecodable_image_rejected;
    Alcotest.test_case "block sizes outside 1..65535 refused" `Quick test_block_size_range;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "hostile absorbed operands refused" `Quick test_hostile_absorbed_operands;
    Alcotest.test_case "hostile chunk alphabet refused" `Quick test_hostile_chunk_alphabet;
    Alcotest.test_case "hostile token refused" `Quick test_hostile_token;
    Alcotest.test_case "ratio accounting" `Quick test_ratio_better_than_tokens_alone;
    Alcotest.test_case "incremental counts verified per round" `Quick
      test_incremental_counts_checked;
    Alcotest.test_case "x86 incremental counts verified per round" `Quick
      test_x86_incremental_counts_checked;
    Alcotest.test_case "compress allocation per input byte" `Quick test_compress_allocation;
    Alcotest.test_case "compress major allocation per input byte" `Quick
      test_compress_major_allocation;
    QCheck_alcotest.to_alcotest prop_mips_incremental_matches_naive;
    QCheck_alcotest.to_alcotest prop_x86_incremental_matches_naive;
    QCheck_alcotest.to_alcotest prop_mips_decompress_matches_list_walk;
    QCheck_alcotest.to_alcotest prop_x86_decompress_matches_list_walk;
    QCheck_alcotest.to_alcotest prop_x86_fields_decompress_matches_list_walk;
  ]

let test_x86_field_streams_roundtrip () =
  let code = x86_code 15L in
  let z = Sadc.X86_fields.compress_image cfg code in
  Alcotest.(check string) "field-stream roundtrip" code (Sadc.X86_fields.decompress z);
  (* serialization of the 7-stream variant *)
  let z', _ = Sadc.X86_fields.deserialize (Sadc.X86_fields.serialize z) ~pos:0 in
  Alcotest.(check string) "after reload" code (Sadc.X86_fields.decompress z')

let test_x86_field_streams_block_isolation () =
  let code = x86_code 16L in
  let z = Sadc.X86_fields.compress_image cfg code in
  let total = ref 0 in
  for b = 0 to Sadc.X86_fields.block_count z - 1 do
    let bytes = X86.encode_program (Sadc.X86_fields.decompress_block z b) in
    total := !total + String.length bytes
  done;
  Alcotest.(check int) "blocks tile the program" (String.length code) !total

let field_suite =
  [
    Alcotest.test_case "x86 field streams roundtrip" `Quick test_x86_field_streams_roundtrip;
    Alcotest.test_case "x86 field streams blocks" `Quick test_x86_field_streams_block_isolation;
  ]

let suite = suite @ field_suite
