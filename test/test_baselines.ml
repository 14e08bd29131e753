module Lzw = Ccomp_baselines.Lzw
module Lzss = Ccomp_baselines.Lzss
module Byte_huffman = Ccomp_baselines.Byte_huffman
module Prng = Ccomp_util.Prng
module P = Ccomp_progen

let mips_code seed =
  let profile =
    { (P.Profile.find "go") with P.Profile.name = "t"; target_ops = 900; functions = 10 }
  in
  (snd (P.Mips_backend.lower (P.Generator.generate ~seed profile))).P.Layout.code

(* --- LZW ------------------------------------------------------------- *)

let test_lzw_empty () = Alcotest.(check string) "empty" "" (Lzw.decompress (Lzw.compress ""))

let test_lzw_single_byte () =
  Alcotest.(check string) "one byte" "A" (Lzw.decompress (Lzw.compress "A"))

let test_lzw_repetitive () =
  let s = String.concat "" (List.init 500 (fun _ -> "abcabcabd")) in
  let c = Lzw.compress s in
  Alcotest.(check string) "roundtrip" s (Lzw.decompress c);
  Alcotest.(check bool) "repetition compresses hard" true
    (String.length c * 5 < String.length s)

let test_lzw_kwkwk () =
  (* "aaaa..." exercises the code == next (KwKwK) special case *)
  let s = String.make 1000 'a' in
  Alcotest.(check string) "runs roundtrip" s (Lzw.decompress (Lzw.compress s))

let test_lzw_table_reset () =
  (* enough distinct material to fill the 16-bit table and force a clear *)
  let g = Prng.create 1L in
  let b = Buffer.create (1 lsl 20) in
  for _ = 1 to 400_000 do
    Buffer.add_char b (Char.chr (Prng.int g 256))
  done;
  let s = Buffer.contents b in
  Alcotest.(check string) "roundtrip across table clears" s (Lzw.decompress (Lzw.compress s))

let test_lzw_random_does_not_compress () =
  let g = Prng.create 2L in
  let s = String.init 20000 (fun _ -> Char.chr (Prng.int g 256)) in
  Alcotest.(check bool) "ratio > 1 on noise" true (Lzw.ratio s > 1.0)

let test_lzw_code_ratio_band () =
  let r = Lzw.ratio (mips_code 3L) in
  Alcotest.(check bool) (Printf.sprintf "mips code ratio %.3f in (0.4, 0.85)" r) true
    (r > 0.4 && r < 0.85)

let prop_lzw_roundtrip =
  QCheck.Test.make ~name:"lzw round-trips arbitrary strings" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 3000))
    (fun s -> String.equal (Lzw.decompress (Lzw.compress s)) s)

let prop_lzw_roundtrip_small_alphabet =
  QCheck.Test.make ~name:"lzw round-trips low-entropy strings" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 3000) (Gen.map (fun n -> Char.chr (97 + n)) (Gen.int_bound 2)))
    (fun s -> String.equal (Lzw.decompress (Lzw.compress s)) s)

(* --- LZSS ------------------------------------------------------------ *)

let test_lzss_empty () = Alcotest.(check string) "empty" "" (Lzss.decompress (Lzss.compress ""))

let test_lzss_literal_only () =
  let s = "abcdefgh" in
  Alcotest.(check string) "short literals" s (Lzss.decompress (Lzss.compress s))

let test_lzss_long_match () =
  let s = "0123456789" ^ String.concat "" (List.init 100 (fun _ -> "0123456789")) in
  let c = Lzss.compress s in
  Alcotest.(check string) "roundtrip" s (Lzss.decompress c);
  Alcotest.(check bool) "long repeats collapse" true (String.length c < String.length s / 4)

let test_lzss_overlapping_match () =
  (* run-length via distance < length *)
  let s = String.make 3000 'x' in
  let c = Lzss.compress s in
  Alcotest.(check string) "overlapping copy" s (Lzss.decompress c);
  Alcotest.(check bool) "runs collapse" true (String.length c < 200)

let test_lzss_window_limit () =
  (* repeat separated by more than 32k must NOT be matched, but still
     round-trips *)
  let g = Prng.create 4L in
  let chunk = String.init 200 (fun _ -> Char.chr (Prng.int g 256)) in
  let filler = String.init 40_000 (fun _ -> Char.chr (Prng.int g 256)) in
  let s = chunk ^ filler ^ chunk in
  Alcotest.(check string) "window-limited roundtrip" s (Lzss.decompress (Lzss.compress s))

let test_lzss_beats_lzw_on_code () =
  let code = mips_code 5L in
  Alcotest.(check bool) "gzip-like < compress-like on code" true (Lzss.ratio code < Lzw.ratio code)

let prop_lzss_roundtrip =
  QCheck.Test.make ~name:"lzss round-trips arbitrary strings" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 3000))
    (fun s -> String.equal (Lzss.decompress (Lzss.compress s)) s)

let prop_lzss_roundtrip_structured =
  QCheck.Test.make ~name:"lzss round-trips structured strings" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 60) (string_of_size (Gen.int_range 0 30)))
    (fun parts ->
      let s = String.concat "" (parts @ parts @ parts) in
      String.equal (Lzss.decompress (Lzss.compress s)) s)

(* --- byte Huffman ---------------------------------------------------- *)

let test_bh_roundtrip () =
  let code = mips_code 6L in
  let z = Byte_huffman.compress code in
  Alcotest.(check string) "roundtrip" code (Byte_huffman.decompress z)

let test_bh_block_isolation () =
  let code = mips_code 7L in
  let z = Byte_huffman.compress code in
  let b = Array.length z.Byte_huffman.blocks - 1 in
  let last = Byte_huffman.decompress_block z b in
  Alcotest.(check string) "last block alone"
    (String.sub code (b * 32) (String.length code - (b * 32)))
    last

let test_bh_ratio_band () =
  (* Kozuch & Wolfe report ~0.73 for byte Huffman on RISC code *)
  let r = Byte_huffman.ratio (Byte_huffman.compress (mips_code 8L)) in
  Alcotest.(check bool) (Printf.sprintf "ratio %.3f in (0.6, 0.85)" r) true (r > 0.6 && r < 0.85)

let test_bh_block_size () =
  let code = mips_code 9L in
  let z = Byte_huffman.compress ~block_size:64 code in
  Alcotest.(check int) "block count" ((String.length code + 63) / 64)
    (Array.length z.Byte_huffman.blocks);
  Alcotest.(check string) "roundtrip" code (Byte_huffman.decompress z);
  List.iter
    (fun block_size ->
      match Byte_huffman.compress ~block_size code with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "block size %d (not a u16 of at least 1) accepted" block_size)
    [ 0; -8; 65536 ]

let test_bh_table_accounting () =
  let z = Byte_huffman.compress (mips_code 10L) in
  Alcotest.(check bool) "table bytes positive" true (Byte_huffman.table_bytes z > 0);
  Alcotest.(check bool) "code bytes positive" true (Byte_huffman.code_bytes z > 0)

let prop_bh_roundtrip =
  QCheck.Test.make ~name:"byte huffman round-trips" ~count:100
    QCheck.(string_of_size (Gen.int_range 1 2000))
    (fun s -> String.equal (Byte_huffman.decompress (Byte_huffman.compress s)) s)

let suite =
  [
    Alcotest.test_case "lzw empty" `Quick test_lzw_empty;
    Alcotest.test_case "lzw single byte" `Quick test_lzw_single_byte;
    Alcotest.test_case "lzw repetitive" `Quick test_lzw_repetitive;
    Alcotest.test_case "lzw KwKwK runs" `Quick test_lzw_kwkwk;
    Alcotest.test_case "lzw table reset" `Slow test_lzw_table_reset;
    Alcotest.test_case "lzw noise expands" `Quick test_lzw_random_does_not_compress;
    Alcotest.test_case "lzw code ratio band" `Quick test_lzw_code_ratio_band;
    QCheck_alcotest.to_alcotest prop_lzw_roundtrip;
    QCheck_alcotest.to_alcotest prop_lzw_roundtrip_small_alphabet;
    Alcotest.test_case "lzss empty" `Quick test_lzss_empty;
    Alcotest.test_case "lzss literals" `Quick test_lzss_literal_only;
    Alcotest.test_case "lzss long match" `Quick test_lzss_long_match;
    Alcotest.test_case "lzss overlapping match" `Quick test_lzss_overlapping_match;
    Alcotest.test_case "lzss window limit" `Quick test_lzss_window_limit;
    Alcotest.test_case "lzss beats lzw on code" `Quick test_lzss_beats_lzw_on_code;
    QCheck_alcotest.to_alcotest prop_lzss_roundtrip;
    QCheck_alcotest.to_alcotest prop_lzss_roundtrip_structured;
    Alcotest.test_case "byte huffman roundtrip" `Quick test_bh_roundtrip;
    Alcotest.test_case "byte huffman block isolation" `Quick test_bh_block_isolation;
    Alcotest.test_case "byte huffman ratio band" `Quick test_bh_ratio_band;
    Alcotest.test_case "byte huffman block size" `Quick test_bh_block_size;
    Alcotest.test_case "byte huffman accounting" `Quick test_bh_table_accounting;
    QCheck_alcotest.to_alcotest prop_bh_roundtrip;
  ]

(* --- CodePack ---------------------------------------------------------- *)

module Codepack = Ccomp_baselines.Codepack

let test_codepack_roundtrip () =
  let code = mips_code 11L in
  let z = Codepack.compress code in
  Alcotest.(check string) "roundtrip" code (Codepack.decompress z)

let test_codepack_block_isolation () =
  let code = mips_code 12L in
  let z = Codepack.compress code in
  for b = Codepack.block_count z - 1 downto 0 do
    let line = Codepack.decompress_block z b in
    Alcotest.(check string)
      (Printf.sprintf "block %d in isolation" b)
      (String.sub code (b * 32) (String.length line))
      line
  done

let test_codepack_ratio_band () =
  (* the real device reported ~0.6 on PowerPC code *)
  let z = Codepack.compress (mips_code 13L) in
  let r = Codepack.ratio z in
  Alcotest.(check bool) (Printf.sprintf "ratio %.3f in (0.45, 0.8)" r) true (r > 0.45 && r < 0.8);
  Alcotest.(check bool) "tables small" true (Codepack.table_bytes z <= 484)

let test_codepack_zero_tag () =
  (* a program of nops: every half is zero, two 2-bit tags per word *)
  let code = String.make 128 '\x00' in
  let z = Codepack.compress code in
  Alcotest.(check string) "nops roundtrip" code (Codepack.decompress z);
  Alcotest.(check bool)
    (Printf.sprintf "nop block is tiny (%d bytes)" (Codepack.code_bytes z))
    true
    (Codepack.code_bytes z <= 4 * Codepack.block_count z)

let test_codepack_escape_path () =
  (* words drawn uniformly: almost everything escapes yet must round-trip *)
  let g = Prng.create 14L in
  let code = String.init 4096 (fun _ -> Char.chr (Prng.int g 256)) in
  let z = Codepack.compress code in
  Alcotest.(check string) "noise roundtrip" code (Codepack.decompress z);
  Alcotest.(check bool) "noise expands a little" true (Codepack.ratio z > 1.0)

let test_codepack_rejects_misaligned () =
  Alcotest.check_raises "odd size"
    (Invalid_argument "Codepack.compress: code size must be a multiple of 4") (fun () ->
      ignore (Codepack.compress "abcdef"))

let codepack_suite =
  [
    Alcotest.test_case "codepack roundtrip" `Quick test_codepack_roundtrip;
    Alcotest.test_case "codepack block isolation" `Quick test_codepack_block_isolation;
    Alcotest.test_case "codepack ratio band" `Quick test_codepack_ratio_band;
    Alcotest.test_case "codepack zero tag" `Quick test_codepack_zero_tag;
    Alcotest.test_case "codepack escape path" `Quick test_codepack_escape_path;
    Alcotest.test_case "codepack misaligned" `Quick test_codepack_rejects_misaligned;
  ]

let suite = suite @ codepack_suite
