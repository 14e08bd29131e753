module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader

let freq_of_counts counts =
  let f = Freq.create (Array.length counts) in
  Array.iteri (fun sym c -> if c > 0 then Freq.add_many f sym c) counts;
  f

let test_empty_rejected () =
  let f = Freq.create 4 in
  Alcotest.check_raises "no symbols" (Invalid_argument "Huffman.build: empty alphabet") (fun () ->
      ignore (Huffman.build f))

let test_single_symbol () =
  let code = Huffman.build (freq_of_counts [| 0; 7; 0 |]) in
  Alcotest.(check int) "single symbol gets 1 bit" 1 (Huffman.code_length code 1);
  Alcotest.(check int) "absent symbol has no code" 0 (Huffman.code_length code 0);
  let w = Bit_writer.create () in
  Huffman.encode_symbol code w 1;
  Huffman.encode_symbol code w 1;
  let r = Bit_reader.create (Bit_writer.contents w) in
  Alcotest.(check int) "decode 1st" 1 (Huffman.decode_symbol code r);
  Alcotest.(check int) "decode 2nd" 1 (Huffman.decode_symbol code r)

let test_two_symbols () =
  let code = Huffman.build (freq_of_counts [| 3; 1 |]) in
  Alcotest.(check int) "both 1 bit" 1 (Huffman.code_length code 0);
  Alcotest.(check int) "both 1 bit" 1 (Huffman.code_length code 1)

let test_skewed_lengths () =
  (* counts 1,1,2,4: optimal lengths 3,3,2,1 *)
  let code = Huffman.build (freq_of_counts [| 1; 1; 2; 4 |]) in
  Alcotest.(check int) "rare symbol long" 3 (Huffman.code_length code 0);
  Alcotest.(check int) "rare symbol long" 3 (Huffman.code_length code 1);
  Alcotest.(check int) "mid" 2 (Huffman.code_length code 2);
  Alcotest.(check int) "common short" 1 (Huffman.code_length code 3)

let test_optimality_against_entropy () =
  (* average length within [H, H+1) for a random-ish distribution *)
  let counts = [| 50; 20; 12; 8; 5; 3; 1; 1 |] in
  let f = freq_of_counts counts in
  let code = Huffman.build f in
  let avg = float_of_int (Huffman.encoded_bits code f) /. float_of_int (Freq.total f) in
  let h = Freq.entropy f in
  Alcotest.(check bool) "avg >= entropy" true (avg >= h -. 1e-9);
  Alcotest.(check bool) "avg < entropy + 1" true (avg < h +. 1.0)

let test_kraft_equality () =
  (* a complete Huffman code satisfies the Kraft sum exactly *)
  let code = Huffman.build (freq_of_counts [| 9; 5; 3; 2; 1; 1 |]) in
  let sum =
    Array.fold_left
      (fun acc l -> if l > 0 then acc +. (1.0 /. float_of_int (1 lsl l)) else acc)
      0.0 (Huffman.lengths code)
  in
  Alcotest.(check bool) "kraft sum = 1" true (Float.abs (sum -. 1.0) < 1e-9)

let test_prefix_freedom () =
  let code = Huffman.build (freq_of_counts [| 7; 5; 4; 3; 2; 1 |]) in
  let entries =
    List.filter_map
      (fun sym ->
        let l = Huffman.code_length code sym in
        if l = 0 then None else Some (Huffman.codeword code sym, l))
      (List.init 6 Fun.id)
  in
  List.iteri
    (fun i (c1, l1) ->
      List.iteri
        (fun j (c2, l2) ->
          if i <> j && l1 <= l2 then
            Alcotest.(check bool)
              (Printf.sprintf "code %d not a prefix of %d" i j)
              false
              (c2 lsr (l2 - l1) = c1))
        entries)
    entries

let test_max_length_bound () =
  (* fibonacci-like counts force long codes; max_length must cap them *)
  let counts = [| 1; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 610; 987 |] in
  let code = Huffman.build ~max_length:8 (freq_of_counts counts) in
  Array.iter
    (fun l -> Alcotest.(check bool) "length within bound" true (l <= 8))
    (Huffman.lengths code)

let test_of_lengths_roundtrip () =
  let code = Huffman.build (freq_of_counts [| 4; 3; 2; 1; 1 |]) in
  let rebuilt = Huffman.of_lengths (Huffman.lengths code) in
  Alcotest.(check (array int)) "same lengths" (Huffman.lengths code) (Huffman.lengths rebuilt);
  List.iter
    (fun sym ->
      Alcotest.(check int)
        (Printf.sprintf "same canonical codeword %d" sym)
        (Huffman.codeword code sym) (Huffman.codeword rebuilt sym))
    [ 0; 1; 2; 3; 4 ]

let test_of_lengths_rejects_overfull () =
  Alcotest.check_raises "kraft violation"
    (Invalid_argument "Huffman.of_lengths: not a prefix code") (fun () ->
      ignore (Huffman.of_lengths [| 1; 1; 1 |]))

let test_serialization () =
  let code = Huffman.build (freq_of_counts [| 10; 6; 3; 1 |]) in
  let s = Huffman.serialize_lengths code in
  let code', pos = Huffman.deserialize_lengths s ~pos:0 in
  Alcotest.(check int) "whole string consumed" (String.length s) pos;
  Alcotest.(check (array int)) "lengths preserved" (Huffman.lengths code) (Huffman.lengths code')

let prop_roundtrip =
  QCheck.Test.make ~name:"huffman round-trips any message" ~count:150
    QCheck.(list_of_size (Gen.int_range 1 500) (int_bound 40))
    (fun syms ->
      let f = Freq.create 41 in
      List.iter (Freq.add f) syms;
      let code = Huffman.build f in
      let w = Bit_writer.create () in
      List.iter (Huffman.encode_symbol code w) syms;
      let r = Bit_reader.create (Bit_writer.contents w) in
      List.for_all (fun sym -> Huffman.decode_symbol code r = sym) syms)

let prop_encoded_bits_matches =
  QCheck.Test.make ~name:"encoded_bits equals actual emitted bits" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 300) (int_bound 20))
    (fun syms ->
      let f = Freq.create 21 in
      List.iter (Freq.add f) syms;
      let code = Huffman.build f in
      let w = Bit_writer.create () in
      List.iter (Huffman.encode_symbol code w) syms;
      Bit_writer.bit_length w = Huffman.encoded_bits code f)

(* The textbook construction, as a reference for [Huffman.build]'s
   lengths: repeatedly merge the two lightest nodes, a node being a
   (weight, order, symbols) triple; leaves are ordered by symbol and come
   before every merge, merges by creation, and the lighter (weight,
   order) pair goes first. Each merge lengthens every symbol below it by
   one bit. *)
let reference_lengths counts =
  let lengths = Array.make (Array.length counts) 0 in
  let order = ref 0 in
  let node w syms =
    incr order;
    (w, !order, syms)
  in
  let nodes =
    ref
      (List.filter_map
         (fun (sym, c) -> if c > 0 then Some (node c [ sym ]) else None)
         (List.mapi (fun sym c -> (sym, c)) (Array.to_list counts)))
  in
  let take () =
    let best = List.fold_left (fun a n -> if compare n a < 0 then n else a) (List.hd !nodes) !nodes in
    nodes := List.filter (fun n -> n != best) !nodes;
    best
  in
  (match !nodes with
  | [ (_, _, [ sym ]) ] -> lengths.(sym) <- 1
  | _ ->
    while List.length !nodes > 1 do
      let w1, _, s1 = take () in
      let w2, _, s2 = take () in
      List.iter (fun sym -> lengths.(sym) <- lengths.(sym) + 1) (s1 @ s2);
      nodes := node (w1 + w2) (s1 @ s2) :: !nodes
    done);
  lengths

let prop_lengths_match_reference =
  QCheck.Test.make ~name:"huffman lengths equal the textbook construction" ~count:300
    QCheck.(array_of_size (Gen.int_range 1 40) (int_bound 60))
    (fun counts ->
      QCheck.assume (Array.exists (fun c -> c > 0) counts);
      Huffman.lengths (Huffman.build ~max_length:30 (freq_of_counts counts))
      = reference_lengths counts)

let suite =
  [
    Alcotest.test_case "empty alphabet rejected" `Quick test_empty_rejected;
    Alcotest.test_case "single symbol" `Quick test_single_symbol;
    Alcotest.test_case "two symbols" `Quick test_two_symbols;
    Alcotest.test_case "skewed lengths optimal" `Quick test_skewed_lengths;
    Alcotest.test_case "near-entropy average length" `Quick test_optimality_against_entropy;
    Alcotest.test_case "kraft equality" `Quick test_kraft_equality;
    Alcotest.test_case "prefix freedom" `Quick test_prefix_freedom;
    Alcotest.test_case "max_length bound" `Quick test_max_length_bound;
    Alcotest.test_case "of_lengths roundtrip" `Quick test_of_lengths_roundtrip;
    Alcotest.test_case "of_lengths rejects overfull" `Quick test_of_lengths_rejects_overfull;
    Alcotest.test_case "length-table serialization" `Quick test_serialization;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_lengths_match_reference;
    QCheck_alcotest.to_alcotest prop_encoded_bits_matches;
  ]

let test_sparse_alphabet_rle () =
  (* two used symbols separated by > 256 zero lengths exercises the RLE
     run cap in the length-table serialisation *)
  let f = Freq.create 1200 in
  Freq.add_many f 3 10;
  Freq.add_many f 900 5;
  let code = Huffman.build f in
  let s = Huffman.serialize_lengths code in
  Alcotest.(check bool)
    (Printf.sprintf "sparse table is tiny (%d bytes)" (String.length s))
    true
    (String.length s < 24);
  let code', pos = Huffman.deserialize_lengths s ~pos:0 in
  Alcotest.(check int) "consumed" (String.length s) pos;
  Alcotest.(check (array int)) "lengths preserved" (Huffman.lengths code) (Huffman.lengths code')

let test_deserialize_rejects_truncation () =
  let code = Huffman.build (freq_of_counts [| 3; 2; 1 |]) in
  let s = Huffman.serialize_lengths code in
  Alcotest.check_raises "truncated table"
    (Invalid_argument "Huffman.deserialize_lengths: truncated") (fun () ->
      ignore (Huffman.deserialize_lengths (String.sub s 0 (String.length s - 1)) ~pos:0))

let extra_suite =
  [
    Alcotest.test_case "sparse alphabet RLE" `Quick test_sparse_alphabet_rle;
    Alcotest.test_case "truncated table rejected" `Quick test_deserialize_rejects_truncation;
  ]

(* The textbook construction, as a reference for [Huffman.build]'s
   lengths: repeatedly merge the two lightest nodes, a node being a
   (weight, order, symbols) triple; leaves are ordered by symbol and come
   before every merge, merges by creation, and the lighter (weight,
   order) pair goes first. Each merge lengthens every symbol below it by
   one bit. *)
let reference_lengths counts =
  let lengths = Array.make (Array.length counts) 0 in
  let order = ref 0 in
  let node w syms =
    incr order;
    (w, !order, syms)
  in
  let nodes =
    ref
      (List.filter_map
         (fun (sym, c) -> if c > 0 then Some (node c [ sym ]) else None)
         (List.mapi (fun sym c -> (sym, c)) (Array.to_list counts)))
  in
  let take () =
    let best = List.fold_left (fun a n -> if compare n a < 0 then n else a) (List.hd !nodes) !nodes in
    nodes := List.filter (fun n -> n != best) !nodes;
    best
  in
  (match !nodes with
  | [ (_, _, [ sym ]) ] -> lengths.(sym) <- 1
  | _ ->
    while List.length !nodes > 1 do
      let w1, _, s1 = take () in
      let w2, _, s2 = take () in
      List.iter (fun sym -> lengths.(sym) <- lengths.(sym) + 1) (s1 @ s2);
      nodes := node (w1 + w2) (s1 @ s2) :: !nodes
    done);
  lengths

let prop_lengths_match_reference =
  QCheck.Test.make ~name:"huffman lengths equal the textbook construction" ~count:300
    QCheck.(array_of_size (Gen.int_range 1 40) (int_bound 60))
    (fun counts ->
      QCheck.assume (Array.exists (fun c -> c > 0) counts);
      Huffman.lengths (Huffman.build ~max_length:30 (freq_of_counts counts))
      = reference_lengths counts)

let suite = suite @ extra_suite
