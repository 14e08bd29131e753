module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader

let window_size = 32768
let min_match = 3
let max_match = 258
let max_chain = 128
let end_of_block = 256

(* RFC 1951 length codes: symbol 257 + index, base length and extra bits. *)
let length_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59; 67; 83; 99; 115;
     131; 163; 195; 227; 258 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4; 5; 5; 5; 5; 0 |]

(* RFC 1951 distance codes: base distance and extra bits. *)
let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385; 513; 769; 1025; 1537;
     2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10; 10; 11; 11; 12; 12;
     13; 13 |]

let code_of_table base v =
  (* Largest index whose base is <= v. *)
  let rec go lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if base.(mid) <= v then go mid hi else go lo (mid - 1)
  in
  go 0 (Array.length base - 1)

let length_code l = code_of_table length_base l

let dist_code d = code_of_table dist_base d

type token = Literal of int | Match of int * int (* length, distance *)

(* Hash-chain LZ77 with one-step lazy matching, like gzip's deflate. *)
let tokenize input =
  let n = String.length input in
  let hash_bits = 15 in
  let hash_size = 1 lsl hash_bits in
  let head = Array.make hash_size (-1) in
  let prev = Array.make (max n 1) (-1) in
  let hash_at i =
    if i + 2 >= n then -1
    else
      (Char.code input.[i] lsl 10) lxor (Char.code input.[i + 1] lsl 5) lxor Char.code input.[i + 2]
      land (hash_size - 1)
  in
  let insert i =
    let h = hash_at i in
    if h >= 0 then begin
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let match_length i j =
    (* longest common prefix of positions j (earlier) and i, capped *)
    let limit = min max_match (n - i) in
    let rec go k = if k < limit && input.[j + k] = input.[i + k] then go (k + 1) else k in
    go 0
  in
  let best_match i =
    let h = hash_at i in
    if h < 0 then (0, 0)
    else begin
      let best_len = ref 0 and best_dist = ref 0 in
      let rec walk j chain =
        if j >= 0 && chain > 0 && i - j <= window_size then begin
          let len = match_length i j in
          if len > !best_len then begin
            best_len := len;
            best_dist := i - j
          end;
          if len < max_match then walk prev.(j) (chain - 1)
        end
      in
      walk head.(h) max_chain;
      (!best_len, !best_dist)
    end
  in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let len, dist = best_match !i in
    if len >= min_match then begin
      (* lazy: prefer a longer match starting one byte later *)
      let next_len, _ = if !i + 1 < n then (insert !i; best_match (!i + 1)) else (0, 0) in
      if next_len > len then begin
        tokens := Literal (Char.code input.[!i]) :: !tokens;
        (* position !i already inserted above *)
        incr i
      end
      else begin
        tokens := Match (len, dist) :: !tokens;
        (* first position was inserted during the lazy probe *)
        for k = !i + 1 to min (!i + len - 1) (n - 1) do
          insert k
        done;
        i := !i + len
      end
    end
    else begin
      tokens := Literal (Char.code input.[!i]) :: !tokens;
      insert !i;
      incr i
    end
  done;
  List.rev !tokens

let compress input =
  if String.length input = 0 then ""
  else begin
    let tokens = tokenize input in
    let lit_freq = Freq.create 286 in
    let dist_freq = Freq.create 30 in
    List.iter
      (function
        | Literal b -> Freq.add lit_freq b
        | Match (l, d) ->
          Freq.add lit_freq (257 + length_code l);
          Freq.add dist_freq (dist_code d))
      tokens;
    Freq.add lit_freq end_of_block;
    let lit_code = Huffman.build lit_freq in
    let dist_code_tbl = if Freq.total dist_freq > 0 then Some (Huffman.build dist_freq) else None in
    let w = Bit_writer.create () in
    List.iter
      (function
        | Literal b -> Huffman.encode_symbol lit_code w b
        | Match (l, d) ->
          let lc = length_code l in
          Huffman.encode_symbol lit_code w (257 + lc);
          Bit_writer.put_bits w ~value:(l - length_base.(lc)) ~width:length_extra.(lc);
          let dc = dist_code d in
          (match dist_code_tbl with Some c -> Huffman.encode_symbol c w dc | None -> assert false);
          Bit_writer.put_bits w ~value:(d - dist_base.(dc)) ~width:dist_extra.(dc))
      tokens;
    Huffman.encode_symbol lit_code w end_of_block;
    let body = Bit_writer.contents w in
    (* Header: the two code-length tables (gzip stores these RLE+Huffman
       coded; the flat form is a slightly pessimistic stand-in). *)
    let header =
      Huffman.serialize_lengths lit_code
      ^ match dist_code_tbl with Some c -> Huffman.serialize_lengths c | None -> "\x00\x00"
    in
    header ^ body
  end

let decompress ?max_output data =
  let limit = match max_output with Some m -> m | None -> max_int in
  if String.length data = 0 then ""
  else begin
    let lit_code, pos = Huffman.deserialize_lengths data ~pos:0 in
    let dist_code_tbl, pos =
      if String.length data >= pos + 2 && data.[pos] = '\x00' && data.[pos + 1] = '\x00' then
        (None, pos + 2)
      else
        let c, pos = Huffman.deserialize_lengths data ~pos in
        (Some c, pos)
    in
    let r = Bit_reader.create ~start_bit:(8 * pos) data in
    let out = Buffer.create (4 * String.length data) in
    let finished = ref false in
    while not !finished do
      if Bit_reader.overrun r > 0 then failwith "Lzss.decompress: missing end-of-block";
      (* Each token appends at most [max_match] bytes, so checking the cap
         once per token bounds allocation at [limit + max_match]. *)
      if Buffer.length out > limit then
        Ccomp_util.Decode_error.fail
          (Length_overflow { section = "lzss"; declared = Buffer.length out; limit });
      let sym = Huffman.decode_symbol lit_code r in
      if sym = end_of_block then finished := true
      else if sym < 256 then Buffer.add_char out (Char.chr sym)
      else begin
        let lc = sym - 257 in
        if lc < 0 || lc >= Array.length length_base then failwith "Lzss.decompress: corrupt";
        let l = length_base.(lc) + Bit_reader.get_bits r length_extra.(lc) in
        let dc =
          match dist_code_tbl with
          | Some c -> Huffman.decode_symbol c r
          | None -> failwith "Lzss.decompress: match without distance table"
        in
        let d = dist_base.(dc) + Bit_reader.get_bits r dist_extra.(dc) in
        let start = Buffer.length out - d in
        if start < 0 then failwith "Lzss.decompress: distance before start";
        for k = 0 to l - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
      end
    done;
    Buffer.contents out
  end

let ratio input =
  if String.length input = 0 then 1.0
  else float_of_int (String.length (compress input)) /. float_of_int (String.length input)
