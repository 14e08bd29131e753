module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader
module Obs = Ccomp_obs.Obs

(* Observability (guarded, never alters coded bits): the per-block
   family ([Blocks.metrics]) for the byte-Huffman baseline. *)
let m_compress = Ccomp_par.Blocks.metrics "huffman.compress"

let m_decompress = Ccomp_par.Blocks.metrics "huffman.decompress"

type compressed = {
  code : Huffman.code;
  blocks : string array;
  block_size : int;
  original_size : int;
}

let block_length t b =
  let start = b * t.block_size in
  min t.block_size (t.original_size - start)

let compress ?(block_size = 32) ?jobs input =
  Obs.with_span ~cat:"huffman" "huffman.compress" @@ fun () ->
  if block_size < 1 || block_size > 65535 then
    invalid_arg "Byte_huffman.compress: block_size must be in 1..65535 (a u16 header field)";
  if String.length input = 0 then invalid_arg "Byte_huffman.compress: empty input";
  let code = Huffman.build (Freq.of_string input) in
  let t = { code; blocks = [||]; block_size; original_size = String.length input } in
  (* The code table is global but fixed before any block encodes, so
     blocks fan out with byte-identical assembly. Each domain reuses one
     bit writer across all its blocks. *)
  let blocks =
    Ccomp_par.Blocks.encode ?jobs m_compress ~local:Bit_writer.create ~bytes_in:(block_length t)
      ((t.original_size + block_size - 1) / block_size)
      (fun w b ->
        let start = b * block_size in
        Bit_writer.reset w;
        for i = start to start + block_length t b - 1 do
          Huffman.encode_symbol code w (Char.code input.[i])
        done;
        Bit_writer.contents w)
  in
  { t with blocks }

let block_decoder t =
  let r = Bit_reader.create "" in
  fun b out pos ->
    let len = block_length t b in
    Bit_reader.reset r t.blocks.(b);
    for i = pos to pos + len - 1 do
      Bytes.set out i (Char.chr (Huffman.decode_symbol t.code r))
    done;
    len

let decompress_block t b =
  let out = Bytes.create (block_length t b) in
  ignore (block_decoder t b out 0);
  Bytes.unsafe_to_string out

let decompress ?jobs ?max_output t =
  Obs.with_span ~cat:"huffman" "huffman.decompress" @@ fun () ->
  (match max_output with
  | Some limit when t.original_size > limit ->
    Ccomp_util.Decode_error.fail
      (Length_overflow { section = "byte-huffman"; declared = t.original_size; limit })
  | Some _ | None -> ());
  Ccomp_par.Blocks.decode ?jobs m_decompress
    ~sizes:(Array.init (Array.length t.blocks) (block_length t))
    ~payload_bytes:(fun b -> String.length t.blocks.(b))
    (fun () -> block_decoder t)

(* Wire form (the ROM image of the Kozuch–Wolfe scheme): block size and
   original size, the shared length table, then length-prefixed block
   payloads. Gives the fault campaign a byte-level target like SECF. *)
let serialize t =
  let b = Buffer.create 4096 in
  let u16 v =
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char b (Char.chr (v land 0xff))
  in
  u16 t.block_size;
  u16 (t.original_size lsr 16);
  u16 (t.original_size land 0xffff);
  Buffer.add_string b (Huffman.serialize_lengths t.code);
  Array.iter
    (fun blk ->
      u16 (String.length blk);
      Buffer.add_string b blk)
    t.blocks;
  Buffer.contents b

let deserialize s ~pos =
  let p = ref pos in
  let fail () = invalid_arg "Byte_huffman.deserialize: truncated input" in
  let byte () =
    if !p >= String.length s then fail ();
    let v = Char.code s.[!p] in
    incr p;
    v
  in
  let u16 () =
    let hi = byte () in
    (hi lsl 8) lor byte ()
  in
  let block_size = u16 () in
  let original_size =
    let hi = u16 () in
    (hi lsl 16) lor u16 ()
  in
  if block_size <= 0 then invalid_arg "Byte_huffman.deserialize: bad block size";
  let code, next = Huffman.deserialize_lengths s ~pos:!p in
  p := next;
  if Huffman.alphabet_size code > 256 then
    invalid_arg "Byte_huffman.deserialize: alphabet beyond bytes";
  let nblocks = (original_size + block_size - 1) / block_size in
  if nblocks > (String.length s - !p) / 2 then fail ();
  let blocks =
    Array.init nblocks (fun _ ->
        let len = u16 () in
        if !p + len > String.length s then fail ();
        let blk = String.sub s !p len in
        p := !p + len;
        blk)
  in
  ({ code; blocks; block_size; original_size }, !p)

let code_bytes t = Array.fold_left (fun acc b -> acc + String.length b) 0 t.blocks

let table_bytes t = String.length (Huffman.serialize_lengths t.code)

let ratio t = float_of_int (code_bytes t) /. float_of_int t.original_size
