module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader
module Obs = Ccomp_obs.Obs

(* Observability (guarded, never alters coded bits): per-block latency
   and size for the byte-Huffman baseline, plus the bit-I/O
   refill/flush counts of its coding loops. *)
let m_c_blocks = Obs.Counter.make "huffman.compress.blocks"

let m_c_bytes_in = Obs.Counter.make "huffman.compress.bytes_in"

let m_c_bytes_out = Obs.Counter.make "huffman.compress.bytes_out"

let m_c_block_us = Obs.Histogram.make "huffman.compress.block_us"

let m_d_blocks = Obs.Counter.make "huffman.decompress.blocks"

let m_d_bytes_out = Obs.Counter.make "huffman.decompress.bytes_out"

let m_d_block_us = Obs.Histogram.make "huffman.decompress.block_us"

let m_reader_refills = Obs.Counter.make "bitio.reader.refills"

let m_writer_flushes = Obs.Counter.make "bitio.writer.flushes"

type compressed = {
  code : Huffman.code;
  blocks : string array;
  block_size : int;
  original_size : int;
}

let compress ?(block_size = 32) ?(jobs = 1) input =
  Obs.with_span ~cat:"huffman" "huffman.compress" @@ fun () ->
  if String.length input = 0 then invalid_arg "Byte_huffman.compress: empty input";
  let code = Huffman.build (Freq.of_string input) in
  let n = String.length input in
  let nblocks = (n + block_size - 1) / block_size in
  let instrument = Obs.metrics_enabled () in
  (* The code table is global but fixed before any block encodes, so
     blocks fan out over the pool with byte-identical assembly. Each
     domain reuses one bit writer across all its blocks. *)
  let blocks =
    Ccomp_par.Pool.init_local ~jobs nblocks
      ~local:(fun () -> Bit_writer.create ())
      (fun w b ->
        let start = b * block_size in
        let len = min block_size (n - start) in
        let t0 = if instrument then Obs.now_us () else 0.0 in
        Bit_writer.reset w;
        for i = start to start + len - 1 do
          Huffman.encode_symbol code w (Char.code input.[i])
        done;
        let blk = Bit_writer.contents w in
        if instrument then begin
          Obs.Histogram.observe m_c_block_us (Obs.now_us () -. t0);
          Obs.Counter.incr m_c_blocks;
          Obs.Counter.add m_c_bytes_in len;
          Obs.Counter.add m_c_bytes_out (String.length blk);
          Obs.Counter.add m_writer_flushes (Bit_writer.flushes w)
        end;
        blk)
  in
  { code; blocks; block_size; original_size = n }

let block_length t b =
  let start = b * t.block_size in
  min t.block_size (t.original_size - start)

let decompress_block t b =
  let r = Bit_reader.create t.blocks.(b) in
  let len = block_length t b in
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i (Char.chr (Huffman.decode_symbol t.code r))
  done;
  if Obs.metrics_enabled () then Obs.Counter.add m_reader_refills (Bit_reader.refills r);
  Bytes.to_string out

let decompress ?(jobs = 1) ?max_output t =
  Obs.with_span ~cat:"huffman" "huffman.decompress" @@ fun () ->
  (match max_output with
  | Some limit when t.original_size > limit ->
    Ccomp_util.Decode_error.fail
      (Length_overflow { section = "byte-huffman"; declared = t.original_size; limit })
  | Some _ | None -> ());
  let instrument = Obs.metrics_enabled () in
  (* Blocks decode straight into disjoint slices of one shared output
     buffer (block [b] covers [b * block_size ..)), so the parallel path
     does no per-block string allocation and no final concat. Each
     domain reuses one bit reader across its blocks. *)
  let out = Bytes.create t.original_size in
  Ccomp_par.Pool.iter_n ~jobs
    ~local:(fun () -> Bit_reader.create "")
    (Array.length t.blocks)
    (fun r b ->
      let start = b * t.block_size in
      let len = min t.block_size (t.original_size - start) in
      let t0 = if instrument then Obs.now_us () else 0.0 in
      let refills0 = Bit_reader.refills r in
      Bit_reader.reset r t.blocks.(b);
      for i = start to start + len - 1 do
        Bytes.set out i (Char.chr (Huffman.decode_symbol t.code r))
      done;
      if instrument then begin
        Obs.Histogram.observe m_d_block_us (Obs.now_us () -. t0);
        Obs.Counter.incr m_d_blocks;
        Obs.Counter.add m_d_bytes_out len;
        Obs.Counter.add m_reader_refills (Bit_reader.refills r - refills0)
      end);
  Bytes.unsafe_to_string out

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
