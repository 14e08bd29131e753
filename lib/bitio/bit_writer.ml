(* Word-batched bit output: bits accumulate in an int and are flushed to
   the byte buffer eight at a time, so [put_bits] is O(1) per call
   instead of per bit. [acc] holds the pending [nacc] bits right-aligned
   (MSB-first stream order); [nacc] may exceed 8 between flushes. *)

type t = { buf : Buffer.t; mutable acc : int; mutable nacc : int }

let create () = { buf = Buffer.create 256; acc = 0; nacc = 0 }

let bit_length w = (8 * Buffer.length w.buf) + w.nacc

let byte_length w = Buffer.length w.buf + ((w.nacc + 7) / 8)

(* Move all whole bytes from the accumulator into the buffer. *)
let flush_bytes w =
  while w.nacc >= 8 do
    w.nacc <- w.nacc - 8;
    Buffer.add_char w.buf (Char.unsafe_chr ((w.acc lsr w.nacc) land 0xff))
  done;
  w.acc <- w.acc land ((1 lsl w.nacc) - 1)

let put_bit w b =
  if b <> 0 && b <> 1 then invalid_arg (Printf.sprintf "Bit_writer.put_bit: bad bit %d" b);
  w.acc <- (w.acc lsl 1) lor b;
  w.nacc <- w.nacc + 1;
  if w.nacc >= 8 then flush_bytes w

(* Like Bit_reader, the width bound is a real argument check rather than
   an assert: widths past 62 would reach shift amounts where OCaml's
   [lsl] is unspecified, so release builds must reject them too. *)
let rec put_bits w ~value ~width =
  if width < 0 || width > 63 then
    invalid_arg (Printf.sprintf "Bit_writer.put_bits: width %d out of range [0, 63]" width);
  if width > 32 then begin
    (* Split so each half fits the accumulator headroom. *)
    put_bits w ~value:(value lsr 32) ~width:(width - 32);
    put_bits w ~value:(value land 0xffffffff) ~width:32
  end
  else if width > 0 then begin
    if w.nacc + width > Sys.int_size - 1 then flush_bytes w;
    w.acc <- (w.acc lsl width) lor (value land ((1 lsl width) - 1));
    w.nacc <- w.nacc + width;
    if w.nacc >= 8 then flush_bytes w
  end

let put_byte w byte =
  if byte < 0 || byte > 255 then
    invalid_arg (Printf.sprintf "Bit_writer.put_byte: byte %d out of range" byte);
  if w.nacc = 0 then Buffer.add_char w.buf (Char.chr byte)
  else put_bits w ~value:byte ~width:8

let align_byte w =
  let rem = w.nacc land 7 in
  if rem <> 0 then put_bits w ~value:0 ~width:(8 - rem);
  flush_bytes w

let contents w =
  flush_bytes w;
  let body = Buffer.contents w.buf in
  if w.nacc = 0 then body
  else body ^ String.make 1 (Char.chr (w.acc lsl (8 - w.nacc)))

let reset w =
  Buffer.clear w.buf;
  w.acc <- 0;
  w.nacc <- 0
