module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader

(* Codes 0..255 are literals, 256 clears the table, dynamic entries start
   at 257. Code width grows from 9 to 16 bits and the table is cleared
   when full, as in compress(1).

   Width synchronisation: the decoder lags the encoder by exactly one
   dictionary entry (it learns an entry only from the following code), and
   the largest code the encoder may emit is the decoder's next unassigned
   entry (the KwKwK case). Both sides therefore size each code for the
   decoder's next-entry counter: the decoder uses its own [next], the
   encoder uses [next - 1]. *)
let clear_code = 256
let first_dynamic = 257
let min_width = 9
let max_width = 16
let table_limit = 1 lsl max_width

(* Smallest width whose code space covers [0, n], clamped to [9, 16]. *)
let width_for n =
  let rec go w = if w >= max_width || n <= (1 lsl w) - 1 then w else go (w + 1) in
  go min_width

let compress input =
  let w = Bit_writer.create () in
  let dict : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  (* key = prefix_code * 256 + byte *)
  let next = ref first_dynamic in
  let reset () =
    Hashtbl.reset dict;
    next := first_dynamic
  in
  let emit code =
    let decoder_next = max first_dynamic (!next - 1) in
    Bit_writer.put_bits w ~value:code ~width:(width_for decoder_next)
  in
  let add prefix byte =
    if !next < table_limit then begin
      Hashtbl.add dict ((prefix * 256) + byte) !next;
      incr next;
      true
    end
    else false
  in
  let prefix = ref (-1) in
  String.iter
    (fun c ->
      let byte = Char.code c in
      if !prefix < 0 then prefix := byte
      else
        match Hashtbl.find_opt dict ((!prefix * 256) + byte) with
        | Some code -> prefix := code
        | None ->
          emit !prefix;
          if not (add !prefix byte) then begin
            (* Table full: clear, like compress(1) under pressure. *)
            emit clear_code;
            reset ()
          end;
          prefix := byte)
    input;
  if !prefix >= 0 then emit !prefix;
  Bit_writer.contents w

let decompress ?max_output data =
  let limit = match max_output with Some m -> m | None -> max_int in
  let r = Bit_reader.create data in
  let out = Buffer.create (min 65536 (4 * String.length data)) in
  let check_growth () =
    (* One 16-bit code can expand to a 64 KiB dictionary string, so a
       corrupt stream could legally blow the output up ~58000x; cap
       allocation at the caller's declared original size. *)
    if Buffer.length out > limit then
      Ccomp_util.Decode_error.fail
        (Length_overflow { section = "lzw"; declared = Buffer.length out; limit })
  in
  (* Entries as (prefix_code, last_byte); literals are implicit. *)
  let prefixes = Array.make table_limit 0 in
  let lasts = Array.make table_limit 0 in
  let next = ref first_dynamic in
  let scratch = Buffer.create 64 in
  let first_byte_of code =
    let rec go c = if c < 256 then c else go prefixes.(c) in
    go code
  in
  let emit_string code =
    Buffer.clear scratch;
    let rec go c =
      if c < 256 then Buffer.add_char scratch (Char.chr c)
      else begin
        go prefixes.(c);
        Buffer.add_char scratch (Char.chr lasts.(c))
      end
    in
    go code;
    Buffer.add_buffer out scratch
  in
  let add prefix byte =
    if !next < table_limit then begin
      prefixes.(!next) <- prefix;
      lasts.(!next) <- byte;
      incr next
    end
  in
  let prev = ref (-1) in
  let total_bits = 8 * String.length data in
  let continue_ = ref true in
  while !continue_ && Bit_reader.pos r + width_for !next <= total_bits do
    let code = Bit_reader.get_bits r (width_for !next) in
    if code = clear_code then begin
      next := first_dynamic;
      prev := -1
    end
    else if code > !next then failwith "Lzw.decompress: corrupt stream"
    else begin
      if !prev < 0 then begin
        if code > 255 then failwith "Lzw.decompress: corrupt stream";
        Buffer.add_char out (Char.chr code)
      end
      else if code = !next then begin
        (* KwKwK: the entry being defined right now. *)
        let fb = first_byte_of !prev in
        add !prev fb;
        emit_string code
      end
      else begin
        add !prev (first_byte_of code);
        emit_string code
      end;
      check_growth ();
      prev := code
    end
  done;
  Buffer.contents out

let ratio input =
  if String.length input = 0 then 1.0
  else float_of_int (String.length (compress input)) /. float_of_int (String.length input)
