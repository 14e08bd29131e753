(* Word-batched bit input: up to 62 bits of the stream are staged in an
   int accumulator so [get_bits] is a shift-and-mask instead of a per-bit
   loop. The accumulator holds the bits [pos, pos + navail) of the
   logical stream, right-aligned ([navail] significant bits). *)

type t = {
  mutable data : string;
  mutable len_bits : int;
  mutable pos : int; (* logical bit position of the next bit *)
  mutable acc : int; (* buffered bits, right-aligned *)
  mutable navail : int; (* number of buffered bits, < Sys.int_size *)
  mutable next_byte : int; (* next byte of [data] to stage *)
}

(* Width bounds are real argument checks, not asserts: a width of 63
   or 64 would feed [lsl]/[lsr] shift amounts at or past [Sys.int_size],
   where OCaml's behaviour is unspecified — the mask [(1 lsl width) - 1]
   silently wraps instead of overflowing loudly. Keeping the check in
   release builds (where [assert] may be compiled out) makes every
   out-of-range width a typed [Invalid_argument] instead of garbage
   bits. *)
let check_width ~op ~max width =
  if width < 0 || width > max then
    invalid_arg (Printf.sprintf "Bit_reader.%s: width %d out of range [0, %d]" op width max)

let create ?(start_bit = 0) data =
  if start_bit < 0 then invalid_arg "Bit_reader.create: negative start_bit";
  let r =
    {
      data;
      len_bits = 8 * String.length data;
      pos = start_bit;
      acc = 0;
      navail = 0;
      next_byte = (start_bit + 7) / 8;
    }
  in
  (* An unaligned start leaves a partial byte: its low bits are the
     stream bits from [start_bit] to the byte boundary (MSB-first). *)
  let rem = start_bit land 7 in
  if rem <> 0 && start_bit / 8 < String.length data then begin
    r.acc <- Char.code data.[start_bit / 8] land ((1 lsl (8 - rem)) - 1);
    r.navail <- 8 - rem
  end;
  r

(* Rebind an existing reader to new data from bit 0 — the per-domain
   scratch path of the parallel pipeline decodes one block after another
   through a single reader record instead of allocating one per block. *)
let reset r data =
  r.data <- data;
  r.len_bits <- 8 * String.length data;
  r.pos <- 0;
  r.acc <- 0;
  r.navail <- 0;
  r.next_byte <- 0

let pos r = r.pos

let overrun r = if r.pos > r.len_bits then r.pos - r.len_bits else 0

(* Stage whole bytes while at least one more fits below the int width. *)
let refill r =
  let len = String.length r.data in
  while r.navail <= Sys.int_size - 9 && r.next_byte < len do
    r.acc <- (r.acc lsl 8) lor Char.code (String.unsafe_get r.data r.next_byte);
    r.navail <- r.navail + 8;
    r.next_byte <- r.next_byte + 1
  done

let get_bit r =
  if r.navail = 0 then refill r;
  if r.navail = 0 then begin
    r.pos <- r.pos + 1;
    0
  end
  else begin
    r.navail <- r.navail - 1;
    r.pos <- r.pos + 1;
    (r.acc lsr r.navail) land 1
  end

let rec get_bits_unchecked r width =
  if width = 0 then 0
  else if width > 32 then
    (* Two staged extractions still cover the full 63-bit range. *)
    let hi = get_bits_unchecked r (width - 32) in
    (hi lsl 32) lor get_bits_unchecked r 32
  else begin
    if r.navail < width then refill r;
    if r.navail >= width then begin
      let v = (r.acc lsr (r.navail - width)) land ((1 lsl width) - 1) in
      r.navail <- r.navail - width;
      r.pos <- r.pos + width;
      v
    end
    else begin
      (* Past the end of data: whatever is buffered, zero-extended. *)
      let have = r.navail in
      let v = r.acc land ((1 lsl have) - 1) in
      r.acc <- 0;
      r.navail <- 0;
      r.pos <- r.pos + width;
      v lsl (width - have)
    end
  end

let get_bits r width =
  check_width ~op:"get_bits" ~max:63 width;
  get_bits_unchecked r width

let peek_bits r width =
  check_width ~op:"peek_bits" ~max:32 width;
  if r.navail < width then refill r;
  if r.navail >= width then (r.acc lsr (r.navail - width)) land ((1 lsl width) - 1)
  else (r.acc land ((1 lsl r.navail) - 1)) lsl (width - r.navail)

let skip_bits r width =
  check_width ~op:"skip_bits" ~max:63 width;
  if width <= r.navail then begin
    r.navail <- r.navail - width;
    r.pos <- r.pos + width
  end
  else ignore (get_bits_unchecked r width)

let get_byte r = get_bits_unchecked r 8

let align_byte r =
  let rem = r.pos land 7 in
  if rem <> 0 then skip_bits r (8 - rem)

let remaining_bits r = if r.pos >= r.len_bits then 0 else r.len_bits - r.pos

