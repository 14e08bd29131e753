(** MSB-first bit input over a string, word-batched.

    Up to 62 stream bits are staged in an int accumulator, so
    [get_bits]/[peek_bits] cost one shift-and-mask rather than one loop
    iteration per bit.

    Reading past the end of the data yields 0 bits; this mirrors the paper's
    decompressor, whose [get_byte] keeps supplying bytes after the encoded
    block ends (the encoder truncates trailing zero bytes). Use
    [overrun] to detect how far past the end a decoder has read. *)

type t

val create : ?start_bit:int -> string -> t
(** [create data] reads from the beginning of [data]; [start_bit] (default 0)
    skips that many leading bits.
    @raise Invalid_argument on a negative [start_bit]. *)

val reset : t -> string -> unit
(** [reset r data] rebinds [r] to read [data] from bit 0, reusing the
    record — the per-domain scratch path of the parallel block pipeline. *)

val pos : t -> int
(** Bit position of the next bit to be read. *)

val overrun : t -> int
(** Number of bits read past the end of the data (0 when within bounds). *)

val get_bit : t -> int
(** Next bit, or 0 past end of data. *)

val get_bits : t -> int -> int
(** [get_bits r width] reads [width] bits MSB-first. [0 <= width <= 63].
    The result is the raw bit pattern in the low [width] bits of the int;
    at [width = 63] (the full native int width) the top bit lands in the
    sign position, so the value may print as negative — compare patterns,
    not magnitudes, at that width. Bits past the end of data read as 0.
    @raise Invalid_argument when [width] is outside [0, 63] — a real
    check, not an assert, because wider widths reach shift amounts where
    OCaml's [lsl]/[lsr] are unspecified and the extraction mask wraps. *)

val peek_bits : t -> int -> int
(** [peek_bits r width] returns the next [width] bits without consuming
    them. [0 <= width <= 32]. Positions past the end of data read as 0, so
    a peek near the end is still total — this is the lookahead primitive
    of the table-driven Huffman decoder.
    @raise Invalid_argument when [width] is outside [0, 32]. *)

val skip_bits : t -> int -> unit
(** [skip_bits r width] advances past [width] bits ([0 <= width <= 63]),
    the companion to {!peek_bits}.
    @raise Invalid_argument when [width] is outside [0, 63]. *)

val get_byte : t -> int
(** Reads 8 bits. *)

val align_byte : t -> unit
(** Skips to the next byte boundary. *)

val remaining_bits : t -> int
(** Bits left before the end of data (0 when exhausted). *)
