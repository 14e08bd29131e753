(** MSB-first bit output over a growing byte buffer, word-batched.

    Bits are packed into bytes most-significant-bit first, matching the
    order in which the arithmetic coder and Huffman codecs emit code bits.
    Pending bits accumulate in an int and spill to the buffer a byte at a
    time, so [put_bits] is O(1) per call rather than O(width). *)

type t

val create : unit -> t

val bit_length : t -> int
(** Number of bits written so far. *)

val byte_length : t -> int
(** Number of bytes the current contents occupy (bits rounded up). *)

val put_bit : t -> int -> unit
(** [put_bit w b] appends bit [b] (0 or 1).
    @raise Invalid_argument on any other value. *)

val put_bits : t -> value:int -> width:int -> unit
(** [put_bits w ~value ~width] appends the [width] low bits of [value],
    most significant first. [0 <= width <= 63]. [value] is treated as a
    raw bit pattern: bits of [value] above [width] are ignored, and at
    [width = 63] the pattern may correspond to a negative int — the
    round-trip through {!Bit_reader.get_bits} preserves the pattern
    exactly.
    @raise Invalid_argument when [width] is outside [0, 63] (a real
    check, kept in release builds — see {!Bit_reader.get_bits}). *)

val put_byte : t -> int -> unit
(** Appends 8 bits.
    @raise Invalid_argument when the value is outside [0, 255]. *)

val align_byte : t -> unit
(** Pads with 0 bits to the next byte boundary (no-op when aligned). *)

val contents : t -> string
(** Byte contents; the final partial byte, if any, is zero-padded. *)

val reset : t -> unit
(** Empties the writer for reuse. *)
