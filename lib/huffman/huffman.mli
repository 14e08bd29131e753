(** Canonical Huffman coding (Huffman 1952) over an integer alphabet.

    Used by the Kozuch–Wolfe byte-Huffman baseline, by the final entropy
    stage of SADC (§4), and by the literal/length/distance alphabets of the
    gzip-like baseline. Codes are canonical so a code is fully described by
    its length table, which is what gets stored next to a compressed
    program. *)

type code
(** A built code: per-symbol lengths plus canonical codewords. *)

val build : ?max_length:int -> Ccomp_entropy.Freq.t -> code
(** [build freq] computes an optimal prefix code for the observed counts.
    Symbols with zero count get no codeword. [max_length] (default 15)
    bounds codeword length; frequencies are flattened (halved) until the
    bound is met, which costs a provably small amount of optimality.
    @raise Invalid_argument if no symbol has a positive count. *)

val of_lengths : int array -> code
(** Rebuild a canonical code from its length table (0 = absent symbol), as a
    decoder does after reading the stored table.
    @raise Invalid_argument if the lengths do not form a prefix code
    (Kraft sum > 1) or describe an empty alphabet. *)

val lengths : code -> int array
(** Per-symbol code lengths; 0 for symbols without a codeword. *)

val code_length : code -> int -> int
(** Length of one symbol's codeword (0 when absent). *)

val codeword : code -> int -> int
(** Canonical codeword bits of a symbol (MSB-first within its length).
    @raise Invalid_argument if the symbol has no codeword. *)

val alphabet_size : code -> int

val encode_symbol : code -> Ccomp_bitio.Bit_writer.t -> int -> unit
(** Append one symbol's codeword.
    @raise Invalid_argument if the symbol has no codeword. *)

val decode_symbol : code -> Ccomp_bitio.Bit_reader.t -> int
(** Read one symbol. Codes up to 11 bits resolve through a first-level
    lookup table in one peek-and-skip; longer codes fall back to the
    canonical tree walk, so the result is identical to
    {!decode_symbol_tree} on any input.
    @raise Ccomp_util.Decode_error.Error ([Invalid_code]) if the bit
    stream does not decode (possible only on corrupted input or overrun
    past the end). *)

val decode_symbol_tree : code -> Ccomp_bitio.Bit_reader.t -> int
(** The bit-serial canonical tree walk {!decode_symbol} accelerates —
    kept as the reference kernel for equivalence tests and the
    pre-LUT baseline in the benchmark harness. *)

(** {2 Table-driven decoding in the caller's own bit buffer}

    A decoder that keeps its bits in local variables (the SADC block
    kernel) resolves a symbol without a {!Ccomp_bitio.Bit_reader.t}:
    the next [lut_bits c] bits index [lut c]; a nonzero entry is
    [(symbol lsl 5) lor length], and 0 means a longer codeword, which
    {!decode_window} resolves. Past the end of the data the stream
    reads as 0 bits, as for {!decode_symbol}. *)

val lut_bits : code -> int
(** At most 11, and at most {!max_length}. *)

val lut : code -> int array
(** [2^(lut_bits c)] entries. Do not mutate. *)

val max_length : code -> int
(** Length of the longest codeword, at most 30. *)

val decode_window : code -> int -> int
(** [decode_window c w]: [w] holds the next [max_length c] bits of the
    stream, most significant first; returns [(symbol lsl 5) lor length]
    of the codeword they open, the symbol {!decode_symbol} reads there.
    @raise Ccomp_util.Decode_error.Error ([Invalid_code]) when no
    codeword opens them. *)

val encoded_bits : code -> Ccomp_entropy.Freq.t -> int
(** Total bits needed to code a message with the given symbol counts. *)

val serialize_lengths : code -> string
(** Compact table representation: alphabet size (2 bytes, big-endian)
    followed by run-length coded (count-1, length) byte pairs — sparse
    alphabets cost almost nothing. *)

val deserialize_lengths : string -> pos:int -> code * int
(** Inverse of {!serialize_lengths}; returns the code and the position just
    past the table.
    @raise Invalid_argument on a truncated table, an over-full code
    (Kraft sum > 1) or a deficient one (Kraft sum < 1, except the
    degenerate single-symbol code), so a stored table is accepted only
    when every bit pattern decodes. *)
