(** Byte-based Huffman coding of instruction memory, after Kozuch & Wolfe
    (cited as \[5\] in the paper; the Fig. 9 comparison baseline).

    A single semiadaptive Huffman code over the program's bytes; every
    cache block is encoded separately and byte-aligned, so blocks are
    independently decodable with one shared table — the same execution
    model as SAMC/SADC but with no instruction-field or inter-byte
    modelling, which is why the paper's methods beat it. *)

type compressed = {
  code : Ccomp_huffman.Huffman.code;
  blocks : string array;
  block_size : int;
  original_size : int;
}

val compress : ?block_size:int -> ?jobs:int -> string -> compressed
(** [compress code] with 32-byte blocks by default. [jobs] (default 1)
    fans per-block encoding over that many domains with byte-identical
    output. *)

val decompress_block : compressed -> int -> string

val decompress : ?jobs:int -> ?max_output:int -> compressed -> string
(** [decompress t] rebuilds the original bytes. [jobs] (default 1) fans
    per-block decoding over that many domains; blocks land in disjoint
    slices of one shared buffer, so output is byte-identical.
    [max_output] bounds the declared original size before allocation.
    @raise Ccomp_util.Decode_error.Error ([Length_overflow]) past the cap. *)

val serialize : compressed -> string
(** Self-contained wire form: block size, original size, the shared
    canonical-Huffman length table, then length-prefixed block payloads. *)

val deserialize : string -> pos:int -> compressed * int
(** Inverse of {!serialize}.
    @raise Invalid_argument on malformed input. *)

val code_bytes : compressed -> int

val table_bytes : compressed -> int

val ratio : compressed -> float
(** Compressed code bytes / original bytes. *)
