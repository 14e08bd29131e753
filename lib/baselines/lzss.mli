(** LZ77 + canonical Huffman, a simplified DEFLATE — the paper's [gzip]
    reference (§5). A 32 KiB sliding window with hash-chain match search
    and lazy evaluation feeds a literal/length alphabet and a distance
    alphabet (the RFC 1951 code ranges), each canonical-Huffman coded over
    the whole file. File-oriented: the dictionary is the preceding text,
    so random block access is impossible — the very property that rules
    this family out for compressed-code execution (§1). *)

val compress : string -> string

val decompress : ?max_output:int -> string -> string
(** Inverse of {!compress}. [max_output] caps the produced bytes against
    corrupt streams of back-reference tokens; pass the declared original
    size when known.
    @raise Failure on corrupted input.
    @raise Ccomp_util.Decode_error.Error ([Length_overflow]) past the cap. *)

val ratio : string -> float
(** Compressed size / original size (1.0 for empty input). *)
