(** LZW with the parameters of UNIX [compress(1)]: codes grow from 9 to 16
    bits, the table is rebuilt when full and compression degrades, and the
    whole file is one stream — the paper's first file-oriented reference
    (§5). File-oriented means sequential decompression only: unusable in
    the cache-refill architecture, included purely as a yardstick. *)

val compress : string -> string

val decompress : ?max_output:int -> string -> string
(** Inverse of {!compress}. [max_output] caps the produced bytes (a single
    16-bit code can expand to 64 KiB, so corruption could otherwise force
    huge allocations); pass the declared original size when known.
    @raise Failure on corrupted input.
    @raise Ccomp_util.Decode_error.Error ([Length_overflow]) past the cap. *)

val ratio : string -> float
(** [ratio data] = compressed size / original size (1.0 for empty input). *)
