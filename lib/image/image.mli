(** SECF — a small container format for compressed executables.

    A ROM image in the Wolfe–Chanin organisation must ship, besides the
    compressed text, everything the refill engine needs: the algorithm
    identity, the decompression tables (Markov model or dictionary +
    Huffman lengths), and the LAT. SECF packages exactly that, with a
    CRC-32 over the contents.

    Layout (v1): magic "SECF", version, ISA tag, algorithm tag, a LAT
    section, an algorithm payload section (the [Samc]/[Sadc] wire forms,
    which embed their own block payloads), and a trailing CRC-32.

    Layout (v2): as v1 plus a block-CRC kind byte after the algorithm tag
    and a per-block CRC table ({!Crc8} or {!Crc16} over each block's
    compressed payload bytes) between the payload and the trailing CRC-32.
    The whole-image CRC-32 says only that the image is damaged somewhere;
    the per-block tags let the refill engine localise damage to a single
    cache line and degrade gracefully instead of failing the whole image.
    v1 images remain readable, and writing an image without block CRCs
    produces bytes identical to v1. *)

type isa = Mips | X86

type payload =
  | Samc of Ccomp_core.Samc.compressed
  | Sadc_mips of Ccomp_core.Sadc.Mips.compressed
  | Sadc_x86 of Ccomp_core.Sadc.X86.compressed

type block_crc_kind = Crc8_tags | Crc16_tags

type t = {
  isa : isa;
  payload : payload;
  lat : Ccomp_memsys.Lat.t;
  block_crcs : (block_crc_kind * int array) option;
      (** per-block integrity tags over the compressed payload bytes;
          [None] writes a v1 image *)
}

val of_samc : isa:isa -> Ccomp_core.Samc.compressed -> t
(** Builds the image, deriving the LAT from the block sizes. *)

val of_sadc_mips : Ccomp_core.Sadc.Mips.compressed -> t

val of_sadc_x86 : Ccomp_core.Sadc.X86.compressed -> t

val with_block_crcs : block_crc_kind -> t -> t
(** Recompute and attach per-block tags; {!write} then emits a v2 image. *)

val without_block_crcs : t -> t

val block_count : t -> int

val block_payload : t -> int -> string
(** Compressed payload bytes of one block, as covered by its tag. *)

val verify_block_crcs : t -> (unit, Ccomp_util.Decode_error.t) result
(** [Ok ()] when there are no tags or every tag matches; otherwise
    [Crc_mismatch] naming the first corrupt block. *)

val locate_corruption : t -> int list
(** Indices of blocks whose payload no longer matches its tag, in
    ascending order. Empty for v1 images (no tags to check against). *)

val write : t -> string

val read : string -> (t, string) result
(** Checks magic, version and CRC, then decodes the payload. The error
    string names which check failed (magic vs version vs CRC vs payload
    decode). [read = read_checked] with errors rendered by
    {!Ccomp_util.Decode_error.to_string}. *)

val read_checked : ?verify_crc:bool -> string -> (t, Ccomp_util.Decode_error.t) result
(** Typed variant. [~verify_crc:false] skips the whole-image CRC-32 so a
    fault campaign can exercise per-block localisation on a damaged image;
    the per-block tags are still read (and checked by {!decompress}).
    Total: never raises. *)

val max_original_bytes : int
(** Largest declared original size {!decompress} accepts (256 MB). *)

val decompress : ?jobs:int -> t -> string
(** The one image decode path: verifies per-block tags when present,
    refuses a declared original size above {!max_original_bytes} before
    allocating, then decodes over [jobs] (default 1) domains with
    identical output for every value.
    @raise Ccomp_util.Decode_error.Error on those refusals; wrap calls in
    [Decode_error.protect], which also folds what corrupt payloads raise. *)

val total_bytes : t -> int
(** [String.length (write t)] — the full ROM footprint including tables
    and LAT. *)

(** Byte ranges of a written image, for section-targeted fault
    injection. *)
type section =
  | Sec_magic
  | Sec_header  (** version, ISA, algorithm (and CRC-kind in v2) bytes *)
  | Sec_lat
  | Sec_tables  (** model / dictionary tables preceding the first block *)
  | Sec_block of int  (** one block's compressed payload *)
  | Sec_block_crcs  (** the v2 per-block tag table *)
  | Sec_trailer_crc

val section_name : section -> string

val sections : t -> (section * (int * int)) list
(** [(section, (offset, length))] spans into [write t], in layout order.
    Spans cover the whole image except the blocks' 2- or 4-byte length
    prefixes (counted in neither [Sec_tables] nor [Sec_block]). *)

val describe : t -> string
(** One-line human summary (ISA, algorithm, block counts, sizes), plus a
    second line describing the integrity tags for v2 images. *)
