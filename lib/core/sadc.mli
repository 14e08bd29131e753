(** SADC — Semiadaptive Dictionary Compression (§4).

    ISA-dependent: instructions are split into an opcode stream and
    ISA-specific operand streams. A per-program dictionary of at most 256
    entries is grown iteratively; each round counts three candidate kinds —
    adjacent token pairs, adjacent token triples, and opcodes specialised to
    a specific operand value (e.g. [jr $31]) — inserts the one with the
    largest gain, re-parses the program greedily and repeats (the paper's
    generate-and-reparse loop, §4.1). All streams are finally Huffman
    coded. Every cache block is parsed and coded independently so the
    refill engine can decompress blocks in isolation. *)

type config = {
  block_size : int;  (** cache block size in bytes *)
  max_entries : int;  (** dictionary size bound (paper: 256) *)
  max_rounds : int;  (** safety bound on generate-and-reparse rounds *)
}

val default_config : ?block_size:int -> ?max_entries:int -> ?max_rounds:int -> unit -> config

val validate_config : config -> (unit, string) result
(** [block_size] must be in 1..65535, the range of its u16 wire-header
    field. *)

type dict_stats = {
  entries : int;  (** dictionary entries in use *)
  base_entries : int;  (** plain single opcodes *)
  group_entries : int;  (** multi-opcode groups *)
  specialized_entries : int;  (** opcodes with absorbed operands *)
  longest_group : int;  (** primitives in the longest group *)
  rounds : int;  (** generate-and-reparse rounds executed *)
}

module Make (I : Sadc_isa.S) : sig
  type primitive = {
    sym : int;  (** base opcode symbol *)
    fixed : (int * int * int) list;  (** (stream, pull position, value) absorbed operands *)
  }

  type entry = { prims : primitive array }

  type compressed

  val compress_image : ?jobs:int -> config -> string -> compressed
  (** Parse a byte image with [I.parse], build the dictionary and encode
      the program. Dictionary and table construction are global and run
      serially; [jobs] (default 1) fans the per-block entropy coding over
      that many domains with byte-identical output.
      @raise Invalid_argument on a config {!validate_config} refuses, an
      image that does not decode, or an empty program. *)

  val block_count : compressed -> int

  val block_original_bytes : compressed -> int -> int

  val block_payload_bytes : compressed -> int -> int
  (** Compressed size of one block's payload (the LAT entry length). *)

  val decompress_block : compressed -> int -> I.instr list
  (** Decode one block from only its own payload (dictionary and Huffman
      tables are program-global, like the hardware's dictionary memory). *)

  val block_decoder : compressed -> int -> Bytes.t -> int -> int
  (** [block_decoder t] compiles [t]'s dictionary and Huffman tables into
      a decode plan (the Fig. 6 opcode extractor and instruction
      generator as int arrays: per primitive its static bits with every
      absorbed operand in place, then its free operand slots, through
      [I.compile]) and returns the production block decoder over it:
      [decode b out pos] writes block [b]'s bytes at [out.(pos)] and
      returns their count, which can exceed the declared size only on a
      corrupt payload. A block decode allocates nothing. Every range
      check is made here, once: a token alphabet beyond the dictionary,
      a chunk alphabet wider than its chunk or an absorbed operand
      outside its field raises [Decode_error.Error] ([Malformed]). Each
      call builds its own plan; the decoder is not safe to share between
      domains, so build one per domain. *)

  val decompress : ?jobs:int -> compressed -> string
  (** Whole-image reconstruction; equals the original image.
      {!block_decoder} runs over every block through
      {!Ccomp_par.Blocks.decode}; [jobs] (default 1) fans the blocks over
      that many domains. *)

  val dictionary : compressed -> entry array

  val stats : compressed -> dict_stats

  val code_bytes : compressed -> int
  (** Sum of per-block payload bytes. *)

  val dict_bytes : compressed -> int
  (** Serialized dictionary size. *)

  val tables_bytes : compressed -> int
  (** Serialized Huffman length-table size. *)

  val original_size : compressed -> int

  val ratio : compressed -> float
  (** code bytes / original bytes (figure metric; see DESIGN.md). *)

  val ratio_with_tables : compressed -> float
  (** (code + dictionary + tables) / original. *)

  val serialize : compressed -> string
  (** Self-contained wire form: dictionary, Huffman tables and per-block
      payloads. *)

  val deserialize : string -> pos:int -> compressed * int
  (** Inverse of {!serialize}. The per-block sizes must sum to the
      declared original size.
      @raise Invalid_argument on truncated input.
      @raise Ccomp_util.Decode_error.Error ([Malformed]) on a size mismatch. *)

  val block_payload : compressed -> int -> string
  (** One block's compressed payload bytes (what the per-block CRC of a
      SECF v2 image covers). *)

  val tables_span : compressed -> int * int
  (** [(offset, length)] of the dictionary + Huffman tables inside
      {!serialize}'s output — the fault injector's "tables" target. *)

  val block_spans : compressed -> (int * int) array
  (** Per-block [(offset, length)] of each payload inside {!serialize}'s
      output (excluding the 4-byte per-block prefixes). *)

  module For_tests : sig
    val build_naive : config -> I.instr list -> entry array * int
    (** Dictionary and round count from the full-rescan reference builder
        (canonical largest-gain / smallest-key selection). Both builders
        take the program through [I.encode_list] and [I.parse]. *)

    val build_incremental : ?check:bool -> config -> I.instr list -> entry array * int
    (** Dictionary and round count from the production incremental
        builder. [check] (default false) re-derives every candidate count
        by full rescan at the start of each round and raises on any
        disagreement with the incrementally maintained counts. *)
  end
end

module Mips : module type of Make (Sadc_isa.Mips_streams)
module X86 : module type of Make (Sadc_isa.X86_streams)

module X86_fields : module type of Make (Sadc_isa.X86_field_streams)
(** The §5 "more careful stream subdivision" variant (experiment E9). *)
