(** SAMC — Semiadaptive Markov Compression (§3).

    ISA-independent: treats the program as fixed-width words, splits every
    word into bit streams, trains one set of connected binary Markov trees
    over the whole program (semiadaptive), and arithmetic-codes each cache
    block independently. Both the coder interval and the model context are
    reset at block boundaries, so any block can be decompressed knowing
    only its own bytes — the property the cache refill engine needs. *)

type config = {
  word_bits : int;  (** instruction width: 32 for MIPS, 8 for byte mode *)
  streams : Stream_split.t;  (** partition of \[0, word_bits), MSB first *)
  context_bits : int;  (** connected-tree context between streams *)
  quantize : bool;  (** power-of-two probabilities (shift-only hardware) *)
  prune_below : int;  (** drop tree nodes seen fewer times (0 = keep all) *)
  block_size : int;  (** cache block size in bytes *)
}

val mips_config :
  ?block_size:int -> ?context_bits:int -> ?quantize:bool -> ?prune_below:int ->
  ?streams:Stream_split.t -> unit -> config
(** The paper's MIPS setup: 32-bit words in 4 streams of 8 consecutive
    bits (overridable), context 2, exact probabilities, 32-byte blocks. *)

val byte_config :
  ?block_size:int -> ?context_bits:int -> ?quantize:bool -> ?prune_below:int -> unit -> config
(** The CISC setup: no stream subdivision is possible, so words are single
    bytes and the connected trees carry context from byte to byte. *)

val validate_config : config -> (unit, string) result

type compressed = {
  config : config;
  model : Markov_model.t;
  blocks : string array;  (** per cache block, independently decodable *)
  original_size : int;  (** bytes of the uncompressed program *)
}

val compress : ?jobs:int -> config -> string -> compressed
(** [compress config code] trains the model on [code] and encodes it
    block by block. [String.length code] must be a multiple of the word
    size in bytes. [jobs] (default 1) fans per-block encoding over that
    many domains ({!Ccomp_par.Blocks}); the output is byte-identical for
    every [jobs] value because blocks are independent and reassembled in
    order.
    @raise Invalid_argument on a bad config or size. *)

val decompress_block : config -> Markov_model.t -> original_bytes:int -> string -> string
(** [decompress_block config model ~original_bytes data] decodes one
    block's payload back to [original_bytes] of code — this is the cache
    refill engine's operation and needs only the block's own bytes.
    The kernel reads the model through its flat probability array
    ({!Markov_model.flat_probs}); output is byte-identical to
    {!decompress_block_ref}. Each domain keeps the decode tables and
    arithmetic decoder of the last (config, model) pair it was called
    with, so consecutive blocks of one image do not rebuild them. *)

val decompress_block_ref : config -> Markov_model.t -> original_bytes:int -> string -> string
(** The original pointer-chasing decode kernel, kept as the reference for
    equivalence tests and as the pre-optimisation baseline the benchmark
    harness reports against. *)

val block_decoder : compressed -> int -> Bytes.t -> int -> int
(** [block_decoder t] hoists the image's decode plan (flat probabilities,
    tree offsets, stream placement) and one arithmetic decoder, and
    returns the single-lane block decoder: [decode b out pos] writes block
    [b]'s bytes at [out.(pos)] and returns their count. Not safe to share
    between domains; build one per domain. Output is byte-identical to
    {!decompress_block}. *)

val pair_decoder : compressed -> int -> Bytes.t -> int -> int -> int
(** [pair_decoder t] is {!block_decoder}'s two-lane form:
    [decode b out pos pos'] decodes blocks [b] and [b + 1] in lock step
    ({!Ccomp_arith.Binary_coder.Decoder.decode_words2}), writes them at
    [out.(pos)] and [out.(pos')] and returns the byte count of each.
    Every block restarts the coder and the context, so the two lanes are
    independent dependency chains that overlap in the pipeline; the
    output is byte-identical to two {!block_decoder} calls. Not safe to
    share between domains.
    @raise Invalid_argument when a stream of [t]'s config is empty or
    not a run of consecutive bits, or unless blocks [b] and [b + 1]
    exist and hold the same number of words. *)

val decompress : ?jobs:int -> compressed -> string
(** Full image reconstruction through {!Ccomp_par.Blocks.decode},
    optionally fanned over [jobs] domains: {!pair_decoder} on blocks
    [2k] and [2k + 1] when they hold the same number of words, and
    {!block_decoder} on an odd last block, on a short final block and on
    every block of a config with scattered streams. Byte-identical for
    every [jobs] value. *)

val decompress_block_parallel :
  config -> Markov_model.t -> original_bytes:int -> string -> string * int
(** Like {!decompress_block} but through the parallel nibble engine of
    Fig. 5 ({!Ccomp_arith.Nibble_decoder}): streams are decoded four bits
    per step with all 15 midpoints evaluated speculatively, exactly as the
    paper's hardware does. Returns the block and the total number of
    midpoint evaluations (the hardware's parallel work). The output is
    bit-for-bit identical to the serial decoder's. *)

val block_count : config -> code_bytes:int -> int

val code_bytes : compressed -> int
(** Total compressed code size: sum of block payloads. *)

val model_bytes : compressed -> int
(** Serialized Markov-model size (shipped with the program). *)

val ratio : compressed -> float
(** Compressed code bytes / original bytes (the paper's figure metric;
    excludes model and LAT — see DESIGN.md §2 accounting note). *)

val ratio_with_model : compressed -> float
(** (code + model) / original. *)

val serialize : compressed -> string
(** Self-contained wire form: configuration (including the stream
    assignment), Markov model, and per-block payloads. *)

val deserialize : string -> pos:int -> compressed * int
(** Inverse of {!serialize}; returns the value and the next position.
    @raise Invalid_argument on malformed input. *)

val model_span : compressed -> int * int
(** [(offset, length)] of the serialized Markov model inside
    {!serialize}'s output — the fault injector's "model table" target. *)

val block_spans : compressed -> (int * int) array
(** Per-block [(offset, length)] of each block payload inside
    {!serialize}'s output (excluding the 2-byte length prefixes). *)
