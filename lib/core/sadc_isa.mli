(** ISA adapters for SADC (§4).

    SADC is generic over how an instruction set splits into an opcode
    symbol plus operand streams. An adapter names the operand streams,
    gives each one an item bit-width, extracts items from instructions,
    and can reconstruct an instruction by pulling items back on demand
    (the operand-length unit + instruction generator of Fig. 6). *)

val item : stream:int -> position:int -> int -> int
(** [item ~stream ~position v] packs an operand item: value [v] (below
    2^30) of stream [stream] (below 16), the [position]-th item (below 64)
    of its instruction in that stream. The packing is
    [(stream lsl 36) lor (position lsl 30) lor v]. *)

val item_stream : int -> int

val item_position : int -> int

val item_value : int -> int

type program = {
  syms : int array;  (** base symbol per instruction *)
  boff : int array;
      (** byte offsets: instruction [i] is bytes [boff.(i)] to [boff.(i + 1) - 1] *)
  items : int array;
      (** every instruction's packed {!item}s in {!S.read}'s pull order;
          may run past the last item *)
  ioff : int array;
      (** item offsets: instruction [i]'s items are [items.(ioff.(i))] to
          [items.(ioff.(i + 1) - 1)] *)
}
(** A program as SADC's compressor reads it, in flat arrays. *)

module type S = sig
  type instr

  val name : string

  val base_symbols : int
  (** Size of the base opcode alphabet (before dictionary augmentation). *)

  val symbol : instr -> int
  (** Base opcode symbol in \[0, base_symbols). *)

  val stream_count : int

  val stream_bits : int array
  (** Item width of each operand stream, in bits. *)

  val stream_names : string array

  val iter_items : instr -> (int -> int -> unit) -> unit
  (** [iter_items instr f] calls [f s v] for each operand item [v] of
      stream [s], in the order {!read} pulls them. *)

  val byte_length : instr -> int

  val read : symbol:int -> next:(int -> int) -> instr
  (** [read ~symbol ~next] rebuilds an instruction, calling [next s] to
      pull the next item of stream [s]; pulls exactly the items that
      {!items} lists for the result.
      @raise Invalid_argument on an unknown symbol or malformed pulls. *)

  val read_into : symbol:int -> next:(int -> int) -> Bytes.t -> int -> int
  (** [read_into ~symbol ~next buf pos] decodes one instruction with the
      same pulls as {!read} but writes its encoded bytes directly at
      [buf.(pos)], returning the byte length — the zero-copy decode
      path. Fixed-width ISAs implement it without constructing an
      [instr] at all, so a block decode allocates nothing per
      instruction.
      @raise Invalid_argument on an unknown symbol, out-of-range pulled
      items, or an out-of-bounds write. *)

  val encode_list : instr list -> string

  val parse : string -> program option
  (** Decode a byte image straight into flat arrays, in one pass:
      per instruction the {!symbol}, the {!byte_length} and the items
      {!iter_items} lists, in its order. [None] when some instruction
      does not decode. *)
end

module Mips_streams : S with type instr = Ccomp_isa.Mips.t
(** MIPS (§5): register stream (5-bit items, including shift amounts),
    16-bit immediate stream, 26-bit long-immediate stream. *)

module X86_streams : S with type instr = Ccomp_isa.X86.t
(** x86 (§5): ModRM+SIB stream and immediate+displacement stream, both
    byte-wide. Two-byte (0x0F-map) opcodes are symbols 256..511. *)

module X86_field_streams : S with type instr = Ccomp_isa.X86.t
(** The finer subdivision §5 conjectures would "improve compression but
    complicate the decompressor": ModRM and SIB are split into their
    architectural fields — mod (2 bits), reg (3), rm (3), scale (2),
    index (3), base (3) — each with its own stream and Huffman code;
    displacement and immediate bytes share one byte stream. Experiment E9
    tests the conjecture. *)
