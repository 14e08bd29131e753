(** ISA adapters for SADC (§4).

    SADC is generic over how an instruction set splits into an opcode
    symbol plus operand streams. An adapter names the operand streams,
    gives each one an item bit-width, extracts items from instructions,
    can reconstruct an instruction by pulling items back on demand (the
    operand-length unit + instruction generator of Fig. 6), and compiles
    a dictionary primitive into the block decoder's plan. *)

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

type ops = { mutable ops : int array; mutable len : int }
(** Compiled primitives for SADC's block decoder: [ops.(0)] to
    [ops.(len - 1)] hold a run of groups, each a head and its slots. A
    group writes one big-endian field of [ctl land 7] bytes, where [ctl]
    is [head lsr 32]: [head]'s low 32 bits, the static bits with every
    absorbed operand in place, or-ed with each of its [(ctl lsr 3) land 3]
    free operands, where the slot [(stream lsl 8) lor shift] that follows
    the head is the next item of [stream] shifted left by [shift].
    [(ctl lsr 5) land 3] is the group's role, one of {!plain}, {!modrm}
    and {!sib}. *)

val ops_create : int -> ops
(** An empty run with room for about [n] ints. *)

val plain : int
(** The next group follows. *)

val modrm : int
(** An IA-32 ModRM byte. The group after it, its SIB byte, runs only if
    [X86.has_sib] holds of it. After the ModRM, or its SIB when there is
    one, [X86.disp_size] plus [(ctl lsr 7) land 7] immediate bytes of
    one-byte {!plain} groups run; the primitive then resumes
    [ctl lsr 10] ints past the ModRM group, past the displacement and
    immediate groups it did not need. A ModRM absorbed whole, with its
    SIB when it has one, is {!plain}: its shape is static. *)

val sib : int
(** The SIB byte of the preceding {!modrm} group. *)

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

  val compile : ops -> symbol:int -> fixed:(int * int * int) list -> unit
  (** [compile b ~symbol ~fixed] appends to [b] the groups that write the
      instruction of [symbol] whose items [fixed] lists as
      (stream, position, value) are absorbed, each pulling its free items
      in {!read}'s order. Every absorbed value must fit its stream's
      {!stream_bits}; absorbed items the instruction does not have are
      ignored.
      @raise Ccomp_util.Decode_error.Error ([Malformed]) on a symbol
      outside the ISA. *)

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
