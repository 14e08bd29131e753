(** A MIPS-I subset with the genuine 32-bit field layout.

    This is the fixed-width RISC target of the paper's experiments. SAMC
    treats the output of {!encode} as opaque 32-bit words; SADC uses the
    field-level views ({!opcode_id}, {!operand_regs}, {!immediate},
    {!long_immediate}) to form its opcode / register / immediate /
    long-immediate streams (§4, §5). *)

type operands =
  | Op_none  (** syscall, break *)
  | Op_rd_rs_rt  (** three-register ALU: add rd, rs, rt *)
  | Op_rd_rt_shamt  (** constant shifts: sll rd, rt, shamt *)
  | Op_rd_rt_rs  (** variable shifts: sllv rd, rt, rs *)
  | Op_rs_rt  (** mult/div families *)
  | Op_rd  (** mfhi, mflo *)
  | Op_rs  (** jr, mthi, mtlo *)
  | Op_rd_rs  (** jalr *)
  | Op_rt_rs_imm  (** immediate ALU: addi rt, rs, imm *)
  | Op_rt_imm  (** lui *)
  | Op_rt_base_offset  (** loads/stores: lw rt, imm(rs) *)
  | Op_rs_rt_branch  (** beq/bne rs, rt, offset *)
  | Op_rs_branch  (** blez/bgtz/bltz/bgez rs, offset *)
  | Op_target  (** j/jal target26 *)

type spec = private {
  id : int;  (** dense opcode identifier, 0 .. {!opcode_count}-1 *)
  mnemonic : string;
  operands : operands;
}

val specs : spec array
(** All supported instructions, indexed by [id]. *)

val opcode_count : int

val spec_of_mnemonic : string -> spec
(** @raise Not_found for unknown mnemonics. *)

type t = private {
  spec : spec;
  rs : int;  (** 5-bit field (also the base register of loads/stores) *)
  rt : int;  (** 5-bit field *)
  rd : int;  (** 5-bit field *)
  shamt : int;  (** 5-bit field *)
  imm : int;  (** 16-bit field (unsigned view) or 26-bit jump target *)
}

val make :
  spec -> ?rs:int -> ?rt:int -> ?rd:int -> ?shamt:int -> ?imm:int -> unit -> t
(** Builds an instruction; fields not used by [spec.operands] must be left
    at their defaults (0).
    @raise Invalid_argument on out-of-range fields. *)

val encode : t -> int
(** 32-bit machine word in \[0, 2^32). *)

val skeleton : spec -> int
(** The operand-independent bits of {!encode}'s word (primary opcode and
    funct / regimm selector): for canonical [i],
    [encode i = skeleton i.spec lor] the operand fields. Lets stream
    decoders assemble words without building a {!t}. *)

val decode : int -> t option
(** Inverse of {!encode}; [None] for words that are not in the subset. *)

val decode_id : int -> int
(** The {!opcode_id} of [decode word] without building it, or -1 when
    [decode word] is [None]. *)

val encode_program : t list -> string
(** Big-endian byte image of an instruction sequence. *)

val decode_program : string -> t option array
(** Word-by-word decode of a byte image (length must be a multiple of 4). *)

val opcode_id : t -> int
(** The simplified 8-bit opcode of §4 (dense spec id). *)

val operand_regs : t -> int list
(** The 5-bit register-stream items of the instruction, in field order
    (rs, rt, rd as applicable; constant-shift amounts are included as
    5-bit items, see DESIGN.md). *)

val immediate : t -> int option
(** 16-bit immediate field, when the format has one. *)

val long_immediate : t -> int option
(** 26-bit jump target, when the format has one. *)

val reg_arity : spec -> int
(** Number of register-stream items of the format (the operand-length
    unit's register count, Fig. 6). *)

val has_immediate : spec -> bool

val has_long_immediate : spec -> bool

val reassemble :
  spec -> regs:int list -> imm:int option -> limm:int option -> t
(** Rebuilds an instruction from its stream components — the software
    equivalent of the paper's instruction-generator unit (Fig. 6).
    @raise Invalid_argument if the component counts do not match the
    spec's operand signature. *)

val signed_immediate : t -> int
(** Sign-extended 16-bit immediate (meaningful for I-type formats). *)

val to_string : t -> string
(** Disassembly, e.g. ["addiu $sp, $sp, -32"]. *)

val is_branch : t -> bool
(** True for conditional branches and direct jumps (beq..bgez, j, jal). *)

val is_indirect_jump : t -> bool
(** True for jr/jalr. *)
