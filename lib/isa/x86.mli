(** A 32-bit x86-style CISC subset with genuine encoding rules.

    Instructions follow the real IA-32 layout: one or two opcode bytes
    (0x0F-prefixed map for the second set), an optional ModRM byte, an
    optional SIB byte, a 0/1/4-byte displacement selected by ModRM, and a
    0/1/4-byte immediate selected by the opcode. This gives the paper's
    three Pentium streams (§5): opcode bytes, ModRM+SIB bytes, and
    immediate+displacement bytes, each a whole number of bytes. *)

type t = private {
  opcode : string;  (** 1 or 2 opcode bytes *)
  modrm : int option;
  sib : int option;
  disp : string;  (** 0, 1 or 4 bytes, little-endian *)
  imm : string;  (** 0, 1 or 4 bytes, little-endian *)
}

type alu = Add | Sub | And | Or | Xor | Cmp
type shift = Shl | Shr | Sar

type cond = O | No | B | Ae | E | Ne | Be | A | S | Ns | P | Np | L | Ge | Le | G
(** Condition codes, in IA-32 tttn order (0x0 .. 0xF). *)

(** {1 Constructors} — registers are 0..7 (eax..edi). *)

val nop : t
val ret : t
val leave : t
val push_r : int -> t
val pop_r : int -> t
val inc_r : int -> t
val dec_r : int -> t
val mov_rr : dst:int -> src:int -> t
val mov_ri : dst:int -> int32 -> t
val mov_load : dst:int -> base:int -> disp:int -> t

(** mov r32, \[base + index*2^scale + disp\] (SIB form; [index] must not be
    esp, [scale] in 0..3). *)
val mov_load_indexed : dst:int -> base:int -> index:int -> scale:int -> disp:int -> t
val mov_store : base:int -> disp:int -> src:int -> t
val mov8_load : dst:int -> base:int -> disp:int -> t
val mov8_store : base:int -> disp:int -> src:int -> t

val movx_load : signed:bool -> wide:bool -> dst:int -> base:int -> disp:int -> t
(** movzx/movsx r32, \[base+disp\] with an 8-bit ([wide]=false) or 16-bit
    source. *)

val xchg_rr : int -> int -> t
val cdq : t
val push_imm : int32 -> t
(** push imm8 when it fits a signed byte, else push imm32. *)

val group_f7 : [ `Not | `Neg | `Mul | `Imul | `Div | `Idiv ] -> rm:int -> t
(** The 0xF7 unary group on a register operand. *)

val setcc : cond -> dst:int -> t

(** The r, r/m direction form (0x03/0x0B/…): same effect as {!alu_rr} on
    registers but the other encoding, as compilers emit both. *)
val alu_rr_load : alu -> dst:int -> src:int -> t
val alu_rr : alu -> dst:int -> src:int -> t
val alu_ri : alu -> dst:int -> int32 -> t
val test_rr : int -> int -> t
val imul_rr : dst:int -> src:int -> t
val lea : dst:int -> base:int -> disp:int -> t
val shift_ri : shift -> dst:int -> int -> t
val call_rel : int32 -> t
val jmp_rel8 : int -> t
val jmp_rel32 : int32 -> t
val jcc_rel8 : cond -> int -> t
val jcc_rel32 : cond -> int32 -> t

(** {1 Encoding} *)

val length : t -> int
(** Encoded length in bytes. *)

val encode : t -> string

val encode_program : t list -> string

val decode : string -> pos:int -> (t * int) option
(** [decode bytes ~pos] parses one instruction starting at [pos], returning
    it and the position just past it; [None] when the bytes are not a valid
    instruction of the subset. *)

val scan : string -> pos:int -> item:(int -> int -> unit) -> int
(** [scan bytes ~pos ~item] is {!decode} without building a [t]: for the
    instruction at [pos] it calls [item 0 b] for its ModRM and SIB bytes
    and then [item 1 b] for its displacement and immediate bytes, in the
    order {!read_streams} pulls them, and returns the position just past
    it; -1 when {!decode} would return [None]. *)

val decode_program : string -> t list option
(** Parses a whole byte image; [None] on any invalid instruction. *)

val to_string : t -> string
(** Best-effort disassembly (mnemonic and operand bytes). *)

(** {1 Stream views (§5)} *)

val streams : t -> string * string * string
(** [(opcode_bytes, modrm_sib_bytes, imm_disp_bytes)] of one instruction;
    displacement precedes immediate in the third stream, as in the
    encoding. *)

val rebuild : opcode:string -> modrm_sib:string -> imm_disp:string -> t option
(** Inverse of {!streams}: reassembles an instruction from exactly its
    stream bytes. [None] if the pieces are inconsistent. *)

val read_streams :
  opcode:string -> next_modrm_sib:(unit -> int) -> next_imm_disp:(unit -> int) -> t option
(** [read_streams ~opcode ~next_modrm_sib ~next_imm_disp] reconstructs an
    instruction by pulling operand bytes on demand — first the ModRM byte
    (when the opcode takes one), then SIB/displacement/immediate bytes as
    the already-pulled bytes dictate, exactly like a hardware sequencer fed
    by per-stream decoders (Fig. 6). [None] for an unknown opcode. *)

val symbol_shape : int -> (bool * int) option
(** The shape of SADC symbol [symbol]'s opcode (a first byte below 256,
    [256 + b] for the two-byte opcode [0x0f b]): whether a ModRM byte
    follows it and how many immediate bytes end the instruction. [None]
    for an unknown opcode. *)

val has_sib : int -> bool
(** Whether a ModRM byte is followed by a SIB byte. *)

val disp_size : int -> sib:int -> int
(** Displacement bytes that a ModRM byte and its SIB byte ([-1] when
    there is none) imply. *)

val opcode_symbol : t -> int
(** The first opcode byte — the dictionary symbol used by SADC's x86 mode.
    Two-byte opcodes are distinguished by {!second_opcode}. *)

val second_opcode : t -> int option
(** Second opcode byte for the 0x0F map. *)

val is_branch : t -> bool
(** Direct control transfers (call/jmp/jcc). *)
