type operands =
  | Op_none
  | Op_rd_rs_rt
  | Op_rd_rt_shamt
  | Op_rd_rt_rs
  | Op_rs_rt
  | Op_rd
  | Op_rs
  | Op_rd_rs
  | Op_rt_rs_imm
  | Op_rt_imm
  | Op_rt_base_offset
  | Op_rs_rt_branch
  | Op_rs_branch
  | Op_target

(* How the instruction is located in the MIPS encoding space. *)
type encoding =
  | Special of int (* opcode 0, funct field *)
  | Regimm of int (* opcode 1, rt field selects *)
  | Normal of int (* primary opcode, I-type *)
  | Jump of int (* primary opcode, J-type *)

type spec = { id : int; mnemonic : string; operands : operands }

(* Internal table carrying the encoding next to each spec. *)
let table : (string * encoding * operands) array =
  [|
    ("sll", Special 0x00, Op_rd_rt_shamt);
    ("srl", Special 0x02, Op_rd_rt_shamt);
    ("sra", Special 0x03, Op_rd_rt_shamt);
    ("sllv", Special 0x04, Op_rd_rt_rs);
    ("srlv", Special 0x06, Op_rd_rt_rs);
    ("srav", Special 0x07, Op_rd_rt_rs);
    ("jr", Special 0x08, Op_rs);
    ("jalr", Special 0x09, Op_rd_rs);
    ("syscall", Special 0x0c, Op_none);
    ("break", Special 0x0d, Op_none);
    ("mfhi", Special 0x10, Op_rd);
    ("mthi", Special 0x11, Op_rs);
    ("mflo", Special 0x12, Op_rd);
    ("mtlo", Special 0x13, Op_rs);
    ("mult", Special 0x18, Op_rs_rt);
    ("multu", Special 0x19, Op_rs_rt);
    ("div", Special 0x1a, Op_rs_rt);
    ("divu", Special 0x1b, Op_rs_rt);
    ("add", Special 0x20, Op_rd_rs_rt);
    ("addu", Special 0x21, Op_rd_rs_rt);
    ("sub", Special 0x22, Op_rd_rs_rt);
    ("subu", Special 0x23, Op_rd_rs_rt);
    ("and", Special 0x24, Op_rd_rs_rt);
    ("or", Special 0x25, Op_rd_rs_rt);
    ("xor", Special 0x26, Op_rd_rs_rt);
    ("nor", Special 0x27, Op_rd_rs_rt);
    ("slt", Special 0x2a, Op_rd_rs_rt);
    ("sltu", Special 0x2b, Op_rd_rs_rt);
    ("bltz", Regimm 0x00, Op_rs_branch);
    ("bgez", Regimm 0x01, Op_rs_branch);
    ("j", Jump 0x02, Op_target);
    ("jal", Jump 0x03, Op_target);
    ("beq", Normal 0x04, Op_rs_rt_branch);
    ("bne", Normal 0x05, Op_rs_rt_branch);
    ("blez", Normal 0x06, Op_rs_branch);
    ("bgtz", Normal 0x07, Op_rs_branch);
    ("addi", Normal 0x08, Op_rt_rs_imm);
    ("addiu", Normal 0x09, Op_rt_rs_imm);
    ("slti", Normal 0x0a, Op_rt_rs_imm);
    ("sltiu", Normal 0x0b, Op_rt_rs_imm);
    ("andi", Normal 0x0c, Op_rt_rs_imm);
    ("ori", Normal 0x0d, Op_rt_rs_imm);
    ("xori", Normal 0x0e, Op_rt_rs_imm);
    ("lui", Normal 0x0f, Op_rt_imm);
    ("lb", Normal 0x20, Op_rt_base_offset);
    ("lh", Normal 0x21, Op_rt_base_offset);
    ("lw", Normal 0x23, Op_rt_base_offset);
    ("lbu", Normal 0x24, Op_rt_base_offset);
    ("lhu", Normal 0x25, Op_rt_base_offset);
    ("sb", Normal 0x28, Op_rt_base_offset);
    ("sh", Normal 0x29, Op_rt_base_offset);
    ("sw", Normal 0x2b, Op_rt_base_offset);
  |]

let specs =
  Array.mapi (fun id (mnemonic, _, operands) -> { id; mnemonic; operands }) table

let opcode_count = Array.length specs

let encoding_of spec =
  let _, enc, _ = table.(spec.id) in
  enc

let by_mnemonic = Hashtbl.create 64

let () = Array.iter (fun s -> Hashtbl.replace by_mnemonic s.mnemonic s) specs

let spec_of_mnemonic m = Hashtbl.find by_mnemonic m

(* Reverse lookup tables for decoding. *)
let funct_table = Array.make 64 (-1)
let regimm_table = Array.make 32 (-1)
let opcode_table = Array.make 64 (-1)

let () =
  Array.iteri
    (fun id (_, enc, _) ->
      match enc with
      | Special funct -> funct_table.(funct) <- id
      | Regimm sel -> regimm_table.(sel) <- id
      | Normal op | Jump op -> opcode_table.(op) <- id)
    table

type t = { spec : spec; rs : int; rt : int; rd : int; shamt : int; imm : int }

let check_field name v bits =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg (Printf.sprintf "Mips.make: %s out of range: %d" name v)

let make spec ?(rs = 0) ?(rt = 0) ?(rd = 0) ?(shamt = 0) ?(imm = 0) () =
  check_field "rs" rs 5;
  check_field "rt" rt 5;
  check_field "rd" rd 5;
  check_field "shamt" shamt 5;
  (match spec.operands with
  | Op_target -> check_field "target" imm 26
  | Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs | Op_rd_rs
  | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset | Op_rs_rt_branch | Op_rs_branch ->
    check_field "imm" imm 16);
  { spec; rs; rt; rd; shamt; imm }

let encode i =
  match encoding_of i.spec with
  | Special funct ->
    (i.rs lsl 21) lor (i.rt lsl 16) lor (i.rd lsl 11) lor (i.shamt lsl 6) lor funct
  | Regimm sel -> (0x01 lsl 26) lor (i.rs lsl 21) lor (sel lsl 16) lor i.imm
  | Normal op -> (op lsl 26) lor (i.rs lsl 21) lor (i.rt lsl 16) lor i.imm
  | Jump op -> (op lsl 26) lor i.imm

(* The operand-independent bits of the encoded word: primary opcode plus
   the funct / regimm selector. For a canonical instruction,
   [encode i = skeleton i.spec lor <operand fields>]. *)
let skeleton spec =
  match encoding_of spec with
  | Special funct -> funct
  | Regimm sel -> (0x01 lsl 26) lor (sel lsl 16)
  | Normal op | Jump op -> op lsl 26

(* Fields that the operand signature does not mention must be zero for the
   word to be canonical (decode is the inverse of encode only on canonical
   words). *)
let canonical operands ~rs ~rt ~rd ~shamt ~imm =
  let zero_rs = rs = 0 and zero_rt = rt = 0 and zero_rd = rd = 0 in
  let zero_sh = shamt = 0 and zero_imm = imm = 0 in
  match operands with
  | Op_none -> zero_rs && zero_rt && zero_rd && zero_sh && zero_imm
  | Op_rd_rs_rt -> zero_sh && zero_imm
  | Op_rd_rt_shamt -> zero_rs && zero_imm
  | Op_rd_rt_rs -> zero_sh && zero_imm
  | Op_rs_rt -> zero_rd && zero_sh && zero_imm
  | Op_rd -> zero_rs && zero_rt && zero_sh && zero_imm
  | Op_rs -> zero_rt && zero_rd && zero_sh && zero_imm
  | Op_rd_rs -> zero_rt && zero_sh && zero_imm
  | Op_rt_rs_imm -> zero_rd && zero_sh
  | Op_rt_imm -> zero_rs && zero_rd && zero_sh
  | Op_rt_base_offset -> zero_rd && zero_sh
  | Op_rs_rt_branch -> zero_rd && zero_sh
  | Op_rs_branch -> zero_rt && zero_rd && zero_sh
  | Op_target -> zero_rs && zero_rt && zero_rd && zero_sh

(* The fields [decode] fills, by encoding. *)
let fields spec word =
  let rs = (word lsr 21) land 0x1f and rt = (word lsr 16) land 0x1f in
  let rd = (word lsr 11) land 0x1f and shamt = (word lsr 6) land 0x1f in
  match encoding_of spec with
  | Special _ -> { spec; rs; rt; rd; shamt; imm = 0 }
  | Regimm _ -> { spec; rs; rt = 0; rd = 0; shamt = 0; imm = word land 0xffff }
  | Normal _ -> { spec; rs; rt; rd = 0; shamt = 0; imm = word land 0xffff }
  | Jump _ -> { spec; rs = 0; rt = 0; rd = 0; shamt = 0; imm = word land 0x3ffffff }

let decode_id word =
  if word < 0 || word > 0xffffffff then -1
  else
    let op = (word lsr 26) land 0x3f in
    let rs = (word lsr 21) land 0x1f and rt = (word lsr 16) land 0x1f in
    let rd = (word lsr 11) land 0x1f and shamt = (word lsr 6) land 0x1f in
    let id =
      if op = 0 then funct_table.(word land 0x3f)
      else if op = 1 then regimm_table.(rt)
      else opcode_table.(op)
    in
    if id < 0 then -1
    else
      let spec = specs.(id) in
      (* Every bit of the word lands in a field [fields] keeps, so a
         canonical word re-encodes to itself. *)
      let ok =
        match encoding_of spec with
        | Special _ -> canonical spec.operands ~rs ~rt ~rd ~shamt ~imm:0
        | Regimm _ -> canonical spec.operands ~rs ~rt:0 ~rd:0 ~shamt:0 ~imm:(word land 0xffff)
        | Normal _ -> canonical spec.operands ~rs ~rt ~rd:0 ~shamt:0 ~imm:(word land 0xffff)
        | Jump _ -> canonical spec.operands ~rs:0 ~rt:0 ~rd:0 ~shamt:0 ~imm:(word land 0x3ffffff)
      in
      if ok then id else -1

let decode word =
  let id = decode_id word in
  if id < 0 then None else Some (fields specs.(id) word)

let encode_program instrs =
  let b = Buffer.create (4 * List.length instrs) in
  List.iter
    (fun i ->
      let w = encode i in
      Buffer.add_char b (Char.chr ((w lsr 24) land 0xff));
      Buffer.add_char b (Char.chr ((w lsr 16) land 0xff));
      Buffer.add_char b (Char.chr ((w lsr 8) land 0xff));
      Buffer.add_char b (Char.chr (w land 0xff)))
    instrs;
  Buffer.contents b

let decode_program bytes =
  if String.length bytes mod 4 <> 0 then
    invalid_arg "Mips.decode_program: length not a multiple of 4";
  Array.init
    (String.length bytes / 4)
    (fun k ->
      let at j = Char.code bytes.[(4 * k) + j] in
      decode ((at 0 lsl 24) lor (at 1 lsl 16) lor (at 2 lsl 8) lor at 3))

let opcode_id i = i.spec.id

let operand_regs i =
  match i.spec.operands with
  | Op_none | Op_target -> []
  | Op_rd_rs_rt -> [ i.rs; i.rt; i.rd ]
  | Op_rd_rt_shamt -> [ i.rt; i.rd; i.shamt ]
  | Op_rd_rt_rs -> [ i.rs; i.rt; i.rd ]
  | Op_rs_rt -> [ i.rs; i.rt ]
  | Op_rd -> [ i.rd ]
  | Op_rs -> [ i.rs ]
  | Op_rd_rs -> [ i.rs; i.rd ]
  | Op_rt_rs_imm -> [ i.rs; i.rt ]
  | Op_rt_imm -> [ i.rt ]
  | Op_rt_base_offset -> [ i.rs; i.rt ]
  | Op_rs_rt_branch -> [ i.rs; i.rt ]
  | Op_rs_branch -> [ i.rs ]

let immediate i =
  match i.spec.operands with
  | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset | Op_rs_rt_branch | Op_rs_branch -> Some i.imm
  | Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs | Op_rd_rs
  | Op_target ->
    None

let long_immediate i =
  match i.spec.operands with
  | Op_target -> Some i.imm
  | Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs | Op_rd_rs
  | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset | Op_rs_rt_branch | Op_rs_branch ->
    None

let reg_arity spec =
  match spec.operands with
  | Op_none | Op_target -> 0
  | Op_rd | Op_rs | Op_rt_imm | Op_rs_branch -> 1
  | Op_rs_rt | Op_rd_rs | Op_rt_rs_imm | Op_rt_base_offset | Op_rs_rt_branch -> 2
  | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs -> 3

let has_immediate spec =
  match spec.operands with
  | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset | Op_rs_rt_branch | Op_rs_branch -> true
  | Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs | Op_rd_rs
  | Op_target ->
    false

let has_long_immediate spec =
  match spec.operands with
  | Op_target -> true
  | Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs | Op_rd_rs
  | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset | Op_rs_rt_branch | Op_rs_branch ->
    false

let reassemble spec ~regs ~imm ~limm =
  let fail () = invalid_arg ("Mips.reassemble: bad operands for " ^ spec.mnemonic) in
  let imm16 () = match imm with Some v -> v | None -> fail () in
  let no_imm () = if imm <> None || limm <> None then fail () in
  match (spec.operands, regs) with
  | Op_none, [] ->
    no_imm ();
    make spec ()
  | Op_rd_rs_rt, [ rs; rt; rd ] ->
    no_imm ();
    make spec ~rs ~rt ~rd ()
  | Op_rd_rt_shamt, [ rt; rd; shamt ] ->
    no_imm ();
    make spec ~rt ~rd ~shamt ()
  | Op_rd_rt_rs, [ rs; rt; rd ] ->
    no_imm ();
    make spec ~rs ~rt ~rd ()
  | Op_rs_rt, [ rs; rt ] ->
    no_imm ();
    make spec ~rs ~rt ()
  | Op_rd, [ rd ] ->
    no_imm ();
    make spec ~rd ()
  | Op_rs, [ rs ] ->
    no_imm ();
    make spec ~rs ()
  | Op_rd_rs, [ rs; rd ] ->
    no_imm ();
    make spec ~rs ~rd ()
  | Op_rt_rs_imm, [ rs; rt ] -> make spec ~rs ~rt ~imm:(imm16 ()) ()
  | Op_rt_imm, [ rt ] -> make spec ~rt ~imm:(imm16 ()) ()
  | Op_rt_base_offset, [ rs; rt ] -> make spec ~rs ~rt ~imm:(imm16 ()) ()
  | Op_rs_rt_branch, [ rs; rt ] -> make spec ~rs ~rt ~imm:(imm16 ()) ()
  | Op_rs_branch, [ rs ] -> make spec ~rs ~imm:(imm16 ()) ()
  | Op_target, [] -> (
    match limm with Some v -> make spec ~imm:v () | None -> fail ())
  | ( ( Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs
      | Op_rd_rs | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset | Op_rs_rt_branch
      | Op_rs_branch | Op_target ),
      _ ) ->
    fail ()

let signed_immediate i = if i.imm >= 0x8000 then i.imm - 0x10000 else i.imm

let reg_name r = Printf.sprintf "$%d" r

let to_string i =
  let m = i.spec.mnemonic in
  match i.spec.operands with
  | Op_none -> m
  | Op_rd_rs_rt -> Printf.sprintf "%s %s, %s, %s" m (reg_name i.rd) (reg_name i.rs) (reg_name i.rt)
  | Op_rd_rt_shamt -> Printf.sprintf "%s %s, %s, %d" m (reg_name i.rd) (reg_name i.rt) i.shamt
  | Op_rd_rt_rs -> Printf.sprintf "%s %s, %s, %s" m (reg_name i.rd) (reg_name i.rt) (reg_name i.rs)
  | Op_rs_rt -> Printf.sprintf "%s %s, %s" m (reg_name i.rs) (reg_name i.rt)
  | Op_rd -> Printf.sprintf "%s %s" m (reg_name i.rd)
  | Op_rs -> Printf.sprintf "%s %s" m (reg_name i.rs)
  | Op_rd_rs -> Printf.sprintf "%s %s, %s" m (reg_name i.rd) (reg_name i.rs)
  | Op_rt_rs_imm ->
    Printf.sprintf "%s %s, %s, %d" m (reg_name i.rt) (reg_name i.rs) (signed_immediate i)
  | Op_rt_imm -> Printf.sprintf "%s %s, 0x%x" m (reg_name i.rt) i.imm
  | Op_rt_base_offset ->
    Printf.sprintf "%s %s, %d(%s)" m (reg_name i.rt) (signed_immediate i) (reg_name i.rs)
  | Op_rs_rt_branch ->
    Printf.sprintf "%s %s, %s, %d" m (reg_name i.rs) (reg_name i.rt) (signed_immediate i)
  | Op_rs_branch -> Printf.sprintf "%s %s, %d" m (reg_name i.rs) (signed_immediate i)
  | Op_target -> Printf.sprintf "%s 0x%x" m i.imm

let is_branch i =
  match i.spec.operands with
  | Op_rs_rt_branch | Op_rs_branch | Op_target -> true
  | Op_none | Op_rd_rs_rt | Op_rd_rt_shamt | Op_rd_rt_rs | Op_rs_rt | Op_rd | Op_rs | Op_rd_rs
  | Op_rt_rs_imm | Op_rt_imm | Op_rt_base_offset ->
    false

let is_indirect_jump i = i.spec.mnemonic = "jr" || i.spec.mnemonic = "jalr"
