type t = { opcode : string; modrm : int option; sib : int option; disp : string; imm : string }

type alu = Add | Sub | And | Or | Xor | Cmp
type shift = Shl | Shr | Sar
type cond = O | No | B | Ae | E | Ne | Be | A | S | Ns | P | Np | L | Ge | Le | G

let cond_index = function
  | O -> 0 | No -> 1 | B -> 2 | Ae -> 3 | E -> 4 | Ne -> 5 | Be -> 6 | A -> 7
  | S -> 8 | Ns -> 9 | P -> 10 | Np -> 11 | L -> 12 | Ge -> 13 | Le -> 14 | G -> 15

(* Shape of an instruction given its opcode byte(s): whether a ModRM byte
   follows and how large the trailing immediate is. *)
type imm_kind = I0 | I8 | I32
type shape = Plain of imm_kind | With_modrm of imm_kind

let shape_of_first = function
  | 0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 | 0x85 | 0x89 | 0x8b | 0x8d -> Some (With_modrm I0)
  | 0x03 | 0x0b | 0x23 | 0x2b | 0x33 | 0x3b -> Some (With_modrm I0) (* ALU r, r/m forms *)
  | 0x88 | 0x8a -> Some (With_modrm I0) (* 8-bit moves *)
  | 0x87 -> Some (With_modrm I0) (* xchg *)
  | 0xf7 -> Some (With_modrm I0) (* not/neg/mul/imul/div/idiv (digits 2-7) *)
  | 0x83 | 0xc1 -> Some (With_modrm I8)
  | 0x81 -> Some (With_modrm I32)
  | b when b >= 0x40 && b <= 0x5f -> Some (Plain I0) (* inc/dec/push/pop r *)
  | 0x90 | 0xc3 | 0xc9 | 0x99 -> Some (Plain I0) (* nop/ret/leave/cdq *)
  | b when b >= 0xb8 && b <= 0xbf -> Some (Plain I32) (* mov r, imm32 *)
  | 0x68 -> Some (Plain I32) (* push imm32 *)
  | 0x6a -> Some (Plain I8) (* push imm8 *)
  | 0xe8 | 0xe9 -> Some (Plain I32)
  | 0xeb -> Some (Plain I8)
  | b when b >= 0x70 && b <= 0x7f -> Some (Plain I8) (* jcc rel8 *)
  | _ -> None

let shape_of_second = function
  | b when b >= 0x80 && b <= 0x8f -> Some (Plain I32) (* jcc rel32 *)
  | b when b >= 0x90 && b <= 0x9f -> Some (With_modrm I0) (* setcc r/m8 *)
  | 0xaf -> Some (With_modrm I0) (* imul r, r/m *)
  | 0xb6 | 0xb7 | 0xbe | 0xbf -> Some (With_modrm I0) (* movzx/movsx *)
  | _ -> None

let shape_of_opcode opcode =
  if String.length opcode = 0 then None
  else
    let b0 = Char.code opcode.[0] in
    if b0 = 0x0f then
      if String.length opcode = 2 then shape_of_second (Char.code opcode.[1]) else None
    else if String.length opcode = 1 then shape_of_first b0
    else None

(* Whether ModRM is followed by a SIB byte, and the displacement size it
   implies (with the SIB's base field when there is one; [sib] is -1 when
   there is none), in bytes. *)
let has_sib modrm = modrm lsr 6 <> 3 && modrm land 7 = 4

let disp_size modrm ~sib =
  match modrm lsr 6 with
  | 0 -> if modrm land 7 = 5 || (has_sib modrm && sib land 7 = 5) then 4 else 0
  | 1 -> 1
  | 2 -> 4
  | _ -> 0

let imm_len = function I0 -> 0 | I8 -> 1 | I32 -> 4

let le32 v =
  let v = Int32.to_int v land 0xffffffff in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (v land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((v lsr 24) land 0xff));
  Bytes.to_string b

let byte8 v =
  assert (v >= -128 && v < 128);
  String.make 1 (Char.chr (v land 0xff))

let check_reg r = if r < 0 || r > 7 then invalid_arg "X86: register out of range"

let plain b = { opcode = String.make 1 (Char.chr b); modrm = None; sib = None; disp = ""; imm = "" }

let nop = plain 0x90
let ret = plain 0xc3
let leave = plain 0xc9

let push_r r = check_reg r; plain (0x50 + r)
let pop_r r = check_reg r; plain (0x58 + r)
let inc_r r = check_reg r; plain (0x40 + r)
let dec_r r = check_reg r; plain (0x48 + r)

let modrm_byte ~md ~reg ~rm = (md lsl 6) lor (reg lsl 3) lor rm

let reg_reg op ~reg ~rm =
  check_reg reg;
  check_reg rm;
  { opcode = String.make 1 (Char.chr op);
    modrm = Some (modrm_byte ~md:3 ~reg ~rm);
    sib = None; disp = ""; imm = "" }

let mov_rr ~dst ~src = reg_reg 0x89 ~reg:src ~rm:dst

let mov_ri ~dst v =
  check_reg dst;
  { (plain (0xb8 + dst)) with imm = le32 v }

(* Memory operand [base + disp]; ESP as base requires a SIB byte and EBP
   with no displacement requires the disp8 form, per IA-32 rules. *)
let mem_operand op ~reg ~base ~disp =
  check_reg reg;
  check_reg base;
  let md, disp_bytes =
    if disp = 0 && base <> 5 then (0, "")
    else if disp >= -128 && disp < 128 then (1, byte8 disp)
    else (2, le32 (Int32.of_int disp))
  in
  let rm = if base = 4 then 4 else base in
  let sib = if base = 4 then Some ((4 lsl 3) lor 4) else None in
  { opcode = String.make 1 (Char.chr op);
    modrm = Some (modrm_byte ~md ~reg ~rm);
    sib; disp = disp_bytes; imm = "" }

(* Indexed memory operand [base + index*scale + disp] via a SIB byte.
   ESP cannot be an index; scale is the shift amount (0..3). *)
let mem_operand_indexed op ~reg ~base ~index ~scale ~disp =
  check_reg reg;
  check_reg base;
  check_reg index;
  if index = 4 then invalid_arg "X86: esp cannot index";
  if scale < 0 || scale > 3 then invalid_arg "X86: bad scale";
  let md, disp_bytes =
    if disp = 0 && base <> 5 then (0, "")
    else if disp >= -128 && disp < 128 then (1, byte8 disp)
    else (2, le32 (Int32.of_int disp))
  in
  { opcode = String.make 1 (Char.chr op);
    modrm = Some (modrm_byte ~md ~reg ~rm:4);
    sib = Some ((scale lsl 6) lor (index lsl 3) lor base);
    disp = disp_bytes; imm = "" }

let mov_load_indexed ~dst ~base ~index ~scale ~disp =
  mem_operand_indexed 0x8b ~reg:dst ~base ~index ~scale ~disp

let mov_load ~dst ~base ~disp = mem_operand 0x8b ~reg:dst ~base ~disp
let mov_store ~base ~disp ~src = mem_operand 0x89 ~reg:src ~base ~disp
let lea ~dst ~base ~disp = mem_operand 0x8d ~reg:dst ~base ~disp
let mov8_load ~dst ~base ~disp = mem_operand 0x8a ~reg:dst ~base ~disp
let mov8_store ~base ~disp ~src = mem_operand 0x88 ~reg:src ~base ~disp

(* movzx/movsx r32, r/m8 or r/m16 *)
let extend_opcode ~signed ~wide =
  match (signed, wide) with
  | false, false -> "\x0f\xb6"
  | false, true -> "\x0f\xb7"
  | true, false -> "\x0f\xbe"
  | true, true -> "\x0f\xbf"

let movx_load ~signed ~wide ~dst ~base ~disp =
  let m = mem_operand 0x8b ~reg:dst ~base ~disp in
  { m with opcode = extend_opcode ~signed ~wide }

let xchg_rr a b = reg_reg 0x87 ~reg:a ~rm:b

let cdq = plain 0x99

let push_imm v =
  if Int32.compare v (-128l) >= 0 && Int32.compare v 128l < 0 then
    { (plain 0x6a) with imm = byte8 (Int32.to_int v) }
  else { (plain 0x68) with imm = le32 v }

let group_f7_digit = function `Not -> 2 | `Neg -> 3 | `Mul -> 4 | `Imul -> 5 | `Div -> 6 | `Idiv -> 7

let group_f7 op ~rm =
  check_reg rm;
  { opcode = "\xf7";
    modrm = Some (modrm_byte ~md:3 ~reg:(group_f7_digit op) ~rm);
    sib = None; disp = ""; imm = "" }

let setcc c ~dst =
  check_reg dst;
  { opcode = Printf.sprintf "\x0f%c" (Char.chr (0x90 + cond_index c));
    modrm = Some (modrm_byte ~md:3 ~reg:0 ~rm:dst);
    sib = None; disp = ""; imm = "" }

(* ALU with the r, r/m direction bit: add dst, src as 0x03 /r etc. *)
let alu_opcode_load = function
  | Add -> 0x03 | Or -> 0x0b | And -> 0x23 | Sub -> 0x2b | Xor -> 0x33 | Cmp -> 0x3b

let alu_rr_load op ~dst ~src = reg_reg (alu_opcode_load op) ~reg:dst ~rm:src

let alu_opcode_rr = function
  | Add -> 0x01 | Or -> 0x09 | And -> 0x21 | Sub -> 0x29 | Xor -> 0x31 | Cmp -> 0x39

let alu_digit = function Add -> 0 | Or -> 1 | And -> 4 | Sub -> 5 | Xor -> 6 | Cmp -> 7

let alu_rr op ~dst ~src = reg_reg (alu_opcode_rr op) ~reg:src ~rm:dst

let alu_ri op ~dst v =
  check_reg dst;
  let digit = alu_digit op in
  let small = Int32.compare v (-128l) >= 0 && Int32.compare v 128l < 0 in
  let opbyte = if small then 0x83 else 0x81 in
  let imm = if small then byte8 (Int32.to_int v) else le32 v in
  { opcode = String.make 1 (Char.chr opbyte);
    modrm = Some (modrm_byte ~md:3 ~reg:digit ~rm:dst);
    sib = None; disp = ""; imm }

let test_rr a b = reg_reg 0x85 ~reg:b ~rm:a

let imul_rr ~dst ~src =
  check_reg dst;
  check_reg src;
  { opcode = "\x0f\xaf";
    modrm = Some (modrm_byte ~md:3 ~reg:dst ~rm:src);
    sib = None; disp = ""; imm = "" }

let shift_digit = function Shl -> 4 | Shr -> 5 | Sar -> 7

let shift_ri kind ~dst count =
  check_reg dst;
  assert (count >= 0 && count < 32);
  { opcode = "\xc1";
    modrm = Some (modrm_byte ~md:3 ~reg:(shift_digit kind) ~rm:dst);
    sib = None; disp = ""; imm = String.make 1 (Char.chr count) }

let call_rel v = { (plain 0xe8) with imm = le32 v }
let jmp_rel32 v = { (plain 0xe9) with imm = le32 v }
let jmp_rel8 v = { (plain 0xeb) with imm = byte8 v }
let jcc_rel8 c v = { (plain (0x70 + cond_index c)) with imm = byte8 v }

let jcc_rel32 c v =
  { opcode = Printf.sprintf "\x0f%c" (Char.chr (0x80 + cond_index c));
    modrm = None; sib = None; disp = ""; imm = le32 v }

let length i =
  String.length i.opcode
  + (match i.modrm with Some _ -> 1 | None -> 0)
  + (match i.sib with Some _ -> 1 | None -> 0)
  + String.length i.disp + String.length i.imm

let encode i =
  let b = Buffer.create (length i) in
  Buffer.add_string b i.opcode;
  (match i.modrm with Some m -> Buffer.add_char b (Char.chr m) | None -> ());
  (match i.sib with Some s -> Buffer.add_char b (Char.chr s) | None -> ());
  Buffer.add_string b i.disp;
  Buffer.add_string b i.imm;
  Buffer.contents b

let encode_program instrs =
  let b = Buffer.create 1024 in
  List.iter (fun i -> Buffer.add_string b (encode i)) instrs;
  Buffer.contents b

let decode bytes ~pos =
  let len = String.length bytes in
  let take n p = if p + n <= len then Some (String.sub bytes p n) else None in
  if pos >= len then None
  else
    let b0 = Char.code bytes.[pos] in
    let opcode_result =
      if b0 = 0x0f then
        if pos + 1 < len then
          let b1 = Char.code bytes.[pos + 1] in
          match shape_of_second b1 with
          | Some shape -> Some (String.sub bytes pos 2, shape)
          | None -> None
        else None
      else
        match shape_of_first b0 with
        | Some shape -> Some (String.sub bytes pos 1, shape)
        | None -> None
    in
    match opcode_result with
    | None -> None
    | Some (opcode, shape) -> (
      let p = pos + String.length opcode in
      match shape with
      | Plain ik -> (
        match take (imm_len ik) p with
        | Some imm ->
          Some ({ opcode; modrm = None; sib = None; disp = ""; imm }, p + imm_len ik)
        | None -> None)
      | With_modrm ik ->
        if p >= len then None
        else
          let modrm = Char.code bytes.[p] in
          let p = p + 1 in
          let sib, p =
            if has_sib modrm then
              if p < len then (Some (Char.code bytes.[p]), p + 1) else (None, len + 1)
            else (None, p)
          in
          if p > len then None
          else
            let disp_n = disp_size modrm ~sib:(Option.value sib ~default:(-1)) in
            (match take disp_n p with
            | None -> None
            | Some disp -> (
              let p = p + disp_n in
              match take (imm_len ik) p with
              | None -> None
              | Some imm -> Some ({ opcode; modrm = Some modrm; sib; disp; imm }, p + imm_len ik))))

let scan bytes ~pos ~item =
  let len = String.length bytes in
  let byte p = Char.code (String.unsafe_get bytes p) in
  let two = pos + 1 < len && byte pos = 0x0f in
  let shape =
    if pos >= len then None else if two then shape_of_second (byte (pos + 1)) else shape_of_first (byte pos)
  in
  let p = if two then pos + 2 else pos + 1 in
  let operands p n =
    for k = 0 to n - 1 do
      item 1 (byte (p + k))
    done;
    p + n
  in
  match shape with
  | None -> -1
  | Some (Plain ik) -> if p + imm_len ik > len then -1 else operands p (imm_len ik)
  | Some (With_modrm ik) ->
    if p >= len then -1
    else
      let modrm = byte p in
      let has = has_sib modrm in
      if has && p + 1 >= len then -1
      else
        let sib = if has then byte (p + 1) else -1 in
        let p = if has then p + 2 else p + 1 in
        let n = disp_size modrm ~sib + imm_len ik in
        if p + n > len then -1
        else begin
          item 0 modrm;
          if has then item 0 sib;
          operands p n
        end

let decode_program bytes =
  let len = String.length bytes in
  let rec go acc pos =
    if pos = len then Some (List.rev acc)
    else
      match decode bytes ~pos with
      | Some (i, p) -> go (i :: acc) p
      | None -> None
  in
  go [] 0

let streams i =
  let ms =
    (match i.modrm with Some m -> String.make 1 (Char.chr m) | None -> "")
    ^ (match i.sib with Some s -> String.make 1 (Char.chr s) | None -> "")
  in
  (i.opcode, ms, i.disp ^ i.imm)

let rebuild ~opcode ~modrm_sib ~imm_disp =
  match shape_of_opcode opcode with
  | None -> None
  | Some (Plain ik) ->
    if String.length modrm_sib = 0 && String.length imm_disp = imm_len ik then
      Some { opcode; modrm = None; sib = None; disp = ""; imm = imm_disp }
    else None
  | Some (With_modrm ik) ->
    if String.length modrm_sib < 1 then None
    else
      let modrm = Char.code modrm_sib.[0] in
      let expected_ms = if has_sib modrm then 2 else 1 in
      if String.length modrm_sib <> expected_ms then None
      else
        let sib = if has_sib modrm then Some (Char.code modrm_sib.[1]) else None in
        let disp_n = disp_size modrm ~sib:(Option.value sib ~default:(-1)) in
        if String.length imm_disp <> disp_n + imm_len ik then None
        else
          Some
            { opcode; modrm = Some modrm; sib;
              disp = String.sub imm_disp 0 disp_n;
              imm = String.sub imm_disp disp_n (imm_len ik) }

let symbol_shape symbol =
  let shape =
    if symbol < 256 then if symbol = 0x0f then None else shape_of_first symbol
    else shape_of_second (symbol - 256)
  in
  match shape with
  | None -> None
  | Some (Plain ik) -> Some (false, imm_len ik)
  | Some (With_modrm ik) -> Some (true, imm_len ik)

(* Pull [n] bytes in order; explicit loop so the pull order is defined. *)
let pull n next =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (next ()))
  done;
  Bytes.to_string b

let read_streams ~opcode ~next_modrm_sib ~next_imm_disp =
  match shape_of_opcode opcode with
  | None -> None
  | Some (Plain ik) ->
    let imm = pull (imm_len ik) next_imm_disp in
    Some { opcode; modrm = None; sib = None; disp = ""; imm }
  | Some (With_modrm ik) ->
    let modrm = next_modrm_sib () in
    let sib = if has_sib modrm then Some (next_modrm_sib ()) else None in
    let disp_n = disp_size modrm ~sib:(Option.value sib ~default:(-1)) in
    let disp = pull disp_n next_imm_disp in
    let imm = pull (imm_len ik) next_imm_disp in
    Some { opcode; modrm = Some modrm; sib; disp; imm }

let opcode_symbol i = Char.code i.opcode.[0]

let second_opcode i = if String.length i.opcode = 2 then Some (Char.code i.opcode.[1]) else None

let is_branch i =
  let b0 = opcode_symbol i in
  b0 = 0xe8 || b0 = 0xe9 || b0 = 0xeb
  || (b0 >= 0x70 && b0 <= 0x7f)
  || (b0 = 0x0f && match second_opcode i with Some b1 -> b1 >= 0x80 && b1 <= 0x8f | None -> false)

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init (String.length s) (String.get s)))

let mnemonic i =
  match opcode_symbol i with
  | 0x90 -> "nop" | 0xc3 -> "ret" | 0xc9 -> "leave"
  | b when b >= 0x40 && b <= 0x47 -> "inc"
  | b when b >= 0x48 && b <= 0x4f -> "dec"
  | b when b >= 0x50 && b <= 0x57 -> "push"
  | b when b >= 0x58 && b <= 0x5f -> "pop"
  | 0x89 | 0x8b -> "mov" | b when b >= 0xb8 && b <= 0xbf -> "mov"
  | 0x01 -> "add" | 0x09 -> "or" | 0x21 -> "and" | 0x29 -> "sub" | 0x31 -> "xor"
  | 0x39 -> "cmp" | 0x85 -> "test" | 0x8d -> "lea"
  | 0x81 | 0x83 -> "alu-imm" | 0xc1 -> "shift"
  | 0xe8 -> "call" | 0xe9 | 0xeb -> "jmp"
  | b when b >= 0x70 && b <= 0x7f -> "jcc"
  | 0x0f -> (match second_opcode i with Some 0xaf -> "imul" | Some _ -> "jcc" | None -> "?")
  | _ -> "?"

let to_string i = Printf.sprintf "%-6s [%s]" (mnemonic i) (hex (encode i))
