(* An operand item as the program's flat arrays hold it: its stream, its
   position among its instruction's items of that stream, and its value,
   in one int. *)
let item ~stream ~position value = (stream lsl 36) lor (position lsl 30) lor value

let item_stream it = (it lsr 36) land 15

let item_position it = (it lsr 30) land 63

let item_value it = it land ((1 lsl 30) - 1)

(* The program as SADC's compressor reads it, in flat arrays: instruction
   [i] has base symbol [syms.(i)] and occupies bytes [boff.(i)] to
   [boff.(i + 1) - 1] of the image; its items, in the order [read] pulls
   them, are [items.(q)] for [q] from [ioff.(i)] to [ioff.(i + 1) - 1].
   [items] may be longer than the items it holds. *)
type program = { syms : int array; boff : int array; items : int array; ioff : int array }

module type S = sig
  type instr

  val name : string
  val base_symbols : int
  val symbol : instr -> int
  val stream_count : int
  val stream_bits : int array
  val stream_names : string array
  val iter_items : instr -> (int -> int -> unit) -> unit
  val byte_length : instr -> int
  val read : symbol:int -> next:(int -> int) -> instr
  val read_into : symbol:int -> next:(int -> int) -> Bytes.t -> int -> int
  val encode_list : instr list -> string
  val parse : string -> program option
end

(* A program under construction: each instruction appends its items,
   then [finish] closes it with its symbol and byte length. Every array
   starts at the caller's estimate and doubles when it fills. [pos]
   counts the current instruction's items per stream. *)
type flat = {
  mutable n : int;
  mutable f_syms : int array;
  mutable f_boff : int array;
  mutable f_ioff : int array;
  mutable f_items : int array;
  mutable nitems : int;
  pos : int array;
}

let flat_create ~streams ~instrs ~items =
  let instrs = max 1 instrs in
  {
    n = 0;
    f_syms = Array.make instrs 0;
    f_boff = Array.make (instrs + 1) 0;
    f_ioff = Array.make (instrs + 1) 0;
    f_items = Array.make (max 1 items) 0;
    nitems = 0;
    pos = Array.make streams 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let add_item f stream v =
  let q = f.nitems in
  if q = Array.length f.f_items then f.f_items <- grow f.f_items;
  f.f_items.(q) <- item ~stream ~position:f.pos.(stream) v;
  f.pos.(stream) <- f.pos.(stream) + 1;
  f.nitems <- q + 1

let finish f ~symbol ~bytes =
  let i = f.n in
  if i = Array.length f.f_syms then begin
    f.f_syms <- grow f.f_syms;
    f.f_boff <- grow f.f_boff;
    f.f_ioff <- grow f.f_ioff
  end;
  f.f_syms.(i) <- symbol;
  f.f_boff.(i + 1) <- f.f_boff.(i) + bytes;
  f.f_ioff.(i + 1) <- f.nitems;
  Array.fill f.pos 0 (Array.length f.pos) 0;
  f.n <- i + 1

let program f =
  let trim a len = if Array.length a = len then a else Array.sub a 0 len in
  {
    syms = trim f.f_syms f.n;
    boff = trim f.f_boff (f.n + 1);
    items = f.f_items;
    ioff = trim f.f_ioff (f.n + 1);
  }

(* The one pass of the x86 adapters: [X.scan] each instruction in turn
   straight into the arrays, [operand f k b] appending the byte [b] that
   [X.scan] gives as [item k b]. *)
let parse_x86 ~streams ~operand code =
  let len = String.length code in
  (* Generated x86 averages about three bytes and two items an
     instruction. *)
  let f = flat_create ~streams ~instrs:((len / 3) + 16) ~items:((2 * len / 3) + 16) in
  let item = operand f in
  let rec go pos =
    pos = len
    ||
    let next = Ccomp_isa.X86.scan code ~pos ~item in
    next > 0
    && begin
         let b0 = Char.code code.[pos] in
         finish f
           ~symbol:(if b0 = 0x0f then 256 + Char.code code.[pos + 1] else b0)
           ~bytes:(next - pos);
         go next
       end
  in
  if go 0 then Some (program f) else None

module Mips_streams = struct
  module M = Ccomp_isa.Mips

  type instr = M.t

  let name = "mips"
  let base_symbols = M.opcode_count
  let symbol = M.opcode_id
  let stream_count = 3
  let stream_bits = [| 5; 16; 26 |]
  let stream_names = [| "register"; "immediate"; "long-immediate" |]

  (* The items of an instruction of [spec] encoded as [word]:
     registers in {!read}'s pull order, then the immediate or the jump
     target. *)
  let iter_word_items spec word f =
    let rs = (word lsr 21) land 0x1f and rt = (word lsr 16) land 0x1f in
    let rd = (word lsr 11) land 0x1f and shamt = (word lsr 6) land 0x1f in
    match spec.M.operands with
    | M.Op_none -> ()
    | M.Op_rd_rs_rt | M.Op_rd_rt_rs ->
      f 0 rs;
      f 0 rt;
      f 0 rd
    | M.Op_rd_rt_shamt ->
      f 0 rt;
      f 0 rd;
      f 0 shamt
    | M.Op_rs_rt ->
      f 0 rs;
      f 0 rt
    | M.Op_rd -> f 0 rd
    | M.Op_rs -> f 0 rs
    | M.Op_rd_rs ->
      f 0 rs;
      f 0 rd
    | M.Op_rt_rs_imm | M.Op_rt_base_offset | M.Op_rs_rt_branch ->
      f 0 rs;
      f 0 rt;
      f 1 (word land 0xffff)
    | M.Op_rt_imm ->
      f 0 rt;
      f 1 (word land 0xffff)
    | M.Op_rs_branch ->
      f 0 rs;
      f 1 (word land 0xffff)
    | M.Op_target -> f 2 (word land 0x3ffffff)

  let iter_items i f = iter_word_items i.M.spec (M.encode i) f

  let byte_length _ = 4

  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "Mips_streams.read: bad symbol";
    let spec = M.specs.(symbol) in
    let regs = List.init (M.reg_arity spec) (fun _ -> next 0) in
    let imm = if M.has_immediate spec then Some (next 1) else None in
    let limm = if M.has_long_immediate spec then Some (next 2) else None in
    M.reassemble spec ~regs ~imm ~limm

  (* Range guards for pulled items: stream chunk widths bound every
     Huffman-decoded value, but a hostile dictionary can absorb an
     out-of-range fixed operand — reject it like [M.make] would. *)
  let r5 v = if v lsr 5 = 0 then v else invalid_arg "Mips_streams.read_into: register out of range"

  let i16 v =
    if v lsr 16 = 0 then v else invalid_arg "Mips_streams.read_into: immediate out of range"

  let t26 v = if v lsr 26 = 0 then v else invalid_arg "Mips_streams.read_into: target out of range"

  (* Fused generator + encoder: pulls operands in exactly {!read}'s order
     but packs the 32-bit word directly — no [M.t], no operand lists, no
     options. This is what makes the SADC block decoder allocation-free
     per instruction. *)
  let read_into ~symbol ~next buf pos =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "Mips_streams.read: bad symbol";
    let spec = M.specs.(symbol) in
    let fields =
      match spec.M.operands with
      | M.Op_none -> 0
      | M.Op_rd_rs_rt | M.Op_rd_rt_rs ->
        let rs = r5 (next 0) in
        let rt = r5 (next 0) in
        let rd = r5 (next 0) in
        (rs lsl 21) lor (rt lsl 16) lor (rd lsl 11)
      | M.Op_rd_rt_shamt ->
        let rt = r5 (next 0) in
        let rd = r5 (next 0) in
        let shamt = r5 (next 0) in
        (rt lsl 16) lor (rd lsl 11) lor (shamt lsl 6)
      | M.Op_rs_rt ->
        let rs = r5 (next 0) in
        let rt = r5 (next 0) in
        (rs lsl 21) lor (rt lsl 16)
      | M.Op_rd -> r5 (next 0) lsl 11
      | M.Op_rs -> r5 (next 0) lsl 21
      | M.Op_rd_rs ->
        let rs = r5 (next 0) in
        let rd = r5 (next 0) in
        (rs lsl 21) lor (rd lsl 11)
      | M.Op_rt_rs_imm | M.Op_rt_base_offset | M.Op_rs_rt_branch ->
        let rs = r5 (next 0) in
        let rt = r5 (next 0) in
        let imm = i16 (next 1) in
        (rs lsl 21) lor (rt lsl 16) lor imm
      | M.Op_rt_imm ->
        let rt = r5 (next 0) in
        let imm = i16 (next 1) in
        (rt lsl 16) lor imm
      | M.Op_rs_branch ->
        let rs = r5 (next 0) in
        let imm = i16 (next 1) in
        (rs lsl 21) lor imm
      | M.Op_target -> t26 (next 2)
    in
    let w = M.skeleton spec lor fields in
    Bytes.set buf pos (Char.unsafe_chr ((w lsr 24) land 0xff));
    Bytes.set buf (pos + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
    Bytes.set buf (pos + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
    Bytes.set buf (pos + 3) (Char.unsafe_chr (w land 0xff));
    4

  let encode_list = M.encode_program

  (* Each word decoded and its items appended in one pass; generated
     code averages under three items a word. *)
  let parse code =
    let len = String.length code in
    if len mod 4 <> 0 then None
    else begin
      let n = len / 4 in
      let f = flat_create ~streams:stream_count ~instrs:n ~items:(3 * n) in
      let add = add_item f in
      let rec go k =
        k = n
        ||
        let word = Int32.to_int (String.get_int32_be code (4 * k)) land 0xffffffff in
        let id = M.decode_id word in
        id >= 0
        && begin
             iter_word_items M.specs.(id) word add;
             finish f ~symbol:id ~bytes:4;
             go (k + 1)
           end
      in
      if go 0 then Some (program f) else None
    end
end

module X86_streams = struct
  module X = Ccomp_isa.X86

  type instr = X.t

  let name = "x86"
  let base_symbols = 512
  let symbol i = match X.second_opcode i with None -> X.opcode_symbol i | Some b -> 256 + b
  let stream_count = 2
  let stream_bits = [| 8; 8 |]
  let stream_names = [| "modrm-sib"; "imm-disp" |]

  let iter_bytes f s bytes =
    for k = 0 to String.length bytes - 1 do
      f s (Char.code (String.unsafe_get bytes k))
    done

  (* ModRM then SIB; displacement then immediate bytes — the layout of
     [X.streams]. *)
  let iter_items i f =
    (match i.X.modrm with Some m -> f 0 m | None -> ());
    (match i.X.sib with Some b -> f 0 b | None -> ());
    iter_bytes f 1 i.X.disp;
    iter_bytes f 1 i.X.imm

  let byte_length = X.length

  let opcode_of_symbol symbol =
    if symbol < 256 then String.make 1 (Char.chr symbol)
    else Printf.sprintf "\x0f%c" (Char.chr (symbol - 256))

  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "X86_streams.read: bad symbol";
    match
      X.read_streams ~opcode:(opcode_of_symbol symbol)
        ~next_modrm_sib:(fun () -> next 0)
        ~next_imm_disp:(fun () -> next 1)
    with
    | Some i -> i
    | None -> invalid_arg "X86_streams.read: unknown opcode"

  let read_into ~symbol ~next buf pos =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "X86_streams.read: bad symbol";
    (* the streams are numbered as [X.read_streams_into] pulls them *)
    match X.read_streams_into ~symbol ~pull:next buf pos with
    | -1 -> invalid_arg "X86_streams.read: unknown opcode"
    | n -> n

  let encode_list = X.encode_program

  let parse = parse_x86 ~streams:stream_count ~operand:add_item
end

module X86_field_streams = struct
  module X = Ccomp_isa.X86

  type instr = X.t

  let name = "x86-fields"
  let base_symbols = 512
  let symbol = X86_streams.symbol
  let stream_count = 7
  let stream_bits = [| 2; 3; 3; 2; 3; 3; 8 |]
  let stream_names = [| "mod"; "reg"; "rm"; "scale"; "index"; "base"; "disp-imm" |]

  (* ModRM's fields to streams 0-2 and SIB's to 3-5, two-three-three
     bits each; displacement then immediate bytes to stream 6. *)
  let iter_items i f =
    let fields s byte =
      f s (byte lsr 6);
      f (s + 1) ((byte lsr 3) land 7);
      f (s + 2) (byte land 7)
    in
    (match i.X.modrm with Some m -> fields 0 m | None -> ());
    (match i.X.sib with Some b -> fields 3 b | None -> ());
    X86_streams.iter_bytes f 6 i.X.disp;
    X86_streams.iter_bytes f 6 i.X.imm

  let byte_length = X.length

  (* Reassemble ModRM/SIB bytes from field pulls: the first modrm-sib byte
     the sequencer requests is the ModRM, the second (if any) the SIB. *)
  let next_modrm_sib ~next =
    let ms_calls = ref 0 in
    fun () ->
      incr ms_calls;
      (* bind pulls explicitly: operand evaluation order is unspecified *)
      if !ms_calls = 1 then begin
        let md = next 0 in
        let reg = next 1 in
        let rm = next 2 in
        (md lsl 6) lor (reg lsl 3) lor rm
      end
      else begin
        let scale = next 3 in
        let index = next 4 in
        let base = next 5 in
        (scale lsl 6) lor (index lsl 3) lor base
      end

  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "X86_field_streams.read: bad symbol";
    match
      X.read_streams
        ~opcode:(X86_streams.opcode_of_symbol symbol)
        ~next_modrm_sib:(next_modrm_sib ~next)
        ~next_imm_disp:(fun () -> next 6)
    with
    | Some i -> i
    | None -> invalid_arg "X86_field_streams.read: unknown opcode"

  let read_into ~symbol ~next buf pos =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "X86_field_streams.read: bad symbol";
    let next_modrm_sib = next_modrm_sib ~next in
    let pull k = if k = 0 then next_modrm_sib () else next 6 in
    match X.read_streams_into ~symbol ~pull buf pos with
    | -1 -> invalid_arg "X86_field_streams.read: unknown opcode"
    | n -> n

  let encode_list = X.encode_program

  (* The first ModRM/SIB byte of an instruction is its ModRM, the second
     its SIB: [f.pos] tells them apart. *)
  let operand f k b =
    if k = 1 then add_item f 6 b
    else begin
      let s = if f.pos.(0) = 0 then 0 else 3 in
      add_item f s (b lsr 6);
      add_item f (s + 1) ((b lsr 3) land 7);
      add_item f (s + 2) (b land 7)
    end

  let parse = parse_x86 ~streams:stream_count ~operand
end
