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

(* --- the block decoder's plan ----------------------------------------- *)

(* A dictionary primitive compiled for SADC's block decoder: a run of
   groups in an int array, each a head and its slots. A group writes one
   big-endian field of [ctl land 7] bytes, where [ctl] is [head lsr 32],
   whose value is [head]'s low 32 bits, the static bits with every
   absorbed operand already placed, or-ed with each of its
   [(ctl lsr 3) land 3] free operands: the slot [(stream lsl 8) lor shift]
   is the next item of [stream], decoded and shifted left by [shift].
   [(ctl lsr 5) land 3] is the group's role:
   - [plain]: the next group follows;
   - [modrm]: the group is an IA-32 ModRM byte. The next group, its SIB
     byte, runs only if [X86.has_sib]; else it is skipped;
   - [sib]: the SIB byte.
   After a [modrm] group (or its SIB), [X86.disp_size] plus
   [(ctl lsr 7) land 7] immediate bytes of one-byte plain groups run,
   and the primitive resumes [ctl lsr 10] ints past the ModRM group,
   skipping the unused displacement and immediate groups. *)
type ops = { mutable ops : int array; mutable len : int }

let plain = 0

let modrm = 1

let sib = 2

let ops_create n = { ops = Array.make (max 16 n) 0; len = 0 }

let grow b = b.ops <- Array.append b.ops (Array.make b.len 0)

let[@inline] push b v =
  if b.len = Array.length b.ops then grow b;
  b.ops.(b.len) <- v;
  b.len <- b.len + 1

(* Open a group with static bits [base]; returns its offset. *)
let[@inline] open_group b base =
  push b base;
  b.len - 1

(* The absorbed value of item [position] of [stream], or -1. *)
let rec fixed_at stream position = function
  | [] -> -1
  | (s, p, v) :: rest -> if s = stream && p = position then v else fixed_at stream position rest

(* A part of a field, as (stream lsl 16) lor (position lsl 8) lor shift:
   item [position] of [stream] goes at bit [shift] of the group at [at],
   in its static bits when absorbed, in a slot when free. *)
let[@inline] add_part b ~fixed at part =
  let v = fixed_at (part lsr 16) ((part lsr 8) land 0xff) fixed in
  if v >= 0 then b.ops.(at) <- b.ops.(at) lor (v lsl (part land 0xff))
  else push b (((part lsr 16) lsl 8) lor (part land 0xff))

let add_parts b ~fixed at parts =
  for k = 0 to Array.length parts - 1 do
    add_part b ~fixed at parts.(k)
  done

(* The field's value when every part of it is absorbed, else -1. *)
let absorbed_value ~fixed parts =
  let acc = ref 0 in
  for k = 0 to Array.length parts - 1 do
    let part = parts.(k) in
    let v = fixed_at (part lsr 16) ((part lsr 8) land 0xff) fixed in
    acc := if !acc < 0 || v < 0 then -1 else !acc lor (v lsl (part land 0xff))
  done;
  !acc

(* Close the group at [at], the last one opened. *)
let[@inline] close_group b at ~bytes ~role ~imm =
  let ctl = bytes lor ((b.len - at - 1) lsl 3) lor (role lsl 5) lor (imm lsl 7) in
  b.ops.(at) <- b.ops.(at) lor (ctl lsl 32)

let malformed msg = Ccomp_util.Decode_error.fail (Malformed msg)

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

  val compile : ops -> symbol:int -> fixed:(int * int * int) list -> unit
  (** Append the groups of the primitive [symbol] with the absorbed
      operands [fixed] (stream, position, value), each of which fits its
      stream. @raise Ccomp_util.Decode_error.Error ([Malformed]) on a
      symbol outside the ISA. *)

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

(* Items 0 to [n - 1] of stream [tail], a one-byte group each. *)
let tail_bytes b ~fixed ~tail n =
  for position = 0 to n - 1 do
    let at = open_group b 0 in
    add_part b ~fixed at ((tail lsl 16) lor (position lsl 8));
    close_group b at ~bytes:1 ~role:plain ~imm:0
  done

let byte_group b ~fixed parts ~role ~imm =
  let at = open_group b 0 in
  add_parts b ~fixed at parts;
  close_group b at ~bytes:1 ~role ~imm

(* The x86 adapters' primitive: the opcode bytes, then for an opcode
   with a ModRM byte its ModRM and SIB groups from [modrm_parts] and
   [sib_parts] (see {!add_parts}), then a group per displacement and
   immediate byte, item [k] of stream [tail] for the [k]-th. A ModRM
   absorbed whole, with its SIB when it has one, fixes the shape: its
   groups are plain and only the bytes it implies follow. Otherwise the
   ModRM and SIB groups steer, over groups for the longest tail; bit 42
   of the head is bit 10 of its [ctl]. *)
let compile_x86 ~modrm_parts ~sib_parts ~tail b ~symbol ~fixed =
  let module X = Ccomp_isa.X86 in
  let shape = if symbol < 0 || symbol >= 512 then None else X.symbol_shape symbol in
  match shape with
  | None -> malformed "Sadc: opcode symbol outside the ISA"
  | Some (with_modrm, imm) ->
    let opcode = if symbol < 256 then symbol else 0x0f00 lor (symbol - 256) in
    close_group b (open_group b opcode) ~bytes:(if symbol < 256 then 1 else 2) ~role:plain ~imm:0;
    let m = absorbed_value ~fixed modrm_parts and sb = absorbed_value ~fixed sib_parts in
    if not with_modrm then tail_bytes b ~fixed ~tail imm
    else if m >= 0 && not (X.has_sib m) then begin
      byte_group b ~fixed modrm_parts ~role:plain ~imm;
      tail_bytes b ~fixed ~tail (X.disp_size m ~sib:(-1) + imm)
    end
    else if m >= 0 && sb >= 0 then begin
      byte_group b ~fixed modrm_parts ~role:plain ~imm;
      byte_group b ~fixed sib_parts ~role:plain ~imm;
      tail_bytes b ~fixed ~tail (X.disp_size m ~sib:sb + imm)
    end
    else begin
      let at = b.len in
      byte_group b ~fixed modrm_parts ~role:modrm ~imm;
      byte_group b ~fixed sib_parts ~role:sib ~imm;
      (* a displacement is at most four bytes *)
      tail_bytes b ~fixed ~tail (4 + imm);
      b.ops.(at) <- b.ops.(at) lor ((b.len - at) lsl 42)
    end

module Mips_streams = struct
  module M = Ccomp_isa.Mips

  type instr = M.t

  let name = "mips"
  let base_symbols = M.opcode_count
  let symbol = M.opcode_id
  let stream_count = 3
  let stream_bits = [| 5; 16; 26 |]
  let stream_names = [| "register"; "immediate"; "long-immediate" |]

  (* Each operand kind's fields in {!read}'s pull order, registers then
     the immediate or the jump target, as (stream, bit shift). *)
  let fields = function
    | M.Op_none -> []
    | M.Op_rd_rs_rt | M.Op_rd_rt_rs -> [ (0, 21); (0, 16); (0, 11) ]
    | M.Op_rd_rt_shamt -> [ (0, 16); (0, 11); (0, 6) ]
    | M.Op_rs_rt -> [ (0, 21); (0, 16) ]
    | M.Op_rd -> [ (0, 11) ]
    | M.Op_rs -> [ (0, 21) ]
    | M.Op_rd_rs -> [ (0, 21); (0, 11) ]
    | M.Op_rt_rs_imm | M.Op_rt_base_offset | M.Op_rs_rt_branch -> [ (0, 21); (0, 16); (1, 0) ]
    | M.Op_rt_imm -> [ (0, 16); (1, 0) ]
    | M.Op_rs_branch -> [ (0, 21); (1, 0) ]
    | M.Op_target -> [ (2, 0) ]

  (* Per opcode, its fields in pull order as (stream lsl 16) lor
     (position lsl 8) lor shift, the position counted within the
     stream: what both {!parse} and {!compile} walk. *)
  let parts =
    Array.map
      (fun spec ->
        let seen = Array.make stream_count 0 in
        let fs = Array.of_list (fields spec.M.operands) in
        Array.map
          (fun (s, shift) ->
            let p = seen.(s) in
            seen.(s) <- p + 1;
            (s lsl 16) lor (p lsl 8) lor shift)
          fs)
      M.specs

  let masks = Array.map (fun b -> (1 lsl b) - 1) stream_bits

  (* The items of the instruction of opcode [id] encoded as [word]. *)
  let iter_word_items id word f =
    let ps = parts.(id) in
    for k = 0 to Array.length ps - 1 do
      let part = ps.(k) in
      let s = part lsr 16 in
      f s ((word lsr (part land 0xff)) land masks.(s))
    done

  let iter_items i f = iter_word_items (M.opcode_id i) (M.encode i) f

  let byte_length _ = 4

  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "Mips_streams.read: bad symbol";
    let spec = M.specs.(symbol) in
    let regs = List.init (M.reg_arity spec) (fun _ -> next 0) in
    let imm = if M.has_immediate spec then Some (next 1) else None in
    let limm = if M.has_long_immediate spec then Some (next 2) else None in
    M.reassemble spec ~regs ~imm ~limm

  let skeletons = Array.map M.skeleton M.specs

  (* One four-byte group: the opcode's skeleton with the absorbed fields
     in place, and a slot per free field. *)
  let compile b ~symbol ~fixed =
    if symbol < 0 || symbol >= base_symbols then malformed "Sadc: opcode symbol outside the ISA";
    let at = open_group b skeletons.(symbol) in
    add_parts b ~fixed at parts.(symbol);
    close_group b at ~bytes:4 ~role:plain ~imm:0

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
             iter_word_items id word add;
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

  (* ModRM is item 0 of stream 0 and SIB item 1. *)
  let modrm_parts = [| 0 |]

  let sib_parts = [| 1 lsl 8 |]

  let compile b ~symbol ~fixed = compile_x86 ~modrm_parts ~sib_parts ~tail:1 b ~symbol ~fixed

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

  (* ModRM's fields are item 0 of streams 0-2 and SIB's of streams 3-5,
     at bits 6, 3 and 0. *)
  let fields s = [| (s lsl 16) lor 6; ((s + 1) lsl 16) lor 3; (s + 2) lsl 16 |]

  let modrm_parts = fields 0

  let sib_parts = fields 3

  let compile b ~symbol ~fixed = compile_x86 ~modrm_parts ~sib_parts ~tail:6 b ~symbol ~fixed

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
