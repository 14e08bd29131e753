(* Property shared by every SADC ISA adapter: [read] pulls back exactly
   the items [iter_items] produced, in order, and reconstructs the same
   instruction — the operand-length-unit contract of Fig. 6 — and the
   groups [compile] emits, run with any of those items absorbed and the
   rest fed in order, write that instruction's bytes. *)

module Sadc_isa = Ccomp_core.Sadc_isa
module Mips = Ccomp_isa.Mips
module P = Ccomp_progen
module Prng = Ccomp_util.Prng

(* The group format {!Sadc_isa.ops} documents, run with [next s]
   supplying each free item of stream [s]: the specification that SADC's
   block decoder implements over Huffman-coded streams. *)
let run_groups (b : Sadc_isa.ops) ~next buf pos =
  let at = ref pos and g = ref 0 in
  let left = ref 0 and resume = ref 0 and modrm = ref 0 in
  while !g < b.len do
    let o = !g in
    let ctl = b.ops.(o) lsr 32 in
    let slots = (ctl lsr 3) land 3 in
    let v = ref (b.ops.(o) land 0xffff_ffff) in
    for j = o + 1 to o + slots do
      let slot = b.ops.(j) in
      v := !v lor (next (slot lsr 8) lsl (slot land 0xff))
    done;
    for k = (ctl land 7) - 1 downto 0 do
      Bytes.set buf !at (Char.chr ((!v lsr (8 * k)) land 0xff));
      incr at
    done;
    g := o + 1 + slots;
    let role = (ctl lsr 5) land 3 and imm = (ctl lsr 7) land 7 in
    let tail n =
      left := n;
      if n = 0 then g := !resume
    in
    if role = Sadc_isa.modrm then begin
      resume := o + (ctl lsr 10);
      if Ccomp_isa.X86.has_sib !v then modrm := !v
      else begin
        g := !g + 1 + ((b.ops.(!g) lsr 35) land 3);
        tail (Ccomp_isa.X86.disp_size !v ~sib:(-1) + imm)
      end
    end
    else if role = Sadc_isa.sib then tail (Ccomp_isa.X86.disp_size !modrm ~sib:!v + imm)
    else if !left > 0 then tail (!left - 1)
  done;
  !at - pos

module Check (I : Sadc_isa.S) = struct
  let items instr =
    let items = Array.make I.stream_count [] in
    I.iter_items instr (fun s v -> items.(s) <- v :: items.(s));
    Array.map List.rev items

  (* Feed [items] back through per-stream queues to [read_one next], then
     check every queue ran dry. *)
  let replay items read_one =
    let queues = Array.map (fun l -> ref l) items in
    let next s =
      match !(queues.(s)) with
      | v :: rest ->
        queues.(s) := rest;
        v
      | [] -> Alcotest.failf "%s: stream %s over-pulled" I.name I.stream_names.(s)
    in
    let result = read_one next in
    Array.iteri
      (fun s q ->
        Alcotest.(check int)
          (Printf.sprintf "%s: stream %s fully consumed" I.name I.stream_names.(s))
          0
          (List.length !q))
      queues;
    result

  let roundtrip instr =
    let items = items instr in
    Alcotest.(check int) (I.name ^ ": stream arrays") I.stream_count (Array.length items);
    let symbol = I.symbol instr in
    let back = replay items (fun next -> I.read ~symbol ~next) in
    let encoded = I.encode_list [ instr ] in
    Alcotest.(check string) (I.name ^ ": same instruction") encoded (I.encode_list [ back ]);
    (* [compile]'s groups write at an offset into a larger buffer, with
       no item absorbed, every item absorbed, and every other one *)
    List.iter
      (fun (what, absorbed) ->
        let fixed = ref [] and free = Array.make I.stream_count [] in
        Array.iteri
          (fun s l ->
            List.iteri
              (fun p v ->
                if absorbed (s + p) then fixed := (s, p, v) :: !fixed
                else free.(s) <- v :: free.(s))
              l)
          items;
        let b = Sadc_isa.ops_create 0 in
        I.compile b ~symbol ~fixed:!fixed;
        let buf = Bytes.make (String.length encoded + 6) '\xAA' in
        let n = replay (Array.map List.rev free) (fun next -> run_groups b ~next buf 3) in
        Alcotest.(check int) (Printf.sprintf "%s: compiled length, %s" I.name what) (I.byte_length instr) n;
        Alcotest.(check string)
          (Printf.sprintf "%s: compiled bytes, %s" I.name what)
          encoded (Bytes.sub_string buf 3 n))
      [ ("none absorbed", fun _ -> false); ("all absorbed", fun _ -> true); ("some absorbed", fun k -> k mod 2 = 0) ];
    (* item values respect their declared widths *)
    Array.iteri
      (fun s l ->
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s item in range" I.name I.stream_names.(s))
              true
              (v >= 0 && v < 1 lsl I.stream_bits.(s)))
          l)
      items

  (* [I.parse]'s flat arrays hold exactly what [symbol], [byte_length]
     and [iter_items] give for each of [instrs], the image's
     instructions. *)
  let check_program code instrs =
    Array.iter roundtrip instrs;
    Alcotest.(check int) (I.name ^ ": byte_length sums to image")
      (String.length code)
      (Array.fold_left (fun a i -> a + I.byte_length i) 0 instrs);
    match I.parse code with
    | None -> Alcotest.failf "%s: program does not parse" I.name
    | Some p ->
      let n = Array.length instrs in
      Alcotest.(check (array int)) (I.name ^ ": parse symbols") (Array.map I.symbol instrs) p.syms;
      Alcotest.(check int) (I.name ^ ": parse offsets") (n + 1) (Array.length p.boff);
      Array.iteri
        (fun k instr ->
          Alcotest.(check int) (I.name ^ ": parse byte length") (I.byte_length instr)
            (p.boff.(k + 1) - p.boff.(k));
          (* (stream, position within the stream, value) per item *)
          let expected = ref [] and seen = Array.make I.stream_count 0 in
          I.iter_items instr (fun s v ->
              expected := (s, (seen.(s), v)) :: !expected;
              seen.(s) <- seen.(s) + 1);
          let got =
            List.init
              (p.ioff.(k + 1) - p.ioff.(k))
              (fun j ->
                let it = p.items.(p.ioff.(k) + j) in
                (Sadc_isa.item_stream it, (Sadc_isa.item_position it, Sadc_isa.item_value it)))
          in
          Alcotest.(check (list (pair int (pair int int))))
            (I.name ^ ": parse items") (List.rev !expected) got)
        instrs
end

let program seed =
  P.Generator.generate ~seed
    { (P.Profile.find "ijpeg") with P.Profile.name = "t"; target_ops = 600; functions = 8 }

let x86_instrs code = Array.of_list (Option.get (Ccomp_isa.X86.decode_program code))

let test_mips_adapter () =
  let module C = Check (Sadc_isa.Mips_streams) in
  let code = (snd (P.Mips_backend.lower (program 41L))).P.Layout.code in
  C.check_program code (Array.map Option.get (Mips.decode_program code))

let test_x86_adapter () =
  let module C = Check (Sadc_isa.X86_streams) in
  let code = (snd (P.X86_backend.lower (program 42L))).P.Layout.code in
  C.check_program code (x86_instrs code)

let test_x86_fields_adapter () =
  let module C = Check (Sadc_isa.X86_field_streams) in
  let code = (snd (P.X86_backend.lower (program 43L))).P.Layout.code in
  C.check_program code (x86_instrs code)

let test_mips_adapter_random_instrs () =
  let module C = Check (Sadc_isa.Mips_streams) in
  let g = Prng.create 44L in
  Array.iter
    (fun sp ->
      for _ = 1 to 20 do
        let regs = List.init (Mips.reg_arity sp) (fun _ -> Prng.int g 32) in
        let imm = if Mips.has_immediate sp then Some (Prng.int g 65536) else None in
        let limm = if Mips.has_long_immediate sp then Some (Prng.int g (1 lsl 26)) else None in
        C.roundtrip (Mips.reassemble sp ~regs ~imm ~limm)
      done)
    Mips.specs

let test_bad_symbol_rejected () =
  List.iter
    (fun symbol ->
      match Sadc_isa.Mips_streams.read ~symbol ~next:(fun _ -> 0) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "symbol %d must be rejected" symbol)
    [ -1; Mips.opcode_count; 5000 ];
  let compile_rejects (module I : Sadc_isa.S) symbol =
    match I.compile (Sadc_isa.ops_create 0) ~symbol ~fixed:[] with
    | exception Ccomp_util.Decode_error.Error (Malformed _) -> ()
    | () -> Alcotest.failf "%s: compiling symbol %d must be refused" I.name symbol
  in
  List.iter (compile_rejects (module Sadc_isa.Mips_streams)) [ -1; Mips.opcode_count; 5000 ];
  (* 0x06 and 0x0f are no opcodes of the subset; 512 is past the 0x0f map *)
  List.iter
    (fun m -> List.iter (compile_rejects m) [ -1; 0x06; 0x0f; 256 + 0x06; 512 ])
    [ (module Sadc_isa.X86_streams : Sadc_isa.S); (module Sadc_isa.X86_field_streams) ]

let suite =
  [
    Alcotest.test_case "mips adapter on a program" `Quick test_mips_adapter;
    Alcotest.test_case "x86 adapter on a program" `Quick test_x86_adapter;
    Alcotest.test_case "x86 field adapter on a program" `Quick test_x86_fields_adapter;
    Alcotest.test_case "mips adapter random instrs" `Quick test_mips_adapter_random_instrs;
    Alcotest.test_case "bad symbols rejected" `Quick test_bad_symbol_rejected;
  ]
