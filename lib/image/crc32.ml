let polynomial = 0xEDB88320

(* The state is a native int holding 32 bits: no [Int32] is boxed per
   byte, and [Int32] appears only at the interface. Slicing-by-8: table
   [k] (entries [256k] to [256k + 255]) advances the CRC of a byte over
   [k] further zero bytes, so one step folds in eight bytes with eight
   independent lookups. *)
let tables =
  lazy
    (let t = Array.make 2048 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 1 to 8 do
         if !c land 1 <> 0 then c := (!c lsr 1) lxor polynomial else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let v = t.((256 * (k - 1)) + n) in
         t.((256 * k) + n) <- (v lsr 8) lxor t.(v land 0xFF)
       done
     done;
     t)

let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.of_substring";
  let t = Lazy.force tables in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    let one = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let two = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (1792 + (one land 0xFF))
      lxor Array.unsafe_get t (1536 + ((one lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((one lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (one lsr 24))
      lxor Array.unsafe_get t (768 + (two land 0xFF))
      lxor Array.unsafe_get t (512 + ((two lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((two lsr 16) land 0xFF))
      lxor Array.unsafe_get t (two lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let update crc s = update_sub crc s ~pos:0 ~len:(String.length s)

let of_substring s ~pos ~len = update_sub 0l s ~pos ~len

let of_string s = update 0l s
