let polynomial = 0xEDB88320

(* The state is a native int holding 32 bits: no [Int32] is boxed per
   byte, and [Int32] appears only at the interface. *)
let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 1 to 8 do
           if !c land 1 <> 0 then c := (!c lsr 1) lxor polynomial else c := !c lsr 1
         done;
         !c))

let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.of_substring";
  let table = Lazy.force table in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let update crc s = update_sub crc s ~pos:0 ~len:(String.length s)

let of_substring s ~pos ~len = update_sub 0l s ~pos ~len

let of_string s = update 0l s
