(* CRC-8/ATM (poly 0x07), MSB-first. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 1 to 8 do
           if !c land 0x80 <> 0 then c := ((!c lsl 1) lxor 0x07) land 0xff
           else c := (!c lsl 1) land 0xff
         done;
         !c))

let update crc s =
  let table = Lazy.force table in
  let c = ref (crc land 0xff) in
  for i = 0 to String.length s - 1 do
    c := table.(!c lxor Char.code (String.unsafe_get s i))
  done;
  !c

let of_string s = update 0 s
