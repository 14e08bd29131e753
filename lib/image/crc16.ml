(* CRC-16/CCITT-FALSE (poly 0x1021, init 0xffff), MSB-first. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (n lsl 8) in
         for _ = 1 to 8 do
           if !c land 0x8000 <> 0 then c := ((!c lsl 1) lxor 0x1021) land 0xffff
           else c := (!c lsl 1) land 0xffff
         done;
         !c))

let update crc s =
  let table = Lazy.force table in
  let c = ref (crc land 0xffff) in
  for i = 0 to String.length s - 1 do
    c := ((!c lsl 8) land 0xffff) lxor table.(((!c lsr 8) lxor Char.code (String.unsafe_get s i)) land 0xff)
  done;
  !c

let of_string s = update 0xffff s
