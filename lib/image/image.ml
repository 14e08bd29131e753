module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Lat = Ccomp_memsys.Lat
module Decode_error = Ccomp_util.Decode_error
module Events = Ccomp_obs.Events

type isa = Mips | X86

type payload =
  | Samc of Samc.compressed
  | Sadc_mips of Sadc.Mips.compressed
  | Sadc_x86 of Sadc.X86.compressed

type block_crc_kind = Crc8_tags | Crc16_tags

type t = {
  isa : isa;
  payload : payload;
  lat : Lat.t;
  block_crcs : (block_crc_kind * int array) option;
}

let magic = "SECF"
let version = 1
let version_block_crc = 2

let of_samc ~isa z =
  { isa; payload = Samc z; lat = Lat.of_blocks z.Samc.blocks; block_crcs = None }

let of_sadc_mips z =
  let lengths = Array.init (Sadc.Mips.block_count z) (Sadc.Mips.block_payload_bytes z) in
  { isa = Mips; payload = Sadc_mips z; lat = Lat.build lengths; block_crcs = None }

let of_sadc_x86 z =
  let lengths = Array.init (Sadc.X86.block_count z) (Sadc.X86.block_payload_bytes z) in
  { isa = X86; payload = Sadc_x86 z; lat = Lat.build lengths; block_crcs = None }

let isa_tag = function Mips -> 0 | X86 -> 1

let isa_of_tag = function 0 -> Some Mips | 1 -> Some X86 | _ -> None

let payload_tag = function Samc _ -> 0 | Sadc_mips _ -> 1 | Sadc_x86 _ -> 2

let crc_kind_tag = function Crc8_tags -> 1 | Crc16_tags -> 2

let crc_kind_of_tag = function 1 -> Some Crc8_tags | 2 -> Some Crc16_tags | _ -> None

let crc_kind_bytes = function Crc8_tags -> 1 | Crc16_tags -> 2

let crc_kind_name = function Crc8_tags -> "crc8" | Crc16_tags -> "crc16"

let block_count t =
  match t.payload with
  | Samc z -> Array.length z.Samc.blocks
  | Sadc_mips z -> Sadc.Mips.block_count z
  | Sadc_x86 z -> Sadc.X86.block_count z

let block_payload t b =
  match t.payload with
  | Samc z -> z.Samc.blocks.(b)
  | Sadc_mips z -> Sadc.Mips.block_payload z b
  | Sadc_x86 z -> Sadc.X86.block_payload z b

let block_crc kind payload =
  match kind with Crc8_tags -> Crc8.of_string payload | Crc16_tags -> Crc16.of_string payload

let with_block_crcs kind t =
  let crcs = Array.init (block_count t) (fun b -> block_crc kind (block_payload t b)) in
  { t with block_crcs = Some (kind, crcs) }

let without_block_crcs t = { t with block_crcs = None }

(* Per-block verification against the stored tags: the refill engine's
   view of integrity, able to localise corruption to one cache line
   (unlike the whole-image CRC-32, which only says "somewhere"). *)
let locate_corruption t =
  match t.block_crcs with
  | None -> []
  | Some (kind, crcs) ->
    let bad = ref [] in
    for b = Array.length crcs - 1 downto 0 do
      if block_crc kind (block_payload t b) <> crcs.(b) then bad := b :: !bad
    done;
    !bad

let verify_block_crcs t =
  match t.block_crcs with
  | None -> Ok ()
  | Some (kind, crcs) -> (
    match locate_corruption t with
    | [] -> Ok ()
    | b :: _ ->
      Events.error
        ~fields:[ ("section", Printf.sprintf "block %d" b); ("kind", crc_kind_name kind) ]
        "image.crc_mismatch";
      Error
        (Decode_error.Crc_mismatch
           {
             section = Printf.sprintf "block %d (%s)" b (crc_kind_name kind);
             expected = crcs.(b);
             got = block_crc kind (block_payload t b);
           }))

let serialize_payload t =
  match t.payload with
  | Samc z -> Samc.serialize z
  | Sadc_mips z -> Sadc.Mips.serialize z
  | Sadc_x86 z -> Sadc.X86.serialize z

let write t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  (match t.block_crcs with
  | None -> Buffer.add_char b (Char.chr version)
  | Some _ -> Buffer.add_char b (Char.chr version_block_crc));
  Buffer.add_char b (Char.chr (isa_tag t.isa));
  Buffer.add_char b (Char.chr (payload_tag t.payload));
  (match t.block_crcs with
  | None -> ()
  | Some (kind, _) -> Buffer.add_char b (Char.chr (crc_kind_tag kind)));
  Buffer.add_string b (Lat.serialize t.lat);
  Buffer.add_string b (serialize_payload t);
  (match t.block_crcs with
  | None -> ()
  | Some (kind, crcs) ->
    Array.iter
      (fun crc ->
        if kind = Crc16_tags then Buffer.add_char b (Char.chr ((crc lsr 8) land 0xff));
        Buffer.add_char b (Char.chr (crc land 0xff)))
      crcs);
  let body = Buffer.contents b in
  let crc = Crc32.of_string body in
  let tail = Bytes.create 4 in
  Bytes.set tail 0 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 24) land 0xff));
  Bytes.set tail 1 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 16) land 0xff));
  Bytes.set tail 2 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 8) land 0xff));
  Bytes.set tail 3 (Char.chr (Int32.to_int crc land 0xff));
  body ^ Bytes.to_string tail

let read_checked ?(verify_crc = true) s =
  let ( let* ) = Result.bind in
  let len = String.length s in
  if len < 11 then Error (Decode_error.Truncated "image header")
  else if String.sub s 0 4 <> magic then Error Decode_error.Bad_magic
  else begin
    let ver = Char.code s.[4] in
    if ver <> version && ver <> version_block_crc then Error (Decode_error.Bad_version ver)
    else begin
      let* () =
        if not verify_crc then Ok ()
        else begin
          let body = String.sub s 0 (len - 4) in
          let crc = Crc32.of_string body in
          let stored =
            Int32.logor
              (Int32.shift_left (Int32.of_int (Char.code s.[len - 4])) 24)
              (Int32.of_int
                 ((Char.code s.[len - 3] lsl 16) lor (Char.code s.[len - 2] lsl 8)
                 lor Char.code s.[len - 1]))
          in
          if crc <> stored then begin
            Events.error ~fields:[ ("section", "image") ] "image.crc_mismatch";
            Error
              (Decode_error.Crc_mismatch
                 {
                   section = "image (crc32)";
                   (* truncate to 31 bits only for display; equality above
                      is exact on the int32s *)
                   expected = Int32.to_int (Int32.logand stored 0x7FFFFFFFl);
                   got = Int32.to_int (Int32.logand crc 0x7FFFFFFFl);
                 })
          end
          else Ok ()
        end
      in
      let body = String.sub s 0 (len - 4) in
      match isa_of_tag (Char.code s.[5]) with
      | None -> Error (Decode_error.Malformed "unknown ISA tag")
      | Some isa ->
        let* kind =
          if ver = version then Ok None
          else
            match crc_kind_of_tag (Char.code s.[7]) with
            | Some k -> Ok (Some k)
            | None -> Error (Decode_error.Malformed "unknown block-CRC kind")
        in
        let lat_pos = if ver = version then 7 else 8 in
        Decode_error.protect ~section:"image payload" (fun () ->
            let lat, pos = Lat.deserialize body ~pos:lat_pos in
            let payload, pos =
              match Char.code s.[6] with
              | 0 ->
                let z, pos = Samc.deserialize body ~pos in
                (Samc z, pos)
              | 1 ->
                let z, pos = Sadc.Mips.deserialize body ~pos in
                (Sadc_mips z, pos)
              | 2 ->
                let z, pos = Sadc.X86.deserialize body ~pos in
                (Sadc_x86 z, pos)
              | _ -> Decode_error.fail (Decode_error.Malformed "unknown algorithm tag")
            in
            let t = { isa; payload; lat; block_crcs = None } in
            match kind with
            | None -> t
            | Some kind ->
              let n = block_count t in
              let width = crc_kind_bytes kind in
              if pos + (n * width) > String.length body then
                Decode_error.truncated "block-CRC table";
              let crcs =
                Array.init n (fun b ->
                    let o = pos + (b * width) in
                    if width = 2 then (Char.code body.[o] lsl 8) lor Char.code body.[o + 1]
                    else Char.code body.[o])
              in
              { t with block_crcs = Some (kind, crcs) })
    end
  end

let read s = Result.map_error Decode_error.to_string (read_checked s)

let max_original_bytes = 1 lsl 28

let original_size t =
  match t.payload with
  | Samc z -> z.Samc.original_size
  | Sadc_mips z -> Sadc.Mips.original_size z
  | Sadc_x86 z -> Sadc.X86.original_size z

(* The one decode path: tags first, then the size cap before anything is
   allocated, then the same dispatch for every [jobs]. *)
let decompress ?jobs t =
  Result.iter_error Decode_error.fail (verify_block_crcs t);
  let declared = original_size t in
  if declared > max_original_bytes then
    Decode_error.fail
      (Length_overflow { section = "image"; declared; limit = max_original_bytes });
  match t.payload with
  | Samc z -> Samc.decompress ?jobs z
  | Sadc_mips z -> Sadc.Mips.decompress ?jobs z
  | Sadc_x86 z -> Sadc.X86.decompress ?jobs z

let total_bytes t = String.length (write t)

(* --- section map -------------------------------------------------------- *)

type section =
  | Sec_magic
  | Sec_header
  | Sec_lat
  | Sec_tables
  | Sec_block of int
  | Sec_block_crcs
  | Sec_trailer_crc

let section_name = function
  | Sec_magic -> "magic"
  | Sec_header -> "header"
  | Sec_lat -> "lat"
  | Sec_tables -> "tables"
  | Sec_block b -> Printf.sprintf "block %d" b
  | Sec_block_crcs -> "block-crc table"
  | Sec_trailer_crc -> "crc32"

let sections t =
  let header_len = match t.block_crcs with None -> 3 | Some _ -> 4 in
  let lat_off = 4 + header_len in
  let lat_len = String.length (Lat.serialize t.lat) in
  let payload_off = lat_off + lat_len in
  let payload = serialize_payload t in
  let payload_len = String.length payload in
  let spans =
    match t.payload with
    | Samc z -> Samc.block_spans z
    | Sadc_mips z -> Sadc.Mips.block_spans z
    | Sadc_x86 z -> Sadc.X86.block_spans z
  in
  let tables_len =
    if Array.length spans = 0 then payload_len
    else fst spans.(0) - (match t.payload with Samc _ -> 2 | _ -> 4)
  in
  let blocks =
    Array.to_list
      (Array.mapi (fun b (off, len) -> (Sec_block b, (payload_off + off, len))) spans)
  in
  let crc_table =
    match t.block_crcs with
    | None -> []
    | Some (kind, crcs) ->
      [ (Sec_block_crcs, (payload_off + payload_len, Array.length crcs * crc_kind_bytes kind)) ]
  in
  let crc_table_len = match crc_table with [] -> 0 | (_, (_, l)) :: _ -> l in
  [
    (Sec_magic, (0, 4));
    (Sec_header, (4, header_len));
    (Sec_lat, (lat_off, lat_len));
    (Sec_tables, (payload_off, tables_len));
  ]
  @ blocks @ crc_table
  @ [ (Sec_trailer_crc, (payload_off + payload_len + crc_table_len, 4)) ]

let describe t =
  let isa = match t.isa with Mips -> "mips" | X86 -> "x86" in
  let base =
    match t.payload with
    | Samc z ->
      Printf.sprintf "SECF %s samc: %d blocks, %d code bytes, %d model bytes, ratio %.3f" isa
        (Array.length z.Samc.blocks) (Samc.code_bytes z) (Samc.model_bytes z) (Samc.ratio z)
    | Sadc_mips z ->
      Printf.sprintf "SECF %s sadc: %d blocks, %d code bytes, %d dict bytes, ratio %.3f" isa
        (Sadc.Mips.block_count z) (Sadc.Mips.code_bytes z) (Sadc.Mips.dict_bytes z)
        (Sadc.Mips.ratio z)
    | Sadc_x86 z ->
      Printf.sprintf "SECF %s sadc: %d blocks, %d code bytes, %d dict bytes, ratio %.3f" isa
        (Sadc.X86.block_count z) (Sadc.X86.code_bytes z) (Sadc.X86.dict_bytes z)
        (Sadc.X86.ratio z)
  in
  match t.block_crcs with
  | None -> base
  | Some (kind, crcs) ->
    Printf.sprintf "%s\nper-block integrity: %s tags, %d blocks, %d tag bytes" base
      (crc_kind_name kind) (Array.length crcs)
      (Array.length crcs * crc_kind_bytes kind)
