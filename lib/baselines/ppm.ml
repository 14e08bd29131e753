module Rc = Ccomp_arith.Range_coder

(* Per-context adaptive statistics: a sorted association list of (symbol,
   count) — code byte contexts are sparse, so lists beat dense tables on
   the memory the paper objects to. Escape frequency = number of distinct
   symbols (PPMC). *)
type stats = { mutable entries : (int * int) list; mutable total : int; mutable distinct : int }

let rescale_threshold = 8192

type model = { order : int; table : (int, stats) Hashtbl.t }

let create_model order =
  if order < 0 || order > 3 then invalid_arg "Ppm: order must be 0..3";
  { order; table = Hashtbl.create 4096 }

(* Context key for the [k] bytes preceding position [i]; [get] reads one
   byte of the text produced so far. *)
let context_key get i k =
  let v = ref k in
  for j = i - k to i - 1 do
    v := (!v lsl 8) lor get j
  done;
  (k lsl 40) lor !v

let stats_for model key =
  match Hashtbl.find_opt model.table key with
  | Some s -> s
  | None ->
    let s = { entries = []; total = 0; distinct = 0 } in
    Hashtbl.add model.table key s;
    s

let rescale s =
  let entries = List.filter_map (fun (sym, c) -> let c = c / 2 in if c > 0 then Some (sym, c) else None) s.entries in
  s.entries <- entries;
  s.total <- List.fold_left (fun a (_, c) -> a + c) 0 entries;
  s.distinct <- List.length entries

let bump s sym =
  let rec go = function
    | [] ->
      s.distinct <- s.distinct + 1;
      [ (sym, 1) ]
    | ((sym', c) as e) :: rest ->
      if sym' = sym then (sym', c + 1) :: rest
      else if sym' > sym then begin
        s.distinct <- s.distinct + 1;
        (sym, 1) :: e :: rest
      end
      else e :: go rest
  in
  s.entries <- go s.entries;
  s.total <- s.total + 1;
  if s.total + s.distinct >= rescale_threshold then rescale s

(* Cumulative frequency of [sym] within a context; None if absent. *)
let lookup s sym =
  let rec go cum = function
    | [] -> None
    | (sym', c) :: rest -> if sym' = sym then Some (cum, c) else if sym' > sym then None else go (cum + c) rest
  in
  go 0 s.entries

let find_by_target s target =
  let rec go cum = function
    | [] -> None
    | (sym, c) :: rest -> if target < cum + c then Some (sym, cum, c) else go (cum + c) rest
  in
  go 0 s.entries

let compress ?(order = 2) data =
  let model = create_model order in
  let enc = Rc.Encoder.create () in
  let get j = Char.code data.[j] in
  String.iteri
    (fun i ch ->
      let sym = Char.code ch in
      let rec code_at k =
        if k < 0 then Rc.Encoder.encode enc ~cum_low:sym ~freq:1 ~total:256
        else if k > i then code_at (k - 1)
        else begin
          let s = stats_for model (context_key get i k) in
          if s.total = 0 then code_at (k - 1) (* fresh context: certain escape, no bits *)
          else
            let grand = s.total + s.distinct in
            match lookup s sym with
            | Some (cum, freq) -> Rc.Encoder.encode enc ~cum_low:cum ~freq ~total:grand
            | None ->
              Rc.Encoder.encode enc ~cum_low:s.total ~freq:s.distinct ~total:grand;
              code_at (k - 1)
        end
      in
      code_at order;
      (* update every order's context with the symbol just coded *)
      for k = 0 to min order i do
        bump (stats_for model (context_key get i k)) sym
      done)
    data;
  Rc.Encoder.finish enc

(* Decompression drives the same model; the growing output buffer is the
   context source. *)
let decompress_sized ?(order = 2) ~size data =
  let model = create_model order in
  let dec = Rc.Decoder.create data in
  let out = Bytes.create size in
  let get j = Char.code (Bytes.get out j) in
  for i = 0 to size - 1 do
    let rec decode_at k =
      if k < 0 then begin
        let target = Rc.Decoder.decode_target dec ~total:256 in
        Rc.Decoder.decode_update dec ~cum_low:target ~freq:1 ~total:256;
        target
      end
      else if k > i then decode_at (k - 1)
      else begin
        let s = stats_for model (context_key get i k) in
        if s.total = 0 then decode_at (k - 1)
        else begin
          let grand = s.total + s.distinct in
          let target = Rc.Decoder.decode_target dec ~total:grand in
          if target >= s.total then begin
            Rc.Decoder.decode_update dec ~cum_low:s.total ~freq:s.distinct ~total:grand;
            decode_at (k - 1)
          end
          else
            match find_by_target s target with
            | Some (sym, cum, freq) ->
              Rc.Decoder.decode_update dec ~cum_low:cum ~freq ~total:grand;
              sym
            | None -> failwith "Ppm.decompress: corrupt stream"
        end
      end
    in
    let sym = decode_at order in
    Bytes.set out i (Char.chr sym);
    for k = 0 to min order i do
      bump (stats_for model (context_key get i k)) sym
    done
  done;
  Bytes.to_string out

(* The public stream carries the size header so decompress is standalone. *)
let compress ?(order = 2) data =
  let body = compress ~order data in
  let n = String.length data in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  Bytes.to_string hdr ^ body

let decompress ?(order = 2) ?max_output data =
  if String.length data < 4 then invalid_arg "Ppm.decompress: truncated";
  let b k = Char.code data.[k] in
  let size = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  (* The size header is attacker-controlled; check it before the output
     buffer is allocated. *)
  (match max_output with
  | Some limit when size > limit ->
    Ccomp_util.Decode_error.fail (Length_overflow { section = "ppm"; declared = size; limit })
  | Some _ | None -> ());
  decompress_sized ~order ~size (String.sub data 4 (String.length data - 4))

let ratio ?(order = 2) data =
  if String.length data = 0 then 1.0
  else float_of_int (String.length (compress ~order data)) /. float_of_int (String.length data)

type memory_report = { contexts : int; nodes : int; approx_bytes : int }

let model_memory ?(order = 2) data =
  let model = create_model order in
  let get j = Char.code data.[j] in
  String.iteri
    (fun i ch ->
      let sym = Char.code ch in
      for k = 0 to min order i do
        bump (stats_for model (context_key get i k)) sym
      done)
    data;
  let contexts = Hashtbl.length model.table in
  let nodes = Hashtbl.fold (fun _ s acc -> acc + s.distinct) model.table 0 in
  (* each context: hash slot + record; each node: a list cell with two
     small ints *)
  { contexts; nodes; approx_bytes = (contexts * 32) + (nodes * 24) }
