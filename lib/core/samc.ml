module Coder = Ccomp_arith.Binary_coder
module Obs = Ccomp_obs.Obs

(* Observability: the per-block family ([Blocks.metrics]) and the
   per-stream bits-in/bits-out split behind the paper's Tables 1-3 (each
   stream's share of the instruction word vs the arithmetic-coded bits
   it costs under the trained model). All observation is guarded by
   [Obs.metrics_enabled] and never touches the coded bits: output is
   byte-identical with metrics on or off. *)
let m_compress = Ccomp_par.Blocks.metrics "samc.compress"

let m_decompress = Ccomp_par.Blocks.metrics "samc.decompress"

type config = {
  word_bits : int;
  streams : Stream_split.t;
  context_bits : int;
  quantize : bool;
  prune_below : int;
  block_size : int;
}

let mips_config ?(block_size = 32) ?(context_bits = 2) ?(quantize = false) ?(prune_below = 0)
    ?streams () =
  let streams =
    match streams with Some s -> s | None -> Stream_split.consecutive ~word_bits:32 ~streams:4
  in
  { word_bits = 32; streams; context_bits; quantize; prune_below; block_size }

let byte_config ?(block_size = 32) ?(context_bits = 2) ?(quantize = false) ?(prune_below = 0) () =
  {
    word_bits = 8;
    streams = Stream_split.consecutive ~word_bits:8 ~streams:1;
    context_bits;
    quantize;
    prune_below;
    block_size;
  }

let validate_config c =
  if c.word_bits mod 8 <> 0 || c.word_bits <= 0 || c.word_bits > 64 then
    Error "word_bits must be a positive multiple of 8, at most 64"
  else if c.block_size < 1 || c.block_size > 65535 then
    Error "block_size must be in 1..65535 (a u16 header field)"
  else if c.block_size * 8 mod c.word_bits <> 0 then
    Error "block_size must hold a whole number of words"
  else if c.prune_below < 0 then Error "prune_below must be non-negative"
  else if Array.exists (fun s -> Array.length s > 16) c.streams then
    Error "streams wider than 16 bits need oversized trees"
  else
    match Stream_split.validate ~word_bits:c.word_bits c.streams with
    | Ok () -> Ok ()
    | Error e -> Error e

type compressed = {
  config : config;
  model : Markov_model.t;
  blocks : string array;
  original_size : int;
}

let word_bytes c = c.word_bits / 8

let words_per_block c = c.block_size * 8 / c.word_bits

let block_count c ~code_bytes =
  let wb = word_bytes c in
  let words = code_bytes / wb in
  let wpb = words_per_block c in
  (words + wpb - 1) / wpb

let get_word ~wb code word_index =
  let base = word_index * wb in
  let w = ref 0 in
  for i = 0 to wb - 1 do
    w := (!w lsl 8) lor Char.code code.[base + i]
  done;
  !w

(* Where each stream's bits sit in a word: [shifts.(s).(k)] is the right
   shift that brings the stream's k-th bit (MSB-first) to bit 0. A
   stream whose positions are consecutive (every default config) is one
   shift and mask, [low_shift.(s)]; [-1] marks the general scatter case. *)
type placement = { widths : int array; shifts : int array array; low_shift : int array }

let placement c =
  let shifts = Array.map (Array.map (fun pos -> c.word_bits - 1 - pos)) c.streams in
  let low_shift =
    Array.map
      (fun shift_s ->
        let w = Array.length shift_s in
        let contiguous = ref (w > 0) in
        for k = 1 to w - 1 do
          if shift_s.(k) <> shift_s.(0) - k then contiguous := false
        done;
        if !contiguous then shift_s.(w - 1) else -1)
      shifts
  in
  { widths = Array.map Array.length c.streams; shifts; low_shift }

(* Stream [s]'s bits of [word], MSB-first, as an int. *)
let stream_value pl s word =
  let w = Array.unsafe_get pl.widths s in
  let lo = Array.unsafe_get pl.low_shift s in
  if lo >= 0 then (word lsr lo) land ((1 lsl w) - 1)
  else begin
    let shift_s = Array.unsafe_get pl.shifts s in
    let v = ref 0 in
    for k = 0 to w - 1 do
      v := (!v lsl 1) lor ((word lsr Array.unsafe_get shift_s k) land 1)
    done;
    !v
  end

(* Words in block [b] of a program of [words] words. *)
let block_words c ~words b =
  let wpb = words_per_block c in
  min wpb (words - (b * wpb))

(* The semiadaptive first pass: count every stream value of [code] in
   its context into the trainer's flat [values] array, walking words and
   streams in the encoder's order (the context restarts at each block).
   [finalize] folds the value counts into per-node bit counts. *)
let count c pl code =
  let trainer = Markov_model.Trainer.create ~widths:pl.widths ~context_bits:c.context_bits in
  let values = Markov_model.Trainer.values trainer in
  let n_streams = Array.length pl.widths in
  let base =
    Array.init n_streams (fun s -> Markov_model.Trainer.tree_offset trainer ~stream:s ~ctx:0)
  in
  let ctx_mask = (1 lsl c.context_bits) - 1 in
  let wb = word_bytes c in
  let words = String.length code / wb in
  let wpb = words_per_block c in
  for b = 0 to block_count c ~code_bytes:(String.length code) - 1 do
    let ctx = ref 0 in
    for wi = b * wpb to (b * wpb) + block_words c ~words b - 1 do
      let word = get_word ~wb code wi in
      for s = 0 to n_streams - 1 do
        let value = stream_value pl s word in
        let i = Array.unsafe_get base s + (!ctx lsl Array.unsafe_get pl.widths s) + value in
        values.(i) <- values.(i) + 1;
        ctx := value land ctx_mask
      done
    done
  done;
  trainer

(* Per-stream cost accounting under the trained model (metrics only):
   bits_in counts the stream's raw bits, bits_out the ideal arithmetic-
   code length [sum -log2 p(bit)] — the per-stream in/out split of
   Tables 1-3. Every bit counted at a node is coded under that node's
   final p0, so both sums are priced from the counts in closed form:
   zeros·-log2(p0) + ones·-log2(1-p0) per node. The ideal length differs
   from the shipped size only by per-block coder flush rounding. *)
let note_stream_costs c trainer model =
  let zeros = Markov_model.Trainer.zeros trainer in
  let totals = Markov_model.Trainer.totals trainer in
  let flat = Markov_model.flat_probs model in
  let fscale = float_of_int Coder.scale in
  Array.iteri
    (fun s positions ->
      let bits_in = ref 0 and bits_out = ref 0.0 in
      for ctx = 0 to (1 lsl c.context_bits) - 1 do
        let tree = Markov_model.Trainer.tree_offset trainer ~stream:s ~ctx in
        for node = 1 to (1 lsl Array.length positions) - 1 do
          let i = tree + node in
          let total = totals.(i) in
          if total > 0 then begin
            let z = zeros.(i) and p0 = flat.(i) in
            bits_in := !bits_in + total;
            bits_out :=
              !bits_out
              -. (float_of_int z *. Float.log2 (float_of_int p0 /. fscale))
              -. (float_of_int (total - z) *. Float.log2 (float_of_int (Coder.scale - p0) /. fscale))
          end
        done
      done;
      Obs.Counter.add (Obs.Counter.make (Printf.sprintf "samc.stream%d.bits_in" s)) !bits_in;
      Obs.Counter.add
        (Obs.Counter.make (Printf.sprintf "samc.stream%d.bits_out" s))
        (int_of_float (Float.round !bits_out));
      if !bits_in > 0 then
        Obs.Gauge.set
          (Obs.Gauge.make (Printf.sprintf "samc.stream%d.ratio" s))
          (!bits_out /. float_of_int !bits_in))
    c.streams

(* The per-image tables of both coding directions, built once per image
   rather than per 32-byte block: the model's flat probability array
   (one load per bit), each stream's tree base and its placement in the
   word. *)
type plan = {
  p_wb : int;
  p_ctx_mask : int;
  p_flat : int array;
  p_base : int array;
  p_pl : placement;
}

let plan c model =
  {
    p_wb = word_bytes c;
    p_ctx_mask = (1 lsl c.context_bits) - 1;
    p_flat = Markov_model.flat_probs model;
    p_base =
      Array.init (Array.length c.streams) (fun s -> Markov_model.tree_offset model ~stream:s ~ctx:0);
    p_pl = placement c;
  }

(* Encode one block through a caller-owned encoder — the parallel path
   reuses one encoder per domain. Each stream is one
   {!Coder.Encoder.encode_tree} descent. *)
let encode_block_with encoder p code ~first_word ~n_words =
  Coder.Encoder.reset encoder;
  let pl = p.p_pl in
  let ctx = ref 0 in
  for wi = first_word to first_word + n_words - 1 do
    let word = get_word ~wb:p.p_wb code wi in
    for s = 0 to Array.length pl.widths - 1 do
      let w = Array.unsafe_get pl.widths s in
      let value = stream_value pl s word in
      let tree = Array.unsafe_get p.p_base s + (!ctx lsl w) in
      ignore (Coder.Encoder.encode_tree encoder p.p_flat ~tree ~width:w value : int);
      ctx := value land p.p_ctx_mask
    done
  done;
  Coder.Encoder.finish encoder

let compress ?jobs c code =
  Obs.with_span ~cat:"samc" "samc.compress" @@ fun () ->
  (match validate_config c with Ok () -> () | Error e -> invalid_arg ("Samc.compress: " ^ e));
  if String.length code mod word_bytes c <> 0 then
    invalid_arg "Samc.compress: code size is not a multiple of the word size";
  let model, trainer =
    Obs.with_span ~cat:"samc" "samc.train" @@ fun () ->
    let trainer = count c (placement c) code in
    (Markov_model.Trainer.finalize ~quantize:c.quantize ~prune_below:c.prune_below trainer, trainer)
  in
  if Obs.metrics_enabled () then note_stream_costs c trainer model;
  let words = String.length code / word_bytes c in
  (* Blocks restart the coder and context, so each encodes independently. *)
  let p = plan c model in
  let blocks =
    Obs.with_span ~cat:"samc" "samc.encode" @@ fun () ->
    Ccomp_par.Blocks.encode ?jobs m_compress ~local:Coder.Encoder.create
      ~bytes_in:(fun b -> block_words c ~words b * word_bytes c)
      (block_count c ~code_bytes:(String.length code))
      (fun encoder b ->
        encode_block_with encoder p code ~first_word:(b * words_per_block c)
          ~n_words:(block_words c ~words b))
  in
  { config = c; model; blocks; original_size = String.length code }

(* Decode one block's words from [decoder], primed on the block's
   payload, into [out] starting at byte [pos] — the zero-copy kernel: the
   full-image path points every block at its slice of one shared buffer
   instead of allocating per-block strings and concatenating. [pos] must
   leave room for [n_words] words. Each stream is one
   {!Coder.Decoder.decode_tree} descent: the interval stays in registers
   for the whole stream and the value falls out of the final heap index. *)
let decompress_block_planned_into p decoder out ~pos ~n_words =
  let wb = p.p_wb in
  let flat = p.p_flat in
  let pl = p.p_pl in
  let n_streams = Array.length pl.widths in
  let ctx_mask = p.p_ctx_mask in
  let ctx = ref 0 in
  for wi = 0 to n_words - 1 do
    let word = ref 0 in
    for s = 0 to n_streams - 1 do
      let w = Array.unsafe_get pl.widths s in
      let tree = Array.unsafe_get p.p_base s + (!ctx lsl w) in
      let node = Coder.Decoder.decode_tree decoder flat ~tree ~width:w in
      let value = node - (1 lsl w) in
      let lo = Array.unsafe_get pl.low_shift s in
      if lo >= 0 then word := !word lor (value lsl lo)
      else begin
        let shift_s = Array.unsafe_get pl.shifts s in
        for k = 0 to w - 1 do
          if (value lsr (w - 1 - k)) land 1 = 1 then
            word := !word lor (1 lsl Array.unsafe_get shift_s k)
        done
      end;
      ctx := value land ctx_mask
    done;
    let word = !word in
    for j = 0 to wb - 1 do
      Bytes.unsafe_set out (pos + (wi * wb) + j)
        (Char.unsafe_chr ((word lsr (8 * (wb - 1 - j))) land 0xff))
    done
  done

(* A refill engine calls [decompress_block] once per miss, mostly on
   blocks of one image in a row, so each domain keeps the plan and the
   arithmetic decoder of the last (config, model) pair it decoded instead
   of rebuilding them per block. *)
type refill_cache = {
  r_config : config;
  r_model : Markov_model.t;
  r_plan : plan;
  r_decoder : Coder.Decoder.t;
}

let refill_cache : refill_cache option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let decompress_block c model ~original_bytes data =
  let cache = Domain.DLS.get refill_cache in
  let r =
    match !cache with
    | Some r when r.r_config == c && r.r_model == model -> r
    | _ ->
      let r = { r_config = c; r_model = model; r_plan = plan c model; r_decoder = Coder.Decoder.create "" } in
      cache := Some r;
      r
  in
  let p = r.r_plan in
  if original_bytes mod p.p_wb <> 0 then
    invalid_arg "Samc.decompress_block: size not a multiple of the word size";
  let out = Bytes.create original_bytes in
  Coder.Decoder.reset r.r_decoder data;
  decompress_block_planned_into p r.r_decoder out ~pos:0 ~n_words:(original_bytes / p.p_wb);
  Bytes.unsafe_to_string out

(* The original pointer-chasing kernel, kept as the reference
   implementation: equivalence tests pin the fast path to it, and the
   benchmark harness reports both so the LUT/flat speedup stays
   measured. *)
let decompress_block_ref c model ~original_bytes data =
  let wb = word_bytes c in
  if original_bytes mod wb <> 0 then
    invalid_arg "Samc.decompress_block_ref: size not a multiple of the word size";
  let n_words = original_bytes / wb in
  let decoder = Coder.Decoder.create data in
  let out = Bytes.create original_bytes in
  let ctx_mask = (1 lsl c.context_bits) - 1 in
  let ctx = ref 0 in
  for wi = 0 to n_words - 1 do
    let word = ref 0 in
    Array.iteri
      (fun s positions ->
        let node = ref 1 in
        let value = ref 0 in
        Array.iter
          (fun pos ->
            let p0 = Markov_model.p0 model ~stream:s ~ctx:!ctx ~node:!node in
            let bit = Coder.Decoder.decode decoder ~p0 in
            node := (2 * !node) + bit;
            value := (!value lsl 1) lor bit;
            if bit = 1 then word := !word lor (1 lsl (c.word_bits - 1 - pos)))
          positions;
        ctx := !value land ctx_mask)
      c.streams;
    for j = 0 to wb - 1 do
      Bytes.set out ((wi * wb) + j) (Char.chr ((!word lsr (8 * (wb - 1 - j))) land 0xff))
    done
  done;
  Bytes.to_string out

let decompress_block_parallel c model ~original_bytes data =
  let wb = word_bytes c in
  if original_bytes mod wb <> 0 then
    invalid_arg "Samc.decompress_block_parallel: size not a multiple of the word size";
  let n_words = original_bytes / wb in
  let engine = Ccomp_arith.Nibble_decoder.create data in
  let out = Bytes.create original_bytes in
  let ctx_mask = (1 lsl c.context_bits) - 1 in
  let ctx = ref 0 in
  for wi = 0 to n_words - 1 do
    let word = ref 0 in
    Array.iteri
      (fun s positions ->
        let width = Array.length positions in
        let node = ref 1 in
        let value = ref 0 in
        let done_ = ref 0 in
        (* Fig. 5 decodes 4 bits per step; stream boundaries reset the
           tree walk, so steps never straddle a stream. *)
        while !done_ < width do
          let step = min 4 (width - !done_) in
          let base_node = !node in
          let p0 ~prefix ~width:w =
            (* probability memory addressed by already-decoded bits *)
            let node_for_prefix = (base_node lsl w) lor prefix in
            Markov_model.p0 model ~stream:s ~ctx:!ctx ~node:node_for_prefix
          in
          let bits = Ccomp_arith.Nibble_decoder.decode_bits engine ~n:step ~p0 in
          for k = step - 1 downto 0 do
            let bit = (bits lsr k) land 1 in
            let pos = positions.(!done_) in
            if bit = 1 then word := !word lor (1 lsl (c.word_bits - 1 - pos));
            value := (!value lsl 1) lor bit;
            incr done_
          done;
          node := (base_node lsl step) lor bits
        done;
        ctx := !value land ctx_mask)
      c.streams;
    for j = 0 to wb - 1 do
      Bytes.set out ((wi * wb) + j) (Char.chr ((!word lsr (8 * (wb - 1 - j))) land 0xff))
    done
  done;
  (Bytes.to_string out, Ccomp_arith.Nibble_decoder.midpoint_evaluations engine)

let block_decoder t =
  let c = t.config in
  let p = plan c t.model in
  let decoder = Coder.Decoder.create "" in
  let words = t.original_size / p.p_wb in
  fun b out pos ->
    let n_words = block_words c ~words b in
    Coder.Decoder.reset decoder t.blocks.(b);
    decompress_block_planned_into p decoder out ~pos ~n_words;
    n_words * p.p_wb

(* The two-lane kernel places each stream with one shift, so it takes
   configs whose every stream is a non-empty run of consecutive bits:
   every default config. *)
let contiguous pl = Array.for_all (fun lo -> lo >= 0) pl.low_shift

let pair_decoder t =
  let c = t.config in
  let p = plan c t.model in
  if not (contiguous p.p_pl) then invalid_arg "Samc.pair_decoder: scattered streams";
  let da = Coder.Decoder.create "" and db = Coder.Decoder.create "" in
  let words = t.original_size / p.p_wb in
  fun b out pos_a pos_b ->
    let n_words = block_words c ~words b in
    if block_words c ~words (b + 1) <> n_words then
      invalid_arg "Samc.pair_decoder: the blocks hold different numbers of words";
    Coder.Decoder.reset da t.blocks.(b);
    Coder.Decoder.reset db t.blocks.(b + 1);
    Coder.Decoder.decode_words2 da db p.p_flat ~bases:p.p_base ~widths:p.p_pl.widths
      ~shifts:p.p_pl.low_shift ~ctx_mask:p.p_ctx_mask ~word_bytes:p.p_wb out ~pos_a ~pos_b
      ~n_words;
    n_words * p.p_wb

let decompress ?jobs t =
  Obs.with_span ~cat:"samc" "samc.decompress" @@ fun () ->
  let wb = word_bytes t.config in
  if t.original_size mod wb <> 0 then
    invalid_arg "Samc.decompress: size not a multiple of the word size";
  let words = t.original_size / wb in
  let sizes = Array.init (Array.length t.blocks) (fun b -> block_words t.config ~words b * wb) in
  let pair = if contiguous (placement t.config) then Some (fun () -> pair_decoder t) else None in
  Ccomp_par.Blocks.decode ?jobs ?pair m_decompress ~sizes
    ~payload_bytes:(fun b -> String.length t.blocks.(b))
    (fun () -> block_decoder t)

let code_bytes t = Array.fold_left (fun acc b -> acc + String.length b) 0 t.blocks

let model_bytes t = Markov_model.storage_bytes t.model

let ratio t = float_of_int (code_bytes t) /. float_of_int t.original_size

let ratio_with_model t =
  float_of_int (code_bytes t + model_bytes t) /. float_of_int t.original_size

(* --- serialization --------------------------------------------------- *)

let add_u16 b v =
  assert (v >= 0 && v < 65536);
  Buffer.add_char b (Char.chr (v lsr 8));
  Buffer.add_char b (Char.chr (v land 0xff))

let add_u32 b v =
  assert (v >= 0 && v < 1 lsl 32);
  add_u16 b (v lsr 16);
  add_u16 b (v land 0xffff)

let serialize t =
  let c = t.config in
  let model = Markov_model.serialize t.model in
  let b =
    Buffer.create (code_bytes t + (2 * Array.length t.blocks) + String.length model + 64)
  in
  Buffer.add_char b (Char.chr c.word_bits);
  Buffer.add_char b (Char.chr (Array.length c.streams));
  Array.iter
    (fun stream ->
      Buffer.add_char b (Char.chr (Array.length stream));
      Array.iter (fun pos -> Buffer.add_char b (Char.chr pos)) stream)
    c.streams;
  Buffer.add_char b (Char.chr c.context_bits);
  Buffer.add_char b (Char.chr (if c.quantize then 1 else 0));
  add_u16 b c.prune_below;
  add_u16 b c.block_size;
  add_u32 b t.original_size;
  add_u32 b (String.length model);
  Buffer.add_string b model;
  add_u32 b (Array.length t.blocks);
  Array.iter
    (fun blk ->
      add_u16 b (String.length blk);
      Buffer.add_string b blk)
    t.blocks;
  Buffer.contents b

let deserialize s ~pos =
  let p = ref pos in
  let fail () = invalid_arg "Samc.deserialize: truncated input" in
  let byte () =
    if !p >= String.length s then fail ();
    let v = Char.code s.[!p] in
    incr p;
    v
  in
  let u16 () =
    let hi = byte () in
    (hi lsl 8) lor byte ()
  in
  let u32 () =
    let hi = u16 () in
    (hi lsl 16) lor u16 ()
  in
  let take n =
    if !p + n > String.length s then fail ();
    let sub = String.sub s !p n in
    p := !p + n;
    sub
  in
  let word_bits = byte () in
  let n_streams = byte () in
  let streams =
    Array.init n_streams (fun _ ->
        let w = byte () in
        Array.init w (fun _ -> byte ()))
  in
  let context_bits = byte () in
  let quantize = byte () = 1 in
  let prune_below = u16 () in
  let block_size = u16 () in
  let config = { word_bits; streams; context_bits; quantize; prune_below; block_size } in
  (match validate_config config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Samc.deserialize: " ^ e));
  let original_size = u32 () in
  let model_len = u32 () in
  let model, _ = Markov_model.deserialize (take model_len) ~pos:0 in
  let nblocks = u32 () in
  (* Validate the declared counts before allocating anything sized by
     them: each block costs at least its 2-byte length prefix, so a count
     the remaining bytes cannot hold is corruption, not a large image. *)
  if nblocks > (String.length s - !p) / 2 then fail ();
  if nblocks <> block_count config ~code_bytes:original_size then
    invalid_arg "Samc.deserialize: block count mismatch";
  let blocks =
    Array.init nblocks (fun _ ->
        let len = u16 () in
        take len)
  in
  ({ config; model; blocks; original_size }, !p)

(* Byte ranges inside [serialize t], for section-targeted fault injection
   and per-block integrity. Mirrors the layout [serialize] writes. *)
let model_span t =
  let c = t.config in
  let header =
    1 + 1
    + Array.fold_left (fun acc stream -> acc + 1 + Array.length stream) 0 c.streams
    + 1 + 1 + 2 + 2 + 4 + 4
  in
  (header, Markov_model.storage_bytes t.model)

let block_spans t =
  let model_off, model_len = model_span t in
  let off = ref (model_off + model_len + 4) in
  Array.map
    (fun blk ->
      off := !off + 2;
      let o = !off in
      off := o + String.length blk;
      (o, String.length blk))
    t.blocks
