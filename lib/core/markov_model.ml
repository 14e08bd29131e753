module Coder = Ccomp_arith.Binary_coder
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader

(* Models and trainers share one flat layout: the tree for (stream, ctx)
   occupies the slots from [stream_base.(stream) + ctx lsl
   widths.(stream)], heap-indexed (node in [1, 2^w - 1]; slot 0 unused),
   so a per-bit lookup is one array load. *)
type t = {
  widths : int array;
  context_bits : int;
  quantized : bool;
  stream_base : int array;
  (* The prediction at each node; a pruned node holds its parent's
     (inherited) value. *)
  flat : int array;
  (* The node stores its own probability: all nodes of an unpruned
     model. *)
  retained : bool array;
}

(* The stream bases and the total size of the layout. *)
let layout ~widths ~context_bits =
  let stream_base = Array.make (Array.length widths) 0 in
  let total = ref 0 in
  Array.iteri
    (fun s w ->
      stream_base.(s) <- !total;
      total := !total + (1 lsl (context_bits + w)))
    widths;
  (stream_base, !total)

(* [f tree w] for every tree, stream by stream and context by context —
   the wire order of {!serialize}. *)
let iter_trees ~widths ~context_bits stream_base f =
  Array.iteri
    (fun s w ->
      for ctx = 0 to (1 lsl context_bits) - 1 do
        f (stream_base.(s) + (ctx lsl w)) w
      done)
    widths

let check_params ~widths ~context_bits =
  if Array.length widths = 0 then invalid_arg "Markov_model: no streams";
  Array.iter
    (fun w -> if w < 1 || w > 16 then invalid_arg "Markov_model: stream width out of [1,16]")
    widths;
  if context_bits < 0 || context_bits > 8 then
    invalid_arg "Markov_model: context_bits out of [0,8]"

module Trainer = struct
  (* [zeros]/[totals] count bits per tree node; [values] counts whole
     stream values per context (slot [tree + v]), which [fold_values]
     turns into node counts. *)
  type t = {
    widths : int array;
    context_bits : int;
    stream_base : int array;
    zeros : int array;
    totals : int array;
    values : int array;
  }

  let create ~widths ~context_bits =
    check_params ~widths ~context_bits;
    let stream_base, size = layout ~widths ~context_bits in
    {
      widths = Array.copy widths;
      context_bits;
      stream_base;
      zeros = Array.make size 0;
      totals = Array.make size 0;
      values = Array.make size 0;
    }

  let tree_offset t ~stream ~ctx = t.stream_base.(stream) + (ctx lsl t.widths.(stream))

  let zeros t = t.zeros

  let totals t = t.totals

  let values t = t.values

  (* A value of a [w]-bit stream is [w] bits down one path of its tree,
     so a node's total is the sum of the value counts beneath it and its
     zeros are its 0-child's total. Summed bottom-up per tree in
     [sub.(node)]; below the last internal level the children are the
     value counts themselves. *)
  let fold_values t =
    let sub = Array.make (1 lsl Array.fold_left max 0 t.widths) 0 in
    iter_trees ~widths:t.widths ~context_bits:t.context_bits t.stream_base (fun tree w ->
        let leaves = 1 lsl w in
        for node = leaves - 1 downto 1 do
          let c0, c1 =
            if 2 * node >= leaves then
              (t.values.(tree + (2 * node) - leaves), t.values.(tree + (2 * node) + 1 - leaves))
            else (sub.(2 * node), sub.((2 * node) + 1))
          in
          sub.(node) <- c0 + c1;
          t.zeros.(tree + node) <- t.zeros.(tree + node) + c0;
          t.totals.(tree + node) <- t.totals.(tree + node) + c0 + c1
        done;
        Array.fill t.values tree leaves 0)

  let note t ~stream ~ctx ~node bit =
    if ctx < 0 || ctx lsr t.context_bits <> 0 || node < 1 || node lsr t.widths.(stream) <> 0 then
      invalid_arg "Markov_model.Trainer.note: position outside the tree";
    let i = tree_offset t ~stream ~ctx + node in
    t.totals.(i) <- t.totals.(i) + 1;
    if bit = 0 then t.zeros.(i) <- t.zeros.(i) + 1

  let finalize ?(quantize = false) ?(prune_below = 0) t =
    fold_values t;
    let flat =
      Array.init (Array.length t.zeros) (fun i ->
          let z = t.zeros.(i) in
          let p = Coder.prob_of_counts ~zeros:z ~ones:(t.totals.(i) - z) in
          if quantize then Coder.quantize_pow2 p else p)
    in
    let retained = Array.make (Array.length flat) false in
    iter_trees ~widths:t.widths ~context_bits:t.context_bits t.stream_base (fun tree w ->
        retained.(tree + 1) <- true;
        for node = 2 to (1 lsl w) - 1 do
          retained.(tree + node) <- t.totals.(tree + node) >= prune_below;
          (* back off: a pruned node inherits its parent's prediction *)
          if not retained.(tree + node) then flat.(tree + node) <- flat.(tree + (node / 2))
        done);
    {
      widths = Array.copy t.widths;
      context_bits = t.context_bits;
      quantized = quantize;
      stream_base = Array.copy t.stream_base;
      flat;
      retained;
    }
end

let widths t = Array.copy t.widths

let context_bits t = t.context_bits

let contexts t = 1 lsl t.context_bits

let quantized t = t.quantized

let tree_offset t ~stream ~ctx = t.stream_base.(stream) + (ctx lsl t.widths.(stream))

let p0 t ~stream ~ctx ~node =
  if ctx < 0 || ctx lsr t.context_bits <> 0 || node < 0 || node lsr t.widths.(stream) <> 0 then
    invalid_arg "Markov_model.p0: position outside the tree";
  t.flat.(tree_offset t ~stream ~ctx + node)

let flat_probs t = t.flat

let probability_count t =
  let per_word = Array.fold_left (fun acc w -> acc + (1 lsl w) - 1) 0 t.widths in
  per_word * contexts t

let retained_count t = Array.fold_left (fun n keep -> if keep then n + 1 else n) 0 t.retained

let pruned t = retained_count t < probability_count t

(* Quantised probabilities are (side, shift): p_lps = scale >> shift with
   side saying whether the 0 symbol is the less probable one. *)
let quantized_code p0 =
  let side = if p0 <= Coder.scale / 2 then 0 else 1 in
  let lps = if side = 0 then p0 else Coder.scale - p0 in
  let rec shift_of k = if Coder.scale lsr k <= lps || k = 15 then k else shift_of (k + 1) in
  (side, shift_of 1)

let of_quantized_code (side, shift) =
  let lps = max 1 (Coder.scale lsr shift) in
  if side = 0 then lps else Coder.scale - lps

let serialize t =
  let w = Bit_writer.create () in
  let is_pruned = pruned t in
  Bit_writer.put_byte w (Array.length t.widths);
  Bit_writer.put_byte w t.context_bits;
  Bit_writer.put_byte w ((if t.quantized then 1 else 0) lor (if is_pruned then 2 else 0));
  Array.iter (fun width -> Bit_writer.put_byte w width) t.widths;
  let put_prob v =
    if t.quantized then begin
      let side, shift = quantized_code v in
      Bit_writer.put_bit w side;
      Bit_writer.put_bits w ~value:shift ~width:4
    end
    else Bit_writer.put_bits w ~value:v ~width:Coder.scale_bits
  in
  iter_trees ~widths:t.widths ~context_bits:t.context_bits t.stream_base (fun tree width ->
      for node = 1 to (1 lsl width) - 1 do
        let keep = t.retained.(tree + node) in
        (* the root (node 1) is always retained and carries no flag *)
        if is_pruned && node > 1 then Bit_writer.put_bit w (if keep then 1 else 0);
        if keep then put_prob t.flat.(tree + node)
      done);
  Bit_writer.align_byte w;
  Bit_writer.contents w

let deserialize s ~pos =
  let r = Bit_reader.create ~start_bit:(8 * pos) s in
  let n_streams = Bit_reader.get_byte r in
  let context_bits = Bit_reader.get_byte r in
  let flags = Bit_reader.get_byte r in
  let quantized = flags land 1 = 1 in
  let is_pruned = flags land 2 = 2 in
  let widths = Array.init n_streams (fun _ -> Bit_reader.get_byte r) in
  check_params ~widths ~context_bits;
  let get_prob () =
    if quantized then begin
      let side = Bit_reader.get_bit r in
      let shift = Bit_reader.get_bits r 4 in
      of_quantized_code (side, shift)
    end
    else begin
      let v = Bit_reader.get_bits r Coder.scale_bits in
      (* p0 = 0 never leaves the trainer and would break the coder's
         bound >= 1 invariant mid-decode; reject it at the boundary. *)
      if v = 0 then invalid_arg "Markov_model.deserialize: zero probability";
      v
    end
  in
  let stream_base, size = layout ~widths ~context_bits in
  let flat = Array.make size 0 and retained = Array.make size false in
  iter_trees ~widths ~context_bits stream_base (fun tree width ->
      for node = 1 to (1 lsl width) - 1 do
        let keep = (not is_pruned) || node = 1 || Bit_reader.get_bit r = 1 in
        retained.(tree + node) <- keep;
        flat.(tree + node) <- (if keep then get_prob () else flat.(tree + (node / 2)))
      done);
  if Bit_reader.overrun r > 0 then invalid_arg "Markov_model.deserialize: truncated input";
  Bit_reader.align_byte r;
  ({ widths; context_bits; quantized; stream_base; flat; retained }, Bit_reader.pos r / 8)

let storage_bytes t = String.length (serialize t)
