let scale_bits = 12
let scale = 1 lsl scale_bits

let prob_of_counts ~zeros ~ones =
  let total = zeros + ones in
  if total = 0 then scale / 2
  else
    let p = (zeros * scale) + (total / 2) in
    let p = p / total in
    max 1 (min (scale - 1) p)

let quantize_pow2 p0 =
  let p0 = max 1 (min (scale - 1) p0) in
  (* Quantise the less probable symbol's probability to the nearest power
     of 1/2 (in log space), then rebuild p0. *)
  let lps = min p0 (scale - p0) in
  let rec nearest k =
    (* probability 2^-k maps to scale lsr k *)
    if k >= scale_bits then scale_bits
    else
      let hi = scale lsr k and lo = scale lsr (k + 1) in
      if lps >= lo then if hi - lps <= lps - lo then k else k + 1 else nearest (k + 1)
  in
  let k = nearest 1 in
  let q = max 1 (scale lsr k) in
  if p0 <= scale / 2 then q else scale - q

(* Interval bookkeeping shared by encoder and decoder:
   range is kept in [2^16, 2^24]; bound = (range >> scale_bits) * p0 is the
   width of the 0 branch, always in [1, range). *)
let top_value = 1 lsl 24
let renorm_limit = 1 lsl 16

let bound_of ~range ~p0 =
  assert (p0 >= 1 && p0 < scale);
  (range lsr scale_bits) * p0

module Encoder = struct
  type t = {
    mutable low : int; (* < 2^25: 24-bit window plus carry bit *)
    mutable range : int;
    mutable cache : int; (* last byte withheld for possible carry *)
    mutable started : bool; (* cache holds a real byte *)
    mutable pending : int; (* 0xff bytes withheld behind the cache *)
    buf : Buffer.t;
  }

  let create () =
    { low = 0; range = top_value; cache = 0; started = false; pending = 0; buf = Buffer.create 64 }

  (* Return a finished encoder to its initial state, keeping the byte
     buffer's storage — per-domain scratch in the parallel block
     pipeline encodes thousands of blocks through one encoder. *)
  let reset e =
    e.low <- 0;
    e.range <- top_value;
    e.cache <- 0;
    e.started <- false;
    e.pending <- 0;
    Buffer.clear e.buf

  (* Emit the byte leaving the 24-bit window, resolving carries: a carry
     increments the cached byte and turns every pending 0xff into 0x00. *)
  let shift_low e =
    let carry = e.low lsr 24 in
    if carry = 1 || e.low < 0xff0000 then begin
      (* A carry with no byte yet emitted would mean the coded value
         reached 1.0, which the low+range <= 1 invariant forbids. *)
      assert (carry = 0 || e.started);
      if e.started then Buffer.add_char e.buf (Char.chr ((e.cache + carry) land 0xff));
      let filler = (0xff + carry) land 0xff in
      for _ = 1 to e.pending do
        Buffer.add_char e.buf (Char.chr filler)
      done;
      e.pending <- 0;
      e.cache <- (e.low lsr 16) land 0xff;
      e.started <- true
    end
    else e.pending <- e.pending + 1;
    e.low <- (e.low land 0xffff) lsl 8

  let encode e ~p0 bit =
    let bound = bound_of ~range:e.range ~p0 in
    (match bit with
    | 0 -> e.range <- bound
    | 1 ->
      e.low <- e.low + bound;
      e.range <- e.range - bound
    | _ -> invalid_arg "Binary_coder.encode: bit must be 0 or 1");
    while e.range < renorm_limit do
      shift_low e;
      e.range <- e.range lsl 8
    done

  (* The stream loop of [encode_tree], one bit per tail call with the
     interval in arguments. Renormalisation is a tail call into
     [renormalize_then], so the common path makes no call and keeps its
     state in registers. *)
  let rec encode_bits e probs tree node k value low range =
    if k < 0 then begin
      e.low <- low;
      e.range <- range;
      node
    end
    else begin
      let bit = (value lsr k) land 1 in
      let p0 = probs.(tree + node) in
      if p0 < 1 || p0 >= scale then
        raise (Invalid_argument "Binary_coder.encode_tree: p0 outside [1, scale)");
      let bound = (range lsr scale_bits) * p0 in
      let mask = -bit in
      let low = low + (bound land mask) in
      let range = bound + ((range - bound - bound) land mask) in
      if range >= renorm_limit then encode_bits e probs tree ((2 * node) + bit) (k - 1) value low range
      else renormalize_then e probs tree ((2 * node) + bit) (k - 1) value low range
    end

  and renormalize_then e probs tree node k value low range =
    e.low <- low;
    e.range <- range;
    while e.range < renorm_limit do
      shift_low e;
      e.range <- e.range lsl 8
    done;
    encode_bits e probs tree node k value e.low e.range

  (* The encode mirror of [Decoder.decode_tree]: code [value]'s [width]
     bits MSB-first down one prediction tree. The bit selects the
     interval half through an all-ones/all-zeros mask instead of a
     branch. *)
  let encode_tree e probs ~tree ~width value = encode_bits e probs tree 1 (width - 1) value e.low e.range

  let finish e =
    (* Choose the value in [low, low+range) with the most trailing zero
       bits; its trailing zero bytes need not be stored because the decoder
       reads zeros past end of input. *)
    let hi = e.low + e.range - 1 in
    let rec choose k =
      if k = 0 then e.low
      else
        let mask = (1 lsl k) - 1 in
        let v = (e.low + mask) land lnot mask in
        if v <= hi then v else choose (k - 1)
    in
    e.low <- choose 24;
    for _ = 1 to 3 do
      shift_low e
    done;
    (* Drain what renormalisation left behind; no more carries can occur. *)
    if e.started then Buffer.add_char e.buf (Char.chr e.cache);
    for _ = 1 to e.pending do
      Buffer.add_char e.buf '\xff'
    done;
    let n = ref (Buffer.length e.buf) in
    while !n > 0 && Buffer.nth e.buf (!n - 1) = '\x00' do
      decr n
    done;
    Buffer.sub e.buf 0 !n
end

module Decoder = struct
  type t = {
    mutable data : string;
    mutable pos : int;
    mutable code : int; (* 24-bit window of the encoded value *)
    mutable range : int;
  }

  let[@inline] next_byte d =
    let b = if d.pos < String.length d.data then Char.code d.data.[d.pos] else 0 in
    d.pos <- d.pos + 1;
    b

  let prime d =
    for _ = 1 to 3 do
      d.code <- (d.code lsl 8) lor next_byte d
    done

  let create ?(pos = 0) data =
    let d = { data; pos; code = 0; range = top_value } in
    prime d;
    d

  let reset d data =
    d.data <- data;
    d.pos <- 0;
    d.code <- 0;
    d.range <- top_value;
    prime d

  let decode d ~p0 =
    let bound = bound_of ~range:d.range ~p0 in
    let bit =
      if d.code < bound then begin
        d.range <- bound;
        0
      end
      else begin
        d.code <- d.code - bound;
        d.range <- d.range - bound;
        1
      end
    in
    while d.range < renorm_limit do
      d.code <- ((d.code lsl 8) lor next_byte d) land 0xffffff;
      d.range <- d.range lsl 8
    done;
    bit

  (* Batched heap descent: decode [width] bits in one call, reading each
     bit's p0 from [probs.(tree + node)] as the node walks the implicit
     heap from 1. Keeping the interval registers in locals for the whole
     descent (instead of a field round-trip per bit, which a non-flambda
     build will not optimise away) is what makes the SAMC word loop
     decode-bound rather than call-bound. The bit is the sign of
     [code - bound], not a comparison: [m0] is all ones when the bit is
     0 and all zeros when it is 1, and the interval, the next prediction
     (selected from both children) and the node all update through it,
     so the serial chain per bit has no compare, no flag-to-int and no
     branch on the bit. [code] and [bound] are below 2^24, so the
     difference's sign is bit 62 of a native int. *)
  let decode_tree d probs ~tree ~width =
    let data = d.data in
    let len = String.length data in
    let code = ref d.code in
    let range = ref d.range in
    let pos = ref d.pos in
    let node = ref 1 in
    let p0 = ref (if width > 0 then Array.unsafe_get probs (tree + 1) else 0) in
    for k = 1 to width do
      let child = tree + (2 * !node) in
      let bound = (!range lsr scale_bits) * !p0 in
      let diff = !code - bound in
      let m0 = diff asr 62 in
      code := diff + (bound land m0);
      let rest = !range - bound in
      range := rest + ((bound - rest) land m0);
      if k < width then begin
        let left = Array.unsafe_get probs child in
        let right = Array.unsafe_get probs (child + 1) in
        p0 := right + ((left - right) land m0)
      end;
      while !range < renorm_limit do
        let b = if !pos < len then Char.code (String.unsafe_get data !pos) else 0 in
        incr pos;
        code := ((!code lsl 8) lor b) land 0xffffff;
        range := !range lsl 8
      done;
      node := (2 * !node) + 1 + m0
    done;
    d.code <- !code;
    d.range <- !range;
    d.pos <- !pos;
    !node

  (* SAMC's word loop on two blocks at once: every descent of block
     [a] runs in the same loop iteration as the matching descent of
     block [b], with each lane's interval, context, node and prediction
     in locals, so the two serial chains of {!decode_tree} overlap in the
     pipeline. Each lane's step is [decode_tree]'s. The input position
     stays in the record: a lane renormalises about once per byte it
     decodes, and holding it in a local measured no faster. *)
  let decode_words2 a b probs ~bases ~widths ~shifts ~ctx_mask ~word_bytes out ~pos_a ~pos_b
      ~n_words =
    let code_a = ref a.code and code_b = ref b.code in
    let range_a = ref a.range and range_b = ref b.range in
    let ctx_a = ref 0 and ctx_b = ref 0 in
    for wi = 0 to n_words - 1 do
      let word_a = ref 0 and word_b = ref 0 in
      for s = 0 to Array.length widths - 1 do
        let w = Array.unsafe_get widths s in
        let base = Array.unsafe_get bases s in
        let tree_a = base + (!ctx_a lsl w) and tree_b = base + (!ctx_b lsl w) in
        let node_a = ref 1 and node_b = ref 1 in
        let p0_a = ref (Array.unsafe_get probs (tree_a + 1)) in
        let p0_b = ref (Array.unsafe_get probs (tree_b + 1)) in
        let leaves = 1 lsl w in
        while !node_a < leaves do
          let last = 2 * !node_a >= leaves in
          let child_a = tree_a + (2 * !node_a) in
          let bound_a = (!range_a lsr scale_bits) * !p0_a in
          let diff_a = !code_a - bound_a in
          let m0_a = diff_a asr 62 in
          code_a := diff_a + (bound_a land m0_a);
          let rest_a = !range_a - bound_a in
          range_a := rest_a + ((bound_a - rest_a) land m0_a);
          node_a := (2 * !node_a) + 1 + m0_a;
          if not last then begin
            let left = Array.unsafe_get probs child_a in
            let right = Array.unsafe_get probs (child_a + 1) in
            p0_a := right + ((left - right) land m0_a)
          end;
          let child_b = tree_b + (2 * !node_b) in
          let bound_b = (!range_b lsr scale_bits) * !p0_b in
          let diff_b = !code_b - bound_b in
          let m0_b = diff_b asr 62 in
          code_b := diff_b + (bound_b land m0_b);
          let rest_b = !range_b - bound_b in
          range_b := rest_b + ((bound_b - rest_b) land m0_b);
          node_b := (2 * !node_b) + 1 + m0_b;
          if not last then begin
            let left = Array.unsafe_get probs child_b in
            let right = Array.unsafe_get probs (child_b + 1) in
            p0_b := right + ((left - right) land m0_b)
          end;
          while !range_a < renorm_limit do
            code_a := ((!code_a lsl 8) lor next_byte a) land 0xffffff;
            range_a := !range_a lsl 8
          done;
          while !range_b < renorm_limit do
            code_b := ((!code_b lsl 8) lor next_byte b) land 0xffffff;
            range_b := !range_b lsl 8
          done
        done;
        let value_a = !node_a - leaves and value_b = !node_b - leaves in
        let shift = Array.unsafe_get shifts s in
        word_a := !word_a lor (value_a lsl shift);
        word_b := !word_b lor (value_b lsl shift);
        ctx_a := value_a land ctx_mask;
        ctx_b := value_b land ctx_mask
      done;
      let word_a = !word_a and word_b = !word_b in
      let at_a = pos_a + (wi * word_bytes) and at_b = pos_b + (wi * word_bytes) in
      for j = 0 to word_bytes - 1 do
        let shift = 8 * (word_bytes - 1 - j) in
        Bytes.set out (at_a + j) (Char.unsafe_chr ((word_a lsr shift) land 0xff));
        Bytes.set out (at_b + j) (Char.unsafe_chr ((word_b lsr shift) land 0xff))
      done
    done;
    a.code <- !code_a;
    a.range <- !range_a;
    b.code <- !code_b;
    b.range <- !range_b

  let consumed_bytes d = min d.pos (String.length d.data)
end
