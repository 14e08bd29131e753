module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader

(* First-level decode LUT: at most this many leading bits index directly
   into a table of (symbol, length) pairs; longer codes fall back to the
   canonical tree walk. 2^11 entries bounds the table at 16 KiB per code
   while covering every codeword [build] emits at its default
   [max_length] of 15 minus the rare tail. *)
let lut_bits_limit = 11

type code = {
  lengths : int array; (* per-symbol code length, 0 = absent *)
  codewords : int array; (* canonical codeword, valid when lengths.(s) > 0 *)
  max_len : int;
  (* Canonical decode tables, indexed by code length 1..max_len. *)
  first_code : int array; (* first canonical codeword of that length *)
  first_index : int array; (* index into [ordered] of that length's first symbol *)
  count_len : int array; (* number of codewords of that length *)
  ordered : int array; (* symbols sorted by (length, symbol) *)
  lut_bits : int;
  (* lut.(prefix) = (sym lsl 5) lor len for codes of len <= lut_bits whose
     bits open [prefix]; 0 = no codeword that short here (fall back). *)
  lut : int array;
}

(* Per-symbol code lengths of a Huffman tree, by the two-queue method:
   the leaves sorted by (count, symbol) in one queue, the merged nodes in
   the order they are made in the other, which is also ascending weight.
   Each merge takes the two lightest fronts, a leaf before a merged node
   of equal weight. Single-symbol alphabets get length 1 so the symbol
   still occupies at least one bit (required for self-delimiting
   blocks). *)
let tree_lengths counts =
  let lengths = Array.make (Array.length counts) 0 in
  let m = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  if m = 0 then invalid_arg "Huffman.build: empty alphabet";
  (* Node [v < m] is leaf [leaf.(v)]; node [m + j] is the [j]-th merge,
     of nodes [kid.(2j)] and [kid.(2j + 1)]. *)
  let leaf = Array.make m 0 in
  let k = ref 0 in
  Array.iteri
    (fun sym c ->
      if c > 0 then begin
        leaf.(!k) <- sym;
        incr k
      end)
    counts;
  Array.stable_sort (fun a b -> Int.compare counts.(a) counts.(b)) leaf;
  if m = 1 then lengths.(leaf.(0)) <- 1
  else begin
    let weight = Array.make ((2 * m) - 1) 0 and kid = Array.make (2 * (m - 1)) 0 in
    Array.iteri (fun v sym -> weight.(v) <- counts.(sym)) leaf;
    let next_leaf = ref 0 and next_merged = ref m in
    for j = 0 to m - 2 do
      for c = 0 to 1 do
        let v =
          if !next_leaf < m && (!next_merged = m + j || weight.(!next_leaf) <= weight.(!next_merged))
          then begin
            incr next_leaf;
            !next_leaf - 1
          end
          else begin
            incr next_merged;
            !next_merged - 1
          end
        in
        kid.((2 * j) + c) <- v;
        weight.(m + j) <- weight.(m + j) + weight.(v)
      done
    done;
    (* Depths from the root (the last merge) down, over the merges'
       weights, which are spent: a merge precedes every merge that takes
       it. *)
    let depth = weight in
    depth.((2 * m) - 2) <- 0;
    for j = m - 2 downto 0 do
      let d = depth.(m + j) + 1 in
      for c = 0 to 1 do
        let v = kid.((2 * j) + c) in
        if v < m then lengths.(leaf.(v)) <- d else depth.(v) <- d
      done
    done
  end;
  lengths

let max_array a = Array.fold_left max 0 a

(* 2^max_len times the Kraft sum of a code with [count_len.(l)]
   codewords of each length [l]. *)
let kraft_sum count_len max_len =
  let kraft = ref 0 in
  for l = 1 to max_len do
    kraft := !kraft + (count_len.(l) lsl (max_len - l))
  done;
  !kraft

(* Canonical code and decode tables from a length table, which the code
   keeps: callers pass a table nobody else holds. *)
let canonicalize lengths =
  let n = Array.length lengths in
  let max_len = max_array lengths in
  if max_len = 0 then invalid_arg "Huffman.of_lengths: empty alphabet";
  if max_len > 30 then invalid_arg "Huffman.of_lengths: codeword too long";
  let count_len = Array.make (max_len + 1) 0 in
  for sym = 0 to n - 1 do
    let l = lengths.(sym) in
    if l > 0 then count_len.(l) <- count_len.(l) + 1
  done;
  if kraft_sum count_len max_len > 1 lsl max_len then
    invalid_arg "Huffman.of_lengths: not a prefix code";
  let first_code = Array.make (max_len + 1) 0 in
  let first_index = Array.make (max_len + 1) 0 in
  let next_index = Array.make (max_len + 1) 0 in
  let code = ref 0 and index = ref 0 in
  for l = 1 to max_len do
    first_code.(l) <- !code;
    first_index.(l) <- !index;
    next_index.(l) <- !index;
    code := (!code + count_len.(l)) lsl 1;
    index := !index + count_len.(l)
  done;
  let ordered = Array.make !index 0 in
  for sym = 0 to n - 1 do
    let l = lengths.(sym) in
    if l > 0 then begin
      ordered.(next_index.(l)) <- sym;
      next_index.(l) <- next_index.(l) + 1
    end
  done;
  (* In (length, symbol) order the codewords count up from zero within
     a length, so the codewords of length l <= lut_bits own consecutive
     runs of 2^(lut_bits - l) table slots from slot 0 (the Kraft check
     keeps them inside the table), and the slots past the last run
     stay 0. *)
  let codewords = Array.make n 0 in
  let lut_bits = min max_len lut_bits_limit in
  let lut = Array.make (1 lsl lut_bits) 0 in
  let slot = ref 0 in
  for i = 0 to Array.length ordered - 1 do
    let sym = ordered.(i) in
    let l = lengths.(sym) in
    codewords.(sym) <- first_code.(l) + i - first_index.(l);
    if l <= lut_bits then begin
      let packed = (sym lsl 5) lor l in
      for k = !slot to !slot + (1 lsl (lut_bits - l)) - 1 do
        Array.unsafe_set lut k packed
      done;
      slot := !slot + (1 lsl (lut_bits - l))
    end
  done;
  { lengths; codewords; max_len; first_code; first_index; count_len; ordered; lut_bits; lut }

let of_lengths lengths = canonicalize (Array.copy lengths)

let build ?(max_length = 15) freq =
  let counts = ref (Freq.counts freq) in
  let lengths = ref (tree_lengths !counts) in
  (* Flatten frequencies until the longest codeword fits; each halving at
     least halves the depth spread, so this terminates quickly. *)
  while max_array !lengths > max_length do
    counts := Array.map (fun c -> if c = 0 then 0 else (c + 1) / 2) !counts;
    lengths := tree_lengths !counts
  done;
  canonicalize !lengths

let lengths c = Array.copy c.lengths

let code_length c sym = c.lengths.(sym)

let codeword c sym =
  if c.lengths.(sym) = 0 then invalid_arg "Huffman.codeword: absent symbol";
  c.codewords.(sym)

let alphabet_size c = Array.length c.lengths

let encode_symbol c w sym =
  let len = c.lengths.(sym) in
  if len = 0 then invalid_arg "Huffman.encode_symbol: absent symbol";
  Bit_writer.put_bits w ~value:c.codewords.(sym) ~width:len

(* Top level, not a closure over [c] and [r], so it allocates nothing. *)
let rec decode_tree_from c r code len =
  if len > c.max_len then
    Ccomp_util.Decode_error.invalid_code "Huffman.decode_symbol: invalid bit stream"
  else
    let code = (code lsl 1) lor Bit_reader.get_bit r in
    let len = len + 1 in
    let offset = code - c.first_code.(len) in
    if offset >= 0 && offset < c.count_len.(len) then c.ordered.(c.first_index.(len) + offset)
    else decode_tree_from c r code len

let decode_symbol_tree c r = decode_tree_from c r 0 0

(* The canonical walk over a window that holds the bits it needs: the
   prefix of each length in turn, as [decode_tree_from] reads them. Top
   level, so it allocates nothing. *)
let rec decode_window_from c window len =
  if len > c.max_len then
    Ccomp_util.Decode_error.invalid_code "Huffman.decode_symbol: invalid bit stream"
  else
    let offset = (window lsr (c.max_len - len)) - c.first_code.(len) in
    if offset >= 0 && offset < c.count_len.(len) then
      (c.ordered.(c.first_index.(len) + offset) lsl 5) lor len
    else decode_window_from c window (len + 1)

let decode_window c window = decode_window_from c window 1

let decode_symbol c r =
  let e = c.lut.(Bit_reader.peek_bits r c.lut_bits) in
  if e <> 0 then begin
    Bit_reader.skip_bits r (e land 31);
    e lsr 5
  end
  else decode_symbol_tree c r

let lut_bits c = c.lut_bits

let lut c = c.lut

let max_length c = c.max_len

let encoded_bits c freq =
  let bits = ref 0 in
  Freq.iter_nonzero freq (fun sym count ->
      if c.lengths.(sym) = 0 then invalid_arg "Huffman.encoded_bits: absent symbol";
      bits := !bits + (count * c.lengths.(sym)));
  !bits

(* Length tables are run-length coded — sparse alphabets (LZSS's 286
   literals, SADC's immediate bytes) are mostly zero, so (count, length)
   pairs cost a fraction of a flat table, much as DEFLATE compresses its
   own code lengths. *)
let serialize_lengths c =
  let n = Array.length c.lengths in
  assert (n < 65536);
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr (n lsr 8));
  Buffer.add_char b (Char.chr (n land 0xff));
  let emit_run count len =
    (* count is 1..256, stored as count-1 *)
    Buffer.add_char b (Char.chr (count - 1));
    Buffer.add_char b (Char.chr len)
  in
  let i = ref 0 in
  while !i < n do
    let len = c.lengths.(!i) in
    let j = ref !i in
    while !j < n && c.lengths.(!j) = len && !j - !i < 256 do
      incr j
    done;
    emit_run (!j - !i) len;
    i := !j
  done;
  Buffer.contents b

let deserialize_lengths s ~pos =
  if pos + 2 > String.length s then invalid_arg "Huffman.deserialize_lengths: truncated";
  let n = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1] in
  let lengths = Array.make n 0 in
  let p = ref (pos + 2) in
  let filled = ref 0 in
  while !filled < n do
    if !p + 2 > String.length s then invalid_arg "Huffman.deserialize_lengths: truncated";
    let count = Char.code s.[!p] + 1 in
    let len = Char.code s.[!p + 1] in
    p := !p + 2;
    if !filled + count > n then invalid_arg "Huffman.deserialize_lengths: run overflows alphabet";
    for k = !filled to !filled + count - 1 do
      lengths.(k) <- len
    done;
    filled := !filled + count
  done;
  let code = canonicalize lengths in
  (* Canonicalize rejects over-full tables (Kraft sum > 1); a stored table
     must additionally not be deficient (Kraft sum < 1), or some bit
     patterns decode to nothing and corruption can slip through as a late
     [Invalid_code]. The only legitimate deficient table is the degenerate
     single-symbol code of length 1, which [build] emits for one-symbol
     alphabets. *)
  if
    (not (Array.length code.ordered = 1 && code.max_len = 1))
    && kraft_sum code.count_len code.max_len < 1 lsl code.max_len
  then invalid_arg "Huffman.deserialize_lengths: incomplete code";
  (code, !p)
