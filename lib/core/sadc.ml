module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader
module Obs = Ccomp_obs.Obs

(* Observability, shared by every ISA instantiation (the fuzz campaign
   runs several in one process): the per-block family
   ([Blocks.metrics]). Guarded by [Obs.metrics_enabled]; never alters
   coded bits. *)
let m_compress = Ccomp_par.Blocks.metrics "sadc.compress"

let m_decompress = Ccomp_par.Blocks.metrics "sadc.decompress"

type config = { block_size : int; max_entries : int; max_rounds : int }

let default_config ?(block_size = 32) ?(max_entries = 256) ?(max_rounds = 512) () =
  { block_size; max_entries; max_rounds }

let validate_config c =
  if c.block_size < 1 || c.block_size > 65535 then
    Error "block_size must be in 1..65535 (a u16 header field)"
  else Ok ()

type dict_stats = {
  entries : int;
  base_entries : int;
  group_entries : int;
  specialized_entries : int;
  longest_group : int;
  rounds : int;
}

(* [n] ints from [src.(so)] to [dst.(d)]: typed int stores, where
   [Array.blit] into a major-heap array takes the write barrier per
   element. *)
let copy_ints (src : int array) so (dst : int array) d n =
  for k = 0 to n - 1 do
    dst.(d + k) <- src.(so + k)
  done

(* Ints kept in [Bytes], eight bytes each: the GC neither initialises
   nor scans their contents, where an [int array] is filled on
   allocation and marked word by word while it lives. The dictionary
   build keeps its largest tables here. *)
module Ints = struct
  type t = Bytes.t

  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

  external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

  external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  (* [n] ints of unspecified value. *)
  let create n = Bytes.create (8 * n)

  let zeros n = Bytes.make (8 * n) '\000'

  let length t = Bytes.length t / 8

  let get t i = Int64.to_int (get64 t (8 * i))

  let set t i v = set64 t (8 * i) (Int64.of_int v)

  let unsafe_get t i = Int64.to_int (unsafe_get64 t (8 * i))

  let unsafe_set t i v = unsafe_set64 t (8 * i) (Int64.of_int v)

  (* The first [n] ints of [t] in a table of [m]. *)
  let resize t n m =
    let t' = create m in
    Bytes.blit t 0 t' 0 (8 * n);
    t'
end

(* [a]'s first [n] elements in an array twice as long. *)
let grow_ints a n =
  let b = Array.make (2 * Array.length a) 0 in
  copy_ints a 0 b 0 n;
  b

module Make (I : Sadc_isa.S) = struct
  type primitive = { sym : int; fixed : (int * int * int) list }

  type entry = { prims : primitive array }

  type compressed = {
    config : config;
    dict : entry array;
    token_code : Huffman.code;
    chunk_codes : Huffman.code option array array;
        (* per stream, per distinct chunk width (see [stream_widths]) *)
    blocks : string array;  (** per-block payloads *)
    sizes : int array;  (** per-block original bytes *)
    original_size : int;
    rounds : int;
  }

  (* Items wider than a byte are Huffman coded as chunks: a leading
     partial-byte chunk followed by whole bytes, each chunk position with
     its own code (16-bit immediates -> hi/lo byte alphabets, 26-bit jump
     targets -> 2+8+8+8). *)
  let chunk_widths bits =
    if bits <= 8 then [ bits ]
    else
      let r = bits mod 8 in
      (if r = 0 then [] else [ r ]) @ List.init (bits / 8) (fun _ -> 8)

  let stream_chunks = Array.map chunk_widths I.stream_bits

  (* One Huffman code per (stream, chunk width), as the paper Huffman-codes
     whole streams: all 8-bit chunks of a stream share one alphabet. *)
  let stream_widths = Array.map (List.sort_uniq compare) stream_chunks

  let width_index s w =
    let rec go i = function
      | [] -> invalid_arg "Sadc: unknown chunk width"
      | w' :: _ when w' = w -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 stream_widths.(s)

  (* The encoder's alphabets are numbered: 0 for tokens, then one per
     (stream, chunk width) in stream order. Chunk [k] of an item [v] of
     stream [s] is [(v lsr chunk_shift.(s).(k)) land chunk_mask.(s).(k)],
     coded in alphabet [chunk_alpha.(s).(k)]; chunks run most
     significant first. *)
  let alpha_base =
    let next = ref 1 in
    Array.map
      (fun widths ->
        let a = !next in
        next := a + List.length widths;
        a)
      stream_widths

  let alphabet_count = Array.fold_left (fun acc ws -> acc + List.length ws) 1 stream_widths

  let alpha_width =
    let w = Array.make alphabet_count 0 in
    Array.iteri
      (fun s ws -> List.iteri (fun wi x -> w.(alpha_base.(s) + wi) <- x) ws)
      stream_widths;
    w

  let chunk_shift =
    Array.map
      (fun widths ->
        let rest = ref (List.fold_left ( + ) 0 widths) in
        Array.of_list
          (List.map
             (fun w ->
               rest := !rest - w;
               !rest)
             widths))
      stream_chunks

  let chunk_mask =
    Array.map (fun ws -> Array.of_list (List.map (fun w -> (1 lsl w) - 1) ws)) stream_chunks

  let chunk_alpha =
    Array.mapi
      (fun s ws -> Array.of_list (List.map (fun w -> alpha_base.(s) + width_index s w) ws))
      stream_chunks

  (* --- the program as flat arrays ------------------------------------ *)

  (* Everything the compressor reads of the program, as [I.parse]
     decodes it (see {!Sadc_isa.program}). *)
  type program = Sadc_isa.program = {
    syms : int array;
    boff : int array;
    items : int array;
    ioff : int array;
  }

  (* --- segmentation ------------------------------------------------- *)

  (* Greedy instruction-aligned packing into cache blocks; fixed-width
     ISAs fill each block exactly, variable-length ones approximate the
     cache line without splitting an instruction (DESIGN.md §2). Block
     [b] holds instructions [seg.(b)] to [seg.(b + 1) - 1]. *)
  let segments boff block_size =
    let n = Array.length boff - 1 in
    let seg = Array.make (n + 1) 0 in
    let nb = ref 0 in
    let start = ref 0 in
    for i = 0 to n - 1 do
      if boff.(i) > boff.(!start) && boff.(i + 1) - boff.(!start) > block_size then begin
        seg.(!nb) <- !start;
        incr nb;
        start := i
      end
    done;
    if !start < n then begin
      seg.(!nb) <- !start;
      incr nb
    end;
    seg.(!nb) <- n;
    Array.sub seg 0 (!nb + 1)

  (* --- dictionary construction --------------------------------------- *)

  (* A token is one packed int: its dictionary entry in the low
     [entry_bits] bits and the index of its first instruction above. It
     covers as many instructions as its entry has primitives. *)
  let entry_bits = 20

  let entry_mask = (1 lsl entry_bits) - 1

  let tok_entry t = t land entry_mask

  let tok_start t = t lsr entry_bits

  let with_entry t e = (t land lnot entry_mask) lor e

  (* The dictionary under construction and the program's tokenisation.
     Block [b]'s tokens are [tok.(seg.(b))] to [tok.(seg.(b) + blen.(b)
     - 1)]: reparsing only ever merges tokens, so a block's tokens stay a
     prefix of its own instruction range and are rewritten in place.
     [cost.(e)] is entry [e]'s primitive count. *)
  type builder = {
    prog : program;
    seg : int array;
    tok : int array;
    blen : int array;
    mutable dict_entries : entry array;
    mutable cost : int array;
    mutable dict_n : int;
  }

  let push bld e =
    let id = bld.dict_n in
    if id = Array.length bld.dict_entries then begin
      let grown = Array.make (max 16 (2 * id)) e in
      Array.blit bld.dict_entries 0 grown 0 id;
      bld.dict_entries <- grown;
      bld.cost <- grow_ints bld.cost id
    end;
    bld.dict_entries.(id) <- e;
    bld.cost.(id) <- Array.length e.prims;
    bld.dict_n <- id + 1;
    id

  (* Base dictionary (one entry per opcode symbol present, in order of
     first appearance, §4.1 step 2) and the base tokenization, one token
     per instruction; shared by both builders. *)
  let builder prog seg =
    let n = Array.length prog.syms in
    let nblocks = Array.length seg - 1 in
    let bld =
      {
        prog;
        seg;
        tok = Array.make n 0;
        blen = Array.init nblocks (fun b -> seg.(b + 1) - seg.(b));
        dict_entries = [||];
        cost = Array.make 8 0;
        dict_n = 0;
      }
    in
    let base_id = Array.make I.base_symbols (-1) in
    for i = 0 to n - 1 do
      let sym = prog.syms.(i) in
      if base_id.(sym) < 0 then base_id.(sym) <- push bld { prims = [| { sym; fixed = [] } |] };
      bld.tok.(i) <- (i lsl entry_bits) lor base_id.(sym)
    done;
    bld

  (* Items of block [b]'s instructions. *)
  let block_items bld b = bld.prog.ioff.(bld.seg.(b + 1)) - bld.prog.ioff.(bld.seg.(b))

  type cand =
    | Pair of int * int
    | Triple of int * int * int
    | Spec of int * int * int * int (* entry, stream, pull position, value *)

  (* Candidates are hashed as packed integers: entry ids fit 20 bits,
     stream/position a few, operand values at most 26 bits. *)
  let key_pair a b = (1 lsl 60) lor (a lsl 20) lor b

  let key_triple a b c = (2 lsl 60) lor (a lsl 40) lor (b lsl 20) lor c

  (* The specialisation of entry [e] to a packed item, whose stream,
     position and value fill bits 0-39. *)
  let key_item e it = (3 lsl 60) lor (e lsl 40) lor it

  let cand_of_key key =
    let field off width = (key lsr off) land ((1 lsl width) - 1) in
    match key lsr 60 with
    | 1 -> Pair (field 20 20, field 0 20)
    | 2 -> Triple (field 40 20, field 20 20, field 0 20)
    | 3 -> Spec (field 40 20, field 36 4, field 30 6, field 0 30)
    | _ -> assert false

  (* Tokens one occurrence of the candidate replaces. *)
  let cand_width = function Pair _ -> 2 | Triple _ -> 3 | Spec _ -> 1

  let rec is_fixed fixed s p =
    match fixed with
    | [] -> false
    | (s', p', _) :: tl -> (s' = s && p' = p) || is_fixed tl s p

  (* Last counted end index per n-gram key within one block: a tiny
     generation-stamped open-addressing map, reset O(1) per block by
     bumping the generation — a block holds at most [block_size] tokens,
     so the per-window bookkeeping must not allocate. Slots from older
     generations read as empty. *)
  type last_end = {
    mutable le_key : int array;
    mutable le_end : int array;
    mutable le_gen : int array;
    mutable le_cap : int;
    mutable le_g : int;
  }

  let le_create () =
    {
      le_key = Array.make 256 0;
      le_end = Array.make 256 0;
      le_gen = Array.make 256 (-1);
      le_cap = 256;
      le_g = 0;
    }

  (* Start a block of [n] tokens. *)
  let le_reset le n =
    if 4 * n > le.le_cap then begin
      let c = ref le.le_cap in
      while 4 * n > !c do
        c := !c * 2
      done;
      le.le_key <- Array.make !c 0;
      le.le_end <- Array.make !c 0;
      le.le_gen <- Array.make !c (-1);
      le.le_cap <- !c
    end;
    le.le_g <- le.le_g + 1

  (* Does the occurrence of n-gram [key] over tokens [first..last] count,
     i.e. not overlap the last counted one? Records it if so. *)
  let le_counts le key first last =
    let g = le.le_g and mask = le.le_cap - 1 in
    let h = key * 0x9E3779B97F4A7C1 in
    let i = ref ((h lxor (h lsr 31)) land mask) in
    while le.le_gen.(!i) = g && le.le_key.(!i) <> key do
      i := (!i + 1) land mask
    done;
    if le.le_gen.(!i) <> g || le.le_end.(!i) < first then begin
      le.le_key.(!i) <- key;
      le.le_end.(!i) <- last;
      le.le_gen.(!i) <- g;
      true
    end
    else false

  (* Candidate counts: one flat open-addressing table over packed keys.
     Slot [i] is three adjacent ints:
     - [slots.(3i)]: the key (packed keys are nonzero, so 0 marks an
       empty slot);
     - [slots.(3i+1)]: the count in the low 32 bits; then [hot_bit], set
       while the count has risen since the last queue refresh, or fallen
       while the key is queued; then, from bit 33, the key's position in
       the gain queue plus one (0 when not queued);
     - [slots.(3i+2)]: the head of the key's occurrence list plus one (0
       for none) in the low 32 bits, and the head's block above them.
     Keys are never removed, so a slot index stays valid until the table
     grows, and every window of the tokenisation has its slot recorded
     beside its first token: [pslot.(t)] for the pair and [tslot.(t)]
     for the triple starting at token [t], and [islot.(q)] for the
     specialisation of item [q] while a one-primitive token covers its
     instruction and does not absorb it (-1 otherwise). A count falls by
     index, without a probe.
     The occurrence lists run through the node pool [occ], one int per
     node: the next node plus one in the low 32 bits (0 ends a list;
     lists run newest first) and the block above them. They name the
     blocks that contributed to the key when last counted. They are
     append-only and allowed to go stale: the reparse scan re-validates
     a block before any count changes. [touched] lists the hot slots.
     The gain queue [queue] is a binary max-heap of (gain, key, slot)
     triples, three ints each, ordered by larger gain and then smaller
     key: every key whose gain at its count reaches [floor], at that
     gain. Keys below the floor wait in the table; when the queue runs
     dry, one pass over the candidates lowers the floor. [least] is the
     smallest count at which any key's gain can reach the floor: a
     rising count turns a slot hot only from there. Until the first such
     pass ([floor = max_int]) no slot is hot. *)
  type counts = {
    mutable cap : int;
    mutable slots : Ints.t;
    mutable size : int;
    pslot : Ints.t;
    tslot : Ints.t;
    islot : Ints.t;
    mutable occ : Ints.t;
    mutable nocc : int;
    mutable touched : int array;
    mutable ntouched : int;
    mutable queue : int array;
    mutable qsize : int;
    mutable floor : int;
    mutable least : int;
    mutable live : int array;
    mutable nlive : int;
    mutable fresh : int array;
    mutable nfresh : int;
  }

  let low32 = (1 lsl 32) - 1

  let hot_bit = 1 lsl 32

  let key_at c i = Ints.get c.slots (3 * i)

  let count_at c i = Ints.get c.slots ((3 * i) + 1) land low32

  (* Slot [i]'s position in the queue, or -1. *)
  let qpos_at c i = (Ints.get c.slots ((3 * i) + 1) lsr 33) - 1

  let set_qpos c i pos =
    let w = Ints.get c.slots ((3 * i) + 1) in
    Ints.set c.slots ((3 * i) + 1) ((w land (low32 lor hot_bit)) lor ((pos + 1) lsl 33))

  (* On the generated suites a build ends with about 1.5 distinct keys
     per token (pairs, triples and specialisations) plus a few thousand
     that its rounds create, at most [max_entries] rounds of new windows
     and specialisations: 1.6-4.8 keys per token in all, the most on the
     smallest programs. It appends 6.8-9.0 occurrence nodes per token.
     So the table starts at two slots per token and 32 per entry, and
     doubles past 75% load; the pool starts at nine nodes per token and
     grows by half. Neither is rounded up to a power of two: the table
     and the pool are the largest blocks a build allocates. *)
  let counts_create config prog =
    let tokens = Array.length prog.syms in
    let cap = (2 * tokens) + (32 * max 8 config.max_entries) in
    {
      cap;
      slots = Ints.zeros (3 * cap);
      size = 0;
      pslot = Ints.create tokens;
      tslot = Ints.create tokens;
      islot = Ints.create prog.ioff.(tokens);
      occ = Ints.create (max 256 (9 * tokens));
      nocc = 0;
      touched = Array.make 256 0;
      ntouched = 0;
      queue = Array.make 768 0;
      qsize = 0;
      floor = max_int;
      least = max_int;
      live = Array.make 1024 0;
      nlive = 0;
      fresh = Array.make (max 256 tokens) 0;
      nfresh = 0;
    }

  (* [key]'s slot, or the empty slot where it would go: linear probing
     from the top 31 bits of a multiplicative hash scaled to [cap] (cap
     stays under 2^31). Slots are provably in [0, cap): unsafe accesses
     avoid bounds checks on the hottest loop of the build. *)
  let probe c key =
    let h = (key * 0x9E3779B97F4A7C1) land max_int in
    let slots = c.slots and cap = c.cap in
    let i = ref (((h lsr 31) * cap) lsr 31) in
    while
      let k = Ints.unsafe_get slots (!i * 3) in
      k <> 0 && k <> key
    do
      incr i;
      if !i = cap then i := 0
    done;
    !i

  (* Double the table and move every recorded slot index with its key:
     the windows of [bld]'s blocks, every item's, the hot slots', the
     queue's and the rebuild candidates'. *)
  let grow bld c =
    let oslots = c.slots and ocap = c.cap in
    c.cap <- ocap * 2;
    c.slots <- Ints.zeros (3 * c.cap);
    let moved = Array.make ocap 0 in
    for i = 0 to ocap - 1 do
      let key = Ints.get oslots (i * 3) in
      if key <> 0 then begin
        let j = probe c key in
        for w = 0 to 2 do
          Ints.set c.slots ((j * 3) + w) (Ints.get oslots ((i * 3) + w))
        done;
        moved.(i) <- j
      end
    done;
    let remap t lo hi =
      for x = lo to hi - 1 do
        let k = Ints.get t x in
        if k >= 0 then Ints.set t x moved.(k)
      done
    in
    for b = 0 to Array.length bld.blen - 1 do
      let off = bld.seg.(b) in
      remap c.pslot off (off + bld.blen.(b) - 1);
      remap c.tslot off (off + bld.blen.(b) - 2)
    done;
    remap c.islot 0 (Ints.length c.islot);
    for x = 0 to c.ntouched - 1 do
      c.touched.(x) <- moved.(c.touched.(x))
    done;
    for x = 0 to c.qsize - 1 do
      c.queue.((3 * x) + 2) <- moved.(c.queue.((3 * x) + 2))
    done;
    for x = 0 to c.nlive - 1 do
      let v = c.live.(x) in
      c.live.(x) <- v land lnot low32 lor moved.(v land low32)
    done;
    for x = 0 to c.nfresh - 1 do
      c.fresh.(x) <- moved.(c.fresh.(x))
    done

  (* Room for [k] more keys under the 75% load bound. Called where no
     slot index is held outside the table's own arrays. *)
  let reserve bld c k =
    while (c.size + k) * 4 >= c.cap * 3 do
      grow bld c
    done

  (* [key]'s slot, inserted with count 0 if absent and then listed in
     [fresh]. *)
  let insert c key =
    let i = probe c key in
    if Ints.unsafe_get c.slots (i * 3) = 0 then begin
      c.size <- c.size + 1;
      Ints.unsafe_set c.slots (i * 3) key;
      if c.nfresh = Array.length c.fresh then c.fresh <- grow_ints c.fresh c.nfresh;
      c.fresh.(c.nfresh) <- i;
      c.nfresh <- c.nfresh + 1
    end;
    i

  let count_of c key = count_at c (probe c key)

  (* Slot [i], its count word now [w], turns hot and joins [touched]. *)
  let touch c i w =
    Ints.unsafe_set c.slots ((i * 3) + 1) (w lor hot_bit);
    if c.ntouched = Array.length c.touched then c.touched <- grow_ints c.touched c.ntouched;
    c.touched.(c.ntouched) <- i;
    c.ntouched <- c.ntouched + 1

  (* Slot [i]'s count falls by [d]. That needs no refresh unless the key
     is queued: its gain only falls. Slot indices come from [probe] or
     are recorded ones, so they are in [0, cap). *)
  let[@inline] fall c i d =
    let w = Ints.unsafe_get c.slots ((i * 3) + 1) - d in
    if w land hot_bit = 0 && w lsr 33 > 0 then touch c i w
    else Ints.unsafe_set c.slots ((i * 3) + 1) w

  (* Slot [i]'s count in block [b] rises by [d], and the slot turns hot
     once the count could give a gain that reaches the floor. *)
  let rise c b i d =
    let slots = c.slots in
    let w = Ints.unsafe_get slots ((i * 3) + 1) + d in
    if w land hot_bit = 0 && w land low32 >= c.least then touch c i w
    else Ints.unsafe_set slots ((i * 3) + 1) w;
    let head = Ints.unsafe_get slots ((i * 3) + 2) in
    if head = 0 || head lsr 32 <> b then begin
      if c.nocc = Ints.length c.occ then c.occ <- Ints.resize c.occ c.nocc (c.nocc + (c.nocc / 2));
      Ints.set c.occ c.nocc ((b lsl 32) lor (head land low32));
      c.nocc <- c.nocc + 1;
      Ints.unsafe_set slots ((i * 3) + 2) ((b lsl 32) lor c.nocc)
    end

  (* [key]'s count in block [b] rises by one; returns its slot. *)
  let bump c b key =
    let i = insert c key in
    rise c b i 1;
    i

  (* Token [t]'s specialisation keys, when its entry is one primitive,
     count once more in block [b]: one per item that primitive does not
     already absorb. [islot] records them, and -1 for every other item
     the token covers. *)
  let add_specs bld c b t =
    let e = tok_entry t and i = tok_start t in
    let ioff = bld.prog.ioff in
    if bld.cost.(e) = 1 then begin
      let fixed = bld.dict_entries.(e).prims.(0).fixed and items = bld.prog.items in
      for q = ioff.(i) to ioff.(i + 1) - 1 do
        let it = items.(q) in
        Ints.set c.islot q
          (if fixed = [] || not (is_fixed fixed (Sadc_isa.item_stream it) (Sadc_isa.item_position it))
           then bump c b (key_item e it)
           else -1)
      done
    end
    else
      for q = ioff.(i) to ioff.(i + bld.cost.(e)) - 1 do
        Ints.set c.islot q (-1)
      done

  (* Token [t]'s recorded specialisation keys count once less, and are
     forgotten. *)
  let drop_specs bld c t =
    if bld.cost.(tok_entry t) = 1 then begin
      let i = tok_start t in
      for q = bld.prog.ioff.(i) to bld.prog.ioff.(i + 1) - 1 do
        let k = Ints.get c.islot q in
        if k >= 0 then begin
          fall c k 1;
          Ints.set c.islot q (-1)
        end
      done
    end

  (* Count block [b]'s candidate occurrences into [c], recording each
     window's slot; [le] is the caller's scratch. Blocks count
     independently: the non-overlap bookkeeping for self-overlapping
     n-grams like (a, a) is block-local (a pattern never straddles two
     blocks), so the global count of every candidate is the sum of its
     per-block counts — the invariant the incremental builder rests
     on. *)
  let count_block le bld c b =
    let tok = bld.tok and off = bld.seg.(b) and n = bld.blen.(b) in
    reserve bld c ((2 * n) + block_items bld b);
    le_reset le n;
    (* Only a pair (a, a) or a triple (a, _, a) can overlap itself, so
       only those consult [le]; an uncounted window's key was inserted by
       the occurrence it overlaps. *)
    for i = 0 to n - 2 do
      let a = tok_entry tok.(off + i) and a' = tok_entry tok.(off + i + 1) in
      let key = key_pair a a' in
      Ints.set c.pslot (off + i)
        (if a <> a' || le_counts le key i (i + 1) then bump c b key else probe c key)
    done;
    for i = 0 to n - 3 do
      let a = tok_entry tok.(off + i) and a'' = tok_entry tok.(off + i + 2) in
      let key = key_triple a (tok_entry tok.(off + i + 1)) a'' in
      Ints.set c.tslot (off + i)
        (if a <> a'' || le_counts le key i (i + 2) then bump c b key else probe c key)
    done;
    for i = 0 to n - 1 do
      add_specs bld c b tok.(off + i)
    done

  (* Full-rescan reference: global counts rebuilt from scratch. Kept as
     the specification the incremental builder is tested against. *)
  let count_candidates config bld =
    let c = counts_create config bld.prog in
    let le = le_create () in
    for b = 0 to Array.length bld.blen - 1 do
      count_block le bld c b
    done;
    c

  let new_entry bld cand =
    let prims e = bld.dict_entries.(e).prims in
    match cand with
    | Pair (a, b) -> { prims = Array.append (prims a) (prims b) }
    | Triple (a, b, c) -> { prims = Array.concat [ prims a; prims b; prims c ] }
    | Spec (e, s, p, v) ->
      let prim = (prims e).(0) in
      { prims = [| { prim with fixed = (s, p, v) :: prim.fixed } |] }

  (* One block's greedy reparse, written to [new_tok]: [old_sites] are
     the indices of each consumed occurrence in the block's tokens,
     [new_sites] those of the inserted tokens in [new_tok]. [new_pslot]
     and [new_tslot] are the incremental builder's window slots for
     [new_tok]. Sized for the longest block; reparsing never lengthens
     one. *)
  type reparse = {
    new_tok : int array;
    new_pslot : Ints.t;
    new_tslot : Ints.t;
    old_sites : int array;
    new_sites : int array;
    mutable nsites : int;
    mutable nout : int;
  }

  let reparse_scratch bld =
    let buf () = Array.make (Array.fold_left max 1 bld.blen) 0 in
    {
      new_tok = buf ();
      new_pslot = Ints.create (Array.length (buf ()));
      new_tslot = Ints.create (Array.length (buf ()));
      old_sites = buf ();
      new_sites = buf ();
      nsites = 0;
      nout = 0;
    }

  let keep r t =
    r.new_tok.(r.nout) <- t;
    r.nout <- r.nout + 1

  let replace r i t nid =
    r.old_sites.(r.nsites) <- i;
    r.new_sites.(r.nsites) <- r.nout;
    r.nsites <- r.nsites + 1;
    keep r (with_entry t nid)

  (* Is [target] among [items.(q)] to [items.(last - 1)]? *)
  let rec holds items target q last = q < last && (items.(q) = target || holds items target (q + 1) last)

  (* Reparse block [b], replacing each occurrence of [cand] with entry
     [nid]. False when the candidate no longer occurs there. *)
  let reparse bld r cand nid b =
    let tok = bld.tok and off = bld.seg.(b) and n = bld.blen.(b) in
    r.nsites <- 0;
    r.nout <- 0;
    (match cand with
    | Pair (a, a') ->
      let i = ref 0 in
      while !i < n do
        let t = tok.(off + !i) in
        if !i + 1 < n && tok_entry t = a && tok_entry tok.(off + !i + 1) = a' then begin
          replace r !i t nid;
          i := !i + 2
        end
        else begin
          keep r t;
          incr i
        end
      done
    | Triple (a, a', a'') ->
      let i = ref 0 in
      while !i < n do
        let t = tok.(off + !i) in
        if
          !i + 2 < n
          && tok_entry t = a
          && tok_entry tok.(off + !i + 1) = a'
          && tok_entry tok.(off + !i + 2) = a''
        then begin
          replace r !i t nid;
          i := !i + 3
        end
        else begin
          keep r t;
          incr i
        end
      done
    | Spec (e, s, p, v) ->
      (* Same-symbol instructions can differ in operand count (x86 ModRM
         forms), so the item at (s, p) may be absent. *)
      let ioff = bld.prog.ioff and items = bld.prog.items in
      let target = Sadc_isa.item ~stream:s ~position:p v in
      for i = 0 to n - 1 do
        let t = tok.(off + i) in
        if tok_entry t = e && holds items target ioff.(tok_start t) ioff.(tok_start t + 1) then
          replace r i t nid
        else keep r t
      done);
    r.nsites > 0

  (* Write the reparsed block back in place. *)
  let commit bld r b =
    copy_ints r.new_tok 0 bld.tok bld.seg.(b) r.nout;
    bld.blen.(b) <- r.nout

  (* Gain of [key] at count [n] in eighths of a byte saved, following
     §4.1: a group of k opcodes replacing n occurrences saves n*(occupied
     tokens - 1) opcode bytes and costs k dictionary bytes; absorbing an
     operand of b bits saves n*b/8 and costs one byte. In eighths, every
     gain is an exact int. *)
  let field_cost bld key shift = bld.cost.((key lsr shift) land entry_mask)

  let gain_at bld key n =
    match key lsr 60 with
    | 1 -> 8 * (n - field_cost bld key 20 - field_cost bld key 0)
    | 2 -> 8 * ((2 * n) - field_cost bld key 40 - field_cost bld key 20 - field_cost bld key 0)
    | _ -> (I.stream_bits.((key lsr 36) land 15) * n) - 8

  (* Canonical selection: largest gain, ties broken toward the smallest
     packed key. (The seed's tie-break was Hashtbl iteration order, which
     an incremental builder cannot reproduce; both builders now share
     this deterministic rule.) *)
  let select_best bld c =
    let best = ref None in
    for i = 0 to c.cap - 1 do
      let key = key_at c i and count = count_at c i in
      if count > 0 then begin
        let g = gain_at bld key count in
        if g > 0 then
          match !best with
          | Some (g', k') when g' > g || (g' = g && k' < key) -> ()
          | _ -> best := Some (g, key)
      end
    done;
    !best

  (* Full-rescan builder: recounts every candidate in every block each
     round. Kept as the executable specification of the incremental
     builder (and for the parity tests); not used on the hot path.
     Returns the rounds run; the dictionary and tokens are left in
     [bld]. *)
  let build_dictionary_naive config bld =
    let r = reparse_scratch bld in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && bld.dict_n < config.max_entries && !rounds < config.max_rounds do
      incr rounds;
      match select_best bld (count_candidates config bld) with
      | None -> continue_ := false
      | Some (_, key) ->
        let cand = cand_of_key key in
        let nid = push bld (new_entry bld cand) in
        for b = 0 to Array.length bld.blen - 1 do
          if reparse bld r cand nid b then commit bld r b
        done
    done;
    !rounds

  (* Non-overlap chain count of one pair or triple key over [n] tokens
     of [arr] from [off] — the per-key replay of [count_block]'s
     bookkeeping, for the few keys the windowed +/-1s cannot handle. *)
  let chain_count arr off n key =
    let count = ref 0 in
    let last = ref (-1) in
    if key lsr 60 = 1 then begin
      let a = (key lsr 20) land entry_mask and a' = key land entry_mask in
      for i = 0 to n - 2 do
        if tok_entry arr.(off + i) = a && tok_entry arr.(off + i + 1) = a' && !last < i then begin
          incr count;
          last := i + 1
        end
      done
    end
    else begin
      let a = (key lsr 40) land entry_mask
      and a' = (key lsr 20) land entry_mask
      and a'' = key land entry_mask in
      for i = 0 to n - 3 do
        if
          tok_entry arr.(off + i) = a
          && tok_entry arr.(off + i + 1) = a'
          && tok_entry arr.(off + i + 2) = a''
          && !last < i
        then begin
          incr count;
          last := i + 2
        end
      done
    end;
    !count

  let widest_stream = Array.fold_left max 0 I.stream_bits

  (* The largest gain any key can have at count [n]: every entry costs at
     least one byte. *)
  let best_gain n = max ((widest_stream * n) - 8) (max ((16 * n) - 24) ((8 * n) - 16))

  (* --- the gain queue: [c.queue] holds (gain, key, slot) at [3 * pos] *)

  let before g k g' k' = g > g' || (g = g' && k < k')

  let q_put c pos g k s =
    let q = c.queue in
    q.(3 * pos) <- g;
    q.((3 * pos) + 1) <- k;
    q.((3 * pos) + 2) <- s;
    set_qpos c s pos

  let q_up c pos g k s =
    let q = c.queue and pos = ref pos in
    while
      !pos > 0
      &&
      let p = (!pos - 1) / 2 in
      before g k q.(3 * p) q.((3 * p) + 1)
    do
      let p = (!pos - 1) / 2 in
      q_put c !pos q.(3 * p) q.((3 * p) + 1) q.((3 * p) + 2);
      pos := p
    done;
    q_put c !pos g k s

  let q_down c pos g k s =
    let q = c.queue and n = c.qsize and pos = ref pos and sifting = ref true in
    while !sifting do
      let l = (2 * !pos) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let ch = if r < n && before q.(3 * r) q.((3 * r) + 1) q.(3 * l) q.((3 * l) + 1) then r else l in
        if before q.(3 * ch) q.((3 * ch) + 1) g k then begin
          q_put c !pos q.(3 * ch) q.((3 * ch) + 1) q.((3 * ch) + 2);
          pos := ch
        end
        else sifting := false
      end
    done;
    q_put c !pos g k s

  let q_remove c pos =
    set_qpos c c.queue.((3 * pos) + 2) (-1);
    let last = c.qsize - 1 in
    c.qsize <- last;
    if pos < last then begin
      let q = c.queue in
      let g = q.(3 * last) and k = q.((3 * last) + 1) and s = q.((3 * last) + 2) in
      if pos > 0 && before g k q.(3 * ((pos - 1) / 2)) q.((3 * ((pos - 1) / 2)) + 1) then
        q_up c pos g k s
      else q_down c pos g k s
    end

  (* Slot [i]'s queued gain becomes its live one: queued while it
     reaches the floor. *)
  let q_refresh bld c i =
    let key = key_at c i and n = count_at c i in
    let g = if n > 0 then gain_at bld key n else 0 in
    let pos = qpos_at c i in
    if g >= c.floor then begin
      if pos < 0 then begin
        if 3 * c.qsize = Array.length c.queue then c.queue <- grow_ints c.queue (3 * c.qsize);
        c.qsize <- c.qsize + 1;
        q_up c (c.qsize - 1) g key i
      end
      else if g > c.queue.(3 * pos) then q_up c pos g key i
      else q_down c pos g key i
    end
    else if pos >= 0 then q_remove c pos

  (* The [k]-th largest of [a]'s first [n] ints (1 <= k <= n), by
     quickselect; reorders them. *)
  let kth_largest a n k =
    let lo = ref 0 and hi = ref (n - 1) and target = k - 1 in
    while !lo < !hi do
      let pivot = a.((!lo + !hi) / 2) in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while a.(!i) > pivot do
          incr i
        done;
        while a.(!j) < pivot do
          decr j
        done;
        if !i <= !j then begin
          let t = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- t;
          incr i;
          decr j
        end
      done;
      if target <= !j then hi := !j else if target >= !i then lo := !i else lo := !hi
    done;
    a.(target)

  (* Keys a lowered floor admits: the floor is the gain of the
     [admit]-th best key, and every key that ties it comes in too. *)
  let admit = 128

  (* List slot [i] in [live], at the [!n]-th entry, if its gain is
     positive. *)
  let[@inline] consider bld c n i =
    let count = Ints.unsafe_get c.slots ((3 * i) + 1) land low32 in
    if count > 0 then begin
      let g = gain_at bld (Ints.unsafe_get c.slots (3 * i)) count in
      if g > 0 then begin
        if !n = Array.length c.live then c.live <- grow_ints c.live !n;
        c.live.(!n) <- (g lsl 32) lor i;
        incr n
      end
    end

  (* The queue is empty, so every key is below the floor: lower the
     floor and queue every key that reaches it. The candidates are the
     slots [live] listed with a positive gain at the last pass and those
     inserted since ([fresh]; on the first pass, every key of the
     initial count), since a key's count only falls after the round that
     creates it. [live] then lists each positive gain beside its slot.
     False when no key has a positive gain. *)
  let q_rebuild bld c =
    let n = ref 0 in
    (* Entry [x] is read before entry [!n <= x] is written. *)
    for x = 0 to c.nlive - 1 do
      consider bld c n (c.live.(x) land low32)
    done;
    for x = 0 to c.nfresh - 1 do
      consider bld c n c.fresh.(x)
    done;
    c.nlive <- !n;
    c.nfresh <- 0;
    !n > 0
    && begin
         let a = c.live and n = !n in
         c.floor <- (if n <= admit then 1 else kth_largest a n admit lsr 32);
         c.least <- 1;
         while best_gain c.least < c.floor do
           c.least <- c.least + 1
         done;
         for x = 0 to n - 1 do
           if a.(x) lsr 32 >= c.floor then q_refresh bld c (a.(x) land low32)
         done;
         true
       end

  (* Incremental builder: global candidate counts are kept as the sum of
     per-block contributions. Each round takes the best candidate from
     the top of the gain queue, reparses only the blocks listed in the
     candidate's occurrence index, and patches counts surgically: only
     token windows overlapping a replacement site can change, so the
     matched blocks get a handful of +/-1 bumps instead of a full
     recount. A falling count is patched through the slot recorded
     beside its window; only the new windows, all of which hold the new
     entry, are hashed. Every key whose count changed in a round is
     re-queued at its live gain before the next pop, so the top is
     always exact. [check] recomputes all counts by full rescan each
     round and raises on any disagreement (the parity tests' hook).
     Returns the rounds run; the dictionary and tokens are left in
     [bld]. *)
  let build_dictionary_incremental ?(check = false) config bld =
    let nblocks = Array.length bld.blen in
    let c = counts_create config bld.prog in
    (* Self-overlapping keys needing a full re-walk this block, listed
       once each by slot; a block's windows number under four per
       token. *)
    let recount = Array.make ((4 * Array.fold_left max 1 bld.blen) + 4) 0 in
    let nrecount = ref 0 in
    let defer k =
      let r = ref 0 in
      while !r < !nrecount && recount.(!r) <> k do
        incr r
      done;
      if !r = !nrecount then begin
        recount.(!r) <- k;
        incr nrecount
      end
    in
    (* Old chain counts of the keys deferred from the old side. *)
    let old_chain = Array.make (Array.length recount) 0 in
    let r = reparse_scratch bld in
    (* The -1s of the old side of a reparse: every pair and triple window
       of block [b] that overlaps a consumed occurrence, visited once
       even when consecutive sites' windows overlap (sites ascend, so a
       per-kind cursor suffices). Only windows that overlap a site can
       change an n-gram count — unmarked windows map one-to-one between
       the old and new tokens with their keys intact, so their
       contributions cancel; a marked window of a non-self-overlapping
       key contributes exactly one match. Self-overlapping keys (pair
       with equal halves, triple with first = third) are deferred to
       [recount], with their chain count over the old tokens. *)
    let old_windows b width =
      let tok = bld.tok and off = bld.seg.(b) and n = bld.blen.(b) in
      let nextp = ref 0 and nextt = ref 0 in
      for si = 0 to r.nsites - 1 do
        let s = r.old_sites.(si) in
        let hi = s + width - 1 in
        for p = max !nextp (s - 1) to min (n - 2) hi do
          let k = Ints.get c.pslot (off + p) in
          if tok_entry tok.(off + p) = tok_entry tok.(off + p + 1) then defer k
          else fall c k 1
        done;
        nextp := hi + 1;
        for p = max !nextt (s - 2) to min (n - 3) hi do
          let k = Ints.get c.tslot (off + p) in
          if tok_entry tok.(off + p) = tok_entry tok.(off + p + 2) then defer k
          else fall c k 1
        done;
        nextt := hi + 1
      done;
      for k = 0 to !nrecount - 1 do
        old_chain.(k) <- chain_count tok off n (key_at c recount.(k))
      done
    in
    (* The +1s of the new side: the same walk over the [n] new tokens
       [arr.(at)] onwards, around the inserted tokens at [sites],
       recording the slot of the window at [p] in [pslot.(at + p)] or
       [tslot.(at + p)]. Then every deferred key moves by its new chain
       count less its old one. *)
    let new_windows b arr at n sites pslot tslot =
      let nold = !nrecount in
      let nextp = ref 0 and nextt = ref 0 in
      for si = 0 to r.nsites - 1 do
        let s = sites.(si) in
        for p = max !nextp (s - 1) to min (n - 2) s do
          let a = tok_entry arr.(at + p) and a' = tok_entry arr.(at + p + 1) in
          let key = key_pair a a' in
          Ints.set pslot (at + p)
            (if a = a' then begin
               let k = insert c key in
               defer k;
               k
             end
             else bump c b key)
        done;
        nextp := s + 1;
        for p = max !nextt (s - 2) to min (n - 3) s do
          let a = tok_entry arr.(at + p) and a'' = tok_entry arr.(at + p + 2) in
          let key = key_triple a (tok_entry arr.(at + p + 1)) a'' in
          Ints.set tslot (at + p)
            (if a = a'' then begin
               let k = insert c key in
               defer k;
               k
             end
             else bump c b key)
        done;
        nextt := s + 1
      done;
      (* Keys deferred here hold the new entry, so their old count is 0. *)
      for k = 0 to !nrecount - 1 do
        let slot = recount.(k) in
        let d = chain_count arr at n (key_at c slot) - if k < nold then old_chain.(k) else 0 in
        if d > 0 then rise c b slot d else if d < 0 then fall c slot (-d)
      done
    in
    (* Kept tokens carry their windows' slots: between two sites the
       kept tokens are contiguous on both sides, and the windows among
       them are the unmarked ones. *)
    let carry_slots off n width =
      let from = ref 0 and into = ref 0 in
      for si = 0 to r.nsites do
        let upto = if si < r.nsites then r.old_sites.(si) else n in
        let len = upto - !from in
        Bytes.blit c.pslot (8 * (off + !from)) r.new_pslot (8 * !into) (8 * len);
        Bytes.blit c.tslot (8 * (off + !from)) r.new_tslot (8 * !into) (8 * len);
        from := upto + width;
        into := !into + len + 1
      done
    in
    (* A specialisation rewrites block [b] in place: its sites are the
       tokens of entry [e] that hold [target], and each becomes a token
       of [nid] with the same instruction. *)
    let update_spec b e target nid =
      let tok = bld.tok and off = bld.seg.(b) and n = bld.blen.(b) in
      let ioff = bld.prog.ioff and items = bld.prog.items in
      r.nsites <- 0;
      for i = 0 to n - 1 do
        let t = tok.(off + i) in
        if tok_entry t = e && holds items target ioff.(tok_start t) ioff.(tok_start t + 1) then begin
          r.old_sites.(r.nsites) <- i;
          r.nsites <- r.nsites + 1
        end
      done;
      r.nsites > 0
      && begin
           reserve bld c ((2 * n) + block_items bld b);
           nrecount := 0;
           old_windows b 1;
           for si = 0 to r.nsites - 1 do
             let site = off + r.old_sites.(si) in
             drop_specs bld c tok.(site);
             tok.(site) <- with_entry tok.(site) nid
           done;
           new_windows b tok off n r.old_sites c.pslot c.tslot;
           for si = 0 to r.nsites - 1 do
             add_specs bld c b tok.(off + r.old_sites.(si))
           done;
           true
         end
    in
    (* Fused reparse + surgical count patch for one block of a pair or
       triple candidate. Returns false (leaving the block untouched) when
       the candidate no longer occurs — the reparse scan doubles as the
       stale-occurrence test. Groups carry no spec keys, so only the
       consumed tokens' ones move. *)
    let update_group b cand nid =
      reparse bld r cand nid b
      && begin
           let tok = bld.tok and off = bld.seg.(b) and n = bld.blen.(b) in
           reserve bld c ((2 * n) + block_items bld b);
           let width = cand_width cand in
           nrecount := 0;
           old_windows b width;
           carry_slots off n width;
           new_windows b r.new_tok 0 r.nout r.new_sites r.new_pslot r.new_tslot;
           for si = 0 to r.nsites - 1 do
             let site = off + r.old_sites.(si) in
             for j = 0 to width - 1 do
               drop_specs bld c tok.(site + j)
             done
           done;
           commit bld r b;
           Bytes.blit r.new_pslot 0 c.pslot (8 * off) (8 * r.nout);
           Bytes.blit r.new_tslot 0 c.tslot (8 * off) (8 * r.nout);
           true
         end
    in
    let update_block b cand nid =
      match cand with
      | Spec (e, s, p, v) -> update_spec b e (Sadc_isa.item ~stream:s ~position:p v) nid
      | Pair _ | Triple _ -> update_group b cand nid
    in
    let refresh () =
      for k = 0 to c.ntouched - 1 do
        let i = c.touched.(k) in
        Ints.set c.slots ((i * 3) + 1) (Ints.get c.slots ((i * 3) + 1) land lnot hot_bit);
        q_refresh bld c i
      done;
      c.ntouched <- 0
    in
    let check_counts () =
      let reference = count_candidates config bld in
      let differ what key live rescan =
        failwith
          (Printf.sprintf "Sadc incremental counts: key %d has %s %d, rescan says %d" key what live
             rescan)
      in
      for i = 0 to reference.cap - 1 do
        let key = key_at reference i and n = count_at reference i in
        if n > 0 && count_of c key <> n then differ "count" key (count_of c key) n
      done;
      for i = 0 to c.cap - 1 do
        let key = key_at c i and n = count_at c i in
        if key <> 0 && n <> 0 && count_of reference key = 0 then differ "stale count" key n 0
      done
    in
    let le = le_create () in
    for b = 0 to nblocks - 1 do
      count_block le bld c b
    done;
    (* The first pop fills the queue from the table. *)
    (* The round in which each block was last reparsed — an occurrence
       list may name a block twice. *)
    let seen = Array.make (max nblocks 1) 0 in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && bld.dict_n < config.max_entries && !rounds < config.max_rounds do
      incr rounds;
      if check then check_counts ();
      if c.qsize = 0 && not (q_rebuild bld c) then continue_ := false
      else begin
        let key = c.queue.(1) and slot = c.queue.(2) in
        q_remove c 0;
        let cand = cand_of_key key in
        let nid = push bld (new_entry bld cand) in
        let node = ref ((Ints.get c.slots ((slot * 3) + 2) land low32) - 1) in
        while !node >= 0 do
          let v = Ints.get c.occ !node in
          let b = v lsr 32 in
          if seen.(b) <> !rounds then begin
            seen.(b) <- !rounds;
            ignore (update_block b cand nid : bool)
          end;
          node := (v land low32) - 1
        done;
        refresh ()
      end
    done;
    !rounds

  (* --- entropy coding ------------------------------------------------- *)

  (* Every coded element of the program, in block and decode pull order:
     per token its entry, then each unabsorbed operand chunk. An element
     is one packed int, its value above [alpha_bits] and its alphabet
     below. Block [b]'s elements are [elems.(eoff.(b))] to
     [elems.(eoff.(b + 1) - 1)]. Built once; the frequency count and the
     encoder both read it. *)
  let alpha_bits = 8

  let alpha_mask = (1 lsl alpha_bits) - 1

  let coded_elements bld dict =
    let prog = bld.prog in
    let nblocks = Array.length bld.blen in
    let eoff = Array.make (nblocks + 1) 0 in
    (* Room for every token and every chunk of every item, absorbed or
       not, so the array never grows. *)
    let capacity = ref (Array.fold_left ( + ) 0 bld.blen) in
    for q = 0 to prog.ioff.(Array.length prog.syms) - 1 do
      capacity := !capacity + Array.length chunk_shift.(Sadc_isa.item_stream prog.items.(q))
    done;
    let elems = Array.make !capacity 0 in
    let len = ref 0 in
    for b = 0 to nblocks - 1 do
      eoff.(b) <- !len;
      let off = bld.seg.(b) in
      for ti = off to off + bld.blen.(b) - 1 do
        let t = bld.tok.(ti) in
        let e = tok_entry t in
        elems.(!len) <- e lsl alpha_bits;
        incr len;
        let prims = dict.(e).prims in
        for j = 0 to Array.length prims - 1 do
          let i = tok_start t + j and fixed = prims.(j).fixed in
          for q = prog.ioff.(i) to prog.ioff.(i + 1) - 1 do
            let it = prog.items.(q) in
            let s = Sadc_isa.item_stream it in
            if fixed = [] || not (is_fixed fixed s (Sadc_isa.item_position it)) then begin
              let v = Sadc_isa.item_value it in
              let shift = chunk_shift.(s) and cmask = chunk_mask.(s) and alpha = chunk_alpha.(s) in
              for k = 0 to Array.length shift - 1 do
                elems.(!len) <- (((v lsr shift.(k)) land cmask.(k)) lsl alpha_bits) lor alpha.(k);
                incr len
              done
            end
          done
        done
      done
    done;
    eoff.(nblocks) <- !len;
    (elems, eoff)

  (* The token code, the chunk codes per (stream, width), and every code
     by alphabet number for the encoder. *)
  let build_codes dict elems n =
    let freqs =
      Array.init alphabet_count (fun a ->
          Freq.create (if a = 0 then Array.length dict else 1 lsl alpha_width.(a)))
    in
    for q = 0 to n - 1 do
      let x = elems.(q) in
      Freq.add freqs.(x land alpha_mask) (x lsr alpha_bits)
    done;
    let token_code = Huffman.build freqs.(0) in
    let by_alpha =
      Array.init alphabet_count (fun a ->
          if a = 0 then Some token_code
          else if Freq.total freqs.(a) > 0 then Some (Huffman.build freqs.(a))
          else None)
    in
    let chunk_codes =
      Array.mapi
        (fun s widths ->
          Array.of_list (List.mapi (fun wi _ -> by_alpha.(alpha_base.(s) + wi)) widths))
        stream_widths
    in
    (token_code, chunk_codes, by_alpha)

  let encode_block w by_alpha elems lo hi =
    Bit_writer.reset w;
    for q = lo to hi - 1 do
      let x = elems.(q) in
      match by_alpha.(x land alpha_mask) with
      | Some code -> Huffman.encode_symbol code w (x lsr alpha_bits)
      | None -> assert false
    done;
    Bit_writer.contents w

  let compress_image ?jobs config image =
    Obs.with_span ~cat:"sadc" ("sadc." ^ I.name ^ ".compress") @@ fun () ->
    (match validate_config config with
    | Ok () -> ()
    | Error e -> invalid_arg ("Sadc.compress_image: " ^ e));
    let prog =
      match I.parse image with
      | Some prog -> prog
      | None -> invalid_arg "Sadc.compress_image: image does not decode"
    in
    if Array.length prog.syms = 0 then invalid_arg "Sadc.compress_image: empty program";
    let bld = builder prog (segments prog.boff config.block_size) in
    (* Dictionary construction and code building are global (they see
       every block), so they stay serial; the entropy-coding of each
       block against the finished tables is independent and fans out,
       each domain reusing one bit writer. *)
    let rounds =
      Obs.with_span ~cat:"sadc" "sadc.dictionary" (fun () ->
          build_dictionary_incremental config bld)
    in
    let dict = Array.sub bld.dict_entries 0 bld.dict_n in
    let elems, eoff = coded_elements bld dict in
    let nblocks = Array.length bld.blen in
    let token_code, chunk_codes, by_alpha = build_codes dict elems eoff.(nblocks) in
    let sizes =
      Array.init nblocks (fun b -> prog.boff.(bld.seg.(b + 1)) - prog.boff.(bld.seg.(b)))
    in
    let blocks =
      Obs.with_span ~cat:"sadc" "sadc.encode" @@ fun () ->
      Ccomp_par.Blocks.encode ?jobs m_compress ~local:Bit_writer.create ~bytes_in:(Array.get sizes)
        nblocks
        (fun w b -> encode_block w by_alpha elems eoff.(b) eoff.(b + 1))
    in
    let original_size = prog.boff.(Array.length prog.syms) in
    { config; dict; token_code; chunk_codes; blocks; sizes; original_size; rounds }

  let block_count c = Array.length c.blocks

  let block_original_bytes c b = c.sizes.(b)

  let block_payload_bytes c b = String.length c.blocks.(b)

  (* The reference list walk through [I.read] (Fig. 6), on a caller-owned
     reader; [decompress_block] wraps it with a fresh one. *)
  let decompress_block_with r c b =
    let payload = c.blocks.(b) and original = c.sizes.(b) in
    Bit_reader.reset r payload;
    let decode_chunks s =
      List.fold_left
        (fun acc w ->
          let code =
            match c.chunk_codes.(s).(width_index s w) with
            | Some code -> code
            | None -> failwith "Sadc.decompress_block: missing chunk code"
          in
          let v = Huffman.decode_symbol code r in
          (acc lsl w) lor v)
        0 stream_chunks.(s)
    in
    let out = ref [] in
    let produced = ref 0 in
    (* Step budget: every well-formed token yields at least one byte of
       output, so a stream needing more tokens than [original] bytes is
       corrupt — without this a zero-output cycle would spin forever. *)
    let steps = ref 0 in
    while !produced < original do
      incr steps;
      if !steps > original then
        Ccomp_util.Decode_error.fail
          (Step_budget_exhausted "Sadc.decompress_block");
      let tok = Huffman.decode_symbol c.token_code r in
      if tok >= Array.length c.dict then
        Ccomp_util.Decode_error.invalid_code "Sadc.decompress_block: token beyond dictionary";
      let e = c.dict.(tok) in
      Array.iter
        (fun prim ->
          let counters = Array.make I.stream_count 0 in
          let next s =
            let p = counters.(s) in
            counters.(s) <- p + 1;
            match List.find_opt (fun (s', p', _) -> s' = s && p' = p) prim.fixed with
            | Some (_, _, v) -> v
            | None -> decode_chunks s
          in
          let instr = I.read ~symbol:prim.sym ~next in
          produced := !produced + I.byte_length instr;
          out := instr :: !out)
        e.prims
    done;
    if !produced <> original then failwith "Sadc.decompress_block: length mismatch";
    List.rev !out

  let decompress_block c b = decompress_block_with (Bit_reader.create "") c b

  (* --- the block decoder ------------------------------------------- *)

  (* The image's dictionary and codes compiled for {!block_decoder}: the
     Fig. 6 decompressor as tables. Entry [t]'s primitives are the
     groups (see {!Sadc_isa.ops}) from [ops.(entry.(t))] to
     [ops.(entry.(t + 1) - 1)]. Chunk decoder [q] is one Huffman code's
     first-level table: [lut.(q)] indexed by the next [lut_bits.(q)]
     bits, [long.(q)] for the rarer codewords longer than that (at most
     [max_len.(q)] bits), [width.(q)] the bits its symbols carry.
     Decoder 0 reads tokens; stream [s]'s items are the decoders
     [chunk.(s)] to [chunk.(s + 1) - 1], most significant chunk first. *)
  type plan = {
    ops : int array;
    entry : int array;
    lut : int array array;
    lut_bits : int array;
    max_len : int array;
    width : int array;
    long : Huffman.code option array;
    chunk : int array;
  }

  let malformed msg = Ccomp_util.Decode_error.fail (Malformed ("Sadc.block_decoder: " ^ msg))

  (* Each base symbol's primitive with nothing absorbed, compiled once
     from the ISA alone; empty for a symbol the ISA does not have. *)
  let templates =
    Array.init I.base_symbols (fun symbol ->
        let b = Sadc_isa.ops_create 32 in
        match I.compile b ~symbol ~fixed:[] with
        | () -> Array.sub b.ops 0 b.len
        | exception Ccomp_util.Decode_error.Error _ -> [||])

  (* Every range check an instruction could need happens here, once per
     image: a token alphabet within the dictionary, each chunk alphabet
     within its chunk's bits and each absorbed operand within its
     stream's, so no decoded value can overflow its field. *)
  let plan c =
    let ndict = Array.length c.dict in
    if Huffman.alphabet_size c.token_code > ndict then malformed "token alphabet beyond the dictionary";
    let chunk = Array.make (I.stream_count + 1) 1 in
    Array.iteri (fun s ws -> chunk.(s + 1) <- chunk.(s) + List.length ws) stream_chunks;
    let nq = chunk.(I.stream_count) in
    let code = Array.make nq (Some c.token_code) and width = Array.make nq 0 in
    Array.iteri
      (fun s ws ->
        List.iteri
          (fun k w ->
            let q = chunk.(s) + k in
            width.(q) <- w;
            code.(q) <- c.chunk_codes.(s).(width_index s w);
            match code.(q) with
            | Some h when Huffman.alphabet_size h > 1 lsl w ->
              malformed (Printf.sprintf "%s chunk alphabet wider than %d bits" I.stream_names.(s) w)
            | Some _ | None -> ())
          ws)
      stream_chunks;
    (* A stream without a code has a one-slot table that always misses,
       so [long] reports it when an item of the stream is pulled. *)
    let from h f absent = match h with Some h -> f h | None -> absent in
    (* Absorbing operands never lengthens a primitive, so the templates
       bound the plan and its array is allocated once. *)
    let template sym = if sym >= 0 && sym < I.base_symbols then templates.(sym) else [||] in
    let bound =
      Array.fold_left
        (fun a e -> Array.fold_left (fun a prim -> a + Array.length (template prim.sym)) a e.prims)
        0 c.dict
    in
    let b = Sadc_isa.ops_create bound in
    let entry = Array.make (ndict + 1) 0 in
    Array.iteri
      (fun t e ->
        entry.(t) <- b.len;
        Array.iter
          (fun prim ->
            let t = template prim.sym in
            if prim.fixed = [] && Array.length t > 0 then begin
              copy_ints t 0 b.ops b.len (Array.length t);
              b.len <- b.len + Array.length t
            end
            else begin
              List.iter
                (fun (s, _, v) ->
                  if s >= I.stream_count || v lsr I.stream_bits.(s) <> 0 then
                    malformed "absorbed operand outside its field")
                prim.fixed;
              I.compile b ~symbol:prim.sym ~fixed:prim.fixed
            end)
          e.prims)
      c.dict;
    entry.(ndict) <- b.len;
    {
      ops = b.ops;
      entry;
      lut = Array.map (fun h -> from h Huffman.lut [| 0 |]) code;
      lut_bits = Array.map (fun h -> from h Huffman.lut_bits 0) code;
      max_len = Array.map (fun h -> from h Huffman.max_length 0) code;
      width;
      long = code;
      chunk;
    }

  let long p q window =
    match p.long.(q) with
    | Some h -> Huffman.decode_window h window
    | None -> failwith "Sadc.decompress_block: missing chunk code"

  (* Decoder [q]'s next codeword, as (symbol lsl 5) lor length, from a bit
     buffer whose low [navail >= 30] bits of [acc] are the stream's next
     bits. *)
  let[@inline] next_code p q acc navail =
    let lb = Array.unsafe_get p.lut_bits q in
    let e = Array.unsafe_get (Array.unsafe_get p.lut q) ((acc lsr (navail - lb)) land ((1 lsl lb) - 1)) in
    if e <> 0 then e
    else
      let ml = Array.unsafe_get p.max_len q in
      long p q ((acc lsr (navail - ml)) land ((1 lsl ml) - 1))

  external get64u : string -> int -> int64 = "%caml_string_get64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"
  external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
  external bswap32 : int32 -> int32 = "%bswap_int32"

  (* [k <= 7] bytes of [data] from [nb], big-endian, 0 past its end: the
     stream reads as 0 bits there, as [Bit_reader] does. *)
  let load data nb k =
    if nb + 8 <= String.length data then
      Int64.to_int (Int64.shift_right_logical (bswap64 (get64u data nb)) (64 - (8 * k)))
    else begin
      let v = ref 0 in
      for i = nb to nb + k - 1 do
        v := (!v lsl 8) lor (if i < String.length data then Char.code (String.unsafe_get data i) else 0)
      done;
      !v
    end

  (* The production decoder: the plan is built once per call, then each
     block decodes a token, walks that entry's groups and decodes each
     free field's chunks straight from the tables, with the bit buffer in
     local variables ([acc]'s low [navail] bits, [nb] the next byte to
     load), topped up to at least 30 bits, the longest codeword, before
     each codeword. Nothing is allocated per block, so domains that
     decode do not meet at minor-GC barriers. *)
  let block_decoder c =
    let p = plan c in
    let ops = p.ops in
    fun b out pos ->
      let data = c.blocks.(b) and original = c.sizes.(b) in
      let acc = ref 0 and navail = ref 0 and nb = ref 0 in
      let produced = ref 0 and steps = ref 0 in
      (* the primitive's resume point and displacement/immediate groups
         to go, and its ModRM byte *)
      let resume = ref 0 and left = ref 0 and modrm = ref 0 in
      while !produced < original do
        (* Every well-formed token yields at least one byte of output, so
           a stream needing more tokens than [original] bytes is corrupt;
           without this a zero-output cycle would spin forever. *)
        incr steps;
        if !steps > original then
          Ccomp_util.Decode_error.fail (Step_budget_exhausted "Sadc.decompress_block");
        if !navail < 30 then begin
          let k = (62 - !navail) lsr 3 in
          acc := (!acc lsl (8 * k)) lor load data !nb k;
          navail := !navail + (8 * k);
          nb := !nb + k
        end;
        let e = next_code p 0 !acc !navail in
        navail := !navail - (e land 31);
        let g = ref p.entry.(e lsr 5) and stop = p.entry.((e lsr 5) + 1) in
        while !g < stop do
          let o = !g in
          let head = Array.unsafe_get ops o in
          let ctl = head lsr 32 in
          let slots = (ctl lsr 3) land 3 in
          let v = ref (head land 0xffff_ffff) in
          for j = o + 1 to o + slots do
            let slot = Array.unsafe_get ops j in
            let f = ref 0 in
            for q = p.chunk.(slot lsr 8) to p.chunk.((slot lsr 8) + 1) - 1 do
              if !navail < 30 then begin
                let k = (62 - !navail) lsr 3 in
                acc := (!acc lsl (8 * k)) lor load data !nb k;
                navail := !navail + (8 * k);
                nb := !nb + k
              end;
              let e = next_code p q !acc !navail in
              navail := !navail - (e land 31);
              f := (!f lsl Array.unsafe_get p.width q) lor (e lsr 5)
            done;
            v := !v lor (!f lsl (slot land 0xff))
          done;
          let v = !v and at = pos + !produced in
          (match ctl land 7 with
          | 4 -> set32 out at (bswap32 (Int32.of_int v))
          | 1 -> Bytes.set out at (Char.unsafe_chr (v land 0xff))
          | _ ->
            Bytes.set out at (Char.unsafe_chr ((v lsr 8) land 0xff));
            Bytes.set out (at + 1) (Char.unsafe_chr (v land 0xff)));
          produced := !produced + (ctl land 7);
          g := o + 1 + slots;
          let role = (ctl lsr 5) land 3 in
          if role = Sadc_isa.plain then begin
            if !left > 0 then begin
              decr left;
              if !left = 0 then g := !resume
            end
          end
          else if role = Sadc_isa.modrm then begin
            resume := o + (ctl lsr 10);
            if Ccomp_isa.X86.has_sib v then modrm := v
            else begin
              (* past the SIB group *)
              g := !g + 1 + ((Array.unsafe_get ops !g lsr 35) land 3);
              left := Ccomp_isa.X86.disp_size v ~sib:(-1) + ((ctl lsr 7) land 7);
              if !left = 0 then g := !resume
            end
          end
          else begin
            left := Ccomp_isa.X86.disp_size !modrm ~sib:v + ((ctl lsr 7) land 7);
            if !left = 0 then g := !resume
          end
        done
      done;
      !produced

  let decompress ?jobs c =
    Obs.with_span ~cat:"sadc" ("sadc." ^ I.name ^ ".decompress") @@ fun () ->
    Ccomp_par.Blocks.decode ?jobs m_decompress ~sizes:c.sizes
      ~payload_bytes:(fun b -> String.length c.blocks.(b))
      (fun () -> block_decoder c)

  let block_payload c b = c.blocks.(b)

  let dictionary c = Array.copy c.dict

  let stats c =
    let base = ref 0 and group = ref 0 and special = ref 0 and longest = ref 0 in
    Array.iter
      (fun e ->
        let n = Array.length e.prims in
        if n > !longest then longest := n;
        if n > 1 then incr group
        else if e.prims.(0).fixed = [] then incr base
        else incr special)
      c.dict;
    {
      entries = Array.length c.dict;
      base_entries = !base;
      group_entries = !group;
      specialized_entries = !special;
      longest_group = !longest;
      rounds = c.rounds;
    }

  let code_bytes c = Array.fold_left (fun acc payload -> acc + String.length payload) 0 c.blocks

  (* Dictionary wire format: count, then per entry the primitive list with
     absorbed operands (stream, position, 32-bit value). *)
  let dict_bytes c =
    let per_entry e =
      1 + Array.fold_left (fun acc p -> acc + 2 + 1 + (6 * List.length p.fixed)) 0 e.prims
    in
    2 + Array.fold_left (fun acc e -> acc + per_entry e) 0 c.dict

  let tables_bytes c =
    let code_len = function Some code -> String.length (Huffman.serialize_lengths code) | None -> 1 in
    String.length (Huffman.serialize_lengths c.token_code)
    + Array.fold_left
        (fun acc per_stream -> Array.fold_left (fun acc code -> acc + code_len code) acc per_stream)
        0 c.chunk_codes

  let original_size c = c.original_size

  let ratio c = float_of_int (code_bytes c) /. float_of_int c.original_size

  let ratio_with_tables c =
    float_of_int (code_bytes c + dict_bytes c + tables_bytes c) /. float_of_int c.original_size

  (* --- serialization ------------------------------------------------- *)

  let add_u16 b v =
    assert (v >= 0 && v < 65536);
    Buffer.add_char b (Char.chr (v lsr 8));
    Buffer.add_char b (Char.chr (v land 0xff))

  let add_u32 b v =
    add_u16 b ((v lsr 16) land 0xffff);
    add_u16 b (v land 0xffff)

  let serialize c =
    let b = Buffer.create (code_bytes c + 1024) in
    add_u16 b c.config.block_size;
    add_u16 b c.config.max_entries;
    add_u16 b c.config.max_rounds;
    add_u16 b c.rounds;
    add_u32 b c.original_size;
    add_u16 b (Array.length c.dict);
    Array.iter
      (fun e ->
        Buffer.add_char b (Char.chr (Array.length e.prims));
        Array.iter
          (fun prim ->
            add_u16 b prim.sym;
            Buffer.add_char b (Char.chr (List.length prim.fixed));
            List.iter
              (fun (s, p, v) ->
                Buffer.add_char b (Char.chr s);
                Buffer.add_char b (Char.chr p);
                add_u32 b v)
              prim.fixed)
          e.prims)
      c.dict;
    Buffer.add_string b (Huffman.serialize_lengths c.token_code);
    Array.iter
      (Array.iter (fun code ->
           match code with
           | Some code ->
             Buffer.add_char b '\x01';
             Buffer.add_string b (Huffman.serialize_lengths code)
           | None -> Buffer.add_char b '\x00'))
      c.chunk_codes;
    add_u32 b (Array.length c.blocks);
    Array.iteri
      (fun i payload ->
        add_u16 b (String.length payload);
        add_u16 b c.sizes.(i);
        Buffer.add_string b payload)
      c.blocks;
    Buffer.contents b

  (* Byte ranges inside [serialize c], mirroring its layout: a 12-byte
     fixed header, the dictionary, the token and chunk tables, the block
     count, then per block a 4-byte prefix and the payload. *)
  let tables_span c =
    let token = String.length (Huffman.serialize_lengths c.token_code) in
    let chunks =
      Array.fold_left
        (fun acc per_stream ->
          Array.fold_left
            (fun acc code ->
              match code with
              | Some code -> acc + 1 + String.length (Huffman.serialize_lengths code)
              | None -> acc + 1)
            acc per_stream)
        0 c.chunk_codes
    in
    (12, dict_bytes c + token + chunks)

  let block_spans c =
    let tables_off, tables_len = tables_span c in
    let off = ref (tables_off + tables_len + 4) in
    Array.map
      (fun payload ->
        off := !off + 4;
        let o = !off in
        off := o + String.length payload;
        (o, String.length payload))
      c.blocks

  let deserialize s ~pos =
    let p = ref pos in
    let fail () = invalid_arg "Sadc.deserialize: truncated input" in
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
    let block_size = u16 () in
    let max_entries = u16 () in
    let max_rounds = u16 () in
    let rounds = u16 () in
    let original_size = u32 () in
    let dict =
      Array.init (u16 ()) (fun _ ->
          let prims =
            Array.init (byte ()) (fun _ ->
                let sym = u16 () in
                let fixed =
                  List.init (byte ()) (fun _ ->
                      let s' = byte () in
                      let p' = byte () in
                      let v = u32 () in
                      (s', p', v))
                in
                { sym; fixed })
          in
          (* An entry without primitives decodes to zero bytes; the block
             decoder's step budget would catch the resulting spin, but a
             dictionary that cannot have been built is corruption. *)
          if Array.length prims = 0 then invalid_arg "Sadc.deserialize: empty dictionary entry";
          { prims })
    in
    let token_code, next = Huffman.deserialize_lengths s ~pos:!p in
    p := next;
    let chunk_codes =
      Array.map
        (fun widths ->
          Array.of_list
            (List.map
               (fun _ ->
                 match byte () with
                 | 0 -> None
                 | _ ->
                   let code, next = Huffman.deserialize_lengths s ~pos:!p in
                   p := next;
                   Some code)
               widths))
        stream_widths
    in
    let nblocks = u32 () in
    (* Each block costs at least its 4-byte prefix; a count the remaining
       bytes cannot hold must fail before sizing an array by it. *)
    if nblocks > (String.length s - !p) / 4 then fail ();
    let sizes = Array.make nblocks 0 and blocks = Array.make nblocks "" in
    for b = 0 to nblocks - 1 do
      let q = !p in
      if q + 4 > String.length s then fail ();
      let len = String.get_uint16_be s q in
      sizes.(b) <- String.get_uint16_be s (q + 2);
      if q + 4 + len > String.length s then fail ();
      blocks.(b) <- String.sub s (q + 4) len;
      p := q + 4 + len
    done;
    (* [decompress] allocates the sum of the block sizes, so the header's
       size — the one the image's cap sees — must be that sum. *)
    if Array.fold_left ( + ) 0 sizes <> original_size then
      Ccomp_util.Decode_error.fail (Malformed "Sadc.deserialize: block sizes disagree with header");
    let config = { block_size; max_entries; max_rounds } in
    ({ config; dict; token_code; chunk_codes; blocks; sizes; original_size; rounds }, !p)

  (* --- test hooks ---------------------------------------------------- *)

  module For_tests = struct
    let prepare config instr_list =
      match I.parse (I.encode_list instr_list) with
      | Some prog -> builder prog (segments prog.boff config.block_size)
      | None -> invalid_arg "Sadc.For_tests: program does not decode"

    let build_naive config instr_list =
      let bld = prepare config instr_list in
      let rounds = build_dictionary_naive config bld in
      (Array.sub bld.dict_entries 0 bld.dict_n, rounds)

    let build_incremental ?check config instr_list =
      let bld = prepare config instr_list in
      let rounds = build_dictionary_incremental ?check config bld in
      (Array.sub bld.dict_entries 0 bld.dict_n, rounds)
  end
end

module Mips = Make (Sadc_isa.Mips_streams)
module X86 = Make (Sadc_isa.X86_streams)
module X86_fields = Make (Sadc_isa.X86_field_streams)
