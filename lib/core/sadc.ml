module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader
module Obs = Ccomp_obs.Obs

(* Observability, shared by every ISA instantiation (the fuzz campaign
   runs several in one process): per-block compress/decompress latency
   and size, dictionary shape, and the bit-I/O refill/flush counts of
   the Huffman coding layer. Guarded by [Obs.metrics_enabled]; never
   alters coded bits. *)
let m_c_blocks = Obs.Counter.make "sadc.compress.blocks"

let m_c_bytes_in = Obs.Counter.make "sadc.compress.bytes_in"

let m_c_bytes_out = Obs.Counter.make "sadc.compress.bytes_out"

let m_c_block_us = Obs.Histogram.make "sadc.compress.block_us"

let m_c_block_ratio = Obs.Histogram.make "sadc.compress.block_ratio"

let m_d_blocks = Obs.Counter.make "sadc.decompress.blocks"

let m_d_bytes_in = Obs.Counter.make "sadc.decompress.bytes_in"

let m_d_bytes_out = Obs.Counter.make "sadc.decompress.bytes_out"

let m_d_block_us = Obs.Histogram.make "sadc.decompress.block_us"

let m_reader_refills = Obs.Counter.make "bitio.reader.refills"

let m_writer_flushes = Obs.Counter.make "bitio.writer.flushes"

let g_dict_entries = Obs.Gauge.make "sadc.dict.entries"

let g_dict_rounds = Obs.Gauge.make "sadc.dict.rounds"

type config = { block_size : int; max_entries : int; max_rounds : int }

let default_config ?(block_size = 32) ?(max_entries = 256) ?(max_rounds = 512) () =
  { block_size; max_entries; max_rounds }

type dict_stats = {
  entries : int;
  base_entries : int;
  group_entries : int;
  specialized_entries : int;
  longest_group : int;
  rounds : int;
}

module Make (I : Sadc_isa.S) = struct
  type primitive = { sym : int; fixed : (int * int * int) list }

  type entry = { prims : primitive array }

  type token = { t_entry : int; t_start : int; t_len : int }

  type compressed = {
    config : config;
    dict : entry array;
    token_code : Huffman.code;
    chunk_codes : Huffman.code option array array;
        (* per stream, per distinct chunk width (see [stream_widths]) *)
    blocks : (string * int) array;
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

  (* Chunk values of one item, most significant chunk first. *)
  let chunks_of s value =
    let widths = stream_chunks.(s) in
    let total = List.fold_left ( + ) 0 widths in
    let rec go remaining = function
      | [] -> []
      | w :: ws ->
        let shift = remaining - w in
        ((value lsr shift) land ((1 lsl w) - 1)) :: go shift ws
    in
    go total widths

  (* --- segmentation ------------------------------------------------- *)

  (* Greedy instruction-aligned packing into cache blocks; fixed-width
     ISAs fill each block exactly, variable-length ones approximate the
     cache line without splitting an instruction (DESIGN.md §2). *)
  let segments instrs block_size =
    let n = Array.length instrs in
    let segs = ref [] in
    let start = ref 0 in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      let len = I.byte_length instrs.(i) in
      if !acc > 0 && !acc + len > block_size then begin
        segs := (!start, i - !start) :: !segs;
        start := i;
        acc := 0
      end;
      acc := !acc + len
    done;
    if !start < n then segs := (!start, n - !start) :: !segs;
    Array.of_list (List.rev !segs)

  (* --- dictionary construction --------------------------------------- *)

  type cand =
    | Pair of int * int
    | Triple of int * int * int
    | Spec of int * int * int * int (* entry, stream, pull position, value *)

  (* Candidates are hashed as packed integers: entry ids fit 20 bits,
     stream/position a few, operand values at most 26 bits. *)
  let key_pair a b = (1 lsl 60) lor (a lsl 20) lor b

  let key_triple a b c = (2 lsl 60) lor (a lsl 40) lor (b lsl 20) lor c

  let key_spec e s p v = (3 lsl 60) lor (e lsl 40) lor (s lsl 36) lor (p lsl 30) lor v

  let cand_of_key key =
    let field off width = (key lsr off) land ((1 lsl width) - 1) in
    match key lsr 60 with
    | 1 -> Pair (field 20 20, field 0 20)
    | 2 -> Triple (field 40 20, field 20 20, field 0 20)
    | 3 -> Spec (field 40 20, field 36 4, field 30 6, field 0 30)
    | _ -> assert false

  let entry_cost e = Array.length e.prims

  let is_fixed prim s p = List.exists (fun (s', p', _) -> s' = s && p' = p) prim.fixed

  (* Count one block's candidate occurrences, calling [emit key] once per
     counted occurrence. Blocks count independently: the non-overlap
     bookkeeping for self-overlapping n-grams like (a, a) is block-local
     (a pattern never straddles two blocks), so the global count of every
     candidate is the sum of its per-block counts — the invariant the
     incremental builder rests on. Token [t_start] indexes the whole
     program's [all_items] directly; there are no per-block item copies. *)
  (* [last_end] is caller-provided scratch (last counted end index per
     n-gram key): a tiny generation-stamped open-addressing map, reset
     O(1) per block by bumping the generation — a block holds at most
     [block_size] tokens, so the per-window bookkeeping must not
     allocate. Slots from older generations read as empty. *)
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

  (* Closure-free walk of one token's operand items for specialisation
     candidates (one [key_spec] per non-absorbed item). *)
  let rec emit_specs emit entry_id prim s p items =
    match items with
    | [] -> ()
    | v :: tl ->
      if not (is_fixed prim s p) then emit (key_spec entry_id s p v);
      emit_specs emit entry_id prim s (p + 1) tl

  let count_block le dict_get all_items tokens emit =
    let n = Array.length tokens in
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
    le.le_g <- le.le_g + 1;
    let g = le.le_g in
    let mask = le.le_cap - 1 in
    let emit_ngram key first last =
      let h = key * 0x9E3779B97F4A7C1 in
      let i = ref ((h lxor (h lsr 31)) land mask) in
      while le.le_gen.(!i) = g && le.le_key.(!i) <> key do
        i := (!i + 1) land mask
      done;
      if le.le_gen.(!i) <> g || le.le_end.(!i) < first then begin
        emit key;
        le.le_key.(!i) <- key;
        le.le_end.(!i) <- last;
        le.le_gen.(!i) <- g
      end
    in
    for i = 0 to n - 2 do
      emit_ngram (key_pair tokens.(i).t_entry tokens.(i + 1).t_entry) i (i + 1)
    done;
    for i = 0 to n - 3 do
      emit_ngram
        (key_triple tokens.(i).t_entry tokens.(i + 1).t_entry tokens.(i + 2).t_entry)
        i (i + 2)
    done;
    for ti = 0 to n - 1 do
      let t = tokens.(ti) in
      let e : entry = dict_get t.t_entry in
      if Array.length e.prims = 1 then begin
        let prim = e.prims.(0) in
        let streams = all_items.(t.t_start) in
        for s = 0 to Array.length streams - 1 do
          emit_specs emit t.t_entry prim s 0 streams.(s)
        done
      end
    done

  (* Full-rescan reference: global counts rebuilt from scratch. Kept as
     the specification the incremental builder is tested against. *)
  let count_candidates dict_get all_items blocks_tokens =
    let counts : (int, int ref) Hashtbl.t = Hashtbl.create 4096 in
    let last_end = le_create () in
    Array.iter
      (fun tokens ->
        count_block last_end dict_get all_items tokens (fun key ->
            match Hashtbl.find_opt counts key with
            | Some r -> incr r
            | None -> Hashtbl.add counts key (ref 1)))
      blocks_tokens;
    counts

  (* Gains in bytes saved, following §4.1: a group of n opcodes replacing
     f occurrences saves f*(occupied tokens - 1) opcode bytes and costs n
     dictionary bytes; absorbing an operand of b bits saves f*b/8. *)
  let gain dict_get cand count =
    let f = float_of_int count in
    match cand with
    | Pair (a, b) -> f -. float_of_int (entry_cost (dict_get a) + entry_cost (dict_get b))
    | Triple (a, b, c) ->
      (2.0 *. f)
      -. float_of_int (entry_cost (dict_get a) + entry_cost (dict_get b) + entry_cost (dict_get c))
    | Spec (_, s, _, _) -> (f *. float_of_int I.stream_bits.(s) /. 8.0) -. 1.0

  let new_entry dict_get = function
    | Pair (a, b) -> { prims = Array.append (dict_get a).prims (dict_get b).prims }
    | Triple (a, b, c) ->
      { prims = Array.concat [ (dict_get a).prims; (dict_get b).prims; (dict_get c).prims ] }
    | Spec (e, s, p, v) ->
      let prim = (dict_get e).prims.(0) in
      { prims = [| { prim with fixed = (s, p, v) :: prim.fixed } |] }

  (* Would [replace] change this block? Cheap pre-scan so the reparse
     pass skips (and never reallocates) untouched blocks — with the
     candidate index below, most rounds touch a handful of blocks. *)
  let matches all_items cand tokens =
    let n = Array.length tokens in
    match cand with
    | Pair (a, b) ->
      let rec go i =
        i + 1 < n && ((tokens.(i).t_entry = a && tokens.(i + 1).t_entry = b) || go (i + 1))
      in
      go 0
    | Triple (a, b, c) ->
      let rec go i =
        i + 2 < n
        && ((tokens.(i).t_entry = a && tokens.(i + 1).t_entry = b && tokens.(i + 2).t_entry = c)
           || go (i + 1))
      in
      go 0
    | Spec (e, s, p, v) ->
      Array.exists
        (fun t ->
          t.t_entry = e
          && (match List.nth_opt all_items.(t.t_start).(s) p with
             | Some v' -> v' = v
             | None -> false))
        tokens

  (* Greedy reparse of one block, also reporting the replacement sites:
     [old_sites] are start indices (in [tokens]) of each consumed
     occurrence, [new_sites] the indices of the inserted [nid] tokens in
     the result. The surgical count update needs both. *)
  let replace_sites all_items cand nid tokens =
    match cand with
    | Pair (a, b) ->
      let n = Array.length tokens in
      let out = ref [] in
      let nout = ref 0 in
      let old_sites = ref [] and new_sites = ref [] in
      let i = ref 0 in
      while !i < n do
        if !i + 1 < n && tokens.(!i).t_entry = a && tokens.(!i + 1).t_entry = b then begin
          out :=
            { t_entry = nid; t_start = tokens.(!i).t_start; t_len = tokens.(!i).t_len + tokens.(!i + 1).t_len }
            :: !out;
          old_sites := !i :: !old_sites;
          new_sites := !nout :: !new_sites;
          incr nout;
          i := !i + 2
        end
        else begin
          out := tokens.(!i) :: !out;
          incr nout;
          incr i
        end
      done;
      (Array.of_list (List.rev !out), !old_sites, !new_sites)
    | Triple (a, b, c) ->
      let n = Array.length tokens in
      let out = ref [] in
      let nout = ref 0 in
      let old_sites = ref [] and new_sites = ref [] in
      let i = ref 0 in
      while !i < n do
        if
          !i + 2 < n
          && tokens.(!i).t_entry = a
          && tokens.(!i + 1).t_entry = b
          && tokens.(!i + 2).t_entry = c
        then begin
          out :=
            {
              t_entry = nid;
              t_start = tokens.(!i).t_start;
              t_len = tokens.(!i).t_len + tokens.(!i + 1).t_len + tokens.(!i + 2).t_len;
            }
            :: !out;
          old_sites := !i :: !old_sites;
          new_sites := !nout :: !new_sites;
          incr nout;
          i := !i + 3
        end
        else begin
          out := tokens.(!i) :: !out;
          incr nout;
          incr i
        end
      done;
      (Array.of_list (List.rev !out), !old_sites, !new_sites)
    | Spec (e, s, p, v) ->
      (* Same-symbol instructions can differ in operand count (x86 ModRM
         forms), so the item at (s, p) may be absent. Positions are
         preserved, so old and new sites coincide. *)
      let sites = ref [] in
      let out =
        Array.mapi
          (fun i t ->
            if t.t_entry = e then
              match List.nth_opt all_items.(t.t_start).(s) p with
              | Some v' when v' = v ->
                sites := i :: !sites;
                { t with t_entry = nid }
              | Some _ | None -> t
            else t)
          tokens
      in
      (out, !sites, !sites)

  let replace all_items cand nid tokens =
    let out, _, _ = replace_sites all_items cand nid tokens in
    out

  (* Base dictionary (one entry per opcode symbol present, §4.1 step 2)
     plus the base tokenization, shared by both builders. Tokens index
     the whole program: block [b] covers [instrs] from [segs.(b)]. *)
  let dict_builder instrs segs =
    let dict : entry array ref = ref [||] in
    let dict_n = ref 0 in
    let push e =
      let id = !dict_n in
      let cap = Array.length !dict in
      if id = cap then begin
        let grown = Array.make (max 16 (2 * cap)) e in
        Array.blit !dict 0 grown 0 cap;
        dict := grown
      end;
      !dict.(id) <- e;
      incr dict_n;
      id
    in
    let dict_get i = !dict.(i) in
    let base_id = Hashtbl.create 64 in
    Array.iter
      (fun instr ->
        let sym = I.symbol instr in
        if not (Hashtbl.mem base_id sym) then
          Hashtbl.add base_id sym (push { prims = [| { sym; fixed = [] } |] }))
      instrs;
    let blocks_tokens =
      Array.map
        (fun (start, len) ->
          Array.init len (fun i ->
              {
                t_entry = Hashtbl.find base_id (I.symbol instrs.(start + i));
                t_start = start + i;
                t_len = 1;
              }))
        segs
    in
    (dict, dict_n, push, dict_get, blocks_tokens)

  (* Canonical selection: largest gain, ties broken toward the smallest
     packed key. (The seed's tie-break was Hashtbl iteration order, which
     an incremental builder cannot reproduce; both builders now share
     this deterministic rule.) *)
  let select_best dict_get counts =
    let best = ref None in
    Hashtbl.iter
      (fun key count ->
        let c = !count in
        if c > 0 then begin
          let g = gain dict_get (cand_of_key key) c in
          if g > 0.0 then
            match !best with
            | Some (g', k') when g' > g || (g' = g && k' < key) -> ()
            | _ -> best := Some (g, key)
        end)
      counts;
    !best

  (* Full-rescan builder: recounts every candidate in every block each
     round. Kept as the executable specification of the incremental
     builder (and for the parity tests); not used on the hot path. *)
  let build_dictionary_naive config instrs all_items segs =
    let dict, dict_n, push, dict_get, blocks_tokens = dict_builder instrs segs in
    let blocks_tokens = ref blocks_tokens in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !dict_n < config.max_entries && !rounds < config.max_rounds do
      incr rounds;
      let counts = count_candidates dict_get all_items !blocks_tokens in
      match select_best dict_get counts with
      | None -> continue_ := false
      | Some (_, key) ->
        let cand = cand_of_key key in
        let nid = push (new_entry dict_get cand) in
        blocks_tokens :=
          Array.map
            (fun tokens ->
              if matches all_items cand tokens then replace all_items cand nid tokens else tokens)
            !blocks_tokens
    done;
    (Array.sub !dict 0 !dict_n, !blocks_tokens, !rounds)

  (* Incremental builder: global candidate counts are kept as the sum of
     per-block contributions. Each round pops the best candidate from a
     lazily-invalidated max-heap, reparses only the blocks listed in the
     candidate's occurrence index, and patches counts surgically: only
     token windows overlapping a replacement site can change, so the
     matched blocks get a handful of +/-1 bumps instead of a full
     recount. A heap element is [(gain, key)] frozen at push time; a pop
     is valid only if that gain still equals the gain recomputed from the
     live count. Gains depend only on the live count and on entry costs
     fixed at entry creation, so the staleness check is exact, and every
     key with positive gain always has its live entry somewhere in the
     heap. [check] recomputes all counts by full rescan each round and
     raises on any disagreement (the parity tests' hook). *)
  let build_dictionary_incremental ?(check = false) config instrs all_items segs =
    let dict, dict_n, push, dict_get, blocks_tokens = dict_builder instrs segs in
    let nblocks = Array.length blocks_tokens in
    (* One flat open-addressing table over packed candidate keys replaces
       a counts / occurrence-index / touched-set Hashtbl trio: a bump is
       a single probe. Slot [i] keeps its key and count adjacent
       ([kc.(2i)], [kc.(2i+1)]) so the hot path touches one cache line.
       Packed keys are nonzero (the kind tag sits in the high bits), so
       key 0 marks an empty slot. The occurrence index lists blocks that
       contributed to a key when last counted; it is append-only and
       allowed to go stale — entries are re-validated by the reparse
       scan before any count is changed. *)
    (* Initial capacity sized so the table never grows on realistic
       corpora: distinct keys stay under ~1.6 per token (pairs + triples
       + specialisations, measured on the generated suites), so four
       slots per token keeps the final load factor under the 75% grow
       threshold — growth would copy every array below into garbage on
       each build. [grow] still handles adversarial key densities. *)
    let total_tokens = Array.fold_left (fun a t -> a + Array.length t) 0 blocks_tokens in
    let initial_cap =
      let target = max 4096 (4 * total_tokens) in
      let c = ref 4096 in
      while !c < target do
        c := !c * 2
      done;
      !c
    in
    let cap = ref initial_cap in
    let mask = ref (!cap - 1) in
    let kc = ref (Array.make (2 * !cap) 0) in
    let occ_at = ref (Array.make !cap []) in
    (* The "count moved since last heap refresh" flag lives in bit 62 of
       the stored key (packed keys use bits 0-61), so marking a slot hot
       touches no extra cache line. *)
    let hot_bit = 1 lsl 62 in
    let key_mask = hot_bit - 1 in
    (* Gains are linear in the live count — [gain] is [m * count - k]
       with [m] and [k] fixed per key (entries are immutable once
       pushed, so their costs never change). Both coefficients are
       cached per slot on first use ([gm = 0.0] marks uncached), making
       the heap-refresh and staleness checks multiply-adds.
       [lastg] dedups heap pushes: the gain most recently pushed for
       this key and not yet popped, or [neg_infinity]. Keys often get
       net-zero count updates (touched but unchanged); without the
       dedup every such key is re-pushed each round. *)
    let gm_at = ref (Array.make !cap 0.0) in
    let gk_at = ref (Array.make !cap 0.0) in
    let lastg_at = ref (Array.make !cap neg_infinity) in
    let size = ref 0 in
    (* Keys whose count moved since the last heap refresh (their slot's
       hot flag is set, so each key is listed once). A reusable stack
       rather than a list: it fills and drains every round. *)
    let touched = ref (Array.make 1024 0) in
    let ntouched = ref 0 in
    let touch key =
      if !ntouched = Array.length !touched then begin
        let bigger = Array.make (2 * !ntouched) 0 in
        Array.blit !touched 0 bigger 0 !ntouched;
        touched := bigger
      end;
      Array.unsafe_set !touched !ntouched key;
      incr ntouched
    in
    (* Slots are provably in [0, cap): unsafe accesses avoid bounds
       checks on the single hottest loop of the build. *)
    let probe key =
      let h = key * 0x9E3779B97F4A7C1 in
      let a = !kc in
      let m = !mask in
      let i = ref ((h lxor (h lsr 31)) land m) in
      while
        let k = Array.unsafe_get a (!i * 2) land key_mask in
        k <> 0 && k <> key
      do
        i := (!i + 1) land m
      done;
      !i
    in
    let grow () =
      let okc = !kc and oocc = !occ_at in
      let ogm = !gm_at and ogk = !gk_at and olastg = !lastg_at in
      let ocap = !cap in
      cap := ocap * 2;
      mask := !cap - 1;
      kc := Array.make (2 * !cap) 0;
      occ_at := Array.make !cap [];
      gm_at := Array.make !cap 0.0;
      gk_at := Array.make !cap 0.0;
      lastg_at := Array.make !cap neg_infinity;
      for i = 0 to ocap - 1 do
        if okc.(i * 2) <> 0 then begin
          let j = probe (okc.(i * 2) land key_mask) in
          !kc.((j * 2) + 0) <- okc.(i * 2);
          !kc.((j * 2) + 1) <- okc.((i * 2) + 1);
          !occ_at.(j) <- oocc.(i);
          !gm_at.(j) <- ogm.(i);
          !gk_at.(j) <- ogk.(i);
          !lastg_at.(j) <- olastg.(i)
        end
      done
    in
    let count_of key = !kc.((probe key * 2) + 1) in
    let bump b key d =
      if !size * 4 >= !cap * 3 then grow ();
      let i = probe key in
      let a = !kc in
      let kv = Array.unsafe_get a (i * 2) in
      if kv land hot_bit = 0 then begin
        if kv = 0 then incr size;
        Array.unsafe_set a (i * 2) (key lor hot_bit);
        touch key
      end;
      Array.unsafe_set a ((i * 2) + 1) (Array.unsafe_get a ((i * 2) + 1) + d);
      if d > 0 then
        let occ = !occ_at in
        match Array.unsafe_get occ i with
        | b' :: _ when b' = b -> ()
        | _ -> Array.unsafe_set occ i (b :: Array.unsafe_get occ i)
    in
    let last_end = le_create () in
    let add_block b tokens =
      count_block last_end dict_get all_items tokens (fun key -> bump b key 1)
    in
    (* Non-overlap chain count of one n-gram key in one block — the
       per-key replay of [count_block]'s bookkeeping, for the few keys
       the windowed +/-1s cannot handle. *)
    let chain_count tokens key =
      let n = Array.length tokens in
      let count = ref 0 in
      let last = ref (-1) in
      (match cand_of_key key with
      | Pair (a, b) ->
        for i = 0 to n - 2 do
          if tokens.(i).t_entry = a && tokens.(i + 1).t_entry = b && !last < i then begin
            incr count;
            last := i + 1
          end
        done
      | Triple (a, b, c) ->
        for i = 0 to n - 3 do
          if
            tokens.(i).t_entry = a
            && tokens.(i + 1).t_entry = b
            && tokens.(i + 2).t_entry = c
            && !last < i
          then begin
            incr count;
            last := i + 2
          end
        done
      | Spec _ -> assert false);
      !count
    in
    let spec_delta b d t =
      let e = dict_get t.t_entry in
      if Array.length e.prims = 1 then begin
        let prim = e.prims.(0) in
        let streams = all_items.(t.t_start) in
        for s = 0 to Array.length streams - 1 do
          let items = ref streams.(s) in
          let p = ref 0 in
          while
            match !items with
            | [] -> false
            | v :: tl ->
              if not (is_fixed prim s !p) then bump b (key_spec t.t_entry s !p v) d;
              items := tl;
              incr p;
              true
          do
            ()
          done
        done
      end
    in
    let max_len = Array.fold_left (fun m t -> max m (Array.length t)) 1 blocks_tokens in
    (* Self-overlapping keys needing a full re-walk this block. Keys are
       immediate ints, so [memq] is an exact membership test; the list
       stays tiny (self-overlap needs repeated entries inside one
       window). *)
    let recount = ref [] in
    (* Apply the windowed +/-[d]s for one side of a reparse: every pair
       and triple window that overlaps a replacement site, visited once
       even when consecutive sites' windows overlap (sites ascend, so a
       per-kind cursor suffices). Only windows that overlap a site can
       change an n-gram count — unmarked windows map one-to-one between
       the old and new token arrays with their keys intact, so their
       contributions cancel; a marked window of a non-self-overlapping
       key contributes exactly one match. Self-overlapping keys (pair
       with equal halves, triple with first = third) are deferred to
       [recount]. *)
    let windows b tokens n sites nsites width d =
      let nextp = ref 0 and nextt = ref 0 in
      for si = 0 to nsites - 1 do
        let s = sites.(si) in
        let hi = s + width - 1 in
        for p = max !nextp (s - 1) to min (n - 2) hi do
          let a = (Array.unsafe_get tokens p).t_entry
          and b' = (Array.unsafe_get tokens (p + 1)).t_entry in
          let key = key_pair a b' in
          if a = b' then begin
            if not (List.memq key !recount) then recount := key :: !recount
          end
          else bump b key d
        done;
        nextp := hi + 1;
        for p = max !nextt (s - 2) to min (n - 3) hi do
          let a = (Array.unsafe_get tokens p).t_entry
          and c = (Array.unsafe_get tokens (p + 2)).t_entry in
          let key = key_triple a (Array.unsafe_get tokens (p + 1)).t_entry c in
          if a = c then begin
            if not (List.memq key !recount) then recount := key :: !recount
          end
          else bump b key d
        done;
        nextt := hi + 1
      done
    in
    (* Scratch for the fused reparse (reparsing only ever shortens a
       block's token count, so [max_len] bounds every block for the
       whole build). *)
    let scratch = Array.make max_len { t_entry = 0; t_start = 0; t_len = 0 } in
    let old_site_buf = Array.make max_len 0 in
    let new_site_buf = Array.make max_len 0 in
    (* Fused reparse + surgical count patch for one block. Returns false
       (leaving the block untouched) when the candidate no longer occurs
       — the reparse scan doubles as the stale-occurrence test. *)
    let update_block b cand nid =
      let old_tokens = blocks_tokens.(b) in
      let n = Array.length old_tokens in
      let nsites = ref 0 in
      let nout = ref 0 in
      (match cand with
      | Pair (a, b') ->
        let i = ref 0 in
        while !i < n do
          if
            !i + 1 < n
            && (Array.unsafe_get old_tokens !i).t_entry = a
            && (Array.unsafe_get old_tokens (!i + 1)).t_entry = b'
          then begin
            scratch.(!nout) <-
              {
                t_entry = nid;
                t_start = old_tokens.(!i).t_start;
                t_len = old_tokens.(!i).t_len + old_tokens.(!i + 1).t_len;
              };
            old_site_buf.(!nsites) <- !i;
            new_site_buf.(!nsites) <- !nout;
            incr nsites;
            incr nout;
            i := !i + 2
          end
          else begin
            scratch.(!nout) <- old_tokens.(!i);
            incr nout;
            incr i
          end
        done
      | Triple (a, b', c) ->
        let i = ref 0 in
        while !i < n do
          if
            !i + 2 < n
            && (Array.unsafe_get old_tokens !i).t_entry = a
            && (Array.unsafe_get old_tokens (!i + 1)).t_entry = b'
            && (Array.unsafe_get old_tokens (!i + 2)).t_entry = c
          then begin
            scratch.(!nout) <-
              {
                t_entry = nid;
                t_start = old_tokens.(!i).t_start;
                t_len =
                  old_tokens.(!i).t_len + old_tokens.(!i + 1).t_len + old_tokens.(!i + 2).t_len;
              };
            old_site_buf.(!nsites) <- !i;
            new_site_buf.(!nsites) <- !nout;
            incr nsites;
            incr nout;
            i := !i + 3
          end
          else begin
            scratch.(!nout) <- old_tokens.(!i);
            incr nout;
            incr i
          end
        done
      | Spec (e, s, p, v) ->
        for i = 0 to n - 1 do
          let t = old_tokens.(i) in
          if
            t.t_entry = e
            && (match List.nth_opt all_items.(t.t_start).(s) p with
               | Some v' -> v' = v
               | None -> false)
          then begin
            scratch.(i) <- { t with t_entry = nid };
            old_site_buf.(!nsites) <- i;
            new_site_buf.(!nsites) <- i;
            incr nsites
          end
          else scratch.(i) <- t
        done;
        nout := n);
      !nsites > 0
      && begin
           let new_tokens = Array.sub scratch 0 !nout in
           blocks_tokens.(b) <- new_tokens;
           let width = match cand with Pair _ -> 2 | Triple _ -> 3 | Spec _ -> 1 in
           recount := [];
           windows b old_tokens n old_site_buf !nsites width (-1);
           windows b new_tokens !nout new_site_buf !nsites 1 1;
           (* Self-overlapping keys surfaced from either side: replace the
              windowed +/-1s they never received with a full old/new diff. *)
           List.iter
             (fun key ->
               let d = chain_count new_tokens key - chain_count old_tokens key in
               if d <> 0 then bump b key d)
             !recount;
           for si = 0 to !nsites - 1 do
             let site = old_site_buf.(si) in
             for j = 0 to width - 1 do
               spec_delta b (-1) old_tokens.(site + j)
             done
           done;
           (* The inserted token's own spec keys: only a Spec candidate
              yields a single-primitive token (Pair/Triple groups carry
              no spec keys). *)
           (match cand with
           | Spec _ ->
             for si = 0 to !nsites - 1 do
               spec_delta b 1 new_tokens.(new_site_buf.(si))
             done
           | Pair _ | Triple _ -> ());
           true
         end
    in
    let heap =
      Ccomp_util.Heap.create ~cmp:(fun (g1, k1) (g2, k2) ->
          if g1 <> g2 then compare (g2 : float) g1 else compare (k1 : int) k2)
    in
    (* Same value as [gain dict_get (cand_of_key key)], via the slot
       cache. The Spec-case reassociation ([m *. f] with [m = bits / 8]
       versus [f *. bits /. 8.0]) is bit-exact: every sub-product is an
       integer-valued float well under 2^53 scaled by a power of two. *)
    let gain_slot i key c =
      if !gm_at.(i) = 0.0 then begin
        let m, k =
          match cand_of_key key with
          | Pair (a, b) -> (1.0, float_of_int (entry_cost (dict_get a) + entry_cost (dict_get b)))
          | Triple (a, b, c') ->
            ( 2.0,
              float_of_int
                (entry_cost (dict_get a) + entry_cost (dict_get b) + entry_cost (dict_get c')) )
          | Spec (_, s, _, _) -> (float_of_int I.stream_bits.(s) /. 8.0, 1.0)
        in
        !gm_at.(i) <- m;
        !gk_at.(i) <- k
      end;
      (!gm_at.(i) *. float_of_int c) -. !gk_at.(i)
    in
    let refresh_heap () =
      for t = 0 to !ntouched - 1 do
        let key = !touched.(t) in
        let i = probe key in
        !kc.(i * 2) <- key;
        let c = !kc.((i * 2) + 1) in
        if c > 0 then begin
          let g = gain_slot i key c in
          if g > 0.0 && g <> !lastg_at.(i) then begin
            Ccomp_util.Heap.push heap (g, key);
            !lastg_at.(i) <- g
          end
        end
      done;
      ntouched := 0
    in
    let rec pop_best () =
      if Ccomp_util.Heap.is_empty heap then None
      else begin
        let g, key = Ccomp_util.Heap.pop heap in
        let i = probe key in
        (* The pushed copy of [g] is leaving the heap; forget it so a
           later return to the same gain is pushed again. *)
        if !lastg_at.(i) = g then !lastg_at.(i) <- neg_infinity;
        let c = !kc.((i * 2) + 1) in
        if c > 0 && gain_slot i key c = g then Some key else pop_best ()
      end
    in
    let check_counts () =
      let reference = count_candidates dict_get all_items blocks_tokens in
      Hashtbl.iter
        (fun key r ->
          if count_of key <> !r then
            failwith
              (Printf.sprintf "Sadc incremental counts: key %d has %d, rescan says %d" key
                 (count_of key) !r))
        reference;
      for i = 0 to !cap - 1 do
        let key = !kc.(i * 2) land key_mask in
        if key <> 0 && !kc.((i * 2) + 1) <> 0 && not (Hashtbl.mem reference key) then
          failwith
            (Printf.sprintf "Sadc incremental counts: key %d has stale %d" key !kc.((i * 2) + 1))
      done
    in
    Array.iteri add_block blocks_tokens;
    refresh_heap ();
    (* Scratch "already reparsed this round" flags — an occurrence list
       may carry duplicates. *)
    let seen = Bytes.make (max nblocks 1) '\000' in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !dict_n < config.max_entries && !rounds < config.max_rounds do
      incr rounds;
      if check then check_counts ();
      match pop_best () with
      | None -> continue_ := false
      | Some key ->
        let cand = cand_of_key key in
        let nid = push (new_entry dict_get cand) in
        let blocks = !occ_at.(probe key) in
        List.iter
          (fun b ->
            if Bytes.get seen b = '\000' then begin
              Bytes.set seen b '\001';
              ignore (update_block b cand nid : bool)
            end)
          blocks;
        List.iter (fun b -> Bytes.set seen b '\000') blocks;
        refresh_heap ()
    done;
    (Array.sub !dict 0 !dict_n, blocks_tokens, !rounds)

  (* --- entropy coding ------------------------------------------------- *)

  (* Iterate every coded element of a block: [on_token] per token, then
     [on_chunk stream chunk_index value] for each unabsorbed operand
     chunk, in decode pull order. *)
  let iter_block dict all_items tokens ~on_token ~on_chunk =
    Array.iter
      (fun t ->
        on_token t.t_entry;
        let e = dict.(t.t_entry) in
        Array.iteri
          (fun j prim ->
            let items = all_items.(t.t_start + j) in
            Array.iteri
              (fun s stream_items ->
                List.iteri
                  (fun p v ->
                    if not (is_fixed prim s p) then
                      List.iter2 (fun w cv -> on_chunk s w cv) stream_chunks.(s) (chunks_of s v))
                  stream_items)
              items)
          e.prims)
      tokens

  let build_codes dict all_items blocks_tokens =
    let token_freq = Freq.create (Array.length dict) in
    let chunk_freqs =
      Array.map (fun widths -> Array.of_list (List.map (fun w -> Freq.create (1 lsl w)) widths)) stream_widths
    in
    Array.iter
      (fun tokens ->
        iter_block dict all_items tokens
          ~on_token:(fun e -> Freq.add token_freq e)
          ~on_chunk:(fun s w cv -> Freq.add chunk_freqs.(s).(width_index s w) cv))
      blocks_tokens;
    let token_code = Huffman.build token_freq in
    let chunk_codes =
      Array.map
        (Array.map (fun freq -> if Freq.total freq > 0 then Some (Huffman.build freq) else None))
        chunk_freqs
    in
    (token_code, chunk_codes)

  let encode_block w dict token_code chunk_codes instrs all_items tokens =
    Bit_writer.reset w;
    iter_block dict all_items tokens
      ~on_token:(fun e -> Huffman.encode_symbol token_code w e)
      ~on_chunk:(fun s cw cv ->
        match chunk_codes.(s).(width_index s cw) with
        | Some code -> Huffman.encode_symbol code w cv
        | None -> assert false);
    let original =
      Array.fold_left (fun acc t ->
          let stop = t.t_start + t.t_len in
          let sum = ref 0 in
          for i = t.t_start to stop - 1 do
            sum := !sum + I.byte_length instrs.(i)
          done;
          acc + !sum)
        0 tokens
    in
    if Obs.metrics_enabled () then Obs.Counter.add m_writer_flushes (Bit_writer.flushes w);
    (Bit_writer.contents w, original)

  let compress ?(jobs = 1) config instr_list =
    Obs.with_span ~cat:"sadc" ("sadc." ^ I.name ^ ".compress") @@ fun () ->
    let instrs = Array.of_list instr_list in
    if Array.length instrs = 0 then invalid_arg "Sadc.compress: empty program";
    let segs = segments instrs config.block_size in
    (* Operand items feed every dictionary round and both coders; one
       array for the whole program, indexed by the tokens' absolute
       [t_start] — no per-block instruction or item copies anywhere. *)
    let all_items = Array.map I.items instrs in
    (* Dictionary construction and code building are global (they see
       every block), so they stay serial; the entropy-coding of each
       block against the finished tables is independent and fans out,
       each domain reusing one bit writer. *)
    let dict, blocks_tokens, rounds =
      Obs.with_span ~cat:"sadc" "sadc.dictionary" (fun () ->
          build_dictionary_incremental config instrs all_items segs)
    in
    let token_code, chunk_codes = build_codes dict all_items blocks_tokens in
    let instrument = Obs.metrics_enabled () in
    if instrument then begin
      Obs.Gauge.set g_dict_entries (float_of_int (Array.length dict));
      Obs.Gauge.set g_dict_rounds (float_of_int rounds)
    end;
    let blocks =
      Obs.with_span ~cat:"sadc" "sadc.encode" @@ fun () ->
      Ccomp_par.Pool.mapi_local ~jobs
        ~local:(fun () -> Bit_writer.create ())
        (fun w _ tokens ->
          if not instrument then encode_block w dict token_code chunk_codes instrs all_items tokens
          else begin
            let t0 = Obs.now_us () in
            let ((payload, original) as blk) =
              encode_block w dict token_code chunk_codes instrs all_items tokens
            in
            Obs.Histogram.observe m_c_block_us (Obs.now_us () -. t0);
            Obs.Counter.incr m_c_blocks;
            Obs.Counter.add m_c_bytes_in original;
            Obs.Counter.add m_c_bytes_out (String.length payload);
            if original > 0 then
              Obs.Histogram.observe m_c_block_ratio
                (float_of_int (String.length payload) /. float_of_int original);
            blk
          end)
        blocks_tokens
    in
    let original_size = Array.fold_left (fun acc i -> acc + I.byte_length i) 0 instrs in
    { config; dict; token_code; chunk_codes; blocks; original_size; rounds }

  let compress_image ?jobs config image =
    match I.parse image with
    | Some instrs -> compress ?jobs config instrs
    | None -> invalid_arg "Sadc.compress_image: image does not decode"

  let block_count c = Array.length c.blocks

  let block_original_bytes c b = snd c.blocks.(b)

  let block_payload_bytes c b = String.length (fst c.blocks.(b))

  (* Decode one block through a caller-owned reader — per-domain scratch
     of the parallel pipeline; [decompress_block] wraps it with a fresh
     reader for the public one-shot API. *)
  let decompress_block_with r c b =
    let payload, original = c.blocks.(b) in
    let refills0 = Bit_reader.refills r in
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
    if Obs.metrics_enabled () then
      Obs.Counter.add m_reader_refills (Bit_reader.refills r - refills0);
    List.rev !out

  let decompress_block c b = decompress_block_with (Bit_reader.create "") c b

  (* Zero-copy block decoder: same token walk as
     [decompress_block_with], but every instruction's bytes land
     straight in the output buffer via [I.read_into] — no instruction
     list, no intermediate string and (for fixed-width ISAs) no
     per-instruction allocation at all. The reader, pull scratch and
     decode closures are built once per domain and reused for every
     block it draws, so a block decode allocates nothing — domains that
     do not touch the minor heap do not meet at GC synchronisation
     barriers, which is what makes jobs=2 pay on few-core hosts.
     The returned [decode b out pos] writes block [b]'s bytes at
     [out.(pos)] and returns the count, which the declared block size
     is enforced to equal. *)
  let make_block_decoder c =
    let r = Bit_reader.create "" in
    let rec chunks s acc = function
      | [] -> acc
      | w :: tl ->
        let code =
          match c.chunk_codes.(s).(width_index s w) with
          | Some code -> code
          | None -> failwith "Sadc.decompress_block: missing chunk code"
        in
        let v = Huffman.decode_symbol code r in
        chunks s ((acc lsl w) lor v) tl
    in
    (* Per-block scratch shared by every instruction: pull counters and
       the current primitive's absorbed operands. Item values are
       non-negative, so -1 can mark "not absorbed". *)
    let counters = Array.make I.stream_count 0 in
    let cur_fixed = ref [] in
    let rec fixed_at s p = function
      | [] -> -1
      | (s', p', v) :: tl -> if s' = s && p' = p then v else fixed_at s p tl
    in
    let next s =
      let p = counters.(s) in
      counters.(s) <- p + 1;
      let v = fixed_at s p !cur_fixed in
      if v >= 0 then v else chunks s 0 stream_chunks.(s)
    in
    fun b out pos ->
      let payload, original = c.blocks.(b) in
      let refills0 = Bit_reader.refills r in
      Bit_reader.reset r payload;
      let produced = ref 0 in
      let steps = ref 0 in
      while !produced < original do
        incr steps;
        if !steps > original then
          Ccomp_util.Decode_error.fail
            (Step_budget_exhausted "Sadc.decompress_block");
        let tok = Huffman.decode_symbol c.token_code r in
        if tok >= Array.length c.dict then
          Ccomp_util.Decode_error.invalid_code "Sadc.decompress_block: token beyond dictionary";
        let prims = c.dict.(tok).prims in
        for k = 0 to Array.length prims - 1 do
          let prim = Array.unsafe_get prims k in
          Array.fill counters 0 I.stream_count 0;
          cur_fixed := prim.fixed;
          produced := !produced + I.read_into ~symbol:prim.sym ~next out (pos + !produced)
        done
      done;
      if !produced <> original then failwith "Sadc.decompress_block: length mismatch";
      if Obs.metrics_enabled () then
        Obs.Counter.add m_reader_refills (Bit_reader.refills r - refills0);
      original

  let decompress ?(jobs = 1) c =
    Obs.with_span ~cat:"sadc" ("sadc." ^ I.name ^ ".decompress") @@ fun () ->
    let instrument = Obs.metrics_enabled () in
    let nblocks = Array.length c.blocks in
    (* Prefix-sum the declared block sizes so every block decodes
       directly into its own slice of one shared output buffer — no
       per-block result strings to concatenate. The decoder enforces
       decoded bytes = declared bytes, so slices cannot overlap in a
       returned result even on corrupt input (writes are bounds-checked,
       and [Decode_error.protect] folds any failure into a typed
       error). *)
    let offs = Array.make (nblocks + 1) 0 in
    for b = 0 to nblocks - 1 do
      offs.(b + 1) <- offs.(b) + snd c.blocks.(b)
    done;
    let out = Bytes.create offs.(nblocks) in
    Ccomp_par.Pool.iter_n ~jobs
      ~local:(fun () -> make_block_decoder c)
      nblocks
      (fun decode b ->
        let t0 = if instrument then Obs.now_us () else 0.0 in
        let n = decode b out offs.(b) in
        if instrument then begin
          Obs.Histogram.observe m_d_block_us (Obs.now_us () -. t0);
          Obs.Counter.incr m_d_blocks;
          Obs.Counter.add m_d_bytes_in (String.length (fst c.blocks.(b)));
          Obs.Counter.add m_d_bytes_out n
        end);
    Bytes.unsafe_to_string out

  let block_payload c b = fst c.blocks.(b)

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

  let code_bytes c = Array.fold_left (fun acc (payload, _) -> acc + String.length payload) 0 c.blocks

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
    Array.iter
      (fun (payload, original) ->
        add_u16 b (String.length payload);
        add_u16 b original;
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
      (fun (payload, _) ->
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
    let take n =
      if !p + n > String.length s then fail ();
      let sub = String.sub s !p n in
      p := !p + n;
      sub
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
    let blocks =
      Array.init nblocks (fun _ ->
          let len = u16 () in
          let original = u16 () in
          (take len, original))
    in
    (* [decompress] allocates the sum of the block sizes, so the header's
       size — the one the image's cap sees — must be that sum. *)
    if Array.fold_left (fun acc (_, original) -> acc + original) 0 blocks <> original_size then
      Ccomp_util.Decode_error.fail (Malformed "Sadc.deserialize: block sizes disagree with header");
    let config = { block_size; max_entries; max_rounds } in
    ({ config; dict; token_code; chunk_codes; blocks; original_size; rounds }, !p)

  (* --- test hooks ---------------------------------------------------- *)

  module For_tests = struct
    let prepare config instr_list =
      let instrs = Array.of_list instr_list in
      let segs = segments instrs config.block_size in
      (instrs, Array.map I.items instrs, segs)

    let build_naive config instr_list =
      let instrs, all_items, segs = prepare config instr_list in
      let dict, _, rounds = build_dictionary_naive config instrs all_items segs in
      (dict, rounds)

    let build_incremental ?check config instr_list =
      let instrs, all_items, segs = prepare config instr_list in
      let dict, _, rounds = build_dictionary_incremental ?check config instrs all_items segs in
      (dict, rounds)
  end
end

module Mips = Make (Sadc_isa.Mips_streams)
module X86 = Make (Sadc_isa.X86_streams)
module X86_fields = Make (Sadc_isa.X86_field_streams)
