module Coder = Ccomp_arith.Binary_coder

(* States are rows in growable parallel arrays: per state, for each bit
   value, a transition count and a successor. Counts are floats as in the
   original formulation (cloning splits them proportionally). *)
type machine = {
  mutable counts0 : float array;
  mutable counts1 : float array;
  mutable next0 : int array;
  mutable next1 : int array;
  mutable n_states : int;
  max_states : int;
}

let grow m =
  let cap = Array.length m.counts0 in
  if m.n_states = cap then begin
    let ncap = max 64 (2 * cap) in
    let extend a init =
      let b = Array.make ncap init in
      Array.blit a 0 b 0 cap;
      b
    in
    m.counts0 <- extend m.counts0 0.0;
    m.counts1 <- extend m.counts1 0.0;
    m.next0 <- extend m.next0 0;
    m.next1 <- extend m.next1 0
  end

let add_state m =
  grow m;
  let id = m.n_states in
  m.n_states <- id + 1;
  id

(* Initial machine: the 8-state bit-position braid — state i handles bit
   position i of the current byte and both edges lead to position i+1. *)
let create ~max_states =
  let m =
    { counts0 = [||]; counts1 = [||]; next0 = [||]; next1 = [||]; n_states = 0; max_states }
  in
  for i = 0 to 7 do
    let id = add_state m in
    assert (id = i);
    m.counts0.(i) <- 0.2;
    m.counts1.(i) <- 0.2;
    m.next0.(i) <- (i + 1) mod 8;
    m.next1.(i) <- (i + 1) mod 8
  done;
  m

let clone_threshold = 2.0

(* Traverse edge (state, bit), possibly cloning the successor first; the
   standard DMC adaptation rule. *)
let step m state bit =
  let count = if bit = 0 then m.counts0.(state) else m.counts1.(state) in
  let succ = if bit = 0 then m.next0.(state) else m.next1.(state) in
  let succ_total = m.counts0.(succ) +. m.counts1.(succ) in
  let new_succ =
    if
      count > clone_threshold
      && succ_total -. count > clone_threshold
      && m.n_states < m.max_states
    then begin
      let c = add_state m in
      let fraction = count /. succ_total in
      m.counts0.(c) <- m.counts0.(succ) *. fraction;
      m.counts1.(c) <- m.counts1.(succ) *. fraction;
      m.counts0.(succ) <- m.counts0.(succ) -. m.counts0.(c);
      m.counts1.(succ) <- m.counts1.(succ) -. m.counts1.(c);
      m.next0.(c) <- m.next0.(succ);
      m.next1.(c) <- m.next1.(succ);
      if bit = 0 then m.next0.(state) <- c else m.next1.(state) <- c;
      c
    end
    else succ
  in
  if bit = 0 then m.counts0.(state) <- m.counts0.(state) +. 1.0
  else m.counts1.(state) <- m.counts1.(state) +. 1.0;
  new_succ

let prediction m state =
  let c0 = m.counts0.(state) and c1 = m.counts1.(state) in
  let p = (c0 +. 0.2) /. (c0 +. c1 +. 0.4) in
  max 1 (min (Coder.scale - 1) (int_of_float (p *. float_of_int Coder.scale)))

let header n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let compress ?(max_states = 1 lsl 18) data =
  let m = create ~max_states in
  let e = Coder.Encoder.create () in
  let state = ref 0 in
  String.iter
    (fun ch ->
      let byte = Char.code ch in
      for k = 7 downto 0 do
        let bit = (byte lsr k) land 1 in
        Coder.Encoder.encode e ~p0:(prediction m !state) bit;
        state := step m !state bit
      done)
    data;
  header (String.length data) ^ Coder.Encoder.finish e

let decompress ?(max_states = 1 lsl 18) ?max_output data =
  if String.length data < 4 then invalid_arg "Dmc.decompress: truncated";
  let b k = Char.code data.[k] in
  let size = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  (match max_output with
  | Some limit when size > limit ->
    Ccomp_util.Decode_error.fail (Length_overflow { section = "dmc"; declared = size; limit })
  | Some _ | None -> ());
  let m = create ~max_states in
  let d = Coder.Decoder.create ~pos:4 data in
  let out = Bytes.create size in
  let state = ref 0 in
  for i = 0 to size - 1 do
    let byte = ref 0 in
    for _ = 7 downto 0 do
      let bit = Coder.Decoder.decode d ~p0:(prediction m !state) in
      byte := (!byte lsl 1) lor bit;
      state := step m !state bit
    done;
    Bytes.set out i (Char.chr !byte)
  done;
  Bytes.to_string out

let ratio ?max_states data =
  if String.length data = 0 then 1.0
  else float_of_int (String.length (compress ?max_states data)) /. float_of_int (String.length data)

let model_states ?(max_states = 1 lsl 18) data =
  let m = create ~max_states in
  let state = ref 0 in
  String.iter
    (fun ch ->
      let byte = Char.code ch in
      for k = 7 downto 0 do
        state := step m !state ((byte lsr k) land 1)
      done)
    data;
  m.n_states
