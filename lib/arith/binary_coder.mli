(** Binary arithmetic (range) coder with 24-bit interval precision.

    This mirrors the decompressor of §3 of the paper: a 24-bit interval,
    byte-wise renormalisation, and a midpoint computed from the model's
    prediction of the next bit. The implementation is a carry-correct range
    coder (the paper's [min]/[max] pair is tracked as [low]/[range]).

    Probabilities are 12-bit integers: a prediction [p0] in
    \[1, {!scale} - 1\] states that the next bit is 0 with probability
    [p0 / scale]. Each compressed block is coded by a fresh encoder and
    terminated with {!finish}, which chooses the interval value with the
    most trailing zero bytes and truncates them — the decoder reads zeros
    past the end of its input, exactly like [get_byte] in the paper's
    pseudo-code. *)

val scale_bits : int
(** Probability resolution in bits (12). *)

val scale : int
(** [1 lsl scale_bits]. *)

val prob_of_counts : zeros:int -> ones:int -> int
(** Maximum-likelihood prediction of a 0 bit, clamped to \[1, scale-1\] so
    both symbols always remain codable. With no observations, 1/2. *)

val quantize_pow2 : int -> int
(** Constrain a prediction so the less probable symbol's probability is an
    integral power of 1/2 (the paper's shift-only hardware simplification).
    The result stays in \[1, scale-1\]. *)

module Encoder : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Return the encoder to its initial state, retaining its internal
      buffer storage — lets per-domain scratch encode many blocks
      without reallocating (the parallel pipeline's hot path). *)

  val encode : t -> p0:int -> int -> unit
  (** [encode e ~p0 bit] codes [bit] (0 or 1) under prediction [p0]. *)

  val encode_tree : t -> int array -> tree:int -> width:int -> int -> int
  (** [encode_tree e probs ~tree ~width value] codes the low [width] bits
      of [value], MSB-first, down one implicit-heap prediction tree: from
      node 1, each bit is coded under [probs.(tree + node)] and the node
      moves to [2*node + bit]. Returns the final node,
      [2^width + (value land (2^width - 1))]. Produces exactly the bytes
      of [width] calls of {!encode}; the mirror of {!Decoder.decode_tree}
      and the hot kernel of the SAMC block encoder.
      @raise Invalid_argument if a visited prediction is outside
      \[1, scale-1\] or indexes outside [probs]. *)

  val finish : t -> string
  (** Terminates the stream and returns the encoded bytes (trailing zero
      bytes removed). The encoder must not be reused afterwards. *)
end

module Decoder : sig
  type t

  val create : ?pos:int -> string -> t
  (** [create data] starts decoding at byte offset [pos] (default 0). Bytes
      past the end of [data] read as zero. *)

  val reset : t -> string -> unit
  (** [reset d data] restarts [d] on [data] at offset 0, as [create data]
      would, without allocating — the per-domain decoder of a whole-image
      decode serves every block it draws. *)

  val decode : t -> p0:int -> int
  (** Decodes the next bit under prediction [p0]; must be called with the
      same sequence of predictions the encoder used. *)

  val decode_tree : t -> int array -> tree:int -> width:int -> int
  (** [decode_tree d probs ~tree ~width] decodes [width] bits in one
      descent of an implicit-heap prediction tree: starting from node 1,
      each bit is decoded under [probs.(tree + node)] and the node moves
      to [2*node + bit]. Returns the final node, [2^width + value] where
      [value] is the decoded bits MSB-first. Exactly equivalent to
      [width] calls of {!decode}, but the interval state stays in
      registers for the whole descent — this is the hot kernel of the
      SAMC per-block decoder. [width] must be at least 0 and
      [probs.(tree + node)] must be a valid prediction for every visited
      node (indices are not bounds-checked). *)

  val decode_words2 :
    t -> t -> int array -> bases:int array -> widths:int array -> shifts:int array ->
    ctx_mask:int -> word_bytes:int -> Bytes.t -> pos_a:int -> pos_b:int -> n_words:int -> unit
  (** [decode_words2 a b probs ~bases ~widths ~shifts ~ctx_mask ~word_bytes
      out ~pos_a ~pos_b ~n_words] decodes [n_words] SAMC words from each
      of [a] and [b], the two in lock step: the hot kernel of SAMC's
      two-block decoder. For each lane and word, stream [s] is one
      {!decode_tree} descent of width [widths.(s)] (at least 1) from
      [bases.(s) + (ctx lsl widths.(s))], where [ctx] is the previous
      stream's value [land ctx_mask] (0 for the lane's first stream);
      the value lands at bit [shifts.(s)] of the word, and the word is
      written most significant byte first as [word_bytes] bytes at
      [out.(pos_a + i * word_bytes)] (lane [a]) or
      [out.(pos_b + i * word_bytes)] (lane [b]). Each lane's bits are
      exactly those of its own {!decode_tree} calls, and each decoder
      ends where they would leave it. [a] and [b] must be distinct.
      @raise Invalid_argument if a write falls outside [out]. *)

  val consumed_bytes : t -> int
  (** Bytes of input consumed so far (including the 3-byte priming read,
      capped at the end of data). *)
end
