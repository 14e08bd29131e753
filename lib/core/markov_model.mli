(** Binary Markov trees driving the SAMC arithmetic coder (§3, Fig. 3/4).

    One complete binary tree per (stream, context) pair. A tree for a
    [w]-bit stream has [2^w - 1] internal nodes, each holding the
    probability that the next bit is 0 — exactly the [(2^{w+1} - 2) / 2]
    stored probabilities of the paper. {e Connected} trees (Fig. 4) are
    modelled by the context: the tree used for a stream is selected by the
    last [context_bits] bits of the previously coded stream, giving the
    "limited memory between streams" of §3; [context_bits = 0] recovers
    fully independent trees.

    Nodes use heap indexing: the root is node 1 and bit [b] moves from
    node [n] to node [2n + b]; after [w] steps the walk restarts at the
    root for the next stream. *)

type t
(** A trained (immutable) model. *)

module Trainer : sig
  type model := t

  type t

  val create : widths:int array -> context_bits:int -> t
  (** Fresh zeroed counts for streams of the given widths. Widths must be
      in \[1, 16\] and [context_bits] in \[0, 8\]. *)

  val note : t -> stream:int -> ctx:int -> node:int -> int -> unit
  (** [note t ~stream ~ctx ~node bit] counts one observed bit at a tree
      position.
      @raise Invalid_argument if the position is outside the tree. *)

  val zeros : t -> int array
  (** Zero-bit counts, laid out like {!flat_probs}: the count for
      (stream, ctx, node) is at [tree_offset t ~stream ~ctx + node]
      (slot 0 of each tree is unused). This is the trainer's own
      storage — do not mutate it. *)

  val totals : t -> int array
  (** All-bit counts in the same layout as {!zeros}. *)

  val values : t -> int array
  (** Whole-value counts in the same layout: a [w]-bit stream value [v]
      seen in context [ctx] counts at [tree_offset t ~stream ~ctx + v],
      [v] in \[0, 2^w). A counting loop adds to it directly — one add
      per stream value instead of one per bit. {!finalize} adds each
      value into {!zeros} and {!totals} as its [w] bits down the tree,
      exactly as [w] calls of {!note} would, and clears it. *)

  val tree_offset : t -> stream:int -> ctx:int -> int
  (** Base index of one (stream, context) tree inside {!zeros}, {!totals}
      and {!values}; equal to the trained model's {!Markov_model.tree_offset}. *)

  val finalize : ?quantize:bool -> ?prune_below:int -> t -> model
  (** Fold the {!values} counts in, then convert the node counts to
      12-bit probabilities. [quantize] (default false)
      constrains the less probable symbol to a power of 1/2 so the decoder
      needs only shifts (§3 end). [prune_below] (default 0) drops nodes
      observed fewer than that many times: a pruned node backs off to its
      parent's prediction and is not stored, shrinking the model memory —
      the §6 future-work direction of tuning the model to the program. *)
end

val widths : t -> int array

val context_bits : t -> int

val contexts : t -> int
(** [2 ^ context_bits]. *)

val quantized : t -> bool

val p0 : t -> stream:int -> ctx:int -> node:int -> int
(** Prediction (probability of 0 scaled by {!Ccomp_arith.Binary_coder.scale})
    at a tree position.
    @raise Invalid_argument if the position is outside the tree. *)

val flat_probs : t -> int array
(** The whole model as one flat probability array for the decode hot
    loop: the tree for a (stream, context) pair starts at
    {!tree_offset} and is heap-indexed within ([offset + node]), so
    [flat_probs t).(tree_offset t ~stream ~ctx + node)] equals
    [p0 t ~stream ~ctx ~node] with a single load. The returned array is
    the model's own storage — do not mutate it. *)

val tree_offset : t -> stream:int -> ctx:int -> int
(** Base index of one (stream, context) tree inside {!flat_probs}. *)

val probability_count : t -> int
(** Total number of tree positions,
    [contexts * sum_i (2^{w_i} - 1)]. *)

val retained_count : t -> int
(** Positions that actually store a probability (equals
    {!probability_count} for unpruned models). *)

val pruned : t -> bool

val serialize : t -> string
(** Compact wire form: header + probabilities packed at 12 bits each
    (5 bits each when quantized — a sign bit plus the shift amount).
    Pruned models store a retention bitmap plus only the retained
    probabilities. *)

val deserialize : string -> pos:int -> t * int

val storage_bytes : t -> int
(** [String.length (serialize t)] — the model storage a compressed image
    must ship. *)
