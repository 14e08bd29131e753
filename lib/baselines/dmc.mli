(** DMC — dynamic Markov compression (Cormack & Horspool 1987, the
    paper's citation \[3\]).

    A bit-level finite-state model that grows by cloning states as
    correlations appear, coded with the binary arithmetic coder. Like PPM
    it is cited in §1 among the best-compressing methods and rejected for
    the embedded setting: the model is adaptive (decoding is strictly
    sequential) and its state machine grows with the input — the memory
    objection this module makes measurable.

    The machine starts as the classic byte braid (8 bit-position states)
    and clones while below [max_states]. *)

val compress : ?max_states:int -> string -> string
(** [compress data] with a 2^18-state budget by default. *)

val decompress : ?max_states:int -> ?max_output:int -> string -> string
(** Inverse of {!compress} for the same [max_states]. [max_output] bounds
    the declared output size before allocation.
    @raise Ccomp_util.Decode_error.Error ([Length_overflow]) past the cap. *)

val ratio : ?max_states:int -> string -> float

val model_states : ?max_states:int -> string -> int
(** States allocated after modelling [data] — the model memory measure. *)
