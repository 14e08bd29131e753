(** PPM — prediction by partial matching (order-2, PPMC escapes).

    The paper's §1 names the finite-context-model family (PPM, DMC, WORD)
    as the best-compressing algorithms available, rejected for the
    embedded setting because both compressor and decompressor need large
    adaptive model memories and sequential decoding. This reference
    implementation exists to measure that headroom and that memory cost on
    the same workloads: byte-oriented, adaptive contexts of order 2 → 1 →
    0 → uniform, escape frequency = distinct symbols seen (method C),
    without exclusions. *)

val compress : ?order:int -> string -> string
(** [compress data] with maximum context order 2 by default (0..2). *)

val decompress : ?order:int -> ?max_output:int -> string -> string
(** Inverse of {!compress} for the same [order]. [max_output] bounds the
    declared output size before allocation.
    @raise Ccomp_util.Decode_error.Error ([Length_overflow]) past the cap. *)

val ratio : ?order:int -> string -> float

type memory_report = {
  contexts : int;  (** distinct conditioning contexts allocated *)
  nodes : int;  (** total (context, symbol) count entries *)
  approx_bytes : int;  (** rough model footprint, the paper's objection *)
}

val model_memory : ?order:int -> string -> memory_report
(** Size of the adaptive model after compressing [data]. *)
