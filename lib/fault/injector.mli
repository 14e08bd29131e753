(** Deterministic storage-fault injection.

    Consumers: {!Campaign} ([ccomp fuzz], E13), {!Target}, and
    [test_fault].

    Models the ways a compressed ROM image goes bad: single-bit rot (the
    dominant flash/mask-ROM failure mode), whole-byte corruption, a short
    read (truncation), and a controller-level re-read (duplication).
    Every generator draws only from the supplied {!Ccomp_util.Prng.t}, so
    a whole campaign replays exactly from one seed. *)

type fault =
  | Bit_flip of int  (** global bit index: byte [i lsr 3], bit [i land 7] *)
  | Byte_set of int * int  (** [(offset, value)] *)
  | Truncate of int  (** keep only the first [n] bytes *)
  | Duplicate of int * int
      (** [(offset, len)]: re-insert a copy of [len] bytes at [offset] *)

val describe_fault : fault -> string

val apply : fault -> string -> string
(** Total: out-of-range faults return the input unchanged. *)

type kind = Flip | Byte | Trunc | Dup

val random_bit_flip : ?range:int * int -> Ccomp_util.Prng.t -> string -> fault
(** [range = (offset, length)] restricts the damage to that span — used to
    aim at one SECF section. Default: the whole string. *)

val inject :
  ?range:int * int ->
  ?kinds:kind array ->
  count:int ->
  Ccomp_util.Prng.t ->
  string ->
  string * fault list
(** Apply [count] random faults in sequence (each drawn against the
    current, possibly already-damaged string) and return the damaged
    string and the faults in application order. Each fault's kind is
    drawn uniformly from [kinds] (default: bit flips only, the
    acceptance fault model). *)
