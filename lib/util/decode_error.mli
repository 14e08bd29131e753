(** Typed decode errors shared by every decompression path.

    The refill-engine premise of the paper — any 32-byte block is
    independently decodable from ROM — only holds in practice if a decoder
    handed corrupted bytes fails {e totally}: it must return an error,
    never raise an unexpected exception, loop forever, or allocate without
    bound. Each codec has one decode function, bounded by construction;
    it raises {!Error} (or legacy [Failure]/[Invalid_argument]), and
    callers that need a [result] wrap it in {!protect}, the one boundary
    that folds every escape hatch into a typed value. *)

type t =
  | Truncated of string  (** input ended inside the named section *)
  | Bad_magic
  | Bad_version of int
  | Crc_mismatch of { section : string; expected : int; got : int }
  | Invalid_code of string  (** an entropy code that decodes to nothing *)
  | Length_overflow of { section : string; declared : int; limit : int }
      (** a declared size that would exceed the decoder's allocation cap *)
  | Step_budget_exhausted of string
      (** a decode loop ran past its worst-case legitimate step count *)
  | Malformed of string  (** any other structural violation *)

exception Error of t

val fail : t -> 'a
(** [fail e] raises {!Error}. *)

val truncated : string -> 'a
(** [truncated section] = [fail (Truncated section)]. *)

val invalid_code : string -> 'a

val to_string : t -> string

val protect : section:string -> (unit -> 'a) -> ('a, t) result
(** [protect ~section f] runs [f] and converts any raised {!Error},
    [Invalid_argument], [Failure], [Not_found], [Division_by_zero] or
    assertion failure into [Error _]; [section] prefixes untyped
    messages. This is the totality boundary of every decode path. *)
