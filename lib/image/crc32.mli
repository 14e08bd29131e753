(** CRC-32 (IEEE 802.3 polynomial, as used by gzip/zip), protecting the
    compressed-image container against corruption. *)

val of_string : string -> int32

val of_substring : string -> pos:int -> len:int -> int32
(** [of_substring s ~pos ~len = of_string (String.sub s pos len)] without
    the copy.
    @raise Invalid_argument if the range is outside [s]. *)

val update : int32 -> string -> int32
(** Incremental form: [of_string (a ^ b) = update (of_string a) b]. *)
