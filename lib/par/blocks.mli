(** Whole-image compress and decompress for every block codec.

    SAMC, SADC and the byte-Huffman baseline restart at every cache block,
    so each is a per-block encoder and a per-block decoder. This module
    runs those kernels over an image: it fans the blocks over {!Pool},
    lays decoded blocks out in one buffer, holds each block to its
    declared size and records the per-block metrics. Output is
    byte-identical for every [jobs] value (default 1). *)

type metrics

val metrics : string -> metrics
(** [metrics prefix] registers the counters [<prefix>.blocks],
    [<prefix>.bytes_in] and [<prefix>.bytes_out] and the histogram
    [<prefix>.block_us], recorded while metrics are enabled. *)

val encode :
  ?jobs:int -> metrics -> local:(unit -> 'l) -> bytes_in:(int -> int) -> int ->
  ('l -> int -> string) -> string array
(** [encode m ~local ~bytes_in n f] is [[| f s 0; ...; f s (n - 1) |]],
    where [s = local ()] is built once per participating domain.
    [bytes_in b] is block [b]'s original size, read for the metrics. *)

val decode :
  ?jobs:int -> ?pair:(unit -> int -> Bytes.t -> int -> int -> int) -> metrics ->
  sizes:int array -> payload_bytes:(int -> int) -> (unit -> int -> Bytes.t -> int -> int) ->
  string
(** [decode m ~sizes ~payload_bytes make_decoder] rebuilds an image whose
    block [b] declares [sizes.(b)] bytes. [make_decoder ()] runs once per
    participating domain; its [decode b out pos] writes block [b] at
    [out.(pos)] and returns the byte count. [payload_bytes b] is block
    [b]'s compressed size, read for the metrics.

    With [pair], blocks [2k] and [2k + 1] that declare the same size are
    decoded by one call of the per-domain [decode_pair b out pos pos']
    (built by [pair ()]), which writes block [b] at [out.(pos)] and
    block [b + 1] at [out.(pos')] and returns each block's byte count;
    an odd last block, or a pair of unequal sizes, goes through
    [decode]. Every block is still held to its declared size and counted
    in [<prefix>.blocks], and [<prefix>.block_us] still gets one
    observation per block: each block of a pair records half of the
    pair's time.
    @raise Ccomp_util.Decode_error.Error ([Malformed]) when a block
    decodes to other than its declared size. *)
