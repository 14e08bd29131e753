(** The paper's evaluation (§5): the 18 SPEC95-profile programs of
    Figs. 7/8 and one row of those figures, the compression ratio of
    every codec on one program.

    SAMC and SADC images are built by {!Ccomp_image.Image.compress}, the
    one place that holds the paper's codec setup, so a row is what the
    CLI and the daemon ship. *)

type prepared = {
  name : string;
  program : Ccomp_progen.Ir.program;
  mips_layout : Ccomp_progen.Layout.t;
  x86_layout : Ccomp_progen.Layout.t;
}

val mips_code : prepared -> string

val x86_code : prepared -> string

val prepare : ?scale:float -> Ccomp_progen.Profile.t -> prepared
(** Generate one profile's program (seed 7) and lower it to both ISAs. *)

val suite : ?scale:float -> unit -> prepared array
(** Every profile of [Ccomp_progen.Profile.spec95], in its order. *)

val find : prepared array -> string -> prepared
(** @raise Invalid_argument on a name not in the suite. *)

(** One row of Figs. 7/8: code-only ratios (compressed code bytes over
    original bytes), lower is better. [lzw] is UNIX compress, [gzip]
    the LZSS stand-in and [huffman] byte Huffman. *)
type ratios = { lzw : float; gzip : float; huffman : float; samc : float; sadc : float }

val columns : (string * (ratios -> float)) list
(** The figures' columns in print order, named as their headers:
    compress, gzip, huffman, samc, sadc. *)

val ratios : ?block_size:int -> isa:Ccomp_image.Image.isa -> string -> ratios
(** Every codec on one code image, [block_size] (default 32) bytes per
    cache block.
    @raise Failure if a SAMC or SADC image does not decompress to [code]. *)

val measure : isa:Ccomp_image.Image.isa -> prepared -> ratios
(** [ratios] on the program's code for [isa]. *)

val average : ratios list -> ratios
(** Column means: the figures' AVERAGE row. *)

val regressions : committed:ratios -> ratios -> string list
(** The columns of an AVERAGE row that print (at [%.3f]) higher than
    [committed]'s, each described with both values; [[]] when none is
    worse. *)

val ordering : ratios -> string list -> string * bool
(** [ordering r names] describes the named {!columns} of [r] as
    ["gzip 0.384 < sadc 0.517 < ..."] and says whether they rise
    strictly in that order. *)
