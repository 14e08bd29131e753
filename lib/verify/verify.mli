(** Differential verification harness behind [ccomp verify].

    The codebase carries deliberately redundant implementations: fast
    decode kernels next to reference kernels, [~jobs] paths next to
    serial ones, and a daemon that promises byte-identity with the
    offline CLI. Each
    redundancy is an equivalence claim; this module enumerates them as
    {!pair}s and tests every claim over generated programs and a
    committed golden corpus, shrinking any diverging input to a minimal
    reproducer. *)

(** One family of equivalence claims. [Golden] tags corpus findings in
    reports; it is not in {!all_pairs} because the corpus is a fixture
    set, not a selectable pair. *)
type pair = Kernel | Parallel | Serve_offline | Roundtrip | Golden

val pair_name : pair -> string

val pair_of_name : string -> pair option

val all_pairs : pair list

type divergence = {
  d_pair : pair;
  d_case : string;  (** input label + check name *)
  d_detail : string;
  d_block : int option;  (** cache block holding the first differing byte *)
  d_first_diff_bit : int option;  (** absolute bit offset of the first difference *)
  d_repro : string option;  (** shrunk input that still reproduces it *)
}

type input = { in_label : string; in_isa : Ccomp_image.Image.isa; in_code : string }

type report = { checks : int; divergences : divergence list }

type options = { jobs : int; block_size : int; shrink_budget : int }

val default_options : options

val run :
  ?options:options -> ?log:(string -> unit) -> pairs:pair list -> input list -> report
(** Run every check of every requested pair over every input. Each
    divergence is counted in [verify.divergences], recorded as a
    [verify.divergence] event, shrunk (word-aligned greedy removal,
    bounded by [shrink_budget] predicate calls) and reported with the
    first differing block and bit. [log] receives one human line per
    (input, pair) plus one per divergence. Never raises on a divergence
    — only on harness-level failures (e.g. unknown progen profile). *)

val diff_location : block_size:int -> string -> string -> int option * int option
(** [(block, absolute bit)] of the first difference between two byte
    strings, or [(None, None)] when equal. The bit is exact (MSB-first
    within the byte) when both strings still have the differing byte,
    and the byte's first bit when one string simply ended. *)

val minimize :
  word:int -> budget:int -> predicate:(string -> bool) -> string -> string
(** Greedy ddmin-lite: repeatedly delete word-aligned chunks while
    [predicate] still holds, halving the chunk size down to one word.
    [budget] bounds total predicate calls; bytes past the last whole
    word are preserved. The result always satisfies [predicate] if the
    original input did. *)

val gen_code : isa:Ccomp_image.Image.isa -> profile:string -> scale:float -> seed:int -> string
(** Lower one progen program to raw instruction bytes.
    @raise Not_found on an unknown profile name. *)

val progen_inputs : profiles:string list -> scale:float -> seed:int -> input list
(** Both ISAs of every profile, labelled ["<profile>.<isa>"]. *)

(** {2 Golden corpus}

    A committed directory of inputs + compressed artifacts + CRCs
    ([test/golden/]). Checking recompresses each input and compares
    against the blessed artifact bytes — the format-drift tripwire: a
    wire-format or default-configuration change shows up even while
    round-trips still pass. *)

type golden_entry = {
  ge_name : string;
  ge_algo : Ccomp_image.Image.algo;
  ge_isa : Ccomp_image.Image.isa;
  ge_block_size : int;
  ge_input_crc : int32;
  ge_artifact_crc : int32;
}

val bless_golden : dir:string -> golden_entry list
(** Regenerate the corpus in [dir] (creating it if needed) and write
    MANIFEST, [<name>.bin] and [<name>.secf] for every spec. *)

val load_golden : dir:string -> (golden_entry list, string) result
(** Parse [dir]/MANIFEST. *)

val check_golden :
  ?log:(string -> unit) -> dir:string -> golden_entry list -> int * divergence list
(** File CRCs, recompression vs the blessed artifact, and artifact →
    input decode; returns (checks passed, divergences). *)

val golden_inputs : dir:string -> golden_entry list -> input list
(** The corpus inputs, ready to feed into {!run}.
    @raise Sys_error if a corpus file is missing. *)
