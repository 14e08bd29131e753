(** Section-targeted corruption of SECF images.

    Consumer: [test_fault]'s SECF v2 localisation cases.

    Uses {!Ccomp_image.Image.sections} to aim the {!Injector} at one
    structural region of a written image — the magic, the header, the LAT,
    the model/dictionary tables, one block's payload, the per-block CRC
    table, or the trailing CRC-32 — so a campaign can ask questions like
    "does LAT damage ever decode silently?" rather than only spraying the
    whole image. *)

val corrupt_section :
  ?kinds:Injector.kind array ->
  count:int ->
  Ccomp_util.Prng.t ->
  Ccomp_image.Image.t ->
  Ccomp_image.Image.section ->
  string ->
  string * Injector.fault list
(** Inject [count] faults confined to one section of the encoded image.
    Unknown sections leave the image unchanged. *)
