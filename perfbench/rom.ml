(* [rom]: the toolchain and boot path. Every SPEC95-profile program, on
   both ISAs, is compressed with SAMC and SADC, packaged as a SECF image
   and written, then booted: the image is read back and decompressed.
   All jobs run at jobs = 1. Model training, dictionary search, block
   coding and SECF write/read do the work; serve and memsys do none. *)

open Ccomp_core
module Image = Ccomp_image.Image
module I = Inputs

type codec = Samc_c | Sadc_c

type isa = Mips | X86

let cases = [ (Samc_c, Mips); (Samc_c, X86); (Sadc_c, Mips); (Sadc_c, X86) ]

let codec_name = function Samc_c -> "samc" | Sadc_c -> "sadc"

let isa_name = function Mips -> "mips" | X86 -> "x86"

let case_name (c, i) = codec_name c ^ "." ^ isa_name i

(* The codec step; the returned thunk packages the result as an image
   (LAT derivation), which is timed with the write. Configurations are
   those of [ccomp compress] with default flags. *)
let compress (c, i) code : unit -> Image.t =
  match (c, i) with
  | Samc_c, Mips ->
    let z = Samc.compress (Samc.mips_config ()) code in
    fun () -> Image.of_samc ~isa:Image.Mips z
  | Samc_c, X86 ->
    let z = Samc.compress (Samc.byte_config ()) code in
    fun () -> Image.of_samc ~isa:Image.X86 z
  | Sadc_c, Mips ->
    let z = Sadc.Mips.compress_image (Sadc.default_config ()) code in
    fun () -> Image.of_sadc_mips z
  | Sadc_c, X86 ->
    let z = Sadc.X86.compress_image (Sadc.default_config ()) code in
    fun () -> Image.of_sadc_x86 z

(* What an image holds, summed per codec over a workload's images: the
   source of the codec layers' static metrics on every workload. *)
type image_facts = { orig : int; code : int; tables : int; dict_rounds : int; dict_entries : int }

let no_facts = { orig = 0; code = 0; tables = 0; dict_rounds = 0; dict_entries = 0 }

let add_facts a b =
  {
    orig = a.orig + b.orig;
    code = a.code + b.code;
    tables = a.tables + b.tables;
    dict_rounds = a.dict_rounds + b.dict_rounds;
    dict_entries = a.dict_entries + b.dict_entries;
  }

let facts_of ~orig (img : Image.t) =
  match img.Image.payload with
  | Image.Samc z -> { no_facts with orig; code = Samc.code_bytes z; tables = Samc.model_bytes z }
  | Image.Sadc_mips z ->
    let s = Sadc.Mips.stats z in
    {
      orig;
      code = Sadc.Mips.code_bytes z;
      tables = Sadc.Mips.dict_bytes z + Sadc.Mips.tables_bytes z;
      dict_rounds = s.rounds;
      dict_entries = s.entries;
    }
  | Image.Sadc_x86 z ->
    let s = Sadc.X86.stats z in
    {
      orig;
      code = Sadc.X86.code_bytes z;
      tables = Sadc.X86.dict_bytes z + Sadc.X86.tables_bytes z;
      dict_rounds = s.rounds;
      dict_entries = s.entries;
    }

(* The code-only ratio (the paper's Fig. 7/8 ratio), table bytes and
   SADC dictionary figures of each codec's images. *)
let codec_layers ~samc ~sadc =
  let ratio f = float_of_int f.code /. float_of_int f.orig in
  [
    Report.m "samc.code_ratio" "ratio" (ratio samc);
    Report.m "sadc.code_ratio" "ratio" (ratio sadc);
    Report.m "samc.tables_bytes" "bytes" (float_of_int samc.tables);
    Report.m "sadc.tables_bytes" "bytes" (float_of_int sadc.tables);
    Report.m "sadc.dict_rounds" "count" (float_of_int sadc.dict_rounds);
    Report.m "sadc.dict_entries" "count" (float_of_int sadc.dict_entries);
  ]

(* Per-case totals over one round. *)
type tally = {
  mutable facts : image_facts;
  mutable rom : int;
  mutable compress_s : float;  (** compress + image packaging + write *)
  mutable decompress_s : float;  (** read + decompress *)
  mutable boot_us : float list;  (** read + decompress, per image *)
}

let new_tally () = { facts = no_facts; rom = 0; compress_s = 0.0; decompress_s = 0.0; boot_us = [] }

type round = { tallies : (codec * isa * tally) list; ops : int; failed : int }

let timed f =
  let t0 = Measure.now_ns () in
  let v = f () in
  (v, Measure.secs_since t0)

let code_of i p = match i with Mips -> I.mips_code p | X86 -> I.x86_code p

let one (c, i) code t =
  let name = "rom." ^ case_name (c, i) in
  let mk, tc = timed (fun () -> Spans.span (name ^ ".compress") (fun () -> compress (c, i) code)) in
  let (img, bytes), tw =
    timed (fun () ->
        Spans.span (name ^ ".write") (fun () ->
            let img = mk () in
            (img, Image.write img)))
  in
  let read, tr = timed (fun () -> Spans.span (name ^ ".read") (fun () -> Image.read bytes)) in
  let out, td =
    timed (fun () ->
        Spans.span (name ^ ".decode") (fun () ->
            match read with Ok im -> Some (Image.decompress im) | Error _ -> None))
  in
  t.facts <- add_facts t.facts (facts_of ~orig:(String.length code) img);
  t.rom <- t.rom + String.length bytes;
  t.compress_s <- t.compress_s +. tc +. tw;
  t.decompress_s <- t.decompress_s +. tr +. td;
  t.boot_us <- ((tr +. td) *. 1e6) :: t.boot_us;
  (* the oracle: the booted image is the source, byte for byte *)
  out = Some code

let round programs =
  let tallies = List.map (fun (c, i) -> (c, i, new_tally ())) cases in
  let ops = ref 0 and failed = ref 0 in
  Array.iter
    (fun p ->
      List.iter
        (fun (c, i, t) ->
          incr ops;
          match one (c, i) (code_of i p) t with
          | true -> ()
          | false -> incr failed
          | exception _ -> incr failed)
        tallies)
    programs;
  { tallies; ops = !ops; failed = !failed }

let setup ~seed () =
  let programs = I.generate ~scale:I.spec_scale ~x86:true ~seed Ccomp_progen.Profile.spec95 in
  (* warm-up: one small program through every case *)
  let smallest =
    Array.fold_left
      (fun a p -> if String.length (I.mips_code p) < String.length (I.mips_code a) then p else a)
      programs.(0) programs
  in
  ignore (round [| smallest |]);
  programs

let of_codec c r = List.filter_map (fun (c', _, t) -> if c' = c then Some t else None) r.tallies

let sum_codec c f r = Measure.sum (List.map f (of_codec c r))

let orig t = float_of_int t.facts.orig

let ratio c r = sum_codec c (fun t -> float_of_int t.rom) r /. sum_codec c orig r

let mbps c sel r = sum_codec c orig r /. 1e6 /. sum_codec c sel r

let codec_facts c r = List.fold_left (fun a t -> add_facts a t.facts) no_facts (of_codec c r)

(* A boot is one decompress op; 36 per codec per round, so a 30-second
   run has about 800 and the tail is p95 (about 40 beyond it). *)
let tail_q = 0.95

let run ~seed ~seconds ~trace ~since =
  let programs, setup_s = Measure.repeat_setup ~since ~discard:(fun _ -> Gc.compact ()) (setup ~seed) in
  let progen = Spans.setup_layers () in
  let rs = Spans.rounds ~seconds ~trace (fun ~traced:_ -> round programs) in
  let all = List.map (fun (r : _ Spans.round) -> r.value) rs in
  let first = List.hd all in
  let ops = List.fold_left (fun a r -> a + r.ops) 0 all in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 all in
  (* the ratios are a function of the inputs alone: every round agrees *)
  let stable =
    List.for_all (fun r -> ratio Samc_c r = ratio Samc_c first && ratio Sadc_c r = ratio Sadc_c first) all
  in
  let plain = Spans.untraced rs in
  let ms = List.map (fun (r : _ Spans.round) -> r.value) plain in
  let med f = Measure.median (List.map f ms) in
  let e2e =
    let busy t = t.compress_s +. t.decompress_s in
    Report.m "ops_per_s" "1/s"
      (med (fun r -> float_of_int r.ops /. (sum_codec Samc_c busy r +. sum_codec Sadc_c busy r)))
    :: List.concat_map
         (fun c ->
           let n = codec_name c in
           let boots =
             Measure.sorted_floats (List.concat_map (fun r -> List.concat_map (fun t -> t.boot_us) (of_codec c r)) ms)
           in
           [
             Report.m (n ^ ".compress_mbps") "MB/s" (med (mbps c (fun t -> t.compress_s)));
             Report.m (n ^ ".decompress_mbps") "MB/s" (med (mbps c (fun t -> t.decompress_s)));
             Report.m (n ^ ".rom_ratio") "ratio" (ratio c first);
             Report.m (n ^ ".decompress_p50_us") "us" (Measure.percentile_sorted boots 0.5);
             Report.m (n ^ ".decompress_tail_us") "us" (Measure.percentile_sorted boots tail_q);
           ])
         [ Samc_c; Sadc_c ]
  in
  let layer () =
    let traced_ops = List.length (Spans.traced rs) * first.ops in
    (* self time per call of the spans [rom.<codec>.<isa>.<step>], both ISAs *)
    let per_call codec step =
      let names = List.map (fun i -> "rom." ^ case_name (codec, i) ^ "." ^ step) [ Mips; X86 ] in
      let self = Measure.sum (List.map Spans.self_s names) in
      let calls = List.fold_left (fun a n -> a + Spans.calls n) 0 names in
      1e6 *. self /. float_of_int calls
    in
    [
      Report.m "samc.compress_us_per_op" "us" (per_call Samc_c "compress");
      Report.m "sadc.compress_us_per_op" "us" (per_call Sadc_c "compress");
      Report.m "samc.decode_us_per_op" "us" (per_call Samc_c "decode");
      Report.m "sadc.decode_us_per_op" "us" (per_call Sadc_c "decode");
      Report.m "outside_codec_us_per_op" "us"
        (1e6
        *. Measure.sum
             (List.concat_map
                (fun case -> List.map (fun s -> Spans.self_s ("rom." ^ case_name case ^ "." ^ s)) [ "write"; "read" ])
                cases)
        /. float_of_int traced_ops);
    ]
    @ codec_layers ~samc:(codec_facts Samc_c first) ~sadc:(codec_facts Sadc_c first)
    @ Spans.process_layers ~ops:first.ops rs
  in
  let bytes_of i =
    Array.fold_left (fun a p -> a + String.length (code_of i p)) 0 programs
  in
  let facts =
    [
      ("programs", string_of_int (Array.length programs));
      ("scale", Report.num I.spec_scale);
      ("mips_bytes", string_of_int (bytes_of Mips));
      ("x86_bytes", string_of_int (bytes_of X86));
      ("ops_per_round", string_of_int first.ops);
      ("rounds", string_of_int (List.length rs));
      ("boots_per_codec", string_of_int (List.length ms * 2 * Array.length programs));
    ]
  in
  {
    Report.attempted = ops;
    failed;
    correct = stable && failed = 0;
    e2e =
      (Report.m "setup_s" "s" setup_s :: Report.m "peak_rss_mb" "MB" (Measure.peak_rss_mb "self") :: e2e);
    layer =
      (if trace then
         Report.m "trace_overhead_pct" "%" (Spans.overhead_pct rs)
         :: (progen @ layer ())
       else []);
    facts;
  }
