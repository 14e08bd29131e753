(* [refill]: the paper's run-time path. MIPS images are built and booted
   at setup; a round then decodes single 32-byte blocks in the order each
   program's fetch trace misses a small I-cache: one
   [Samc.decompress_block], or one [Sadc.Mips.decompress_block]
   re-encoded with [encode_list], per miss. The block kernels and their
   per-call allocation do the work; model/dictionary build and image
   parsing do none. Each codec runs its own pass per program, so the
   minor collections its allocation triggers land in its own timings. *)

open Ccomp_core
module Image = Ccomp_image.Image
module I = Inputs

type loaded = {
  code : string;
  misses : int array;  (** block indices, in miss order *)
  samc_z : Samc.compressed;
  sadc_z : Sadc.Mips.compressed;
  sadc_off : int array;  (** source offset of each SADC block *)
  samc_facts : Rom.image_facts;
  sadc_facts : Rom.image_facts;
  samc_rom : int;  (** written image bytes *)
  sadc_rom : int;
}

(* The image build of one setup, per codec: seconds in the codec's
   compress and in image packaging + write, summed over the programs. *)
type build = { mutable compress_s : float; mutable write_s : float }

let new_build () = { compress_s = 0.0; write_s = 0.0 }

(* One entry per setup, newest first: (SAMC, SADC). *)
let builds : (build * build) list ref = ref []

let boot bytes =
  match Image.read bytes with Ok img -> img | Error e -> failwith ("refill setup: " ^ e)

(* Compresses [code], then packages and writes the image, timing both
   into [b]; returns the image and its bytes. *)
let build_image b compress package =
  let t0 = Measure.now_ns () in
  let z = compress () in
  let t1 = Measure.now_ns () in
  let img = package z in
  let bytes = Image.write img in
  let t2 = Measure.now_ns () in
  b.compress_s <- b.compress_s +. (float_of_int (t1 - t0) /. 1e9);
  b.write_s <- b.write_s +. (float_of_int (t2 - t1) /. 1e9);
  (img, bytes)

let load ~seed (samc_b, sadc_b) i p =
  let code = I.mips_code p in
  let misses = I.miss_stream ~seed i p in
  let orig = String.length code in
  let samc_img, samc_bytes =
    build_image samc_b
      (fun () -> Spans.span "refill.samc.compress" (fun () -> Samc.compress (Samc.mips_config ()) code))
      (Image.of_samc ~isa:Image.Mips)
  in
  let sadc_img, sadc_bytes =
    build_image sadc_b
      (fun () ->
        Spans.span "refill.sadc.compress" (fun () -> Sadc.Mips.compress_image (Sadc.default_config ()) code))
      Image.of_sadc_mips
  in
  match ((boot samc_bytes).Image.payload, (boot sadc_bytes).Image.payload) with
  | Image.Samc samc, Image.Sadc_mips sadc ->
    let n = Sadc.Mips.block_count sadc in
    let sadc_off = Array.make n 0 in
    for b = 1 to n - 1 do
      sadc_off.(b) <- sadc_off.(b - 1) + Sadc.Mips.block_original_bytes sadc (b - 1)
    done;
    {
      code;
      misses;
      samc_z = samc;
      sadc_z = sadc;
      sadc_off;
      samc_facts = Rom.facts_of ~orig samc_img;
      sadc_facts = Rom.facts_of ~orig sadc_img;
      samc_rom = String.length samc_bytes;
      sadc_rom = String.length sadc_bytes;
    }
  | _ -> failwith "refill setup: unexpected image payload"

(* [s] equals [code] at [off], without copying the oracle block. *)
let equal_at code off s =
  let n = String.length s in
  off + n <= String.length code
  &&
  let rec go k = k = n || (String.unsafe_get code (off + k) = String.unsafe_get s k && go (k + 1)) in
  go 0

(* One codec's per-call timings for a round; the buffer is reused from
   round to round, so a round allocates nothing of its own. *)
type pass = { ns : int array; mutable k : int; mutable failed : int; mutable bytes : int }

let new_pass n = { ns = Array.make n 0; k = 0; failed = 0; bytes = 0 }

(* One codec's pass over one program's misses. [decode b] returns block
   [b]'s bytes, which start at [offset b] in [code]; the check against
   the source runs after the clock stops. *)
let run_pass p ~code ~offset decode misses =
  Array.iter
    (fun b ->
      let t0 = Measure.now_ns () in
      let s = decode b in
      p.ns.(p.k) <- Measure.now_ns () - t0;
      p.k <- p.k + 1;
      p.bytes <- p.bytes + String.length s;
      if not (equal_at code (offset b) s) then p.failed <- p.failed + 1)
    misses

type summary = { p50_us : float; p99_us : float; busy_s : float; bytes : int; failed : int }

(* Sorts the buffer in place: every miss of the round was timed, so it
   is full, and the next round overwrites it. *)
let summarize p =
  assert (p.k = Array.length p.ns);
  let busy_ns = Array.fold_left ( + ) 0 p.ns in
  Array.sort Int.compare p.ns;
  let q x = float_of_int (Measure.percentile_sorted p.ns x) /. 1e3 in
  { p50_us = q 0.5; p99_us = q 0.99; busy_s = float_of_int busy_ns /. 1e9; bytes = p.bytes; failed = p.failed }

type round = { samc : summary; sadc : summary }

let round loaded (samc, sadc) =
  List.iter
    (fun p ->
      p.k <- 0;
      p.failed <- 0;
      p.bytes <- 0)
    [ samc; sadc ];
  Array.iter
    (fun l ->
      let cfg = l.samc_z.Samc.config and model = l.samc_z.Samc.model in
      let bs = cfg.Samc.block_size and size = String.length l.code in
      run_pass samc ~code:l.code ~offset:(fun b -> b * bs)
        (fun b ->
          let original_bytes = min bs (size - (b * bs)) in
          Spans.span "refill.samc.decode" (fun () ->
              Samc.decompress_block cfg model ~original_bytes l.samc_z.Samc.blocks.(b)))
        l.misses;
      run_pass sadc ~code:l.code ~offset:(fun b -> l.sadc_off.(b))
        (fun b ->
          let instrs = Spans.span "refill.sadc.decode" (fun () -> Sadc.Mips.decompress_block l.sadc_z b) in
          Spans.span "refill.sadc.encode" (fun () -> Sadc_isa.Mips_streams.encode_list instrs))
        l.misses)
    loaded;
  { samc = summarize samc; sadc = summarize sadc }

let total_misses loaded = Array.fold_left (fun a l -> a + Array.length l.misses) 0 loaded

let buffers loaded = (new_pass (total_misses loaded), new_pass (total_misses loaded))

let setup ~seed () =
  let programs = I.generate ~scale:I.spec_scale ~x86:false ~seed Ccomp_progen.Profile.spec95 in
  let b = (new_build (), new_build ()) in
  builds := b :: !builds;
  let loaded = Array.mapi (load ~seed b) programs in
  (* warm-up: one pass of each kernel over the first program *)
  let first = [| loaded.(0) |] in
  ignore (round first (buffers first));
  loaded

let run ~seed ~seconds ~trace ~since =
  let loaded, setup_s = Measure.repeat_setup ~since ~discard:(fun _ -> Gc.compact ()) (setup ~seed) in
  let progen = Spans.setup_layers () in
  let bufs = buffers loaded in
  let rs = Spans.rounds ~seconds ~trace (fun ~traced:_ -> round loaded bufs) in
  let values l = List.map (fun (r : _ Spans.round) -> r.value) l in
  let all = values rs and plain = values (Spans.untraced rs) in
  let calls = total_misses loaded in
  let failed = List.fold_left (fun a r -> a + r.samc.failed + r.sadc.failed) 0 all in
  let codecs = [ ("samc", (fun r -> r.samc), fst); ("sadc", (fun r -> r.sadc), snd) ] in
  let med f = Measure.median (List.map f plain) in
  let sum_l f = Array.fold_left (fun a l -> a + f l) 0 loaded in
  let orig = float_of_int (sum_l (fun l -> String.length l.code)) in
  let e2e =
    Report.m "ops_per_s" "1/s" (med (fun r -> float_of_int (2 * calls) /. (r.samc.busy_s +. r.sadc.busy_s)))
    :: List.concat_map
         (fun (c, sel, build) ->
           let rom = if c = "samc" then sum_l (fun l -> l.samc_rom) else sum_l (fun l -> l.sadc_rom) in
           [
             Report.m (c ^ ".compress_mbps") "MB/s"
               (Measure.median
                  (List.map (fun b -> orig /. 1e6 /. ((build b).compress_s +. (build b).write_s)) !builds));
             Report.m (c ^ ".decompress_mbps") "MB/s" (med (fun r -> float_of_int (sel r).bytes /. 1e6 /. (sel r).busy_s));
             Report.m (c ^ ".rom_ratio") "ratio" (float_of_int rom /. orig);
             Report.m (c ^ ".decompress_p50_us") "us" (med (fun r -> (sel r).p50_us));
             Report.m (c ^ ".decompress_tail_us") "us" (med (fun r -> (sel r).p99_us));
           ])
         codecs
  in
  let layer () =
    let traced_calls = float_of_int (List.length (Spans.traced rs) * calls) in
    let per_call name = 1e6 *. Spans.self_s name /. float_of_int (Spans.calls name) in
    let programs = float_of_int (Array.length loaded) in
    let compress_us build =
      1e6 *. Measure.median (List.map (fun b -> (build b).compress_s) !builds) /. programs
    in
    let facts sel = Array.fold_left (fun a l -> Rom.add_facts a (sel l)) Rom.no_facts loaded in
    [
      Report.m "samc.compress_us_per_op" "us" (compress_us fst);
      Report.m "sadc.compress_us_per_op" "us" (compress_us snd);
      Report.m "samc.decode_us_per_op" "us" (per_call "refill.samc.decode");
      Report.m "sadc.decode_us_per_op" "us" (per_call "refill.sadc.decode");
      Report.m "outside_codec_us_per_op" "us" (1e6 *. Spans.self_s "refill.sadc.encode" /. (2.0 *. traced_calls));
    ]
    @ Rom.codec_layers ~samc:(facts (fun l -> l.samc_facts)) ~sadc:(facts (fun l -> l.sadc_facts))
    @ Spans.process_layers ~ops:(2 * calls) rs
  in
  let facts =
    [
      ("programs", string_of_int (Array.length loaded));
      ("scale", Report.num I.spec_scale);
      ("mips_bytes", string_of_int (sum_l (fun l -> String.length l.code)));
      ( "misses_per_program",
        "[" ^ String.concat ", " (Array.to_list (Array.map (fun l -> string_of_int (Array.length l.misses)) loaded)) ^ "]" );
      ("samples_per_round", string_of_int calls);
      ("rounds", string_of_int (List.length rs));
    ]
  in
  {
    Report.attempted = 2 * calls * List.length rs;
    failed;
    correct = failed = 0;
    e2e = Report.m "setup_s" "s" setup_s :: Report.m "peak_rss_mb" "MB" (Measure.peak_rss_mb "self") :: e2e;
    layer =
      (if trace then (Report.m "trace_overhead_pct" "%" (Spans.overhead_pct rs) :: progen) @ layer ()
       else []);
    facts;
  }
