(* Differential verification harness.

   The pipeline carries several deliberately redundant implementations —
   fast kernels next to reference kernels, parallel paths next to serial
   ones, a daemon that promises byte-identity with the offline CLI. Every
   one of those is an equivalence claim, and this module is where the
   claims are enumerated and actually tested, pairwise, over real inputs:

     kernel     fast decode kernels vs their reference implementations
                (SAMC flat + nibble vs pointer-chasing ref, SADC
                per-block refill vs whole-image decode, Huffman LUT vs
                canonical tree walk)
     parallel   ~jobs:N decompression and compression vs serial,
                byte-for-byte, plus the SECF container's parallel path
                (on a tag-carrying image, so tag verification is in it)
     serve      the daemon's job dispatch (CCQ1 protocol handlers) vs
                the offline CLI construction of the same image
     roundtrip  compress → (serialize → deserialize) → decompress
                returns the original bytes, for every codec (SAMC and
                SADC as the SECF images Image.compress builds) and the
                tagged container

   On divergence the harness shrinks the input greedily (word-aligned
   chunk removal, bounded by a predicate budget) and reports a minimal
   reproducer with the first differing block and bit. *)

module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Sadc_isa = Ccomp_core.Sadc_isa
module Byte_huffman = Ccomp_baselines.Byte_huffman
module Huffman = Ccomp_huffman.Huffman
module Bit_reader = Ccomp_bitio.Bit_reader
module Image = Ccomp_image.Image
module Crc32 = Ccomp_image.Crc32
module Serve = Ccomp_serve.Serve
module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events
module P = Ccomp_progen

type pair = Kernel | Parallel | Serve_offline | Roundtrip | Golden

let pair_name = function
  | Kernel -> "kernel"
  | Parallel -> "parallel"
  | Serve_offline -> "serve"
  | Roundtrip -> "roundtrip"
  | Golden -> "golden"

(* Golden is a corpus, not a selectable equivalence pair — it is
   reported under its own tag but always runs when a corpus directory is
   given. *)
let all_pairs = [ Kernel; Parallel; Serve_offline; Roundtrip ]

let pair_of_name = function
  | "kernel" -> Some Kernel
  | "parallel" -> Some Parallel
  | "serve" -> Some Serve_offline
  | "roundtrip" -> Some Roundtrip
  | _ -> None

type divergence = {
  d_pair : pair;
  d_case : string;  (** input label + check name, e.g. "gcc.mips samc/kernels" *)
  d_detail : string;
  d_block : int option;  (** cache block holding the first differing byte *)
  d_first_diff_bit : int option;  (** absolute bit offset of the first difference *)
  d_repro : string option;  (** shrunk input still reproducing the divergence *)
}

type input = { in_label : string; in_isa : Image.isa; in_code : string }

type report = { checks : int; divergences : divergence list }

let c_checks = Obs.Counter.make "verify.checks"

let c_divergences = Obs.Counter.make "verify.divergences"

(* --- outcomes ----------------------------------------------------------- *)

type outcome =
  | Pass of int  (** elementary comparisons that held *)
  | Skip of string  (** the input itself was rejected (cannot even build) *)
  | Diverge of { detail : string; got : string; want : string }

(* Build failures (a shrink candidate the codec legitimately refuses,
   e.g. an x86 byte string that no longer parses) must not read as
   divergences — they are wrapped so [eval] can tell them apart from a
   decoder blowing up on input it accepted. *)
exception Invalid_input of exn

let guard_build f = try f () with e -> raise (Invalid_input e)

let cmp ~detail got want =
  if String.equal got want then Pass 1 else Diverge { detail; got; want }

let seq steps =
  List.fold_left
    (fun acc step ->
      match acc with
      | Skip _ | Diverge _ -> acc
      | Pass n -> ( match step () with Pass m -> Pass (n + m) | o -> o))
    (Pass 0) steps

let eval check code =
  match check code with
  | o -> o
  | exception Invalid_input e -> Skip (Printexc.to_string e)
  | exception e ->
    Diverge { detail = "exception escaped a decode path: " ^ Printexc.to_string e;
              got = ""; want = "" }

(* --- first-difference location ------------------------------------------ *)

let first_diff_byte a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i >= n then None else if a.[i] <> b.[i] then Some i else go (i + 1) in
  match go 0 with
  | Some _ as d -> d
  | None -> if String.length a = String.length b then None else Some n

(* (block, absolute first differing bit) between two byte strings; the
   bit is exact when both strings still have the byte, the byte's first
   bit when one string simply ended. *)
let diff_location ~block_size a b =
  match first_diff_byte a b with
  | None -> (None, None)
  | Some i ->
    let bit =
      if i < min (String.length a) (String.length b) then begin
        let x = Char.code a.[i] lxor Char.code b.[i] in
        let rec top k = if x land (1 lsl k) <> 0 then 7 - k else top (k - 1) in
        (8 * i) + top 7
      end
      else 8 * i
    in
    (Some (i / block_size), Some bit)

(* --- greedy input shrinking --------------------------------------------- *)

(* ddmin-lite: repeatedly remove word-aligned chunks, halving the chunk
   size whenever no removal reproduces, until single words survive. The
   predicate budget bounds total work; any bytes past the last whole
   word ride along untouched. *)
let minimize ~word ~budget ~predicate code =
  let calls = ref 0 in
  let pred c =
    if !calls >= budget then false
    else begin
      incr calls;
      predicate c
    end
  in
  let words s = String.length s / word in
  let remove s lo len =
    String.sub s 0 (lo * word)
    ^ String.sub s ((lo + len) * word) (String.length s - ((lo + len) * word))
  in
  let rec pass chunk cur =
    if chunk < 1 then cur
    else begin
      let cur = ref cur in
      let changed = ref true in
      while !changed do
        changed := false;
        let i = ref 0 in
        while !i * chunk < words !cur do
          let lo = !i * chunk in
          let len = min chunk (words !cur - lo) in
          if len > 0 && len < words !cur then begin
            let cand = remove !cur lo len in
            if pred cand then begin
              cur := cand;
              changed := true
            end
            else incr i
          end
          else incr i
        done
      done;
      pass (chunk / 2) !cur
    end
  in
  if words code <= 1 then code else pass (max 1 (words code / 2)) code

(* --- codec instances ----------------------------------------------------- *)

(* One compressed program viewed through every redundant implementation
   the codec carries. Checks below only consume this record, so each
   codec states its equivalences in one place. *)
type instance = {
  ci_serial : string Lazy.t;  (** decompress, jobs = 1 *)
  ci_parallel : (int -> string) option;  (** decompress ~jobs *)
  ci_kernels : (string * (unit -> string)) list;  (** alternative decoders *)
  ci_serialize : string Lazy.t;  (** wire form of this compressed value *)
  ci_compress_parallel : (int -> string) option;  (** wire form of compress ~jobs *)
  ci_reserialized : unit -> string;  (** serialize → deserialize → decompress *)
}

(* Decode [n] blocks one at a time and concatenate them: the refill
   engine's view of a program. *)
let refill n decode_block =
  let b = Buffer.create 4096 in
  for i = 0 to n - 1 do
    Buffer.add_string b (decode_block i)
  done;
  Buffer.contents b

(* The per-block decoders each payload carries beside its whole-image
   decompress. *)
let kernels (img : Image.t) =
  match img.Image.payload with
  | Image.Samc z ->
    let cfg = z.Samc.config and model = z.Samc.model in
    let kernel name decode =
      ( name,
        fun () ->
          refill (Array.length z.Samc.blocks) (fun i ->
              let original_bytes =
                min cfg.Samc.block_size (z.Samc.original_size - (i * cfg.Samc.block_size))
              in
              decode cfg model ~original_bytes z.Samc.blocks.(i)) )
    in
    [
      kernel "ref-kernel" Samc.decompress_block_ref;
      kernel "flat-kernel" Samc.decompress_block;
      kernel "nibble-kernel" (fun cfg model ~original_bytes p ->
          fst (Samc.decompress_block_parallel cfg model ~original_bytes p));
    ]
  (* every block from only its own payload, instructions re-encoded *)
  | Image.Sadc_mips z ->
    [
      ( "block-refill",
        fun () ->
          refill (Sadc.Mips.block_count z) (fun i ->
              Sadc_isa.Mips_streams.encode_list (Sadc.Mips.decompress_block z i)) );
    ]
  | Image.Sadc_x86 z ->
    [
      ( "block-refill",
        fun () ->
          refill (Sadc.X86.block_count z) (fun i ->
              Sadc_isa.X86_streams.encode_list (Sadc.X86.decompress_block z i)) );
    ]

(* A codec's instance is its SECF image, built as the CLI and the
   daemon build it, so the wire form under test is the shipped one. *)
let make_image ~tag ~algo ~isa ~block_size code =
  let build jobs =
    let img = Image.compress ~jobs ~algo ~isa ~block_size code in
    match tag with Some kind -> Image.with_block_crcs kind img | None -> img
  in
  let img = guard_build (fun () -> build 1) in
  let serialized = lazy (Image.write img) in
  {
    ci_serial = lazy (Image.decompress img);
    ci_parallel = Some (fun j -> Image.decompress ~jobs:j img);
    ci_kernels = kernels img;
    ci_serialize = serialized;
    ci_compress_parallel = Some (fun j -> Image.write (build j));
    ci_reserialized =
      (fun () ->
        match Image.read (Lazy.force serialized) with
        | Ok img' -> Image.decompress img'
        | Error e -> failwith ("SECF image does not read back: " ^ e));
  }

let make_byte_huffman ~block_size code =
  let z = guard_build (fun () -> Byte_huffman.compress ~block_size code) in
  let serialized = lazy (Byte_huffman.serialize z) in
  {
    ci_serial = lazy (Byte_huffman.decompress z);
    ci_parallel = Some (fun j -> Byte_huffman.decompress ~jobs:j z);
    ci_kernels =
      [
        (* LUT-accelerated decode_symbol vs the canonical tree walk *)
        ( "tree-decode",
          fun () ->
            let b = Buffer.create (max 16 z.Byte_huffman.original_size) in
            Array.iteri
              (fun i payload ->
                let n =
                  min z.Byte_huffman.block_size
                    (z.Byte_huffman.original_size - (i * z.Byte_huffman.block_size))
                in
                let r = Bit_reader.create payload in
                for _ = 1 to n do
                  Buffer.add_char b (Char.chr (Huffman.decode_symbol_tree z.Byte_huffman.code r))
                done)
              z.Byte_huffman.blocks;
            Buffer.contents b );
      ];
    ci_serialize = serialized;
    ci_compress_parallel =
      Some (fun j -> Byte_huffman.serialize (Byte_huffman.compress ~block_size ~jobs:j code));
    ci_reserialized =
      (fun () ->
        let z', _ = Byte_huffman.deserialize (Lazy.force serialized) ~pos:0 in
        Byte_huffman.decompress z');
  }

(* Several pairs interrogate the same compressed program; memoize
   instances per (physical input, isa, block size) so one input is
   compressed once per codec, not once per check. Shrink candidates are
   fresh strings and correctly miss the cache. *)
let memo_instance build =
  let cache = ref [] in
  fun ~isa ~block_size code ->
    match
      List.find_opt (fun (c, i, b, _) -> c == code && i = isa && b = block_size) !cache
    with
    | Some (_, _, _, v) -> v
    | None ->
      let v = build ~isa ~block_size code in
      cache := (code, isa, block_size, v) :: List.filteri (fun i _ -> i < 7) !cache;
      v

let samc_instance = memo_instance (make_image ~tag:None ~algo:Samc)

let sadc_instance = memo_instance (make_image ~tag:None ~algo:Sadc)

let byte_huffman_instance = memo_instance (fun ~isa:_ ~block_size code -> make_byte_huffman ~block_size code)

(* The SAMC image again, tagged, so every SECF check also runs tag
   verification on clean input; its kernels and parallel compress are
   the samc instance's. *)
let image_instance =
  memo_instance (fun ~isa ~block_size code ->
      {
        (make_image ~tag:(Some Image.Crc8_tags) ~algo:Samc ~isa ~block_size code) with
        ci_kernels = [];
        ci_compress_parallel = None;
      })

let builders ~isa ~block_size =
  [
    ("samc", fun code -> samc_instance ~isa ~block_size code);
    ("sadc", fun code -> sadc_instance ~isa ~block_size code);
    ("byte-huffman", fun code -> byte_huffman_instance ~isa ~block_size code);
    ("secf", fun code -> image_instance ~isa ~block_size code);
  ]

(* --- the pair checks ----------------------------------------------------- *)

let kernel_check inst _code =
  let want = Lazy.force inst.ci_serial in
  let rec go n = function
    | [] -> Pass n
    | (kname, f) :: rest ->
      let got = f () in
      if String.equal got want then go (n + 1) rest
      else Diverge { detail = kname ^ " decode differs from serial decompress"; got; want }
  in
  go 0 inst.ci_kernels

let parallel_check ~jobs inst _code =
  seq
    [
      (fun () ->
        match inst.ci_parallel with
        | None -> Pass 0
        | Some p ->
          cmp
            ~detail:(Printf.sprintf "decompress ~jobs:%d differs from serial decompress" jobs)
            (p jobs) (Lazy.force inst.ci_serial));
      (fun () ->
        match inst.ci_compress_parallel with
        | None -> Pass 0
        | Some p ->
          cmp
            ~detail:
              (Printf.sprintf "compress ~jobs:%d wire form differs from serial compress" jobs)
            (p jobs) (Lazy.force inst.ci_serialize));
    ]

let roundtrip_check inst code =
  seq
    [
      (fun () -> cmp ~detail:"decompress does not return the original bytes"
          (Lazy.force inst.ci_serial) code);
      (fun () ->
        cmp ~detail:"serialize → deserialize → decompress differs from the original bytes"
          (inst.ci_reserialized ()) code);
    ]

let serve_checks ~isa ~block_size =
  let submit req =
    match Serve.handle_request ~jobs:1 req with
    | Serve.Payload p -> Ok p
    | Serve.Failed e -> Error e
    | Serve.Overloaded e -> Error ("overloaded: " ^ e)
    | Serve.Deadline_expired e -> Error ("deadline expired: " ^ e)
  in
  (* a tagged image also runs the served path's tag verification *)
  let served_decompress algo tag code =
    let img = guard_build (fun () -> Image.compress ~algo ~isa ~block_size code) in
    let img = match tag with Some kind -> Image.with_block_crcs kind img | None -> img in
    match submit (Serve.Decompress (Image.write img)) with
    | Error e ->
      Diverge
        { detail = "daemon refused to decompress an offline CLI image: " ^ e;
          got = ""; want = code }
    | Ok back -> cmp ~detail:"served decompress differs from the original bytes" back code
  in
  List.concat_map
    (fun algo ->
      let name = Image.algo_name algo in
      [
        ( name ^ "/served-compress",
          fun code ->
            let offline =
              Image.write (guard_build (fun () -> Image.compress ~algo ~isa ~block_size code))
            in
            match submit (Serve.Compress { algo; isa; block_size; code }) with
            | Error e ->
              Diverge
                { detail = "daemon refused a compress job the CLI accepts: " ^ e;
                  got = ""; want = offline }
            | Ok served ->
              cmp ~detail:"served image differs from the offline CLI construction" served
                offline );
        (name ^ "/served-decompress", served_decompress algo None);
        (name ^ "/served-decompress-crc8", served_decompress algo (Some Image.Crc8_tags));
      ])
    [ Image.Samc; Image.Sadc ]

let checks ~pair ~isa ~block_size ~jobs =
  let per_instance f =
    List.map
      (fun (iname, mk) -> (iname, fun code -> f (mk code) code))
      (builders ~isa ~block_size)
  in
  match pair with
  | Kernel -> per_instance kernel_check
  | Parallel -> per_instance (parallel_check ~jobs)
  | Roundtrip -> per_instance roundtrip_check
  | Serve_offline -> serve_checks ~isa ~block_size
  | Golden -> []

(* --- runner --------------------------------------------------------------- *)

type options = { jobs : int; block_size : int; shrink_budget : int }

let default_options = { jobs = 4; block_size = 32; shrink_budget = 60 }

let record_divergence ~log ~pair ~case ~block_size ~repro detail got want =
  let block, bit = diff_location ~block_size got want in
  Obs.Counter.incr c_divergences;
  Events.error
    ~fields:
      ([ ("pair", pair_name pair); ("case", case); ("detail", detail) ]
      @ (match block with Some b -> [ ("block", string_of_int b) ] | None -> [])
      @ (match bit with Some b -> [ ("first_diff_bit", string_of_int b) ] | None -> [])
      @ match repro with Some r -> [ ("repro_bytes", string_of_int (String.length r)) ] | None -> [])
    "verify.divergence";
  log
    (Printf.sprintf "DIVERGENCE %-9s %s: %s%s" (pair_name pair) case detail
       (match (block, bit) with
       | Some b, Some bit -> Printf.sprintf " (block %d, first differing bit %d)" b bit
       | _ -> ""));
  {
    d_pair = pair;
    d_case = case;
    d_detail = detail;
    d_block = block;
    d_first_diff_bit = bit;
    d_repro = repro;
  }

let run ?(options = default_options) ?(log = fun _ -> ()) ~pairs inputs =
  let jobs = max 2 options.jobs in
  let block_size = options.block_size in
  let checks_run = ref 0 in
  let divergences = ref [] in
  List.iter
    (fun { in_label; in_isa; in_code } ->
      List.iter
        (fun pair ->
          let cs = checks ~pair ~isa:in_isa ~block_size ~jobs in
          let passed = ref 0 in
          List.iter
            (fun (cname, check) ->
              let case = in_label ^ " " ^ cname in
              match eval check in_code with
              | Pass n ->
                passed := !passed + n;
                checks_run := !checks_run + n;
                Obs.Counter.add c_checks n
              | Skip why ->
                divergences :=
                  record_divergence ~log ~pair ~case ~block_size ~repro:None
                    ("codec rejected the input: " ^ why)
                    "" ""
                  :: !divergences
              | Diverge { detail; got; want } ->
                (* shrink while the same check still diverges *)
                let word = match in_isa with Image.Mips -> 4 | Image.X86 -> 1 in
                let predicate c =
                  match eval check c with Diverge _ -> true | Pass _ | Skip _ -> false
                in
                let shrunk =
                  minimize ~word ~budget:options.shrink_budget ~predicate in_code
                in
                let detail, got, want =
                  match eval check shrunk with
                  | Diverge d -> (d.detail, d.got, d.want)
                  | Pass _ | Skip _ -> (detail, got, want)
                in
                divergences :=
                  record_divergence ~log ~pair ~case ~block_size ~repro:(Some shrunk) detail
                    got want
                  :: !divergences)
            cs;
          log
            (Printf.sprintf "  %-14s %-9s %3d checks  %s" in_label (pair_name pair) !passed
               (if List.exists (fun d -> d.d_pair = pair) !divergences then "DIVERGED" else "ok")))
        pairs)
    inputs;
  { checks = !checks_run; divergences = List.rev !divergences }

(* --- program generation --------------------------------------------------- *)

let gen_code ~isa ~profile ~scale ~seed =
  let prog = P.Generator.generate ~scale ~seed:(Int64.of_int seed) (P.Profile.find profile) in
  match isa with
  | Image.Mips -> (snd (P.Mips_backend.lower prog)).P.Layout.code
  | Image.X86 -> (snd (P.X86_backend.lower prog)).P.Layout.code

let progen_inputs ~profiles ~scale ~seed =
  List.concat_map
    (fun profile ->
      List.map
        (fun isa ->
          {
            in_label = profile ^ "." ^ Image.isa_name isa;
            in_isa = isa;
            in_code = gen_code ~isa ~profile ~scale ~seed;
          })
        [ Image.Mips; Image.X86 ])
    profiles

(* --- golden corpus -------------------------------------------------------- *)

(* Committed inputs + compressed artifacts + CRCs. The artifact compare
   is the format-drift tripwire: any byte-level change to a codec's wire
   form, container layout or default configuration shows up as a
   mismatch against the blessed bytes even while round-trips still
   pass. *)
type golden_entry = {
  ge_name : string;
  ge_algo : Image.algo;
  ge_isa : Image.isa;
  ge_block_size : int;
  ge_input_crc : int32;
  ge_artifact_crc : int32;
}

let golden_specs : (string * Image.algo * Image.isa * string * int) list =
  [
    ("samc-mips-gcc", Image.Samc, Image.Mips, "gcc", 101);
    ("samc-x86-go", Image.Samc, Image.X86, "go", 102);
    ("sadc-mips-swim", Image.Sadc, Image.Mips, "swim", 103);
    ("sadc-x86-compress", Image.Sadc, Image.X86, "compress", 104);
  ]

let golden_scale = 0.05

let golden_block_size = 32

let manifest_file dir = Filename.concat dir "MANIFEST"

let input_file dir name = Filename.concat dir (name ^ ".bin")

let artifact_file dir name = Filename.concat dir (name ^ ".secf")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let bless_golden ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let entries =
    List.map
      (fun (name, algo, isa, profile, seed) ->
        let code = gen_code ~isa ~profile ~scale:golden_scale ~seed in
        let artifact =
          Image.write (Image.compress ~algo ~isa ~block_size:golden_block_size code)
        in
        write_file (input_file dir name) code;
        write_file (artifact_file dir name) artifact;
        {
          ge_name = name;
          ge_algo = algo;
          ge_isa = isa;
          ge_block_size = golden_block_size;
          ge_input_crc = Crc32.of_string code;
          ge_artifact_crc = Crc32.of_string artifact;
        })
      golden_specs
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "# name|algo|isa|block_size|input_crc32|artifact_crc32\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s|%s|%s|%d|%08lx|%08lx\n" e.ge_name (Image.algo_name e.ge_algo)
           (Image.isa_name e.ge_isa) e.ge_block_size e.ge_input_crc e.ge_artifact_crc))
    entries;
  write_file (manifest_file dir) (Buffer.contents b);
  entries

let load_golden ~dir =
  match read_file (manifest_file dir) with
  | exception Sys_error e -> Error ("cannot read golden manifest: " ^ e)
  | text ->
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then parse acc rest
        else begin
          match String.split_on_char '|' line with
          | [ name; algo; isa; bs; icrc; acrc ] -> (
            match
              ( Image.algo_of_name algo,
                Image.isa_of_name isa,
                int_of_string_opt bs,
                Int32.of_string_opt ("0x" ^ icrc),
                Int32.of_string_opt ("0x" ^ acrc) )
            with
            | Some algo, Some isa, Some bs, Some icrc, Some acrc ->
              parse
                ({
                   ge_name = name;
                   ge_algo = algo;
                   ge_isa = isa;
                   ge_block_size = bs;
                   ge_input_crc = icrc;
                   ge_artifact_crc = acrc;
                 }
                :: acc)
                rest
            | _ -> Error (Printf.sprintf "golden manifest: unparseable line %S" line))
          | _ -> Error (Printf.sprintf "golden manifest: malformed line %S" line)
        end
    in
    parse [] (String.split_on_char '\n' text)

(* Corpus verification: file CRCs (the corpus itself is intact), fresh
   compression vs the blessed artifact bytes (format drift), and the
   blessed artifact decoding back to the blessed input. *)
let check_golden ?(log = fun _ -> ()) ~dir entries =
  let checks = ref 0 in
  let divergences = ref [] in
  let diverge e detail got want =
    divergences :=
      record_divergence ~log ~pair:Golden
        ~case:("golden/" ^ e.ge_name)
        ~block_size:e.ge_block_size ~repro:None detail got want
      :: !divergences
  in
  let ok n = checks := !checks + n; Obs.Counter.add c_checks n in
  List.iter
    (fun e ->
      match (read_file (input_file dir e.ge_name), read_file (artifact_file dir e.ge_name)) with
      | exception Sys_error err -> diverge e ("corpus file missing or unreadable: " ^ err) "" ""
      | code, artifact ->
        if Crc32.of_string code <> e.ge_input_crc then
          diverge e "golden input bytes do not match their manifest CRC-32" "" ""
        else if Crc32.of_string artifact <> e.ge_artifact_crc then
          diverge e "golden artifact bytes do not match their manifest CRC-32" "" ""
        else begin
          ok 2;
          (match
             Image.write
               (Image.compress ~algo:e.ge_algo ~isa:e.ge_isa ~block_size:e.ge_block_size code)
           with
          | fresh ->
            if String.equal fresh artifact then ok 1
            else
              diverge e
                (Printf.sprintf
                   "format drift: fresh %s compression no longer matches the blessed artifact"
                   (Image.algo_name e.ge_algo))
                fresh artifact
          | exception exn ->
            diverge e ("compressing the golden input raised: " ^ Printexc.to_string exn) "" "");
          match Image.read artifact with
          | Error err -> diverge e ("blessed artifact no longer reads: " ^ err) "" ""
          | Ok img ->
            let back = Image.decompress img in
            if String.equal back code then ok 1
            else diverge e "blessed artifact no longer decodes to the blessed input" back code
        end)
    entries;
  (!checks, List.rev !divergences)

let golden_inputs ~dir entries =
  List.map
    (fun e ->
      {
        in_label = "golden/" ^ e.ge_name;
        in_isa = e.ge_isa;
        in_code = read_file (input_file dir e.ge_name);
      })
    entries
