(* Every input of the benchmark, as a pure function of the seed:
   programs, refill miss streams and the served job sequence. Nothing
   here reads a clock. *)

module P = Ccomp_progen
module Cache = Ccomp_memsys.Cache
module Prng = Ccomp_util.Prng
module Serve = Ccomp_serve.Serve

let prog_seed ~seed i = Int64.(add (mul (of_int seed) 1_000_003L) (of_int (i + 1)))

type program = {
  ir : P.Ir.program;
  mips : P.Layout.t;
  x86 : P.Layout.t option;  (** lowered only when the workload uses x86 *)
}

let mips_code p = p.mips.P.Layout.code

let x86_code p =
  match p.x86 with Some l -> l.P.Layout.code | None -> invalid_arg "program not lowered to x86"

(* SPEC95 programs are generated at a quarter of their Fig. 7/8 size so
   that one [rom] round (every program, both ISAs, both codecs) takes
   about a second and a run holds several rounds. *)
let spec_scale = 0.25

let generate ?(scale = 1.0) ~x86 ~seed profiles =
  Array.mapi
    (fun i prof ->
      let ir =
        Spans.span "progen.generate" (fun () ->
            P.Generator.generate ~scale ~seed:(prog_seed ~seed i) prof)
      in
      let mips = Spans.span "progen.lower" (fun () -> snd (P.Mips_backend.lower ir)) in
      let x86 =
        if x86 then Some (Spans.span "progen.lower" (fun () -> snd (P.X86_backend.lower ir)))
        else None
      in
      { ir; mips; x86 })
    profiles

(* --- refill miss streams ------------------------------------------------ *)

(* A 4-line direct-mapped I-cache with the paper's 32-byte lines: the
   synthetic programs spend their time in tight loops, and only a cache
   this small makes a fetch trace miss often. *)
let refill_cache = { Cache.size_bytes = 128; block_size = 32; associativity = 1 }

(* Misses taken per program, so every seed yields the same number of
   refills per round. The trace is generated in chunks, each starting
   at the program entry with its own seed, until the target is met;
   a program whose walk stays inside four lines stops at the chunk cap
   with fewer. *)
let misses_per_program = 3000

let trace_chunk = 10_000

let max_chunks = 32

(* The block indices the fetch trace missed, in order. *)
let miss_stream ~seed i p =
  let cache = Cache.create refill_cache in
  let misses = ref [] and n = ref 0 and chunks = ref 0 in
  while !n < misses_per_program && !chunks < max_chunks do
    let trace =
      Spans.span "progen.trace" (fun () ->
          P.Trace.generate p.ir p.mips ~seed:(prog_seed ~seed (1000 + (max_chunks * i) + !chunks)) ~length:trace_chunk)
    in
    incr chunks;
    Array.iter
      (fun addr ->
        if !n < misses_per_program && not (Cache.access cache addr) then begin
          misses := Cache.block_of_address cache addr :: !misses;
          incr n
        end)
      trace
  done;
  Array.of_list (List.rev !misses)

(* --- the served job sequence -------------------------------------------- *)

type kind = Compress | Decompress

let kind_name = function Compress -> "compress" | Decompress -> "decompress"

let algo_name = function Serve.Samc -> "samc" | Serve.Sadc -> "sadc"

type job = { prog : int; isa : Serve.isa; algo : Serve.algo; kind : kind }

(* Four decompress ops per compress op keeps p50 inside the decompress
   population and p99 inside the compress one; see [check_mix]. *)
let decompress_per_compress = 4

let compress_per_combo = 2

(* One round: every (program, ISA, codec) combination the same number
   of times, so the payload multiset depends on the seed only through
   the generated programs; the seed shuffles the order. *)
let serve_jobs ?(decompress_per_compress = decompress_per_compress) ~seed ~programs () =
  let jobs = ref [] in
  for prog = programs - 1 downto 0 do
    List.iter
      (fun isa ->
        List.iter
          (fun algo ->
            for _ = 1 to compress_per_combo do
              jobs := { prog; isa; algo; kind = Compress } :: !jobs;
              for _ = 1 to decompress_per_compress do
                jobs := { prog; isa; algo; kind = Decompress } :: !jobs
              done
            done)
          [ Serve.Samc; Serve.Sadc ])
      [ Serve.Mips; Serve.X86 ]
  done;
  let a = Array.of_list !jobs in
  Prng.shuffle (Prng.create (Int64.of_int seed)) a;
  a

let population j = algo_name j.algo ^ "." ^ kind_name j.kind

(* Refuse a mix whose p50 or p99 rank sits within 5% of ops of a
   boundary between op populations, ordered by their expected latency
   ([expected_s], e.g. offline job time). A percentile there would be
   taken across two populations, and flip between them run to run. *)
let check_mix ~expected_s jobs =
  let margin = 0.05 in
  let n = float_of_int (Array.length jobs) in
  let pops = Hashtbl.create 4 in
  Array.iter
    (fun j ->
      let k = population j in
      let c, t = Option.value (Hashtbl.find_opt pops k) ~default:(0, []) in
      Hashtbl.replace pops k (c + 1, expected_s j :: t))
    jobs;
  let ordered =
    Hashtbl.fold (fun k (c, ts) acc -> (Measure.median ts, k, c) :: acc) pops []
    |> List.sort compare
  in
  let boundaries =
    let _, bs =
      List.fold_left
        (fun (cum, bs) (_, k, c) -> (cum + c, (float_of_int (cum + c) /. n, k) :: bs))
        (0, []) ordered
    in
    List.filter (fun (b, _) -> b < 1.0) bs
  in
  let near =
    List.concat_map
      (fun rank ->
        List.filter_map
          (fun (b, k) ->
            if Float.abs (rank -. b) < margin then
              Some (Printf.sprintf "p%g rank %.3f is within %.2f of the %s boundary at %.3f"
                      (rank *. 100.) rank margin k b)
            else None)
          boundaries)
      [ 0.5; 0.99 ]
  in
  match near with [] -> Ok () | msgs -> Error (String.concat "; " msgs)
