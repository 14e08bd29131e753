(* Steadiness self-checks for the benchmark's own design: its inputs are
   pure functions of the seed, its ratio metrics are bit-identical
   across runs, and it refuses a served mix whose percentiles would sit
   on a boundary between op populations. Exits non-zero on a failure. *)

module I = Inputs
module Serve = Ccomp_serve.Serve

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let codes ps = Array.map (fun p -> (I.mips_code p, Option.map (fun l -> l.Ccomp_progen.Layout.code) p.I.x86)) ps

let () =
  (* served job sequence and payloads *)
  let emb seed = I.generate ~x86:true ~seed Ccomp_progen.Profile.embedded in
  check "serve payloads are a function of the seed" (codes (emb 7) = codes (emb 7));
  check "serve payloads differ across seeds" (codes (emb 7) <> codes (emb 8));
  let jobs seed = I.serve_jobs ~seed ~programs:6 () in
  check "serve job sequence is a function of the seed" (jobs 7 = jobs 7);
  check "serve job order differs across seeds" (jobs 7 <> jobs 8);
  let multiset a = List.sort compare (Array.to_list a) in
  check "serve job multiset is the same for every seed" (multiset (jobs 7) = multiset (jobs 8));
  (* refill miss streams *)
  let spec seed = I.generate ~scale:I.spec_scale ~x86:false ~seed Ccomp_progen.Profile.spec95 in
  let streams seed = Array.mapi (fun i p -> I.miss_stream ~seed i p) (spec seed) in
  let s7 = streams 7 in
  check "refill miss streams are a function of the seed" (s7 = streams 7);
  check "refill miss streams differ across seeds" (s7 <> streams 8);
  let total = Array.fold_left (fun a m -> a + Array.length m) 0 s7 in
  check "a refill round holds at least 90% of its miss target"
    (10 * total >= 9 * I.misses_per_program * Array.length s7);
  (* rom ratios: bit-identical across rounds and across fresh inputs *)
  let bits ps =
    let r = Rom.round ps in
    (r.Rom.failed, List.map (fun c -> Int64.bits_of_float (Rom.ratio c r)) [ Rom.Samc_c; Rom.Sadc_c ])
  in
  let ps = I.generate ~scale:I.spec_scale ~x86:true ~seed:7 Ccomp_progen.Profile.spec95 in
  let b1 = bits ps in
  check "rom round decodes every image to its source" (fst b1 = 0);
  check "rom ratios are bit-identical across rounds" (b1 = bits ps);
  check "rom ratios are bit-identical across fresh inputs"
    (b1 = bits (I.generate ~scale:I.spec_scale ~x86:true ~seed:7 Ccomp_progen.Profile.spec95));
  (* the serve mix check; expected latencies in the order measured offline *)
  let expected_s (j : I.job) =
    match (j.algo, j.kind) with
    | Serve.Sadc, I.Decompress -> 0.001
    | Serve.Samc, I.Decompress -> 0.0015
    | Serve.Samc, I.Compress -> 0.005
    | Serve.Sadc, I.Compress -> 0.015
  in
  check "the 80/20 mix is accepted" (Result.is_ok (I.check_mix ~expected_s (jobs 7)));
  check "a 50/50 mix is refused"
    (Result.is_error
       (I.check_mix ~expected_s (I.serve_jobs ~decompress_per_compress:1 ~seed:7 ~programs:6 ())));
  check "a 90/10 mix is refused (p99 on the compress boundary)"
    (Result.is_error
       (I.check_mix ~expected_s (I.serve_jobs ~decompress_per_compress:9 ~seed:7 ~programs:6 ())));
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
