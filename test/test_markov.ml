module Markov_model = Ccomp_core.Markov_model
module Coder = Ccomp_arith.Binary_coder

let train_simple ?(quantize = false) ~widths ~context_bits notes =
  let t = Markov_model.Trainer.create ~widths ~context_bits in
  List.iter (fun (stream, ctx, node, bit) -> Markov_model.Trainer.note t ~stream ~ctx ~node bit) notes;
  Markov_model.Trainer.finalize ~quantize t

let test_unseen_nodes_predict_half () =
  let m = train_simple ~widths:[| 2 |] ~context_bits:0 [] in
  Alcotest.(check int) "no data -> 1/2" (Coder.scale / 2) (Markov_model.p0 m ~stream:0 ~ctx:0 ~node:1)

let test_counting () =
  let m =
    train_simple ~widths:[| 2 |] ~context_bits:0
      [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 1) ]
  in
  Alcotest.(check int) "3/4 zeros" (3 * Coder.scale / 4) (Markov_model.p0 m ~stream:0 ~ctx:0 ~node:1)

let test_extreme_counts_clamped () =
  let notes = List.init 100 (fun _ -> (0, 0, 1, 0)) in
  let m = train_simple ~widths:[| 2 |] ~context_bits:0 notes in
  Alcotest.(check int) "clamped below certainty" (Coder.scale - 1)
    (Markov_model.p0 m ~stream:0 ~ctx:0 ~node:1)

let test_contexts_are_separate () =
  let m =
    train_simple ~widths:[| 2 |] ~context_bits:1
      [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 1, 1, 1); (0, 1, 1, 1) ]
  in
  Alcotest.(check bool) "ctx 0 biased to 0" true (Markov_model.p0 m ~stream:0 ~ctx:0 ~node:1 > Coder.scale / 2);
  Alcotest.(check bool) "ctx 1 biased to 1" true (Markov_model.p0 m ~stream:0 ~ctx:1 ~node:1 < Coder.scale / 2)

let test_probability_count_formula () =
  let m = train_simple ~widths:[| 8; 8; 8; 8 |] ~context_bits:2 [] in
  (* 4 streams x (2^8 - 1) nodes x 4 contexts: the paper's storage bound *)
  Alcotest.(check int) "probability count" (4 * 255 * 4) (Markov_model.probability_count m);
  Alcotest.(check int) "contexts" 4 (Markov_model.contexts m)

let test_quantized_probabilities_are_pow2 () =
  let notes =
    List.concat_map (fun _ -> [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 1) ]) (List.init 30 Fun.id)
  in
  let m = train_simple ~quantize:true ~widths:[| 2 |] ~context_bits:0 notes in
  let p = Markov_model.p0 m ~stream:0 ~ctx:0 ~node:1 in
  let lps = min p (Coder.scale - p) in
  Alcotest.(check bool) "LPS power of two" true (lps land (lps - 1) = 0);
  Alcotest.(check bool) "quantized flag" true (Markov_model.quantized m)

let test_serialization_roundtrip () =
  let notes =
    List.init 500 (fun i -> (i mod 2, i mod 4, 1 + (i mod 3), (i / 7) mod 2))
  in
  let m = train_simple ~widths:[| 2; 3 |] ~context_bits:2 notes in
  let s = Markov_model.serialize m in
  Alcotest.(check int) "storage_bytes matches" (String.length s) (Markov_model.storage_bytes m);
  let m', pos = Markov_model.deserialize s ~pos:0 in
  Alcotest.(check int) "consumed all" (String.length s) pos;
  Alcotest.(check (array int)) "widths" (Markov_model.widths m) (Markov_model.widths m');
  Alcotest.(check int) "context bits" (Markov_model.context_bits m) (Markov_model.context_bits m');
  for stream = 0 to 1 do
    for ctx = 0 to 3 do
      for node = 1 to (1 lsl (Markov_model.widths m).(stream)) - 1 do
        Alcotest.(check int)
          (Printf.sprintf "prob s=%d c=%d n=%d" stream ctx node)
          (Markov_model.p0 m ~stream ~ctx ~node)
          (Markov_model.p0 m' ~stream ~ctx ~node)
      done
    done
  done

let test_quantized_serialization_roundtrip () =
  let notes = List.init 200 (fun i -> (0, 0, 1 + (i mod 7), i mod 2)) in
  let m = train_simple ~quantize:true ~widths:[| 3 |] ~context_bits:0 notes in
  let m', _ = Markov_model.deserialize (Markov_model.serialize m) ~pos:0 in
  for node = 1 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "quantized prob node %d" node)
      (Markov_model.p0 m ~stream:0 ~ctx:0 ~node)
      (Markov_model.p0 m' ~stream:0 ~ctx:0 ~node)
  done

let test_quantized_model_smaller () =
  let notes = List.init 100 (fun i -> (0, 0, 1 + (i mod 255), i mod 2)) in
  let exact = train_simple ~widths:[| 8 |] ~context_bits:0 notes in
  let quant = train_simple ~quantize:true ~widths:[| 8 |] ~context_bits:0 notes in
  Alcotest.(check bool) "4+1-bit codes smaller than 12-bit" true
    (Markov_model.storage_bytes quant < Markov_model.storage_bytes exact)

let test_invalid_params_rejected () =
  Alcotest.check_raises "width 0" (Invalid_argument "Markov_model: stream width out of [1,16]")
    (fun () -> ignore (Markov_model.Trainer.create ~widths:[| 0 |] ~context_bits:0));
  Alcotest.check_raises "width 17" (Invalid_argument "Markov_model: stream width out of [1,16]")
    (fun () -> ignore (Markov_model.Trainer.create ~widths:[| 17 |] ~context_bits:0));
  Alcotest.check_raises "context 9" (Invalid_argument "Markov_model: context_bits out of [0,8]")
    (fun () -> ignore (Markov_model.Trainer.create ~widths:[| 4 |] ~context_bits:9))

let suite =
  [
    Alcotest.test_case "unseen nodes predict 1/2" `Quick test_unseen_nodes_predict_half;
    Alcotest.test_case "counting" `Quick test_counting;
    Alcotest.test_case "extreme counts clamped" `Quick test_extreme_counts_clamped;
    Alcotest.test_case "contexts separate" `Quick test_contexts_are_separate;
    Alcotest.test_case "probability count formula" `Quick test_probability_count_formula;
    Alcotest.test_case "quantized probabilities pow2" `Quick test_quantized_probabilities_are_pow2;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "quantized serialization" `Quick test_quantized_serialization_roundtrip;
    Alcotest.test_case "quantized model smaller" `Quick test_quantized_model_smaller;
    Alcotest.test_case "invalid params rejected" `Quick test_invalid_params_rejected;
  ]

let test_pruning_backoff () =
  (* deep node seen once inherits its parent's estimate *)
  let t = Markov_model.Trainer.create ~widths:[| 3 |] ~context_bits:0 in
  (* parent node 2 heavily biased to 0; child node 4 seen once with a 1 *)
  for _ = 1 to 20 do
    Markov_model.Trainer.note t ~stream:0 ~ctx:0 ~node:2 0
  done;
  Markov_model.Trainer.note t ~stream:0 ~ctx:0 ~node:4 1;
  let m = Markov_model.Trainer.finalize ~prune_below:4 t in
  Alcotest.(check bool) "model is pruned" true (Markov_model.pruned m);
  Alcotest.(check int) "pruned child backs off to parent"
    (Markov_model.p0 m ~stream:0 ~ctx:0 ~node:2)
    (Markov_model.p0 m ~stream:0 ~ctx:0 ~node:4);
  Alcotest.(check bool) "fewer retained than positions" true
    (Markov_model.retained_count m < Markov_model.probability_count m)

let test_pruning_serialization () =
  let t = Markov_model.Trainer.create ~widths:[| 4; 3 |] ~context_bits:1 in
  let g = Ccomp_util.Prng.create 9L in
  for _ = 1 to 2000 do
    let stream = Ccomp_util.Prng.int g 2 in
    let node = 1 + Ccomp_util.Prng.geometric g 0.4 in
    let node = min node ((1 lsl if stream = 0 then 4 else 3) - 1) in
    Markov_model.Trainer.note t ~stream ~ctx:(Ccomp_util.Prng.int g 2) ~node
      (Ccomp_util.Prng.int g 2)
  done;
  let m = Markov_model.Trainer.finalize ~prune_below:8 t in
  let m', _ = Markov_model.deserialize (Markov_model.serialize m) ~pos:0 in
  Alcotest.(check int) "retained preserved" (Markov_model.retained_count m)
    (Markov_model.retained_count m');
  for stream = 0 to 1 do
    for ctx = 0 to 1 do
      for node = 1 to (1 lsl (Markov_model.widths m).(stream)) - 1 do
        Alcotest.(check int)
          (Printf.sprintf "prob s=%d c=%d n=%d" stream ctx node)
          (Markov_model.p0 m ~stream ~ctx ~node)
          (Markov_model.p0 m' ~stream ~ctx ~node)
      done
    done
  done

let test_pruned_model_smaller_storage () =
  let t () =
    let t = Markov_model.Trainer.create ~widths:[| 8 |] ~context_bits:0 in
    let g = Ccomp_util.Prng.create 11L in
    for _ = 1 to 3000 do
      Markov_model.Trainer.note t ~stream:0 ~ctx:0 ~node:(1 + Ccomp_util.Prng.int g 255)
        (Ccomp_util.Prng.int g 2)
    done;
    t
  in
  let full = Markov_model.Trainer.finalize (t ()) in
  let pruned = Markov_model.Trainer.finalize ~prune_below:16 (t ()) in
  Alcotest.(check bool) "pruned storage smaller" true
    (Markov_model.storage_bytes pruned < Markov_model.storage_bytes full)

let test_samc_with_pruning_roundtrips () =
  let profile =
    { (Ccomp_progen.Profile.find "mgrid") with Ccomp_progen.Profile.name = "t"; target_ops = 600 }
  in
  let code =
    (snd (Ccomp_progen.Mips_backend.lower (Ccomp_progen.Generator.generate ~seed:12L profile)))
      .Ccomp_progen.Layout.code
  in
  let module Samc = Ccomp_core.Samc in
  List.iter
    (fun prune_below ->
      let z = Samc.compress (Samc.mips_config ~prune_below ()) code in
      Alcotest.(check string) (Printf.sprintf "prune %d roundtrip" prune_below) code
        (Samc.decompress z))
    [ 0; 2; 8; 64 ];
  let full = Samc.compress (Samc.mips_config ()) code in
  let hard = Samc.compress (Samc.mips_config ~prune_below:32 ()) code in
  Alcotest.(check bool) "pruned model smaller" true
    (Samc.model_bytes hard < Samc.model_bytes full);
  Alcotest.(check bool) "pruned code no better" true (Samc.ratio hard >= Samc.ratio full)

let pruning_suite =
  [
    Alcotest.test_case "pruning backoff" `Quick test_pruning_backoff;
    Alcotest.test_case "pruned serialization" `Quick test_pruning_serialization;
    Alcotest.test_case "pruned storage smaller" `Quick test_pruned_model_smaller_storage;
    Alcotest.test_case "samc with pruning" `Quick test_samc_with_pruning_roundtrips;
  ]

(* Counting whole stream values gives the same node counts once
   [finalize] folds them, and so the same model, as noting each value's
   bits. *)
let prop_value_counts_match_note =
  QCheck.Test.make ~name:"value counts equal per-bit note" ~count:100
    QCheck.(pair (int_bound 300) int)
    (fun (n, seed) ->
      let g = Ccomp_util.Prng.create (Int64.of_int seed) in
      let widths = Array.init (1 + Ccomp_util.Prng.int g 3) (fun _ -> 1 + Ccomp_util.Prng.int g 9) in
      let context_bits = Ccomp_util.Prng.int g 3 in
      let by_value = Markov_model.Trainer.create ~widths ~context_bits in
      let by_bit = Markov_model.Trainer.create ~widths ~context_bits in
      for _ = 1 to n do
        let stream = Ccomp_util.Prng.int g (Array.length widths) in
        let w = widths.(stream) in
        let ctx = Ccomp_util.Prng.int g (1 lsl context_bits) in
        let v = Ccomp_util.Prng.int g (1 lsl w) in
        let i = Markov_model.Trainer.tree_offset by_value ~stream ~ctx + v in
        let values = Markov_model.Trainer.values by_value in
        values.(i) <- values.(i) + 1;
        let node = ref 1 in
        for k = w - 1 downto 0 do
          let bit = (v lsr k) land 1 in
          Markov_model.Trainer.note by_bit ~stream ~ctx ~node:!node bit;
          node := (2 * !node) + bit
        done
      done;
      let model t = Markov_model.serialize (Markov_model.Trainer.finalize ~prune_below:2 t) in
      let same_models = model by_value = model by_bit in
      let same f = f by_value = f by_bit in
      same_models && same Markov_model.Trainer.zeros && same Markov_model.Trainer.totals
      && Array.for_all (( = ) 0) (Markov_model.Trainer.values by_value))

let test_positions_outside_the_tree () =
  let t = Markov_model.Trainer.create ~widths:[| 3 |] ~context_bits:1 in
  List.iter
    (fun (ctx, node) ->
      match Markov_model.Trainer.note t ~stream:0 ~ctx ~node 0 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "note accepted ctx %d node %d" ctx node)
    [ (2, 1); (-1, 1); (0, 0); (0, 8) ];
  let m = Markov_model.Trainer.finalize t in
  match Markov_model.p0 m ~stream:0 ~ctx:0 ~node:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p0 read past the tree"

let suite =
  suite @ pruning_suite
  @ [
      Alcotest.test_case "positions outside the tree refused" `Quick
        test_positions_outside_the_tree;
      QCheck_alcotest.to_alcotest prop_value_counts_match_note;
    ]
