(* `dune build @paper`: Figs. 7-9 at the paper's scale (1.0, seed 7),
   printed, then the claims EXPERIMENTS.md makes of them checked. Exits
   1 naming every claim that fails. Not part of runtest: it takes
   several seconds more than the scale-0.25 gate in test_integration. *)

module Paper = Ccomp_paper.Paper

(* The AVERAGE rows as committed; a change may improve any of them, not
   worsen one. *)
let committed_mips =
  { Paper.lzw = 0.593; gzip = 0.384; huffman = 0.740; samc = 0.576; sadc = 0.517 }

let committed_x86 =
  { Paper.lzw = 0.668; gzip = 0.457; huffman = 0.810; samc = 0.756; sadc = 0.571 }

let failed = ref 0

let claim name holds =
  Printf.printf "%s %s\n" (if holds then "ok  " else "FAIL") name;
  if not holds then incr failed

let () =
  let suite = Paper.suite () in
  let mips_rows = Tables.fig7 suite and x86_rows = Tables.fig8 suite in
  Tables.fig9 ~mips_rows ~x86_rows;
  print_newline ();
  let m = Paper.average mips_rows and x = Paper.average x86_rows in
  List.iter
    (fun (isa, committed, avg) ->
      let worse = Paper.regressions ~committed avg in
      List.iter (fun r -> claim (isa ^ " " ^ r) false) worse;
      if worse = [] then claim (isa ^ " averages no worse than committed") true)
    [ ("mips", committed_mips, m); ("x86", committed_x86, x) ];
  let order isa avg names =
    let described, holds = Paper.ordering avg names in
    claim (isa ^ " ordering " ^ described) holds
  in
  order "mips" m [ "gzip"; "sadc"; "samc"; "compress"; "huffman" ];
  order "x86" x [ "gzip"; "sadc"; "compress"; "samc"; "huffman" ];
  let points = 100.0 *. (m.samc -. m.sadc) in
  claim
    (Printf.sprintf "mips sadc %.1f points under samc (paper: 4-6)" points)
    (points >= 4.0 && points <= 6.0);
  if !failed > 0 then exit 1
