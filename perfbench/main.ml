(* perfbench: the repository benchmark.

     main.exe --workload rom|refill|serve --seed N --seconds S --trace 0|1
              [--ccomp PATH]

   Prints a host-and-inputs facts line, then, as the last line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1 (which also
   writes a Perfetto trace under .bench_out/). See README.md. *)

let since = Measure.now_ns ()

let usage () =
  prerr_endline
    "usage: main.exe --workload rom|refill|serve --seed N --seconds S --trace 0|1 [--ccomp PATH]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let ccomp = ref "_build/default/bin/ccomp.exe" in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | "--ccomp" :: v :: rest ->
      ccomp := v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = !seed and seconds = !seconds and trace = !trace in
  Spans.set_enabled trace;
  let r =
    match !workload with
    | "rom" -> Rom.run ~seed ~seconds ~trace ~since
    | "refill" -> Refill.run ~seed ~seconds ~trace ~since
    | "serve" -> Served.run ~ccomp:!ccomp ~seed ~seconds ~trace ~since
    | _ -> usage ()
  in
  let trace_file = if trace then [ ("trace_file", Report.str (Spans.write_trace ~workload:!workload ~seed)) ] else [] in
  let env v = match Sys.getenv_opt v with Some s -> Report.str s | None -> "null" in
  print_endline
    (Report.obj
       ([
          ("workload", Report.str !workload);
          ("seed", string_of_int seed);
          ("nproc", string_of_int (Measure.online_cpus ()));
          ("cpus_allowed", Report.str (Measure.status_field "self" "Cpus_allowed_list"));
          ("ocaml", Report.str Sys.ocaml_version);
          ("OCAMLRUNPARAM", env "OCAMLRUNPARAM");
        ]
       @ r.Report.facts @ trace_file));
  print_endline (Report.result_json ~trace r)
