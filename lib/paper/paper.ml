module P = Ccomp_progen
module Image = Ccomp_image.Image

type prepared = {
  name : string;
  program : P.Ir.program;
  mips_layout : P.Layout.t;
  x86_layout : P.Layout.t;
}

let mips_code p = p.mips_layout.P.Layout.code

let x86_code p = p.x86_layout.P.Layout.code

let prepare ?(scale = 1.0) (profile : P.Profile.t) =
  let program = P.Generator.generate ~scale ~seed:7L profile in
  let _, mips_layout = P.Mips_backend.lower program in
  let _, x86_layout = P.X86_backend.lower program in
  { name = profile.P.Profile.name; program; mips_layout; x86_layout }

let suite ?(scale = 1.0) () = Array.map (prepare ~scale) P.Profile.spec95

let find suite name =
  match Array.find_opt (fun p -> p.name = name) suite with
  | Some p -> p
  | None -> invalid_arg ("unknown workload " ^ name)

type ratios = { lzw : float; gzip : float; huffman : float; samc : float; sadc : float }

let columns =
  [
    ("compress", fun r -> r.lzw);
    ("gzip", fun r -> r.gzip);
    ("huffman", fun r -> r.huffman);
    ("samc", fun r -> r.samc);
    ("sadc", fun r -> r.sadc);
  ]

let ratios ?(block_size = 32) ~isa code =
  let image algo =
    let img = Image.compress ~algo ~isa ~block_size code in
    if not (String.equal (Image.decompress img) code) then
      failwith
        (Printf.sprintf "round-trip failed: %s on %s" (Image.algo_name algo) (Image.isa_name isa));
    Image.ratio img
  in
  {
    lzw = Ccomp_baselines.Lzw.ratio code;
    gzip = Ccomp_baselines.Lzss.ratio code;
    huffman = Ccomp_baselines.Byte_huffman.(ratio (compress ~block_size code));
    samc = image Image.Samc;
    sadc = image Image.Sadc;
  }

let measure ~isa p = ratios ~isa (match isa with Image.Mips -> mips_code p | X86 -> x86_code p)

let average rs =
  let n = float_of_int (List.length rs) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rs /. n in
  {
    lzw = avg (fun r -> r.lzw);
    gzip = avg (fun r -> r.gzip);
    huffman = avg (fun r -> r.huffman);
    samc = avg (fun r -> r.samc);
    sadc = avg (fun r -> r.sadc);
  }

let regressions ~committed avg =
  List.filter_map
    (fun (name, f) ->
      if f avg < f committed +. 0.0005 then None
      else Some (Printf.sprintf "%s %.4f worse than committed %.3f" name (f avg) (f committed)))
    columns

let ordering r names =
  let values = List.map (fun name -> (name, List.assoc name columns r)) names in
  let rec rising = function
    | (_, a) :: ((_, b) :: _ as rest) -> a < b && rising rest
    | _ -> true
  in
  ( String.concat " < " (List.map (fun (name, v) -> Printf.sprintf "%s %.3f" name v) values),
    rising values )
