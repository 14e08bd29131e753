module Image = Ccomp_image.Image

let corrupt_section ?kinds ~count g image section encoded =
  match List.assoc_opt section (Image.sections image) with
  | None -> (encoded, [])
  | Some range -> Injector.inject ~range ?kinds ~count g encoded
