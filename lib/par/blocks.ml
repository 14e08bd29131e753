module Obs = Ccomp_obs.Obs

type metrics = {
  blocks : Obs.Counter.t;
  bytes_in : Obs.Counter.t;
  bytes_out : Obs.Counter.t;
  block_us : Obs.Histogram.t;
}

let metrics prefix =
  {
    blocks = Obs.Counter.make (prefix ^ ".blocks");
    bytes_in = Obs.Counter.make (prefix ^ ".bytes_in");
    bytes_out = Obs.Counter.make (prefix ^ ".bytes_out");
    block_us = Obs.Histogram.make (prefix ^ ".block_us");
  }

let observe m ~us ~bytes_in ~bytes_out =
  Obs.Histogram.observe m.block_us us;
  Obs.Counter.incr m.blocks;
  Obs.Counter.add m.bytes_in bytes_in;
  Obs.Counter.add m.bytes_out bytes_out

let encode ?(jobs = 1) m ~local ~bytes_in n f =
  let instrument = Obs.metrics_enabled () in
  Pool.init_local ~jobs ~local n (fun scratch b ->
      if not instrument then f scratch b
      else begin
        let t0 = Obs.now_us () in
        let payload = f scratch b in
        observe m ~us:(Obs.now_us () -. t0) ~bytes_in:(bytes_in b)
          ~bytes_out:(String.length payload);
        payload
      end)

let decode ?(jobs = 1) ?pair m ~sizes ~payload_bytes make_decoder =
  let n = Array.length sizes in
  (* Prefix-sum the declared sizes so every block decodes straight into
     its own slice of one output buffer: no per-block strings, no final
     concat. Writes are bounds-checked and every block's count is held to
     its declared size, so a corrupt block fails instead of leaving a
     short or shifted image. *)
  let offs = Array.make (n + 1) 0 in
  for b = 0 to n - 1 do
    offs.(b + 1) <- offs.(b) + sizes.(b)
  done;
  let out = Bytes.create offs.(n) in
  let instrument = Obs.metrics_enabled () in
  let check b got =
    if got <> sizes.(b) then
      Ccomp_util.Decode_error.fail
        (Malformed (Printf.sprintf "block %d decoded to %d bytes, declared %d" b got sizes.(b)))
  in
  let single decode b =
    let t0 = if instrument then Obs.now_us () else 0.0 in
    let got = decode b out offs.(b) in
    check b got;
    if instrument then
      observe m ~us:(Obs.now_us () -. t0) ~bytes_in:(payload_bytes b) ~bytes_out:got
  in
  (match pair with
  | None -> Pool.iter_n ~jobs ~local:make_decoder n single
  | Some make_pair ->
    (* Work item [u] is blocks [2u] and [2u + 1]: one pair-decoder call
       when both declare the same size, else one block at a time. Each
       block of a pair is observed with half the pair's time. *)
    Pool.iter_n ~jobs
      ~local:(fun () -> (make_decoder (), make_pair ()))
      ((n + 1) / 2)
      (fun (decode, decode_pair) u ->
        let b = 2 * u in
        if b + 1 < n && sizes.(b) = sizes.(b + 1) then begin
          let t0 = if instrument then Obs.now_us () else 0.0 in
          let got = decode_pair b out offs.(b) offs.(b + 1) in
          check b got;
          check (b + 1) got;
          if instrument then begin
            let us = (Obs.now_us () -. t0) /. 2.0 in
            observe m ~us ~bytes_in:(payload_bytes b) ~bytes_out:got;
            observe m ~us ~bytes_in:(payload_bytes (b + 1)) ~bytes_out:got
          end
        end
        else begin
          single decode b;
          if b + 1 < n then single decode (b + 1)
        end));
  Bytes.unsafe_to_string out
