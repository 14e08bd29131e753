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

let observe m ~t0 ~bytes_in ~bytes_out =
  Obs.Histogram.observe m.block_us (Obs.now_us () -. t0);
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
        observe m ~t0 ~bytes_in:(bytes_in b) ~bytes_out:(String.length payload);
        payload
      end)

let decode ?(jobs = 1) m ~sizes ~payload_bytes make_decoder =
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
  Pool.iter_n ~jobs ~local:make_decoder n (fun decode b ->
      let t0 = if instrument then Obs.now_us () else 0.0 in
      let got = decode b out offs.(b) in
      if got <> sizes.(b) then
        Ccomp_util.Decode_error.fail
          (Malformed
             (Printf.sprintf "block %d decoded to %d bytes, declared %d" b got sizes.(b)));
      if instrument then observe m ~t0 ~bytes_in:(payload_bytes b) ~bytes_out:got);
  Bytes.unsafe_to_string out
