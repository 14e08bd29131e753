module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events

(* Observability for the refill engine: the decode-cache hit and miss
   counts, which [ccomp top] turns into a windowed hit ratio. Guarded by
   [Obs.metrics_enabled]; the simulation itself is identical with
   metrics on or off. Every other figure is a field of {!stats}. *)
let m_dc_hits = Obs.Counter.make "memsys.decode_cache.hits"

let m_dc_misses = Obs.Counter.make "memsys.decode_cache.misses"

type decompressor = { name : string; startup_cycles : int; cycles_per_byte : float }

let samc_decompressor = { name = "samc"; startup_cycles = 8; cycles_per_byte = 2.0 }

let sadc_decompressor = { name = "sadc"; startup_cycles = 4; cycles_per_byte = 0.5 }

let huffman_decompressor = { name = "huffman"; startup_cycles = 2; cycles_per_byte = 1.0 }

type fault_response = Retry of int | Trap | Stale

type fault_config = {
  fault_rate : float;
  response : fault_response;
  flip_back : float;
  trap_cycles : int;
  detection : float;
  fault_seed : int;
}

let default_fault_config =
  {
    fault_rate = 0.0;
    response = Retry 3;
    flip_back = 0.5;
    trap_cycles = 200;
    detection = 1.0;
    fault_seed = 1;
  }

type config = {
  cache : Cache.config;
  clb_entries : int;
  memory_latency : int;
  bytes_per_cycle : float;
  decompressor : decompressor option;
  fault : fault_config option;
  decode_cache_entries : int;
}

let default_config ?(cache_bytes = 8192) ?decompressor ?fault ?(decode_cache_entries = 0) () =
  {
    cache = { Cache.size_bytes = cache_bytes; block_size = 32; associativity = 2 };
    clb_entries = 16;
    memory_latency = 20;
    bytes_per_cycle = 4.0;
    decompressor;
    fault;
    decode_cache_entries;
  }

type result = {
  fetches : int;
  hits : int;
  misses : int;
  clb_misses : int;
  total_cycles : int;
  cpi : float;
  hit_ratio : float;
  avg_miss_penalty : float;
  faults_injected : int;
  fault_retries : int;
  fault_traps : int;
  stale_lines : int;
  undetected_faults : int;
  decode_cache_hits : int;
  decode_cache_misses : int;
}

let run config ?lat ~trace () =
  Obs.with_span ~cat:"memsys" "memsys.run" @@ fun () ->
  let cache = Cache.create config.cache in
  let clb = if config.clb_entries > 0 then Some (Clb.create ~entries:config.clb_entries) else None in
  (match (config.decompressor, lat) with
  | Some _, None -> invalid_arg "System.run: compressed system needs a LAT"
  | Some _, Some _ | None, _ -> ());
  (* Decoded-block cache in the refill engine: a small LRU of recently
     decompressed lines, so a miss whose block was decoded moments ago is
     refilled at uncompressed-memory cost (no LAT lookup, no decode). *)
  let decode_cache =
    if config.decode_cache_entries > 0 && config.decompressor <> None then
      Some (Lru.create ~capacity:config.decode_cache_entries)
    else None
  in
  let cycles = ref 0 in
  let penalty_cycles = ref 0 in
  let clb_misses = ref 0 in
  let decode_hits = ref 0 in
  let decode_misses = ref 0 in
  let faults_injected = ref 0 in
  let fault_retries = ref 0 in
  let fault_traps = ref 0 in
  let stale_lines = ref 0 in
  let undetected_faults = ref 0 in
  let rng =
    match config.fault with
    | Some f when f.fault_rate > 0.0 -> Some (Ccomp_util.Prng.create (Int64.of_int f.fault_seed))
    | _ -> None
  in
  (* Extra cycles the refill engine spends when this line's decode comes
     back faulty (bad per-block CRC or a decoder error). A detected fault
     is handled per the configured response: re-read and re-decode the
     line up to N times (transient "flip-back" faults may clear), fall
     through to a software trap, or serve the stale previous line from
     the victim buffer at no extra cost but with degraded correctness. *)
  let fault_cost f ~refill =
    incr faults_injected;
    if Ccomp_util.Prng.float (Option.get rng) >= f.detection then begin
      (* integrity checking off or tag collision: corrupt line enters the
         cache silently — the outcome the per-block CRCs exist to prevent *)
      incr undetected_faults;
      Events.error "memsys.fault.undetected";
      0
    end
    else
      match f.response with
      | Trap ->
        incr fault_traps;
        Events.warn ~fields:[ ("response", "trap") ] "memsys.fault";
        f.trap_cycles
      | Stale ->
        incr stale_lines;
        Events.warn ~fields:[ ("response", "stale") ] "memsys.fault";
        0
      | Retry budget ->
        let rec go tries acc =
          if tries >= budget then begin
            (* retries exhausted: escalate to the trap handler *)
            incr fault_traps;
            Events.warn
              ~fields:[ ("response", "retry"); ("outcome", "trap"); ("tries", string_of_int tries) ]
              "memsys.fault";
            acc + f.trap_cycles
          end
          else begin
            incr fault_retries;
            if Ccomp_util.Prng.float (Option.get rng) < f.flip_back then begin
              Events.warn
                ~fields:
                  [ ("response", "retry"); ("outcome", "recovered"); ("tries", string_of_int (tries + 1)) ]
                "memsys.fault";
              acc + refill
            end
            else go (tries + 1) (acc + refill)
          end
        in
        go 0 0
  in
  let transfer bytes = int_of_float (ceil (float_of_int bytes /. config.bytes_per_cycle)) in
  Array.iter
    (fun addr ->
      if Cache.access cache addr then incr cycles
      else begin
        let block = addr / config.cache.Cache.block_size in
        let served_decoded = ref false in
        let penalty =
          match config.decompressor with
          | None ->
            (* ordinary refill: latency + line transfer *)
            config.memory_latency + transfer config.cache.Cache.block_size
          | Some d ->
            let lat = Option.get lat in
            if block >= Lat.entries lat then
              invalid_arg "System.run: trace address beyond the LAT";
            let decode_cached =
              match decode_cache with
              | Some dc ->
                let hit = Lru.access dc block in
                if hit then incr decode_hits else incr decode_misses;
                hit
              | None -> false
            in
            if decode_cached then begin
              (* served from the refill engine's decoded-line store:
                 an ordinary uncompressed refill, no LAT or decode *)
              served_decoded := true;
              config.memory_latency + transfer config.cache.Cache.block_size
            end
            else begin
              let compressed = Lat.length lat block in
              (* LAT lookup: hidden by the CLB when it hits, otherwise one
                 extra memory round-trip to read the table group. *)
              let lat_cost =
                match clb with
                | Some c -> if Clb.access c block then 0 else begin incr clb_misses; config.memory_latency end
                | None -> begin incr clb_misses; config.memory_latency end
              in
              let decompress =
                d.startup_cycles
                + int_of_float
                    (ceil (float_of_int config.cache.Cache.block_size *. d.cycles_per_byte))
              in
              lat_cost + config.memory_latency + transfer compressed + decompress
            end
        in
        let penalty =
          (* decode-cached refills never run the decompressor, so they
             cannot take a decode fault *)
          match (config.fault, rng, config.decompressor) with
          | Some f, Some g, Some _
            when (not !served_decoded) && Ccomp_util.Prng.float g < f.fault_rate ->
            penalty + fault_cost f ~refill:penalty
          | _ -> penalty
        in
        penalty_cycles := !penalty_cycles + penalty;
        cycles := !cycles + 1 + penalty
      end)
    trace;
  let fetches = Cache.accesses cache in
  let misses = Cache.misses cache in
  if Obs.metrics_enabled () then begin
    Obs.Counter.add m_dc_hits !decode_hits;
    Obs.Counter.add m_dc_misses !decode_misses
  end;
  {
    fetches;
    hits = Cache.hits cache;
    misses;
    clb_misses = !clb_misses;
    total_cycles = !cycles;
    cpi = (if fetches = 0 then 0.0 else float_of_int !cycles /. float_of_int fetches);
    hit_ratio = Cache.hit_ratio cache;
    avg_miss_penalty =
      (if misses = 0 then 0.0 else float_of_int !penalty_cycles /. float_of_int misses);
    faults_injected = !faults_injected;
    fault_retries = !fault_retries;
    fault_traps = !fault_traps;
    stale_lines = !stale_lines;
    undetected_faults = !undetected_faults;
    decode_cache_hits = !decode_hits;
    decode_cache_misses = !decode_misses;
  }

let slowdown ~compressed ~uncompressed = compressed.cpi /. uncompressed.cpi
