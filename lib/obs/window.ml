(* Rolling-window aggregation: one circular buffer of timestamped
   samples per series, windowed reads computed against the newest
   sample's timestamp. Pure data structure — the caller owns the clock,
   which is what makes the rate/ratio tests deterministic. *)

type series = {
  buf : (float * float) array; (* (ts, value), circular *)
  mutable start : int;
  mutable count : int;
}

type t = { window_s : float; capacity : int; series : (string, series) Hashtbl.t }

let make ?(capacity = 512) ~window_s () =
  if window_s <= 0.0 then invalid_arg "Window.make: window_s must be positive";
  { window_s; capacity = max 2 capacity; series = Hashtbl.create 32 }

let window_seconds w = w.window_s

let nth s i = s.buf.((s.start + i) mod Array.length s.buf)

let newest s = nth s (s.count - 1)

let push w name ~now v =
  let s =
    match Hashtbl.find_opt w.series name with
    | Some s -> s
    | None ->
      let s = { buf = Array.make w.capacity (0.0, 0.0); start = 0; count = 0 } in
      Hashtbl.add w.series name s;
      s
  in
  if s.count > 0 && now <= fst (newest s) then ()
  else begin
    let cap = Array.length s.buf in
    if s.count = cap then begin
      (* ring full: overwrite the oldest *)
      s.buf.(s.start) <- (now, v);
      s.start <- (s.start + 1) mod cap
    end
    else begin
      s.buf.((s.start + s.count) mod cap) <- (now, v);
      s.count <- s.count + 1
    end
  end

let observe w ~now samples = List.iter (fun (name, v) -> push w name ~now v) samples

let of_snapshot (snap : Obs.snapshot) =
  List.map (fun (n, v) -> (n, float_of_int v)) snap.Obs.counters
  @ snap.Obs.gauges
  @ List.concat_map
      (fun (h : Obs.histogram_stats) ->
        [ (h.Obs.hs_name ^ ".count", float_of_int h.Obs.hs_count); (h.Obs.hs_name ^ ".sum", h.Obs.hs_sum) ])
      snap.Obs.histograms

let find w name = Hashtbl.find_opt w.series name

(* Index of the oldest sample still inside [newest_ts - window_s,
   newest_ts]. *)
let oldest_in_window w s =
  let horizon = fst (newest s) -. w.window_s in
  let i = ref 0 in
  while !i < s.count - 1 && fst (nth s !i) < horizon do
    incr i
  done;
  !i

let windowed_ends w name =
  match find w name with
  | Some s when s.count >= 2 ->
    let first = oldest_in_window w s in
    if first >= s.count - 1 then None else Some (nth s first, newest s)
  | _ -> None

let delta w name =
  match windowed_ends w name with
  | Some ((_, v0), (_, v1)) -> Some (Float.max 0.0 (v1 -. v0))
  | None -> None

let rate w name =
  match windowed_ends w name with
  | Some ((t0, v0), (t1, v1)) when t1 > t0 -> Some (Float.max 0.0 (v1 -. v0) /. (t1 -. t0))
  | _ -> None

let ratio w hits misses =
  match (delta w hits, delta w misses) with
  | Some h, Some m when h +. m > 0.0 -> Some (h /. (h +. m))
  | _ -> None
