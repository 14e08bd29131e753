(* Unified observability layer: a process-wide, Domain-safe metrics
   registry (counters, gauges, log-scale histograms) plus span tracing
   that emits Chrome trace_event JSON loadable in chrome://tracing and
   Perfetto.

   Everything is off by default. Instrumented hot paths guard their
   observations behind {!metrics_enabled} — one atomic load — so the
   layer costs nothing measurable when disabled, and observation never
   influences the data path: enabling metrics or tracing leaves
   compressed output byte-identical.

   Counters are [Atomic] ints; histograms take a per-histogram mutex.
   Observation sites are block- or phase-grained (never per bit), so
   lock traffic stays negligible next to codec work even with every
   domain of the par pool publishing. *)

(* --- switches ---------------------------------------------------------- *)

let metrics_on = Atomic.make false

let tracing_on = Atomic.make false

let metrics_enabled () = Atomic.get metrics_on

let tracing_enabled () = Atomic.get tracing_on

let set_metrics b = Atomic.set metrics_on b

let set_tracing b = Atomic.set tracing_on b

let now_us () = Unix.gettimeofday () *. 1e6

(* --- metric kinds ------------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }

type gauge = { g_name : string; g_value : float Atomic.t; g_touched : bool Atomic.t }

(* Log-scale histogram: [sub] buckets per octave, so any observation is
   binned with relative error at most 2^(1/sub) - 1 (~9% at sub = 8).
   Bucket [i] covers values with log2 v in [(i - zero) / sub,
   (i - zero + 1) / sub); non-positive values clamp to bucket 0. *)
let sub = 8

let zero_bucket = 33 * sub (* log2 v down to -33 before clamping *)

let n_buckets = (33 + 63) * sub

type histogram = {
  h_name : string;
  h_mutex : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

(* --- registry ---------------------------------------------------------- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_mutex = Mutex.create ()

let register name build use =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = build () in
      Hashtbl.add registry name m;
      m
  in
  Mutex.unlock registry_mutex;
  use m

module Counter = struct
  type t = counter

  let make name =
    register name
      (fun () -> M_counter { c_name = name; c_value = Atomic.make 0 })
      (function
        | M_counter c -> c
        | _ -> invalid_arg (Printf.sprintf "Obs.Counter.make: %S is not a counter" name))

  let add c by =
    if by < 0 then invalid_arg "Obs.Counter.add: counters are monotonic (negative increment)";
    ignore (Atomic.fetch_and_add c.c_value by)

  let incr c = add c 1

  let value c = Atomic.get c.c_value
end

module Gauge = struct
  type t = gauge

  let make name =
    register name
      (fun () ->
        M_gauge { g_name = name; g_value = Atomic.make 0.0; g_touched = Atomic.make false })
      (function
        | M_gauge g -> g
        | _ -> invalid_arg (Printf.sprintf "Obs.Gauge.make: %S is not a gauge" name))

  let set g v =
    Atomic.set g.g_value v;
    Atomic.set g.g_touched true

  let value g = Atomic.get g.g_value
end

module Histogram = struct
  type t = histogram

  let make name =
    register name
      (fun () ->
        M_histogram
          {
            h_name = name;
            h_mutex = Mutex.create ();
            h_count = 0;
            h_sum = 0.0;
            h_min = infinity;
            h_max = neg_infinity;
            h_buckets = Array.make n_buckets 0;
          })
      (function
        | M_histogram h -> h
        | _ -> invalid_arg (Printf.sprintf "Obs.Histogram.make: %S is not a histogram" name))

  let bucket_of v =
    if v <= 0.0 then 0
    else
      let i = zero_bucket + int_of_float (Float.floor (Float.log2 v *. float_of_int sub)) in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

  (* Geometric midpoint of a bucket — the value reported for every
     observation that landed in it. *)
  let bucket_mid i = Float.pow 2.0 ((float_of_int (i - zero_bucket) +. 0.5) /. float_of_int sub)

  let observe h v =
    Mutex.lock h.h_mutex;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = h.h_buckets in
    let i = bucket_of v in
    b.(i) <- b.(i) + 1;
    Mutex.unlock h.h_mutex

  (* The mutable fields and bucket array are only coherent under
     [h_mutex]: `_unlocked` readers are for callers that already hold it
     (and for the single-domain fast paths below, each of which takes the
     lock itself). Reading count/sum/buckets in separate unlocked steps
     from another domain is a data race — it once let an OpenMetrics
     render pair a bucket table with a count from a later observation,
     breaking the "+Inf bucket equals _count" invariant mid-scrape. *)
  let with_lock h f =
    Mutex.lock h.h_mutex;
    match f () with
    | v ->
      Mutex.unlock h.h_mutex;
      v
    | exception e ->
      Mutex.unlock h.h_mutex;
      raise e

  let count h = with_lock h (fun () -> h.h_count)

  let sum h = with_lock h (fun () -> h.h_sum)

  let min_value h = with_lock h (fun () -> if h.h_count = 0 then 0.0 else h.h_min)

  let max_value h = with_lock h (fun () -> if h.h_count = 0 then 0.0 else h.h_max)

  (* Nearest-rank percentile over the buckets, reported as the bucket's
     geometric midpoint clamped into [min, max] — exact for single-value
     histograms and within one bucket's relative error otherwise. *)
  let percentile_unlocked h q =
    if h.h_count = 0 then 0.0
    else begin
      let rank =
        let r = int_of_float (Float.ceil (q /. 100.0 *. float_of_int h.h_count)) in
        if r < 1 then 1 else if r > h.h_count then h.h_count else r
      in
      let acc = ref 0 in
      let i = ref 0 in
      while !acc < rank && !i < n_buckets do
        acc := !acc + h.h_buckets.(!i);
        incr i
      done;
      let v = bucket_mid (!i - 1) in
      Float.min h.h_max (Float.max h.h_min v)
    end

  let percentile h q = with_lock h (fun () -> percentile_unlocked h q)

  (* Upper bound of bucket [i]: the smallest value that would land in
     bucket [i + 1]. *)
  let bucket_upper i = Float.pow 2.0 (float_of_int (i + 1 - zero_bucket) /. float_of_int sub)

  (* caller holds [h]'s lock *)
  let cumulative_buckets h =
    let acc = ref [] in
    let cum = ref 0 in
    for i = 0 to n_buckets - 1 do
      let c = h.h_buckets.(i) in
      if c > 0 then begin
        cum := !cum + c;
        acc := (bucket_upper i, !cum) :: !acc
      end
    done;
    List.rev ((infinity, h.h_count) :: !acc)

  (* One consistent view for exporters: buckets, sum and count all come
     from the same critical section, so an exposition built from an
     [export] can never pair a stale count with fresher buckets. *)
  type export = { ex_count : int; ex_sum : float; ex_buckets : (float * int) list }

  let export h =
    with_lock h (fun () ->
        { ex_count = h.h_count; ex_sum = h.h_sum; ex_buckets = cumulative_buckets h })

  (* Forget every observation but keep the registration — what a
     multi-iteration harness (loadgen --ramp) needs between probes so an
     earlier probe's tail cannot pollute a later probe's percentiles. *)
  let reset h =
    with_lock h (fun () ->
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- infinity;
        h.h_max <- neg_infinity;
        Array.fill h.h_buckets 0 n_buckets 0)
end

type metric_kind = Counter_kind | Gauge_kind | Histogram_kind

let registered_metrics () =
  Mutex.lock registry_mutex;
  let all =
    Hashtbl.fold
      (fun name m acc ->
        let kind =
          match m with
          | M_counter _ -> Counter_kind
          | M_gauge _ -> Gauge_kind
          | M_histogram _ -> Histogram_kind
        in
        (name, kind) :: acc)
      registry []
  in
  Mutex.unlock registry_mutex;
  List.sort compare all

(* --- spans -------------------------------------------------------------- *)

type event = { e_name : string; e_cat : string; e_ts : float; e_dur : float; e_tid : int }

let events : event list ref = ref []

let events_mutex = Mutex.create ()

let trace_base_us = now_us ()

let record_event e =
  Mutex.lock events_mutex;
  events := e :: !events;
  Mutex.unlock events_mutex

let timed ?(cat = "ccomp") name f =
  let t0 = now_us () in
  let finally () =
    let dt = now_us () -. t0 in
    if tracing_enabled () then
      record_event
        {
          e_name = name;
          e_cat = cat;
          e_ts = t0 -. trace_base_us;
          e_dur = dt;
          e_tid = (Domain.self () :> int);
        };
    dt
  in
  match f () with
  | v -> (v, finally () /. 1e6)
  | exception e ->
    ignore (finally ());
    raise e

let with_span ?cat name f = if tracing_enabled () then fst (timed ?cat name f) else f ()

(* --- JSON --------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v

  (* Recursive-descent parser for the subset ccomp emits (full JSON minus
     \u surrogate pairs, which decode to '?'). Returns a readable error
     with the offset on malformed input. *)
  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal lit value =
      if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
        pos := !pos + String.length lit;
        value
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents b
          | '\\' ->
            (if !pos >= n then fail "unterminated escape"
             else
               let e = s.[!pos] in
               advance ();
               match e with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'r' -> Buffer.add_char b '\r'
               | 'b' -> Buffer.add_char b '\b'
               | 'f' -> Buffer.add_char b '\012'
               | 'u' ->
                 if !pos + 4 > n then fail "truncated \\u escape";
                 let hex = String.sub s !pos 4 in
                 pos := !pos + 4;
                 (match int_of_string_opt ("0x" ^ hex) with
                 | None -> fail "bad \\u escape"
                 | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
                 | Some _ -> Buffer.add_char b '?')
               | _ -> fail "unknown escape");
            go ()
          | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error e -> Error e

  let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

  let to_float = function Num v -> Some v | _ -> None
end

(* --- snapshot ----------------------------------------------------------- *)

type histogram_stats = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_stats list;
}

let schema = "ccomp-obs-v1"

(* Only metrics that saw activity appear in the snapshot: the registry
   holds every metric any linked module declared, most of which are
   silent in any given run. *)
let snapshot () =
  Mutex.lock registry_mutex;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_mutex;
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (function
      | M_counter c ->
        let v = Counter.value c in
        if v > 0 then counters := (c.c_name, v) :: !counters
      | M_gauge g -> if Atomic.get g.g_touched then gauges := (g.g_name, Gauge.value g) :: !gauges
      | M_histogram h ->
        let stats =
          Histogram.with_lock h (fun () ->
              if h.h_count = 0 then None
              else
                Some
                  {
                    hs_name = h.h_name;
                    hs_count = h.h_count;
                    hs_sum = h.h_sum;
                    hs_min = h.h_min;
                    hs_max = h.h_max;
                    hs_p50 = Histogram.percentile_unlocked h 50.0;
                    hs_p95 = Histogram.percentile_unlocked h 95.0;
                    hs_p99 = Histogram.percentile_unlocked h 99.0;
                  })
        in
        (match stats with Some s -> histograms := s :: !histograms | None -> ()))
    metrics;
  {
    counters = List.sort compare !counters;
    gauges = List.sort compare !gauges;
    histograms = List.sort (fun a b -> compare a.hs_name b.hs_name) !histograms;
  }

let snapshot_to_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  Buffer.add_string b "  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (Json.escape name) v))
    snap.counters;
  Buffer.add_string b (if snap.counters = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"gauges\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s\n    \"%s\": %s" (if i = 0 then "" else ",") (Json.escape name)
           (Json.number v)))
    snap.gauges;
  Buffer.add_string b (if snap.gauges = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"histograms\": {";
  List.iteri
    (fun i h ->
      Buffer.add_string b
        (Printf.sprintf
           "%s\n    \"%s\": { \"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \
            \"p95\": %s, \"p99\": %s }"
           (if i = 0 then "" else ",")
           (Json.escape h.hs_name) h.hs_count (Json.number h.hs_sum) (Json.number h.hs_min)
           (Json.number h.hs_max) (Json.number h.hs_p50) (Json.number h.hs_p95)
           (Json.number h.hs_p99)))
    snap.histograms;
  Buffer.add_string b (if snap.histograms = [] then "}\n" else "\n  }\n");
  Buffer.add_string b "}\n";
  Buffer.contents b

let snapshot_of_json s =
  let ( let* ) = Result.bind in
  let* json = Json.parse s in
  let* () =
    match Json.member "schema" json with
    | Some (Json.Str v) when v = schema -> Ok ()
    | Some (Json.Str v) -> Error (Printf.sprintf "unsupported schema %S (expected %S)" v schema)
    | _ -> Error "missing \"schema\" field"
  in
  let section name =
    match Json.member name json with
    | Some (Json.Obj fields) -> Ok fields
    | None -> Ok []
    | Some _ -> Error (Printf.sprintf "field %S is not an object" name)
  in
  let* counters = section "counters" in
  let* counters =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match Json.to_float v with
        | Some f -> Ok ((k, int_of_float f) :: acc)
        | None -> Error (Printf.sprintf "counter %S is not a number" k))
      (Ok []) counters
  in
  let* gauges = section "gauges" in
  let* gauges =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match Json.to_float v with
        | Some f -> Ok ((k, f) :: acc)
        | None -> Error (Printf.sprintf "gauge %S is not a number" k))
      (Ok []) gauges
  in
  let* histograms = section "histograms" in
  let* histograms =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        let field name =
          match Json.member name v with
          | Some (Json.Num f) -> Ok f
          | _ -> Error (Printf.sprintf "histogram %S lacks numeric field %S" k name)
        in
        let* count = field "count" in
        let* sum = field "sum" in
        let* mn = field "min" in
        let* mx = field "max" in
        let* p50 = field "p50" in
        let* p95 = field "p95" in
        let* p99 = field "p99" in
        Ok
          ({
             hs_name = k;
             hs_count = int_of_float count;
             hs_sum = sum;
             hs_min = mn;
             hs_max = mx;
             hs_p50 = p50;
             hs_p95 = p95;
             hs_p99 = p99;
           }
          :: acc))
      (Ok []) histograms
  in
  Ok
    {
      counters = List.sort compare (List.rev counters);
      gauges = List.sort compare (List.rev gauges);
      histograms = List.sort (fun a b -> compare a.hs_name b.hs_name) (List.rev histograms);
    }

let render_table snap =
  let b = Buffer.create 1024 in
  if snap.counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-44s %14d\n" name v))
      snap.counters
  end;
  if snap.gauges <> [] then begin
    Buffer.add_string b "gauges:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-44s %14.4g\n" name v))
      snap.gauges
  end;
  if snap.histograms <> [] then begin
    Buffer.add_string b "histograms:\n";
    Buffer.add_string b
      (Printf.sprintf "  %-34s %9s %10s %10s %10s %10s %10s\n" "" "count" "mean" "p50" "p95" "p99"
         "max");
    List.iter
      (fun h ->
        Buffer.add_string b
          (Printf.sprintf "  %-34s %9d %10.4g %10.4g %10.4g %10.4g %10.4g\n" h.hs_name h.hs_count
             (h.hs_sum /. float_of_int (max 1 h.hs_count))
             h.hs_p50 h.hs_p95 h.hs_p99 h.hs_max))
      snap.histograms
  end;
  if Buffer.length b = 0 then Buffer.add_string b "no metrics recorded\n";
  Buffer.contents b

(* --- trace export ------------------------------------------------------- *)

let trace_json () =
  Mutex.lock events_mutex;
  let evs = List.rev !events in
  Mutex.unlock events_mutex;
  let pid = Unix.getpid () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf
           "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d}"
           (if i = 0 then "" else ",")
           (Json.escape e.e_name) (Json.escape e.e_cat) e.e_ts e.e_dur pid e.e_tid))
    evs;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let event_count () =
  Mutex.lock events_mutex;
  let n = List.length !events in
  Mutex.unlock events_mutex;
  n

(* --- lifecycle ---------------------------------------------------------- *)

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Atomic.set c.c_value 0
      | M_gauge g ->
        Atomic.set g.g_value 0.0;
        Atomic.set g.g_touched false
      | M_histogram h ->
        Mutex.lock h.h_mutex;
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- infinity;
        h.h_max <- neg_infinity;
        Array.fill h.h_buckets 0 n_buckets 0;
        Mutex.unlock h.h_mutex)
    registry;
  Mutex.unlock registry_mutex;
  Mutex.lock events_mutex;
  events := [];
  Mutex.unlock events_mutex

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let write_metrics path = write_file path (snapshot_to_json (snapshot ()))

let write_trace path = write_file path (trace_json ())
