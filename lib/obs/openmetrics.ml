(* OpenMetrics text exposition (the Prometheus scrape format).

   Rendering works either from a live registry (every registered
   metric, zeros included, so the scraped schema never flaps between
   scrapes) or from a snapshot (whatever was active). The small parser
   at the bottom exists for the conformance tests: whatever render
   emits must parse back sample-for-sample. *)

let is_name_char ~colon c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'
  || (colon && c = ':')

let sanitize ~colon s =
  let b = Buffer.create (String.length s + 1) in
  String.iter (fun c -> Buffer.add_char b (if is_name_char ~colon c then c else '_')) s;
  let out = Buffer.contents b in
  if out = "" then "_" else if out.[0] >= '0' && out.[0] <= '9' then "_" ^ out else out

let sanitize_metric_name = sanitize ~colon:true

let sanitize_label_name = sanitize ~colon:false

let escape_label_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let strip_total name =
  let suffix = "_total" in
  let n = String.length name and k = String.length suffix in
  if n > k && String.sub name (n - k) k = suffix then String.sub name 0 (n - k) else name

let counter_name name = strip_total (sanitize_metric_name name) ^ "_total"

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let fmt_le v = if v = infinity then "+Inf" else fmt_value v

(* One metric family: the TYPE line plus its samples. [emitted] guards
   against two registry names sanitising to the same family — the
   first wins and later ones are skipped rather than emitting an
   exposition with duplicate families. *)
let family emitted b name kind samples =
  if not (Hashtbl.mem emitted name) then begin
    Hashtbl.add emitted name ();
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
    List.iter
      (fun (sample_name, labels, v) ->
        let label_str =
          match labels with
          | [] -> ""
          | ls ->
            "{"
            ^ String.concat ","
                (List.map
                   (fun (k, value) ->
                     Printf.sprintf "%s=\"%s\"" (sanitize_label_name k) (escape_label_value value))
                   ls)
            ^ "}"
        in
        Buffer.add_string b (Printf.sprintf "%s%s %s\n" sample_name label_str v))
      samples
  end

(* --- info metrics -------------------------------------------------------- *)

(* OpenMetrics "info" metrics: immutable build/config facts exposed as
   labels on a constant-1 sample ([name_info{version="…"} 1]). They
   live outside the numeric registry — an info metric has no value to
   aggregate — in a small locked table keyed by family name. *)

let info_mutex = Mutex.create ()

let info_table : (string, (string * string) list) Hashtbl.t = Hashtbl.create 4

let set_info name labels =
  Mutex.lock info_mutex;
  Hashtbl.replace info_table name labels;
  Mutex.unlock info_mutex

let info_metrics () =
  Mutex.lock info_mutex;
  let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) info_table [] in
  Mutex.unlock info_mutex;
  List.sort compare out

let info_family emitted b name labels =
  let fam = sanitize_metric_name name in
  family emitted b fam "info"
    [
      ( fam ^ "_info",
        List.map (fun (k, v) -> (sanitize_label_name k, v)) labels,
        "1" );
    ]

let counter_family emitted b name v =
  let fam = strip_total (sanitize_metric_name name) in
  family emitted b fam "counter" [ (fam ^ "_total", [], fmt_value v) ]

let gauge_family emitted b name v =
  let fam = sanitize_metric_name name in
  family emitted b fam "gauge" [ (fam, [], fmt_value v) ]

let histogram_family emitted b name ~buckets ~sum ~count =
  (* [buckets] is an [Obs.Histogram.export]: cumulative, ending at
     [(infinity, count)] *)
  let fam = sanitize_metric_name name in
  family emitted b fam "histogram"
    (List.map
       (fun (le, c) -> (fam ^ "_bucket", [ ("le", fmt_le le) ], string_of_int c))
       buckets
    @ [ (fam ^ "_sum", [], fmt_value sum); (fam ^ "_count", [], string_of_int count) ])

let render () =
  let b = Buffer.create 4096 in
  let emitted = Hashtbl.create 64 in
  List.iter (fun (name, labels) -> info_family emitted b name labels) (info_metrics ());
  List.iter
    (fun (name, kind) ->
      match kind with
      | Obs.Counter_kind ->
        counter_family emitted b name (float_of_int (Obs.Counter.value (Obs.Counter.make name)))
      | Obs.Gauge_kind -> gauge_family emitted b name (Obs.Gauge.value (Obs.Gauge.make name))
      | Obs.Histogram_kind ->
        (* one locked read: buckets, sum and count from the same critical
           section, so the +Inf bucket always equals _count even while
           other domains are observing *)
        let e = Obs.Histogram.export (Obs.Histogram.make name) in
        histogram_family emitted b name ~buckets:e.Obs.Histogram.ex_buckets
          ~sum:e.Obs.Histogram.ex_sum ~count:e.Obs.Histogram.ex_count)
    (Obs.registered_metrics ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* --- parse (for conformance tests) ------------------------------------- *)

type sample = { om_name : string; om_labels : (string * string) list; om_value : float }

let parse_value s =
  match String.lowercase_ascii s with
  | "+inf" | "inf" -> Some infinity
  | "-inf" -> Some neg_infinity
  | "nan" -> Some nan
  | _ -> float_of_string_opt s

let parse_labels s =
  (* key="value",key="value" — values use the render escapes *)
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Error msg in
  let rec go acc =
    if !pos >= n then Ok (List.rev acc)
    else begin
      let start = !pos in
      while !pos < n && s.[!pos] <> '=' do
        incr pos
      done;
      if !pos >= n then fail "label without '='"
      else begin
        let key = String.sub s start (!pos - start) in
        incr pos;
        if !pos >= n || s.[!pos] <> '"' then fail "label value not quoted"
        else begin
          incr pos;
          let b = Buffer.create 16 in
          let rec scan () =
            if !pos >= n then fail "unterminated label value"
            else
              match s.[!pos] with
              | '"' ->
                incr pos;
                Ok (Buffer.contents b)
              | '\\' when !pos + 1 < n ->
                (match s.[!pos + 1] with
                | 'n' -> Buffer.add_char b '\n'
                | c -> Buffer.add_char b c);
                pos := !pos + 2;
                scan ()
              | c ->
                Buffer.add_char b c;
                incr pos;
                scan ()
          in
          match scan () with
          | Error _ as e -> e
          | Ok value ->
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              go ((key, value) :: acc)
            end
            else if !pos = n then Ok (List.rev ((key, value) :: acc))
            else fail "garbage after label value"
        end
      end
    end
  in
  go []

let valid_name s =
  s <> ""
  && not (s.[0] >= '0' && s.[0] <= '9')
  && String.for_all (is_name_char ~colon:true) s

let parse text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  let rec go acc saw_eof = function
    | [] -> if saw_eof then Ok (List.rev acc) else Error "missing # EOF terminator"
    | "" :: rest -> go acc saw_eof rest
    | line :: rest when String.length line > 0 && line.[0] = '#' ->
      go acc (saw_eof || String.trim line = "# EOF") rest
    | _ :: _ when saw_eof -> Error "samples after # EOF"
    | line :: rest ->
      let* name_part, value_part =
        match String.index_opt line ' ' with
        | None -> Error (Printf.sprintf "no value on line %S" line)
        | Some i ->
          Ok (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      in
      let* name, labels =
        match String.index_opt name_part '{' with
        | None -> Ok (name_part, [])
        | Some i ->
          if name_part.[String.length name_part - 1] <> '}' then
            Error (Printf.sprintf "unterminated labels on line %S" line)
          else
            let* labels =
              parse_labels
                (String.sub name_part (i + 1) (String.length name_part - i - 2))
            in
            Ok (String.sub name_part 0 i, labels)
      in
      let* () =
        if valid_name name then Ok () else Error (Printf.sprintf "invalid metric name %S" name)
      in
      let* v =
        match parse_value (String.trim value_part) with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "bad value %S for %s" value_part name)
      in
      go ({ om_name = name; om_labels = labels; om_value = v } :: acc) saw_eof rest
  in
  go [] false lines
