(* Tail-sampled slow-request capture.

   The stage histograms say *which* stage owns p99; they cannot say
   what any particular slow request experienced. This module keeps a
   bounded ring of full per-request records — stage split, per-stage GC
   deltas, ready connections served ahead of it — for exactly the requests worth
   explaining: anything slower than the configured threshold, plus
   every shed and deadline-expired outcome regardless of latency.

   The ring is Domain-safe (one short mutex around push/tail, same
   contract as the event ring) and bounded, so sampling can stay on for
   the life of the daemon. /slow and `ccomp stats --slow` read it as
   JSON lines; `ccomp top` renders the GC-overlap correlation. *)

module Obs = Ccomp_obs.Obs
module Runtime = Ccomp_obs.Runtime

type record = {
  sr_ts_us : float;  (** completion instant *)
  sr_id : int64;  (** wire request id; [0L] = untraced request *)
  sr_kind : string;  (** compress | decompress | ping | protocol_error | shed | ... *)
  sr_outcome : string;  (** ok | failed | overloaded | deadline_expired | shed *)
  sr_total_us : float;  (** queue + read + work + write *)
  sr_queue_us : float;
  sr_read_us : float;
  sr_work_us : float;
  sr_write_us : float;
  sr_queue_depth : int;  (** ready connections served ahead of this one on its worker *)
  sr_gc_read : Runtime.delta;  (** this domain's GC activity per stage *)
  sr_gc_work : Runtime.delta;
  sr_gc_write : Runtime.delta;
}

let m_sampled = Obs.Counter.make "serve.slow.sampled_total"

let m_forced = Obs.Counter.make "serve.slow.forced_total"

(* --- bounded ring -------------------------------------------------------- *)

let mutex = Mutex.create ()

let ring : record option array ref = ref (Array.make 64 None)

let head = ref 0

let len = ref 0

(* Plain ref reads off the lock are benign here: a stale threshold for
   one request means one record sampled or skipped a beat late, never a
   torn value (floats are word-sized) or a broken ring. *)
let threshold = ref 100_000.0 (* us *)

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let capacity () = locked (fun () -> Array.length !ring)

let threshold_us () = !threshold

let configure ?capacity ?threshold_us () =
  locked (fun () ->
      (match threshold_us with Some t -> threshold := Float.max 0.0 t | None -> ());
      match capacity with
      | None -> ()
      | Some n ->
        let n = max 1 n in
        if n <> Array.length !ring then begin
          ring := Array.make n None;
          head := 0;
          len := 0
        end)

let clear () =
  locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      head := 0;
      len := 0)

let note r =
  locked (fun () ->
      let cap = Array.length !ring in
      !ring.(!head) <- Some r;
      head := (!head + 1) mod cap;
      if !len < cap then incr len)

(* Shed and deadline-expired outcomes are always evidence — an operator
   asking "why did we refuse work" must find them however fast the
   refusal was. Everything else earns its slot by latency. *)
let forced_outcome outcome =
  outcome = "overloaded" || outcome = "deadline_expired" || outcome = "shed"

let maybe_sample r =
  let forced = forced_outcome r.sr_outcome in
  if forced || r.sr_total_us >= !threshold then begin
    Obs.Counter.incr m_sampled;
    if forced then Obs.Counter.incr m_forced;
    note r;
    true
  end
  else false

let tail n =
  locked (fun () ->
      let cap = Array.length !ring in
      let n = min (max 0 n) !len in
      let first = (!head - n + cap) mod cap in
      List.init n (fun i ->
          match !ring.((first + i) mod cap) with Some r -> r | None -> assert false))

(* --- JSON ---------------------------------------------------------------- *)

let gc_json (d : Runtime.delta) =
  Printf.sprintf "{\"minor\":%d,\"major\":%d,\"alloc_w\":%.0f}" d.Runtime.d_minor_collections
    d.Runtime.d_major_collections
    (d.Runtime.d_minor_words +. d.Runtime.d_major_words)

let to_json_line r =
  Printf.sprintf
    "{\"ts_us\":%.1f,\"id\":\"%Ld\",\"kind\":\"%s\",\"outcome\":\"%s\",\"total_us\":%.0f,\"queue_us\":%.0f,\"read_us\":%.0f,\"work_us\":%.0f,\"write_us\":%.0f,\"queue_depth\":%d,\"gc\":{\"read\":%s,\"work\":%s,\"write\":%s}}"
    r.sr_ts_us r.sr_id (Obs.Json.escape r.sr_kind) (Obs.Json.escape r.sr_outcome) r.sr_total_us
    r.sr_queue_us r.sr_read_us r.sr_work_us r.sr_write_us r.sr_queue_depth (gc_json r.sr_gc_read)
    (gc_json r.sr_gc_work) (gc_json r.sr_gc_write)

let tail_json n =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string b (to_json_line r);
      Buffer.add_char b '\n')
    (tail n);
  Buffer.contents b

let of_json_line line =
  let ( let* ) = Result.bind in
  let* json = Obs.Json.parse line in
  let num name j =
    match Obs.Json.member name j with
    | Some (Obs.Json.Num v) -> Ok v
    | _ -> Error (Printf.sprintf "slow record lacks numeric field %S" name)
  in
  let str name j =
    match Obs.Json.member name j with
    | Some (Obs.Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "slow record lacks string field %S" name)
  in
  let gc_of name =
    match Option.bind (Obs.Json.member "gc" json) (Obs.Json.member name) with
    | None -> Error (Printf.sprintf "slow record lacks gc.%s" name)
    | Some g ->
      let* minor = num "minor" g in
      let* major = num "major" g in
      let* alloc = num "alloc_w" g in
      Ok
        {
          Runtime.delta_zero with
          Runtime.d_minor_collections = int_of_float minor;
          d_major_collections = int_of_float major;
          d_minor_words = alloc;
        }
  in
  let* ts = num "ts_us" json in
  let* id = str "id" json in
  let* kind = str "kind" json in
  let* outcome = str "outcome" json in
  let* total = num "total_us" json in
  let* queue = num "queue_us" json in
  let* read = num "read_us" json in
  let* work = num "work_us" json in
  let* write = num "write_us" json in
  let* depth = num "queue_depth" json in
  let* gc_read = gc_of "read" in
  let* gc_work = gc_of "work" in
  let* gc_write = gc_of "write" in
  Ok
    {
      sr_ts_us = ts;
      sr_id = (match Int64.of_string_opt id with Some v -> v | None -> 0L);
      sr_kind = kind;
      sr_outcome = outcome;
      sr_total_us = total;
      sr_queue_us = queue;
      sr_read_us = read;
      sr_work_us = work;
      sr_write_us = write;
      sr_queue_depth = int_of_float depth;
      sr_gc_read = gc_read;
      sr_gc_work = gc_work;
      sr_gc_write = gc_write;
    }

(* --- correlation + rendering --------------------------------------------- *)

let overlapped_major r =
  r.sr_gc_read.Runtime.d_major_collections > 0
  || r.sr_gc_work.Runtime.d_major_collections > 0
  || r.sr_gc_write.Runtime.d_major_collections > 0

(* (sampled, of which overlapped a major collection) *)
let correlation records =
  List.fold_left
    (fun (n, hit) r -> (n + 1, if overlapped_major r then hit + 1 else hit))
    (0, 0) records

let correlation_line records =
  match correlation records with
  | 0, _ -> None
  | n, hit ->
    Some
      (Printf.sprintf "%d%% of %d sampled tail requests overlapped a major collection"
         (int_of_float (100.0 *. float_of_int hit /. float_of_int n))
         n)

let gc_cell (d : Runtime.delta) =
  if d.Runtime.d_major_collections > 0 then
    Printf.sprintf "%dM/%dm" d.Runtime.d_major_collections d.Runtime.d_minor_collections
  else if d.Runtime.d_minor_collections > 0 then Printf.sprintf "%dm" d.Runtime.d_minor_collections
  else "-"

let render_table records =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  (match records with
  | [] -> line "no slow-request samples (below threshold, or sampling just started)"
  | _ ->
    line "slow-request samples (newest last; gc cells are per-stage major/minor collections):";
    line "  %-20s %-10s %-16s %9s %8s %8s %8s %8s %5s %7s %7s %7s %9s" "id" "kind" "outcome"
      "total ms" "queue" "read" "work" "write" "depth" "gc:read" "gc:work" "gc:write" "alloc KB";
    List.iter
      (fun r ->
        let alloc_kb =
          Runtime.(alloc_mb r.sr_gc_read +. alloc_mb r.sr_gc_work +. alloc_mb r.sr_gc_write)
          *. 1e3
        in
        line "  %-20Ld %-10s %-16s %9.2f %8.0f %8.0f %8.0f %8.0f %5d %7s %7s %7s %9.1f" r.sr_id
          r.sr_kind r.sr_outcome (r.sr_total_us /. 1e3) r.sr_queue_us r.sr_read_us r.sr_work_us
          r.sr_write_us r.sr_queue_depth (gc_cell r.sr_gc_read) (gc_cell r.sr_gc_work)
          (gc_cell r.sr_gc_write) alloc_kb)
      records;
    (match correlation_line records with Some l -> line "  %s" l | None -> ()));
  Buffer.contents b
