(* Structured event log: bounded ring + optional JSON-lines file sink.

   The design mirrors the metrics registry's cost contract: when the
   log is disabled, an emission site is one atomic load and nothing
   else; emission itself (rare by construction — faults, CRC failures,
   phase transitions) takes a short mutex. *)

type level = Debug | Info | Warn | Error

type event = {
  ev_ts_us : float;
  ev_level : level;
  ev_name : string;
  ev_fields : (string * string) list;
}

let on = Atomic.make false

let enabled () = Atomic.get on

let set_enabled b = Atomic.set on b

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let min_level = Atomic.make (level_rank Debug)

let set_level l = Atomic.set min_level (level_rank l)

(* Ring state: [ring] holds the newest [len] events ending at index
   [head - 1] (mod capacity). [recorded] counts every event that made
   it past the level filter since the last clear. *)
let mutex = Mutex.create ()

let ring = ref (Array.make 1024 None)

let head = ref 0

let len = ref 0

let recorded = ref 0

(* File sink with size-capped rotation: when appending the next record
   would push the current file past [sink_max_bytes], the file is
   renamed to [path ^ ".1"] (replacing any previous rotation) and a
   fresh file is started — so a long-running daemon holds at most
   ~2x the cap on disk, and the newest events are always in [path]. *)
let sink : (out_channel * string) option ref = ref None

let default_sink_max_bytes = 16 * 1024 * 1024

let sink_max_bytes = ref default_sink_max_bytes

let sink_bytes = ref 0

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let tail_locked n =
  let cap = Array.length !ring in
  let n = min n !len in
  let first = (!head - n + cap) mod cap in
  List.init n (fun i ->
      match !ring.((first + i) mod cap) with Some e -> e | None -> assert false)

let set_capacity n =
  let n = max 1 n in
  locked (fun () ->
      let keep = tail_locked n in
      let fresh = Array.make n None in
      List.iteri (fun i e -> fresh.(i) <- Some e) keep;
      ring := fresh;
      len := List.length keep;
      head := !len mod n)

let json_escape = Obs.Json.escape

let to_json_line e =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts_us\":%.1f,\"level\":\"%s\",\"event\":\"%s\"" e.ev_ts_us
       (level_to_string e.ev_level)
       (json_escape e.ev_name));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    e.ev_fields;
  Buffer.add_char b '}';
  Buffer.contents b

let emit ?(fields = []) lvl name =
  if Atomic.get on && level_rank lvl >= Atomic.get min_level then begin
    let e = { ev_ts_us = Obs.now_us (); ev_level = lvl; ev_name = name; ev_fields = fields } in
    locked (fun () ->
        let cap = Array.length !ring in
        !ring.(!head) <- Some e;
        head := (!head + 1) mod cap;
        if !len < cap then incr len;
        incr recorded;
        match !sink with
        | Some (oc, path) ->
          let line = to_json_line e in
          let n = String.length line + 1 in
          let oc =
            (* rotate before the write that would breach the cap — but
               never rotate an empty file: one record larger than the
               cap still has to land somewhere *)
            if !sink_bytes > 0 && !sink_bytes + n > !sink_max_bytes then begin
              close_out_noerr oc;
              (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
              let fresh = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
              sink := Some (fresh, path);
              sink_bytes := 0;
              fresh
            end
            else oc
          in
          output_string oc line;
          output_char oc '\n';
          sink_bytes := !sink_bytes + n;
          flush oc
        | None -> ())
  end

let debug ?fields name = emit ?fields Debug name

let info ?fields name = emit ?fields Info name

let warn ?fields name = emit ?fields Warn name

let error ?fields name = emit ?fields Error name

(* Level filtering scans the whole retained ring, then keeps the newest
   [n] matches — "the last n warnings" rather than "the warnings among
   the last n events", which is what an operator filtering a noisy
   debug stream actually wants. *)
let tail ?min_level n =
  let keep =
    match min_level with
    | None -> fun _ -> true
    | Some lvl ->
      let floor = level_rank lvl in
      fun e -> level_rank e.ev_level >= floor
  in
  locked (fun () ->
      let all = tail_locked (Array.length !ring) in
      let matching = List.filter keep all in
      let n = max 0 n in
      let excess = List.length matching - n in
      if excess <= 0 then matching else List.filteri (fun i _ -> i >= excess) matching)

let total () = locked (fun () -> !recorded)

let dropped () = locked (fun () -> !recorded - !len)

let clear () =
  locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      head := 0;
      len := 0;
      recorded := 0)

let set_sink ?(max_bytes = default_sink_max_bytes) path =
  locked (fun () ->
      (match !sink with Some (oc, _) -> close_out_noerr oc | None -> ());
      sink_max_bytes := max 1 max_bytes;
      sink_bytes := 0;
      sink :=
        Option.map
          (fun p ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 p in
            (* appending to an existing file: its current size counts
               against the cap, or rotation would never trigger across
               daemon restarts *)
            (sink_bytes := match Unix.stat p with s -> s.Unix.st_size | exception Unix.Unix_error _ -> 0);
            (oc, p))
          path)

(* A sink file from a process killed mid-write ends in a torn line:
   the per-event flush means every earlier line is complete, but the
   final one may stop anywhere. Read-back therefore accepts exactly
   one unparseable line, and only at the end — a bad line with valid
   JSON after it is real corruption and must be reported, not
   tolerated. *)
let load_sink_file path =
  match open_in_bin path with
  | exception Sys_error e -> Result.Error e
  | ic ->
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref [] in
          (try
             while true do
               acc := input_line ic :: !acc
             done
           with End_of_file -> ());
          List.rev !acc)
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    let n = List.length lines in
    let ok = ref [] and err = ref None in
    List.iteri
      (fun i line ->
        if !err = None then
          match Obs.Json.parse line with
          | Result.Ok _ -> ok := line :: !ok
          | Result.Error e ->
            if i = n - 1 then () (* torn final line: expected crash evidence *)
            else err := Some (Printf.sprintf "corrupt record on line %d: %s" (i + 1) e))
      lines;
    (match !err with Some e -> Result.Error e | None -> Result.Ok (List.rev !ok))

let tail_json ?min_level n =
  let b = Buffer.create 512 in
  List.iter
    (fun e ->
      Buffer.add_string b (to_json_line e);
      Buffer.add_char b '\n')
    (tail ?min_level n);
  Buffer.contents b
