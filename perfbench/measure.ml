(* Clocks, order statistics and process facts shared by the workloads. *)

(* Monotonic nanoseconds; the external is unboxed and noalloc, so a
   timed call allocates nothing for its clock reads. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Nearest-rank percentile of a sorted array, [q] in [0, 1]. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile of no samples"
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile_sorted (sorted_floats l) 0.5

let sum = List.fold_left ( +. ) 0.0

(* Setups per run: [setup_s] is their median. *)
let setup_reps = 5

(* Runs [f] [setup_reps] times, timing each, and returns the last result
   with the median of the timings; [discard] releases the results not
   kept and is not timed. The first timing starts at [since] (the
   process start), so process start-up counts once, as a user pays it. *)
let repeat_setup ?(discard = ignore) ~since f =
  let rec go i t0 acc =
    let v = f () in
    let dt = secs_since t0 in
    if i + 1 >= setup_reps then (v, median (dt :: acc))
    else begin
      discard v;
      go (i + 1) (now_ns ()) (dt :: acc)
    end
  in
  go 0 since []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report length 0, so they are read to EOF in chunks. *)
let read_proc path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let b = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec loop () =
          let n = input ic chunk 0 4096 in
          if n > 0 then begin
            Buffer.add_subbytes b chunk 0 n;
            loop ()
          end
        in
        loop ();
        Some (Buffer.contents b))

(* CPUs of the host, whatever this process's affinity. *)
let online_cpus () =
  match read_proc "/proc/cpuinfo" with
  | None -> 0
  | Some s ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' s))

(* A "Key:  value" field of /proc/<pid>/status ("" when absent). *)
let status_field pid key =
  match read_proc (Printf.sprintf "/proc/%s/status" pid) with
  | None -> ""
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> acc)
      "" (String.split_on_char '\n' s)

(* A "Key:   123 kB" field of /proc/<pid>/status, in MB. *)
let status_mb pid key =
  match status_field pid key with
  | "" -> nan
  | v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)

let peak_rss_mb pid = status_mb pid "VmHWM"

(* utime + stime of a process, in seconds: fields 14 and 15 of
   /proc/<pid>/stat (counted after the parenthesised command name), in
   Linux's fixed 100 Hz USER_HZ ticks. *)
let cpu_s pid =
  match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s ->
    let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (* [rest] starts at field 3 (state) *)
    float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* One variable of /proc/<pid>/environ, as the process runs with it. *)
let environ_var pid name =
  match read_proc (Printf.sprintf "/proc/%d/environ" pid) with
  | None -> None
  | Some s ->
    let prefix = name ^ "=" in
    let pl = String.length prefix in
    List.find_map
      (fun kv ->
        if String.length kv >= pl && String.sub kv 0 pl = prefix then
          Some (String.sub kv pl (String.length kv - pl))
        else None)
      (String.split_on_char '\000' s)

(* Words allocated by this domain so far, minor and direct-major. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* What this process spent: allocation, collections and CPU time. *)
type usage = { alloc_w : float; minor : int; major : int; cpu : float }

let usage () =
  let t = Unix.times () in
  {
    alloc_w = alloc_words ();
    minor = minor_collections ();
    major = major_collections ();
    cpu = t.Unix.tms_utime +. t.Unix.tms_stime;
  }

let usage_since u0 =
  let u = usage () in
  { alloc_w = u.alloc_w -. u0.alloc_w; minor = u.minor - u0.minor; major = u.major - u0.major; cpu = u.cpu -. u0.cpu }
