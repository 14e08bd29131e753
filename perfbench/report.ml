(* A workload's outcome and its one-line JSON rendering. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  correct : bool;
  e2e : metric list;  (** end-to-end metrics, from untraced rounds *)
  layer : metric list;  (** per-layer metrics; empty unless traced *)
  facts : (string * string) list;  (** name, raw JSON value: host and input summary *)
}

let m name unit_ value = { name; value; unit_ }

let str s = "\"" ^ Ccomp_obs.Obs.Json.escape s ^ "\""

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  obj (List.map (fun x -> (x.name, obj [ ("value", num x.value); ("unit", str x.unit_) ])) ms)

let result_json ~trace r =
  obj
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json (if trace then r.layer else r.e2e));
    ]
