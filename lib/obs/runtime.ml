(* Domain-safe OCaml runtime telemetry: per-domain GC deltas, an
   end-of-major-cycle pause estimator, and allocation-rate gauges.

   OCaml 5's [Gc.quick_stat] is cheap (no heap walk, no stop-the-world)
   and its allocation/collection counters describe the *calling
   domain*, so a delta between two reads on the same domain is exact
   for that domain's mutator. Each domain keeps its previous reading in
   domain-local storage; [sample] folds the delta into the process-wide
   [Obs] registry, which is what /metrics renders.

   Pause observation: [Gc.create_alarm] runs its callback at the end of
   every major GC cycle, on the domain that finishes it, while that
   domain's mutator is stopped. OCaml gives no direct slice duration,
   so we estimate the way userland hiccup meters do: the serve pipeline
   calls [tick] at every request-stage boundary, stamping "the mutator
   was demonstrably running now"; the alarm observes
   now - last_tick as the stall bound. Under load, ticks are hundreds
   of microseconds apart, so the estimate is tight; a stale tick
   (> [stale_tick_us], i.e. an idle domain) is skipped rather than
   booked as a giant fake pause.

   Everything is behind the registry's one-atomic-load-when-off guard:
   with metrics disabled, [probe]/[sample]/[tick] and the alarm body
   return immediately. *)

module H = Obs.Histogram

(* --- registry surface --------------------------------------------------- *)

let c_minor_collections = Obs.Counter.make "runtime.gc.minor_collections"

let c_major_collections = Obs.Counter.make "runtime.gc.major_collections"

let c_compactions = Obs.Counter.make "runtime.gc.compactions"

let c_minor_words = Obs.Counter.make "runtime.gc.minor_words"

let c_promoted_words = Obs.Counter.make "runtime.gc.promoted_words"

let c_major_words = Obs.Counter.make "runtime.gc.major_words"

let c_major_cycles = Obs.Counter.make "runtime.gc.major_cycles"

let g_heap_words = Obs.Gauge.make "runtime.gc.heap_words"

let g_space_overhead = Obs.Gauge.make "runtime.gc.space_overhead"

let g_alloc_rate = Obs.Gauge.make "runtime.alloc_rate_mbps"

let g_domains = Obs.Gauge.make "runtime.domains"

let h_major_pause = H.make "runtime.gc.major_pause_us"

let major_pause_histogram_name = "runtime.gc.major_pause_us"

(* A pause estimate is only meaningful when the mutator ticked
   recently; an idle domain's first major cycle after a quiet second
   would otherwise book the whole quiet period as a "pause". *)
let stale_tick_us = 250_000.0

(* --- per-domain state ---------------------------------------------------- *)

type delta = {
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  d_minor_words : float;  (** words allocated on the minor heap *)
  d_promoted_words : float;  (** words that survived into the major heap *)
  d_major_words : float;  (** words allocated directly on the major heap *)
}

let delta_zero =
  {
    d_minor_collections = 0;
    d_major_collections = 0;
    d_compactions = 0;
    d_minor_words = 0.0;
    d_promoted_words = 0.0;
    d_major_words = 0.0;
  }

(* [major_words] counts promoted words too; subtracting them leaves
   direct major allocation, so d_minor_words + d_major_words is total
   words the mutator allocated. Clamp at 0 against float jitter. *)
let delta_between (a : Gc.stat) (b : Gc.stat) =
  let pos v = if v < 0.0 then 0.0 else v in
  let posi v = if v < 0 then 0 else v in
  {
    d_minor_collections = posi (b.Gc.minor_collections - a.Gc.minor_collections);
    d_major_collections = posi (b.Gc.major_collections - a.Gc.major_collections);
    d_compactions = posi (b.Gc.compactions - a.Gc.compactions);
    d_minor_words = pos (b.Gc.minor_words -. a.Gc.minor_words);
    d_promoted_words = pos (b.Gc.promoted_words -. a.Gc.promoted_words);
    d_major_words =
      pos (b.Gc.major_words -. a.Gc.major_words -. (b.Gc.promoted_words -. a.Gc.promoted_words));
  }

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let alloc_mb d = words_to_mb (d.d_minor_words +. d.d_major_words)

type dstate = {
  mutable ds_last : Gc.stat;
  mutable ds_last_us : float;
  mutable ds_tick_us : float;
  mutable ds_alarm_installed : bool;
  mutable ds_counted : bool;  (** this domain already bumped runtime.domains *)
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let now = Obs.now_us () in
      {
        ds_last = Gc.quick_stat ();
        ds_last_us = now;
        ds_tick_us = now;
        ds_alarm_installed = false;
        ds_counted = false;
      })

let domains_sampling = Atomic.make 0

(* --- API ----------------------------------------------------------------- *)

let probe () = if Obs.metrics_enabled () then Some (Gc.quick_stat ()) else None

let stage_delta a b =
  match (a, b) with Some a, Some b -> delta_between a b | _ -> delta_zero

let tick () =
  if Obs.metrics_enabled () then begin
    let st = Domain.DLS.get dls in
    st.ds_tick_us <- Obs.now_us ()
  end

(* Fold this domain's growth since its previous sample into the global
   counters, refresh the gauges, return the delta. The counters are the
   sum over all sampling domains; the heap gauges are last-writer-wins,
   which is fine — every domain shares one major heap in OCaml 5. *)
let sample () =
  if not (Obs.metrics_enabled ()) then delta_zero
  else begin
    let st = Domain.DLS.get dls in
    if not st.ds_counted then begin
      st.ds_counted <- true;
      Obs.Gauge.set g_domains (float_of_int (Atomic.fetch_and_add domains_sampling 1 + 1))
    end;
    let now = Obs.now_us () in
    let cur = Gc.quick_stat () in
    let d = delta_between st.ds_last cur in
    Obs.Counter.add c_minor_collections d.d_minor_collections;
    Obs.Counter.add c_major_collections d.d_major_collections;
    Obs.Counter.add c_compactions d.d_compactions;
    Obs.Counter.add c_minor_words (int_of_float d.d_minor_words);
    Obs.Counter.add c_promoted_words (int_of_float d.d_promoted_words);
    Obs.Counter.add c_major_words (int_of_float d.d_major_words);
    Obs.Gauge.set g_heap_words (float_of_int cur.Gc.heap_words);
    Obs.Gauge.set g_space_overhead (float_of_int (Gc.get ()).Gc.space_overhead);
    let dt_s = (now -. st.ds_last_us) /. 1e6 in
    if dt_s > 1e-6 then Obs.Gauge.set g_alloc_rate (alloc_mb d /. dt_s);
    st.ds_last <- cur;
    st.ds_last_us <- now;
    st.ds_tick_us <- now;
    d
  end

(* End-of-major-cycle hook for the calling domain. Idempotent per
   domain; the alarm object lives as long as the domain, which is what
   a daemon worker wants. *)
let install_alarm () =
  let st = Domain.DLS.get dls in
  if not st.ds_alarm_installed then begin
    st.ds_alarm_installed <- true;
    ignore
      (Gc.create_alarm (fun () ->
           if Obs.metrics_enabled () then begin
             Obs.Counter.incr c_major_cycles;
             let now = Obs.now_us () in
             let stall = now -. st.ds_tick_us in
             if stall >= 0.0 && stall <= stale_tick_us then H.observe h_major_pause stall;
             st.ds_tick_us <- now
           end))
  end
