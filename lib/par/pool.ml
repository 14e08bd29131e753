(* Persistent domain pool for the per-cache-block pipeline.

   The paper's central property — every cache block compresses and
   decompresses independently — makes block work embarrassingly
   parallel. Worker domains are spawned once (lazily, sized by the
   largest [jobs] ever requested) and parked on a condition variable
   between dispatches; each [map]/[init_local]/[iter_n] call is an
   *epoch* fanned over the shared index queue. Results land in a
   per-index slot, so assembly is deterministic and order-preserving no
   matter which domain finished first: output is byte-identical to a
   serial run.

   The previous pool paid [jobs - 1] Domain.spawn + join per dispatch,
   which is why small-block workloads lost to serial; an epoch here
   costs one condition broadcast and one counter handshake. *)

module Obs = Ccomp_obs.Obs

let default_jobs () = Domain.recommended_domain_count ()

(* Pool metrics: fan-out shape (tasks, epochs, queue depth seen at each
   chunked draw), per-participant busy time, and the pool-reuse story
   (with a persistent pool, spawns stays flat while epochs grows). All
   guarded per-dispatch, so the hot loop is untouched when metrics are
   off. *)
let m_tasks = Obs.Counter.make "par.tasks"

let m_epochs = Obs.Counter.make "par.epochs"

let m_spawns = Obs.Counter.make "par.spawns"

let m_queue_depth = Obs.Histogram.make "par.queue_depth"

let m_worker_busy_us = Obs.Histogram.make "par.worker_busy_us"

let g_jobs = Obs.Gauge.make "par.jobs"

(* A single-lock work queue: participants draw the next unclaimed index.
   Chunked draw (claim [chunk] indices at a time) keeps lock traffic
   negligible next to per-block codec work. *)
type queue = { qm : Mutex.t; mutable next : int; limit : int }

let draw q chunk =
  Mutex.lock q.qm;
  let i = q.next in
  let n = if i >= q.limit then 0 else min chunk (q.limit - i) in
  q.next <- i + n;
  Mutex.unlock q.qm;
  (i, n)

(* Claim every index still in the queue (the abort path: once a failure
   is recorded, remaining items are skipped, not run, but must still be
   accounted so the epoch terminates). *)
let drain q =
  Mutex.lock q.qm;
  let n = q.limit - q.next in
  q.next <- q.limit;
  Mutex.unlock q.qm;
  max 0 n

type epoch = {
  e_id : int;  (** unique per dispatch: a worker joins each epoch at most once *)
  e_cap : int Atomic.t;  (** worker-participation slots left, [jobs - 1] *)
  e_unfinished : int Atomic.t;  (** items not yet run or skipped *)
  e_participate : unit -> unit;
      (** the whole draw loop, with per-participant scratch and failure
          handling inside; must never raise *)
}

type pool = {
  lock : Mutex.t;
  work : Condition.t;  (** workers park here between epochs *)
  donec : Condition.t;  (** the dispatcher waits here for the epoch to finish *)
  mutable current : epoch option;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  mutable stopping : bool;
}

let pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    donec = Condition.create ();
    current = None;
    workers = [];
    n_workers = 0;
    stopping = false;
  }

(* Epochs are serialized: one dispatch owns the pool at a time; a second
   concurrent dispatcher (e.g. another serve worker) queues here. *)
let dispatch_lock = Mutex.create ()

(* A domain running an epoch item must not itself dispatch: it would
   block on [dispatch_lock] held by an epoch that cannot finish without
   it — detected and rejected instead of deadlocking. *)
let in_task = Domain.DLS.new_key (fun () -> ref false)

let rec try_claim cap =
  let v = Atomic.get cap in
  v > 0 && (Atomic.compare_and_set cap v (v - 1) || try_claim cap)

let worker_main () =
  let last = ref (-1) in
  Mutex.lock pool.lock;
  let rec loop () =
    if pool.stopping then Mutex.unlock pool.lock
    else
      match pool.current with
      | Some ep when ep.e_id <> !last && try_claim ep.e_cap ->
        last := ep.e_id;
        Mutex.unlock pool.lock;
        ep.e_participate ();
        Mutex.lock pool.lock;
        loop ()
      | _ ->
        Condition.wait pool.work pool.lock;
        loop ()
  in
  loop ()

(* Grow the resident worker set to [n] domains. Called under
   [dispatch_lock], so two dispatches never race to spawn. *)
let ensure_workers n =
  if pool.n_workers < n then begin
    Mutex.lock pool.lock;
    while pool.n_workers < n do
      pool.workers <- Domain.spawn worker_main :: pool.workers;
      pool.n_workers <- pool.n_workers + 1;
      Obs.Counter.incr m_spawns
    done;
    Mutex.unlock pool.lock
  end

let pool_domains () =
  Mutex.lock pool.lock;
  let n = pool.n_workers in
  Mutex.unlock pool.lock;
  n

let shutdown () =
  if !(Domain.DLS.get in_task) then invalid_arg "Pool.shutdown: called from inside a dispatch";
  Mutex.lock dispatch_lock;
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  let ws = pool.workers in
  pool.workers <- [];
  pool.n_workers <- 0;
  Mutex.unlock pool.lock;
  List.iter Domain.join ws;
  Mutex.lock pool.lock;
  pool.stopping <- false;
  Mutex.unlock pool.lock;
  Mutex.unlock dispatch_lock

(* Parked domains must be joined before the process exits. *)
let () = at_exit shutdown

let epoch_counter = Atomic.make 0

(* Adaptive chunk sizing: each completed chunk re-estimates the per-item
   cost and retargets the draw size so one draw costs ~[target_draw_us]
   — big chunks amortize queue locking for cheap items, single-item
   draws keep heavy blocks balanced. Purely a scheduling hint; result
   placement is by index, so output bytes never depend on it. *)
let target_draw_us = 200.0

let adapt_chunk ~n ~jobs chunk ~elapsed_us ~got =
  let per_item = elapsed_us /. float_of_int (max 1 got) in
  let ideal =
    if per_item <= 0.0 then max 1 (n / (jobs * 8))
    else int_of_float (target_draw_us /. per_item)
  in
  let upper = max 1 (n / (2 * jobs)) in
  Atomic.set chunk (max 1 (min ideal upper))

(* The core: run [run scratch i] for every [i] in [0, n), fanned over
   [jobs] domains (the caller participates as one of them). [local] is
   called once per participating domain per epoch — per-domain reusable
   scratch (bit-writer buffers, coder state) threads through here. *)
let run_epoch ~jobs ~n ~local ~run =
  if !(Domain.DLS.get in_task) then
    invalid_arg "Pool: nested dispatch (a pool task called back into the pool)";
  if n > 0 then begin
    if jobs <= 1 || n = 1 then begin
      (* serial: no domains, no queue — but the same scratch discipline *)
      let flag = Domain.DLS.get in_task in
      flag := true;
      Fun.protect
        ~finally:(fun () -> flag := false)
        (fun () ->
          let scratch = local () in
          for i = 0 to n - 1 do
            run scratch i
          done)
    end
    else begin
      let jobs = min jobs n in
      let instrument = Obs.metrics_enabled () in
      if instrument then begin
        Obs.Gauge.set g_jobs (float_of_int jobs);
        Obs.Counter.add m_tasks n;
        Obs.Counter.incr m_epochs
      end;
      let q = { qm = Mutex.create (); next = 0; limit = n } in
      let chunk = Atomic.make (max 1 (n / (jobs * 8))) in
      let failure = Atomic.make None in
      let unfinished = Atomic.make n in
      (* Account [k] items as done/skipped; the participant that zeroes
         the counter wakes the dispatcher. *)
      let account k =
        if k > 0 && Atomic.fetch_and_add unfinished (-k) = k then begin
          Mutex.lock pool.lock;
          Condition.broadcast pool.donec;
          Mutex.unlock pool.lock
        end
      in
      let participate () =
        Obs.with_span ~cat:"par" "par.worker" @@ fun () ->
        let flag = Domain.DLS.get in_task in
        flag := true;
        let busy = ref 0.0 in
        (match local () with
        | exception e ->
          ignore (Atomic.compare_and_set failure None (Some e));
          account (drain q)
        | scratch ->
          let continue_ = ref true in
          while !continue_ do
            if Atomic.get failure <> None then begin
              account (drain q);
              continue_ := false
            end
            else begin
              let i, got = draw q (Atomic.get chunk) in
              if got = 0 then continue_ := false
              else begin
                (* items still unclaimed after this draw: how far from
                   drained the queue was when this participant came back
                   for work *)
                if instrument then
                  Obs.Histogram.observe m_queue_depth (float_of_int (q.limit - i - got));
                let t0 = Obs.now_us () in
                let k = ref i in
                let stop = i + got in
                while !k < stop && Atomic.get failure = None do
                  (match run scratch !k with
                  | () -> ()
                  | exception e ->
                    (* first failure wins; the rest of the queue is
                       skipped so the dispatch raises promptly *)
                    ignore (Atomic.compare_and_set failure None (Some e)));
                  incr k
                done;
                let elapsed = Obs.now_us () -. t0 in
                busy := !busy +. elapsed;
                adapt_chunk ~n ~jobs chunk ~elapsed_us:elapsed ~got;
                account got
              end
            end
          done);
        flag := false;
        if instrument then Obs.Histogram.observe m_worker_busy_us !busy
      in
      Mutex.lock dispatch_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock dispatch_lock)
        (fun () ->
          ensure_workers (jobs - 1);
          let ep =
            {
              e_id = Atomic.fetch_and_add epoch_counter 1;
              e_cap = Atomic.make (jobs - 1);
              e_unfinished = unfinished;
              e_participate = participate;
            }
          in
          Mutex.lock pool.lock;
          pool.current <- Some ep;
          Condition.broadcast pool.work;
          Mutex.unlock pool.lock;
          (* the dispatcher is a participant too *)
          participate ();
          Mutex.lock pool.lock;
          while Atomic.get ep.e_unfinished > 0 do
            Condition.wait pool.donec pool.lock
          done;
          pool.current <- None;
          Mutex.unlock pool.lock;
          match Atomic.get failure with
          | Some e ->
            (* an aborted dispatch: one item failed, the rest of the
               queue was skipped — the event names the culprit *)
            Ccomp_obs.Events.error
              ~fields:[ ("tasks", string_of_int n); ("error", Printexc.to_string e) ]
              "par.abort";
            raise e
          | None -> ())
    end
  end

let iter_n ?jobs ~local n f =
  if n < 0 then invalid_arg "Pool.iter_n: negative length"
  else if n > 0 then begin
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    run_epoch ~jobs ~n ~local ~run:f
  end

let init_local ?jobs ~local n f =
  if n < 0 then invalid_arg "Pool.init_local: negative length";
  let results = Array.make n None in
  iter_n ?jobs ~local n (fun l i -> results.(i) <- Some (f l i));
  Array.map Option.get results

let map ?jobs f a = init_local ?jobs ~local:ignore (Array.length a) (fun () i -> f a.(i))
