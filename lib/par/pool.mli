(** Persistent domain pool for per-cache-block parallelism.

    The block codecs reach it only through {!Blocks}, the one module that
    runs a codec's per-block kernels over an image; the fault campaign
    uses {!map} directly.

    Worker domains are spawned once — lazily, sized by the largest
    [jobs] ever requested — and parked on a condition variable between
    dispatches. Each {!map}/{!init_local}/{!iter_n} call is an {e epoch}:
    work items are drawn from a shared index queue by up to [jobs]
    participating domains (the caller is one of them); each result is
    stored at its input index, so the assembled output is deterministic
    and order-preserving — byte-identical to a serial run regardless of
    scheduling. With [jobs <= 1] (or a single item) no domain is
    involved and the computation runs serially in the caller.

    Epochs are serialized across domains (a second concurrent dispatcher
    queues); a pool task must not itself dispatch — nested dispatch is
    detected and rejected with [Invalid_argument] instead of
    deadlocking. [f] must be safe to run concurrently with itself — true
    of the block codecs, which share only immutable models.

    If a task raises, the first exception wins: remaining queued items
    are skipped and the dispatch re-raises after the epoch settles. The
    pool itself stays usable for the next dispatch. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to
    in the CLIs. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] is [Array.map f a] computed on up to [jobs] domains
    (default {!default_jobs}). *)

val init_local : ?jobs:int -> local:(unit -> 'l) -> int -> ('l -> int -> 'b) -> 'b array
(** [init_local ~local n f] is [Array.init n (f scratch)] with the calls
    distributed over the pool and per-domain reusable scratch: [local ()]
    runs once per participating domain per epoch, and its result threads
    through every [f] call that domain executes — the hook for reusable
    bit-writer buffers and coder state. [local] must produce independent
    values (they are used concurrently). *)

val iter_n : ?jobs:int -> local:(unit -> 'l) -> int -> ('l -> int -> unit) -> unit
(** [iter_n ~local n f] runs [f scratch i] for every [i] in [0, n),
    discarding results, with per-domain scratch as {!init_local} — the
    zero-copy path: tasks write directly into disjoint spans of one
    shared output buffer instead of returning per-block strings. *)

val shutdown : unit -> unit
(** Join every parked worker domain and empty the pool. Safe to call at
    any quiescent point (it waits for an in-flight epoch to finish); the
    pool respawns lazily on the next dispatch. Registered [at_exit], so
    a process never exits with parked domains.
    @raise Invalid_argument when called from inside a pool task. *)

val pool_domains : unit -> int
(** Number of resident (parked or working) worker domains. *)
