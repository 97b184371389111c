(** Fixed-size domain pool for data-parallel array operations.

    OCaml 5 domains are expensive to spawn (hundreds of microseconds plus a
    slice of every GC), so the evolutionary search creates one pool up front
    and reuses it across generations, restarts and SAG passes.  Work is
    distributed by an atomic chunk index over the input array — no
    [domainslib] dependency — and results are written to distinct slots, so
    a [parallel_map] of a pure function returns exactly what [Array.map]
    returns: callers that need reproducibility only have to keep the mapped
    function deterministic per element.

    Batch hand-off is one atomic epoch bump: idle workers sleep on a
    condition variable until the epoch moves, the submitter wakes only
    domains that actually went to sleep, and it sleeps the same way until
    the batch completes.

    Nesting and concurrent use are safe by construction: a [parallel_map]
    issued while the pool is already running a batch (for example from
    inside a worker, as happens when parallel islands each try to
    parallelize their inner evaluation loop) silently degrades to a
    sequential [Array.map] on the calling domain.

    {2 Metrics}

    The pool reports utilization into
    {!Caffeine_obs.Metrics.default}: counters [pool.batches],
    [pool.tasks] (elements completed in parallel batches),
    [pool.sequential_fallbacks] (parallel calls that degraded to the
    calling domain because a batch was already in flight) and
    [pool.tasks_abandoned] (elements left undone when a batch raised —
    always at least the failing element) and [pool.env_jobs_invalid]
    (rejected [CAFFEINE_JOBS] values); the timer [pool.batch]
    (submitter wall time per batch); and the gauge [pool.task_imbalance]
    (spread between the busiest and idlest domain of the last batch, in
    ideal per-domain shares: 0 = perfectly balanced). *)

type t
(** A pool of worker domains (possibly zero) plus the calling domain. *)

val effective_jobs : int -> int
(** The parallelism a jobs request actually gets: [0] (or negative) means
    auto — the [CAFFEINE_JOBS] environment variable when set to a positive
    integer, else all cores — and every request is clamped to
    [\[1, Domain.recommended_domain_count ()\]].  Domains beyond the core
    count participate in every GC synchronization while adding no
    throughput, so a pool never spawns more than the hardware offers.

    A [CAFFEINE_JOBS] value that is not a positive integer (["abc"],
    ["-2"]) is a misconfiguration, not an auto request: it still falls
    back to all cores, but warns on stderr (once per distinct value),
    bumps the [pool.env_jobs_invalid] counter, and parks the message for
    {!take_env_warning}. *)

val take_env_warning : unit -> string option
(** The warning text of the most recent invalid [CAFFEINE_JOBS] value, if
    one was rejected since the last call — consumed by callers that own a
    trace sink so the misconfiguration also lands in the run trace as a
    [Trace.Warning] (context ["pool.effective_jobs"]).  Clears on read. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [effective_jobs jobs - 1] worker domains (the
    submitting domain is the remaining worker).  [jobs] defaults to auto
    ([effective_jobs 0]); [jobs = 0] is auto explicitly; the result never
    exceeds the machine's core count.  An effective size of 1 spawns
    nothing and makes every operation purely sequential.  Pools must be
    released with {!shutdown} (or use {!with_pool}) — live worker domains
    keep the process alive. *)

val jobs : t -> int
(** Total parallelism, including the submitting domain. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f input] is [Array.map f input] with the elements
    evaluated across the pool's domains.  [f] must be safe to call from any
    domain; element order of the result is preserved.  If any application
    raises, the first exception observed is re-raised in the caller after
    all workers have stopped (remaining elements may be skipped).  Inputs
    of length [<= 1], sequential pools, and nested/concurrent calls run on
    the calling domain. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f] evaluated across the
    pool, under the same contract as {!parallel_map}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool degrades to a
    sequential pool afterwards (further maps run on the calling domain). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown}, including on exception. *)

val with_optional_pool : ?jobs:int -> (t option -> 'a) -> 'a
(** Like {!with_pool}, but runs [f None] — creating no pool and no domains
    at all — when [effective_jobs jobs] is 1 (including any request made
    on a single-core host).  Convenient for threading [?pool] arguments
    from a jobs count. *)
