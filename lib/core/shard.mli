(** Multi-process island execution: each island of a search runs in a
    worker process, immune to OCaml 5's cross-domain GC coupling (every
    domain joins every minor collection, which is what makes the
    domain-pool backend lose on small workloads).

    {2 Workers}

    A worker is not a fork.  On OCaml 5.1 a process that has ever spawned
    a domain can never [Unix.fork] again, even after every domain was
    joined, and the CLI's default backend, the benchmarks and the test
    runner all run domain pools.  So a worker is the running executable
    started afresh ([Unix.create_process_env Sys.executable_name]), with
    the [CAFFEINE_SHARD_WORKER] environment variable naming an entry
    registered by {!worker} and [--caffeine-shard-worker] as its only
    argument.

    Entries are registered at module toplevel.  While the module that
    registers one initialises, a process started for that name runs the
    worker loop inside the {!worker} call and exits, so [main] never
    runs there and every module the entry can reference is already
    initialised.  An entry registered anywhere else is never reached in
    its worker; [main] then runs, rejects the flag (the CLI, [bench],
    [perfbench] and the test runner all do), and the run fails with
    {!Worker_failed} instead of hanging.

    A fresh process shares nothing with its coordinator, so the
    coordinator sends a self-contained {e job} in place of a closure: a
    string the entry's loader turns into the island body.  A job may name
    files; {!with_scratch_file} makes them and removes them on every
    exit path.

    {2 Topology}

    The coordinator starts [shards] workers (never more than there are
    unfinished islands) and deals the unfinished islands round-robin: the
    island at position [p] of the remaining work goes to worker
    [p mod shards].  A worker's stdin is one end of a [Unix.socketpair],
    and the whole protocol runs over it, never over the worker's stdout,
    which module initialisation may write to (a worker's stdout and
    stderr are the coordinator's stderr).  Down the socket the
    coordinator writes a hello line carrying the job, then one
    {!Checkpoint.island_to_line} per assigned island (pending or
    in-progress — resumed populations travel to the worker), then shuts
    down its sending side, which the worker reads as EOF.  Up the same
    socket the worker writes JSONL: verbatim {!Caffeine_obs.Trace}
    record lines interleaved with island lines — [in_progress] at every
    checkpoint boundary and [done] carrying the island's final elite
    front.  The coordinator demultiplexes by the JSON [type] field.
    Every socket end is close-on-exec, so no worker holds a copy of
    another's.

    {2 Determinism}

    Workers compute exactly what the sequential path computes (same
    generator state, the same data words loaded from the job, inner
    execution sequential), so final fronts are bit-identical at every
    [shards] setting.  Worker output arrives in any interleaving; the
    coordinator therefore buffers per island and releases events in
    island order — trace records, checkpoint marks and migration records
    reach the caller in exactly the sequence a sequential run would
    produce.  Snapshot {e writes}, by contrast, happen eagerly on arrival
    (a crash must not lose progress a worker already reported); only
    their trace marks are reordered.

    {2 Failure}

    A worker that dies mid-island (signal, [exit], uncaught exception)
    closes its socket; the coordinator sees EOF before the island's
    [done] line, reaps every worker and raises {!Worker_failed} — never a
    hang.  A worker whose island raises, or that cannot load its job,
    first answers with a [shard_error] line, whose message
    {!Worker_failed} carries.  If the coordinator itself dies, the closed
    socket kills the workers on their next read or write; an [at_exit]
    hook additionally kills live workers and removes scratch files when
    the coordinator exits through [Stdlib.exit] from a callback.
    [SIGPIPE] is ignored in the coordinator for the duration of the run
    (saved and restored).

    {2 Telemetry}

    Counters on {!Caffeine_obs.Metrics.default}: [shard.workers_spawned],
    [shard.migrations] (fronts received) and [shard.bytes_exchanged]
    (bytes moved through the sockets, both directions).  Every received
    front is also delivered as a {!Caffeine_obs.Trace.Migration} record.
    Metrics incremented {e inside} worker processes die with them — only
    coordinator-side counters and trace records survive. *)

exception Worker_failed of string
(** A worker process could not be started, exited without finishing its
    islands, or exited abnormally.  The message names the worker, its
    fate (its [shard_error] message, exit code or signal) and the islands
    left unfinished. *)

(** Ordered, per-island events the coordinator releases in island order. *)
type event =
  | Record of Caffeine_obs.Trace.record
      (** a record the worker emitted, or the synthesized
          {!Caffeine_obs.Trace.Migration} for the island's arrived front *)
  | Progress_saved of int
      (** a snapshot carrying this island's progress through generation
          [gen] was written (only when [on_progress] is given) *)
  | Done_saved
      (** a snapshot carrying this island's final front was written (only
          when [on_done] is given) *)

type run_island =
  emit:(Caffeine_obs.Trace.record -> unit) ->
  progress:
    (gen:int -> rng:Caffeine_util.Rng.state -> population:Checkpoint.population -> unit) ->
  island:int ->
  Checkpoint.island ->
  Model.t list
(** One island's body, executed {e inside the worker process}: it must be
    deterministic, call [emit] for every trace record to forward (or
    never, when the run is unobserved), call [progress] at each
    checkpoint boundary, and return the island's final front. *)

type worker
(** A registered worker entry. *)

val worker : string -> (string -> run_island) -> worker
(** [worker name load] registers the entry [name].  Call it at module
    toplevel only (see Workers above).  In a process that
    {!run_islands} started for [name] the call does not return: it reads
    the job and the assigned islands from its socket, calls [load job]
    once, runs each island through the body [load] returned, reports
    back and exits.  Everywhere else it returns the handle
    {!run_islands} takes.  Raises [Invalid_argument] when [name] is
    already registered. *)

val run_islands :
  shards:int ->
  ?on_progress:(island:int -> gen:int -> unit) ->
  ?on_done:(island:int -> unit) ->
  ?deliver:(island:int -> event -> unit) ->
  worker:worker ->
  job:string ->
  Checkpoint.island array ->
  Model.t list array
(** Run every non-[Done] island of [islands] across [shards] workers of
    the entry [worker], each sent [job], and return the final fronts in
    island order ([Done] islands pass through untouched, and when every
    island is done no worker starts).  [islands] is mutated in place as
    progress and fronts arrive, exactly as the sequential island loop
    mutates it, so a snapshot of the array is always current.

    [on_progress]/[on_done] execute {e eagerly} on the coordinator, after
    [islands] has been updated — this is where the caller writes its
    snapshot file.  [deliver] executes on the coordinator in island
    order; exceptions it raises abort the run (workers are killed and
    reaped) and propagate.

    Workers never fork, so this may be called whether or not the process
    runs, or has run, worker domains. *)

val with_scratch_file : suffix:string -> (string -> 'a) -> 'a
(** [with_scratch_file ~suffix f] calls [f] with the path of a fresh
    empty temporary file (for a job to name) and removes the file when
    [f] returns or raises.  The [at_exit] hook that kills live workers
    removes it as well, so it does not outlive a coordinator that leaves
    through [Stdlib.exit] from inside [f].  While [f] runs, SIGTERM and
    SIGINT, if their disposition was the default, kill the live workers
    and remove the file before the process dies of the signal (the
    default disposition is restored and the signal raised again, so the
    exit status still reports it); a disposition set by the caller is
    left alone. *)
