(** The CAFFEINE search loop: NSGA-II over (training error, complexity) with
    grammar-respecting initialization and variation.

    A basis's column is evaluated on its own one-root tape of the fused
    tape engine ({!Caffeine_expr.Fused}) when a fit first reads it, on
    whichever domain runs that fit, and memoized in the dataset keyed by
    the full structural hash ({!Caffeine_expr.Expr.Key} — not the
    depth-bounded polymorphic [Hashtbl.hash], which collides on deep
    bases sharing a prefix).  Bases shared between individuals, the
    common case under set crossover, are evaluated on the training data
    only once, and SAG or scoring passes that reuse the same dataset
    reuse the same columns.

    {2 Execution backends}

    Every entry point programs against {!Caffeine_par.Executor}: objective
    evaluation inside each generation, SAG's candidate scoring (for
    {!run_and_simplify}) and (for {!run_multi}) whole restarts as
    parallel islands.  Passing [?executor] reuses the
    caller's executor (and its pool, if any); otherwise a domain-pool
    executor of [config.Config.jobs] domains is created for the call
    (which degenerates to sequential when [jobs <= 1]).

    With a {!Caffeine_par.Executor.Processes} executor, {!run_multi}
    fans whole islands out across worker processes ({!Shard}), each a
    fresh start of the running executable: each island runs sequentially
    inside its worker — immune to OCaml 5's cross-domain GC coupling —
    and streams generation records, checkpoint progress and its final
    front back to the coordinator over a socket using the {!Checkpoint}
    island-line codec.  A worker receives a job in place of a closure:
    the config, the eval-cache mode, whether the run is observed and the
    checkpoint interval, plus the data and targets, which the
    coordinator packs once per run into a scratch {!Caffeine_io.Colstore}
    file that each worker loads resident or streamed, as the coordinator
    holds the data (with default cache limits and cold caches).  The
    scratch file is removed when the run returns, raises, or exits
    through [Stdlib.exit] from a callback.  The coordinator
    re-serializes worker output into island order, so traces, generation
    callbacks and snapshots behave exactly as in a sequential run (plus
    one {!Caffeine_obs.Trace.Migration} record per arrived front).
    {!run} under the process backend runs its single island in one
    worker.

    Results are {b bit-identical} across every backend and every
    [jobs]/[shards] setting, including the sequential path: all
    random-number consumption stays on the coordinating side in a fixed
    order (or is replicated exactly in a worker), and only pure
    per-genome evaluation — or a whole island's deterministic loop — is
    distributed. *)

module Dataset = Caffeine_io.Dataset

type outcome = {
  front : Model.t list;
      (** the nondominated (train error, complexity) models, sorted by
          increasing (complexity, train error) *)
  population_size : int;
  generations_run : int;
}

val run :
  ?seed:int ->
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?on_generation:(Caffeine_obs.Trace.generation -> unit) ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume:Checkpoint.t ->
  ?eval_cache:Eval_cache.mode ->
  Config.t ->
  data:Dataset.t ->
  targets:float array ->
  outcome
(** Evolve symbolic models of [targets] as functions of the dataset's
    design variables.  Requires at least 2 samples.  The returned front
    always contains the constant model as its zero-complexity end.
    Progress is logged on the ["caffeine.search"] {!Logs} source at debug
    level.

    [trace] receives a {!Caffeine_obs.Trace.Run_start}, one
    {!Caffeine_obs.Trace.Generation} followed by one
    {!Caffeine_obs.Trace.Op_stats} (per-operator variation success
    tallies) per environmental selection (generation 0 = after
    initialization) and a {!Caffeine_obs.Trace.Run_end}; [on_generation]
    observes the same per-generation records directly.  Every field
    except [wall_s] is deterministic: for a fixed seed the record
    sequence is identical at every jobs setting.  With the default null
    sink and no callback, record construction is skipped entirely.

    [eval_cache] (default {!Eval_cache.Off}) puts a memo in front of
    objective evaluation ({!Eval_cache}): it keys on the individual's
    structural hash and is bit-identical to recomputation by
    construction, so the evolved front is the same with the cache on or
    off at every backend.  Each island — and, under the process backend,
    each worker process — owns a private cache instance, a
    {!Caffeine_par.Memo} bounded at 65536 entries.  Caches are
    rebuildable derived state: they never enter checkpoint snapshots, and
    resumed runs start cold.

    Each generation's miss-batch fans out one genome at a time; a fit
    computes a column its dataset does not hold yet on the column's own
    one-root tape ({!Caffeine_io.Dataset.finite_gram}) and stops at the
    first non-finite one.  A column does not depend on which fit computed
    it, so the evolved front is the same at every backend and cache
    mode.

    [checkpoint_path] makes the run durable: every [checkpoint_every]
    generations (default 10) and once when the search completes, the full
    run state — population with objectives, generation counter, generator
    words, fingerprint of config/data/targets — is written atomically to
    the path ({!Checkpoint.save}), and a
    {!Caffeine_obs.Trace.Checkpoint_written} record is emitted.  [resume]
    continues from a previously loaded snapshot: the run restarts at the
    checkpointed generation and produces a front {b bit-identical} to the
    uninterrupted run's, at any jobs setting.  Raises [Invalid_argument]
    when the snapshot does not match this run's fingerprint, seed or
    island count, or is in the simplifying phase (which
    {!run_and_simplify} resumes). *)

val run_and_simplify :
  ?seed:int ->
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?on_generation:(Caffeine_obs.Trace.generation -> unit) ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume:Checkpoint.t ->
  ?eval_cache:Eval_cache.mode ->
  ?sag:bool ->
  Config.t ->
  data:Dataset.t ->
  targets:float array ->
  (Model.t list, string) result
(** One performance's whole fit: {!run}, then {!Sag.process_front} on its
    front unless [sag] is [false] (default [true]), on one executor
    ([executor], else one made as {!run} makes it).  The result is SAG's
    front, or the evolved front when [sag] is off.

    It owns both checkpoint phases.  The input fingerprint is computed
    once, when [checkpoint_path] or [resume] is given.  With
    [checkpoint_path], the search writes its evolving snapshots as in
    {!run}; then, before SAG starts and after each simplified model,
    the path gets a simplifying snapshot holding the evolved front and
    the prefix of simplified models, each followed by a
    {!Caffeine_obs.Trace.Checkpoint_written} record (island [-1],
    generation [-1] before the first model, else the model's index).

    [resume] continues from either phase: an evolving snapshot re-enters
    the search as in {!run}; a simplifying one bumps the
    [checkpoint.resumed] counter, emits a
    {!Caffeine_obs.Trace.Run_resumed} record (island [-1], generation =
    models already simplified) and simplifies only the models after that
    prefix — or, with [sag] off, returns its evolved front as is.  Either
    way the front, the snapshots and the trace records equal the
    uninterrupted run's.  A snapshot whose fingerprint, seed or island
    count does not match this run is [Error] with {!Checkpoint.validate}'s
    message, returned before any work. *)

val run_multi :
  ?seed:int ->
  ?executor:Caffeine_par.Executor.t ->
  ?trace:Caffeine_obs.Trace.sink ->
  ?on_generation:(island:int -> Caffeine_obs.Trace.generation -> unit) ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume:Checkpoint.t ->
  ?eval_cache:Eval_cache.mode ->
  restarts:int ->
  Config.t ->
  data:Dataset.t ->
  targets:float array ->
  outcome
(** Independent restarts merged into a single nondominated front — the
    stochastic-search hedge the paper leaves to one run per goal ("the aim
    was proof-of-concept, not efficiency").  Each island's generator is
    split off a master seeded with [seed] ({!Caffeine_util.Rng.split})
    before any work starts, so a run with [restarts = r] executes exactly
    the first [r] islands of any longer run with the same seed, and the
    merged front is identical whether islands run sequentially or across
    pool domains.  The restarts share the dataset's basis-column cache.
    Requires [restarts >= 1].

    With a live [trace], an [on_generation] callback or a
    [checkpoint_path], the in-process backends run the islands
    back-to-back on the calling domain (each still fans its inner
    evaluation loop over the pool), so the generation records of island
    [k] precede those of island [k+1] at every jobs setting and snapshot
    writes never race — trading island-level parallelism for a
    deterministic record sequence.  The process backend keeps both: the
    {!Shard} coordinator buffers worker output and releases it in island
    order, so the observed sequence matches the sequential one while the
    islands still run concurrently.

    Checkpointing and resuming work as in {!run}; a snapshot holds one
    entry per island (pending, in-progress or finished), so a resumed run
    skips finished islands entirely and re-enters the interrupted one at
    its checkpointed generation. *)

val dedup_and_sort : Model.t list -> Model.t list
(** The exact nondominated subset over (train error, complexity),
    deduplicated on identical objective pairs, sorted by
    (complexity, train error) — a total order on the result, so equal
    inputs in any arrival order produce the same list. *)

val merge_fronts : Model.t list list -> Model.t list
(** [dedup_and_sort] of the concatenation of several fronts. *)
