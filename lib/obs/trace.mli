(** Structured JSONL run traces.

    A trace is a sequence of typed records, one JSON object per line,
    written through a {!sink}.  The schema separates {e deterministic}
    content — counts, sizes, errors, complexities, selection decisions,
    which for a fixed seed are bit-identical whatever the parallelism —
    from {e nondeterministic} content (wall times, cache-effectiveness
    counters that depend on racing duplicate evaluations).  The
    {!deterministic} projection drops the latter, so two traces of the
    same seeded run at different [--jobs] settings project to identical
    line sequences; CI diffs exactly that.

    Every record round-trips: [of_line (to_line r)] re-reads [r]
    (non-finite floats included — they are encoded as the JSON strings
    ["NaN"], ["Infinity"], ["-Infinity"]). *)

(** {2 Records} *)

type run_start = {
  seed : int;
  pop_size : int;
  generations : int;
  max_bases : int;
  samples : int;
  dims : int;
}

type generation = {
  gen : int;  (** 0 = after initialization *)
  evals : int;  (** objective evaluations this generation *)
  front_size : int;  (** rank-0 members of the population *)
  best_nmse : float;  (** best (lowest) training NMSE in the population *)
  median_nmse : float;
  complexity_min : float;
  complexity_median : float;
  complexity_max : float;
  crossovers : int;  (** children built with basis-set crossover *)
  op_counts : int array;  (** applied variation operators, by operator id *)
  depth_rejects : int;  (** mutations discarded by the depth bound *)
  wall_s : float;  (** nondeterministic *)
}

type op_stats = {
  gen : int;
  applied : int array;  (** operator draws this generation, by operator id *)
  changed : int array;
      (** draws that structurally changed the child and survived the depth
          bound — per-operator success counts for adaptive operator
          selection.  Deterministic: variation runs sequentially on the
          coordinating domain. *)
}

type sag_round = {
  model_index : int;  (** position of the model in the processed front *)
  round : int;  (** forward-selection round, 0-based *)
  chosen : int;  (** index of the accepted candidate column *)
  press_before : float;
  press_after : float;
}

type sag_model = {
  model_index : int;
  bases_before : int;
  bases_after : int;  (** [bases_before - bases_after] bases were pruned *)
}

type cache_stats = {
  columns_cached : int;
  column_hits : int;
  column_misses : int;
  column_evictions : int;
  dots_cached : int;
  dot_hits : int;
  dot_misses : int;
  dot_evictions : int;
}
(** Nondeterministic across jobs settings: racing duplicate evaluations
    shift hits/misses, so the whole record is dropped by
    {!deterministic}. *)

type eval_cache_stats = {
  eval_hits : int;  (** objective evaluations served from the cache *)
  eval_misses : int;  (** evaluations that ran the full fit *)
  eval_evictions : int;  (** cached entries dropped by shard overflow *)
}
(** Final [eval.cache_*] counter values of the evaluation cache
    ({!Caffeine.Eval_cache}).  Reporting data only: under the process
    backend worker-side counters never reach the coordinator, so the whole
    record is dropped by {!deterministic} like {!cache_stats}. *)

type fused_stats = {
  gen : int;
  batches : int;  (** fused warm batches this generation (one per executor chunk) *)
  nodes_in : int;  (** DAG nodes the batches' bases would create unshared *)
  nodes_out : int;  (** distinct DAG nodes actually evaluated *)
}
(** Per-generation cross-tree CSE effectiveness of fused search-time
    warming ({!Caffeine_expr.Fused}): [nodes_in / nodes_out] is the
    sharing ratio.  The search no longer warms, so nothing writes this
    record; it still decodes, so traces written before that change can
    be read, and {!deterministic} drops it. *)

type run_end = {
  front : (float * float) list;  (** (complexity, train NMSE) per model *)
  total_wall_s : float;  (** nondeterministic *)
}

type checkpoint_written = {
  path : string;  (** snapshot file the run state was renamed into *)
  phase : string;  (** ["evolving"] or ["simplifying"] *)
  island : int;  (** island the write was triggered by (0 for {!Search.run}, [-1] in the SAG phase) *)
  gen : int;
      (** last completed generation captured; in the SAG phase the index of
          the model just simplified ([-1] for the phase's initial snapshot) *)
}

type run_resumed = {
  phase : string;  (** ["evolving"] or ["simplifying"] *)
  island : int;  (** first island with unfinished work ([-1] if none, or in the SAG phase) *)
  gen : int;
      (** generation the island resumes after ([-1] when none ran); in the
          SAG phase the number of models already simplified *)
}

type warning = {
  context : string;  (** dotted source location, e.g. ["sag.test_tradeoff"] *)
  message : string;
}

type migration = {
  island : int;  (** island whose elite front arrived at the coordinator *)
  shard : int;
      (** worker process that served the island — nondeterministic across
          [--shard] settings, zeroed by {!deterministic} *)
  models : int;  (** models in the migrated front *)
  bytes : int;  (** wire size of the serialized front (one snapshot line) *)
}
(** Emitted by the multi-process island backend ({!Caffeine.Shard}) when a
    worker hands its finished front back to the coordinator.  Sequential
    and domain-pool runs exchange nothing and emit none. *)

type record =
  | Run_start of run_start
  | Generation of generation
  | Op_stats of op_stats
  | Sag_round of sag_round
  | Sag_model of sag_model
  | Cache_stats of cache_stats
  | Eval_cache_stats of eval_cache_stats
  | Fused_stats of fused_stats
  | Run_end of run_end
  | Checkpoint_written of checkpoint_written
  | Run_resumed of run_resumed
  | Warning of warning
  | Migration of migration

(** {2 JSONL codec} *)

val to_line : record -> string
(** One-line JSON object (no trailing newline), fields in a fixed order. *)

val of_line : string -> (record, string) result
(** Fields are looked up by name and unknown ones are ignored, so lines
    written by earlier versions, whose generation records carried a
    population-diversity count, still decode. *)

val deterministic : record -> record option
(** The jobs-invariant projection: [None] for {!Cache_stats},
    {!Eval_cache_stats} and {!Fused_stats}; other records with their nondeterministic fields
    ([wall_s], [total_wall_s], {!migration}'s [shard]) zeroed.
    {!Op_stats} records are kept verbatim (variation is sequential on the
    coordinating domain).  Checkpoint, resume and warning records are kept
    verbatim: checkpointed runs serialize their islands, so the records
    arrive in the same order at every jobs and shard setting. *)

(** {2 Sinks} *)

type sink
(** Where records go.  The {!null} sink drops everything and is the
    signal for instrumented code to skip building records at all. *)

val null : sink

val is_null : sink -> bool
(** [true] only for {!null}: instrumentation guards on this so a disabled
    trace costs one branch per potential record. *)

val of_channel : out_channel -> sink
(** Append [to_line record] lines to the channel.  Writes are serialized
    by a mutex, so pool domains may emit concurrently; the caller keeps
    ownership of the channel and closes it after the run. *)

val memory : unit -> sink
(** Collect records in memory (mutex-protected); read with {!contents}. *)

val of_fn : (record -> unit) -> sink
(** Hand every record to [f] directly, with no locking — for
    single-domain plumbing such as a worker process forwarding records
    over its result pipe.  Callers that emit from several domains must
    serialize inside [f] themselves. *)

val contents : sink -> record list
(** Records collected so far, in emission order.  Empty for non-memory
    sinks. *)

val emit : sink -> record -> unit
