(** Column-major sample datasets for batch evaluation.

    The search, SAG pruning, insight queries, CLI and bench all evaluate
    basis functions over the same sample matrices.  This type stores those
    matrices struct-of-arrays (one contiguous column per design variable),
    carries the variable names, and memoizes per-basis value columns keyed
    by the full structural hash ({!Caffeine_expr.Expr.hash_basis},
    computed once per call) and {!Caffeine_expr.Expr.equal_basis} — so a
    basis shared between individuals, or revisited by SAG after the
    search, is compiled and evaluated on a given dataset exactly once.
    Every column is evaluated on a {!Caffeine_expr.Fused} tape: one root
    on a cache miss, one tape per chunk on streamed storage, a whole batch
    in {!warm_columns}.  A root's values do not depend on the other roots
    of its tape, so a column's IEEE words, NaN payloads included, do not
    depend on which of those paths computed it.  Outside {!warm_columns},
    the resident memo is filled only on a miss, inside the call that
    reads the column.

    Datasets are safe to evaluate from multiple domains concurrently (the
    parallel search evaluates NSGA-II candidates and whole islands against
    one shared dataset): every cache is a {!Caffeine_par.Memo}, sharded
    behind per-shard mutexes, and the evaluation scratch buffers are
    domain-local.  Cached values are pure functions of (basis, data), so
    concurrency never changes a returned column — a racing duplicate
    evaluation is only wasted work.  Each memo is bounded: 32768 columns,
    131072 Gram products (pairs and target products share the budget) and
    32768 finiteness flags; an overflowing shard is dropped wholesale and
    its entries are simply recomputed on their next miss.

    Which level is cached follows the storage kind.  Resident storage
    memoizes columns, each with an all-finite flag found once when the
    column is installed, and keeps no scalar table: {!gram} forms every
    product in one pass over the memoized columns, which at a few hundred
    rows ran the search faster than locked, counted lookups in a table,
    and {!finite_gram}, the per-candidate entry point, fetches each
    distinct column once, rejects an individual from its flags before any
    product, and hands the columns it holds to the fit.
    Chunked storage never caches a column (each is [n] floats) but
    keeps a bounded, sharded cache of Gram scalars — [⟨col_i, col_j⟩]
    under a pair of structural-hash keys, [⟨col_i, y⟩] and [⟨col_i, 1⟩]
    per (basis, target array), and per-basis finiteness — because there
    each product costs a stream over the data.  Both storages form every
    product in one canonical orientation, so a pair has one word without
    a cache.  Both caches expose hit/miss/eviction counters through
    {!stats}.

    Resident and streamed data share one Gram pass: resident data is the
    one-chunk case of the streamed pass, read from the column cache.
    What stays tied to the storage kind is that cache policy,
    {!warm_columns}, the access functions, and {!rows} and {!split},
    which work on resident data only. *)

module Expr = Caffeine_expr.Expr
module Fused = Caffeine_expr.Fused

type t

val of_columns : ?var_names:string array -> float array array -> t
(** [of_columns columns] with [columns.(v).(i)] = variable [v] at sample
    [i].  Columns must be non-empty and of equal length; the arrays are
    owned by the dataset afterwards (not copied).  Default names are
    [x0, x1, ...].  Raises [Invalid_argument] on width/name mismatch. *)

val of_rows : ?var_names:string array -> float array array -> t
(** Transpose row-major design points (the DOE / simulator layout) into a
    dataset.  Rows must be non-empty and width-consistent. *)

val of_table : ?exclude:string list -> Csv.table -> t
(** Every CSV column whose name is not excluded becomes a design variable,
    in header order — the direct CSV-to-dataset path used by the CLI.
    Raises [Invalid_argument] on a table with no data rows (header
    only). *)

val chunked_of_columns : ?var_names:string array -> chunk_rows:int -> float array array -> t
(** The same data as {!of_columns}, but served through the chunked
    (streaming) storage path in [chunk_rows]-row slices — an in-memory
    stand-in for a {!Colstore} file, used to pin streaming ≡ dense
    equivalence in tests without touching disk.  All evaluation goes
    through the chunk source: columns are never cached, dots accumulate
    chunk by chunk and are cached (bit-identical to the resident one-chunk
    products — see {!gram}). *)

val of_colstore : ?exclude:string list -> Colstore.t -> t
(** A streaming dataset over an open column store: every store variable
    whose name is not excluded becomes a design variable, in store order.
    The dataset keeps the store handle alive inside its chunk source —
    target columns should be pulled separately with {!Colstore.column}.
    Raises [Invalid_argument] when every column is excluded or the store
    is empty. *)

val n_samples : t -> int
val dims : t -> int
val var_names : t -> string array

val is_chunked : t -> bool
(** Whether this dataset streams from a chunk source (out-of-core path)
    rather than holding resident columns. *)

val chunk_rows : t -> int
(** Rows per chunk of the streaming source; [n_samples] for dense
    storage (one whole-dataset "chunk"). *)

val column : t -> int -> float array
(** The stored column for one variable — shared, do not mutate.  On
    chunked storage the column is materialized fresh on every call
    (checkpoint fingerprints are the intended consumer). *)

val iter_variable_chunks : t -> f:(row0:int -> len:int -> float array array -> unit) -> unit
(** Visit the stored variables as row chunks in order: [columns.(v)]
    holds variable [v]'s values for rows [row0 .. row0+len-1] in its
    first [len] cells, valid only during the callback.  Dense storage is
    one whole-dataset call on the stored columns (shared, do not mutate);
    chunked storage streams its source one chunk at a time, so a copy of
    a streamed dataset never needs its columns in memory. *)

val point : t -> int -> float array
(** A fresh row: all variables at one sample. *)

val rows : t -> float array array
(** Fresh row-major copy (for row-oriented consumers, e.g. the posynomial
    baseline).  Raises [Invalid_argument] on chunked storage — an
    out-of-core dataset has no in-memory row matrix. *)

val split : t -> at:int -> t * t
(** Train/test split at a sample index: samples [0..at-1] and [at..n-1],
    each with fresh caches.  Raises [Invalid_argument] unless
    [0 < at < n_samples], or on chunked storage (split the source file
    instead). *)

val basis_column : t -> Expr.basis -> float array
(** Memoized: on a miss, evaluate the basis over the dataset on a one-root
    tape and cache the column.  Subsequent calls with a structurally equal
    basis return the cached column — shared, do not mutate.  Agrees with
    {!Expr.eval_basis} on every sample (NaN payloads aside), and is the
    same words, NaN payloads included, that {!warm_columns} installs.
    Chunked storage evaluates a fresh column on every call and never
    caches it. *)

type fuse_stats = {
  fused_bases : int;  (** distinct bases that had no memoized column *)
  nodes_in : int;  (** DAG nodes before cross-tree sharing *)
  nodes_out : int;  (** distinct DAG nodes actually evaluated *)
}

val warm_columns : t -> Expr.basis array -> fuse_stats
(** [warm_columns data bases] fills the column cache for every basis that
    has no memoized column yet, by hash-consing all of the missing bases
    into one {!Caffeine_expr.Fused} DAG and evaluating shared subtrees
    exactly once with tiled kernels.  Each installed column is the words
    {!basis_column} would have computed on a cold dataset, NaN payloads
    included: subsequent {!basis_column} / {!gram} calls return the same
    IEEE words whether or not a batch was warmed (and under the same
    bounded-shard eviction policy), each with the all-finite flag a miss
    would have found.  Chunked storage caches no columns, so there it
    does nothing.  Bumps the [fused.nodes_in] / [fused.nodes_out]
    counters and the [fused.cse_ratio] gauge; the returned stats cover
    this call only.

    No library code calls it: the search, SAG, scoring and the CLI
    compute each column on demand.  It, [fuse_stats] and the [fused.*]
    counters serve only the end-to-end benchmark's traced search
    ([perfbench/fits.ml]), and go together with that search. *)

type gram = {
  dots : float array array;  (** [k x k] symmetric: [⟨colᵢ, colⱼ⟩] *)
  dot_ys : float array;  (** [⟨colᵢ, y⟩] *)
  col_sums : float array;  (** [⟨colᵢ, 1⟩] *)
  finite_bases : bool array;  (** whether column [i] is finite everywhere *)
}

val gram : t -> Expr.basis array -> targets:float array -> gram
(** Every product {!Caffeine_regress.Linfit.fit_stream} needs for one
    individual, in one batch.  Entries are formed over the individual's
    distinct bases, by {!Caffeine_regress.Gram_stream} in a single
    {!iter_basis_chunks} pass, each scalar carried across chunk
    boundaries in row order, so the chunk size does not change a word; a
    repeated basis reads its distinct entries.  Resident storage forms
    every entry in that pass, from the memoized columns, and caches no
    scalar.  Chunked storage first looks each entry up in its caches
    (products in the dot cache, finiteness in a per-basis table),
    accumulates exactly the missing ones and installs them, so on a
    fully-warm cache the Gram makes no data pass (a fit's prediction pass
    still streams).  Every
    [⟨col_i, col_j⟩] is formed in one canonical orientation, the lower
    basis (structural hash, then {!Expr.compare_basis}) on the left, so a
    pair has the same word in every call on either storage, however the
    bases are ordered or repeated, NaN payloads included, and [dots] is
    symmetric bit for bit.  Each basis is hashed once per call.  On
    chunked storage [⟨col_i, y⟩] is keyed by the target array ([==]) in
    a small registry — pass the same array across calls, as the search
    loop does; a fresh array per call would grow the registry without
    reuse.  Every product is formed, those of non-finite columns
    included; a fit that only needs finite individuals calls
    {!finite_gram}.  Raises [Invalid_argument] when [targets] does not
    have one entry per sample. *)

type pass = (row0:int -> len:int -> float array array -> unit) -> unit
(** A pass over value columns as row chunks in order, the [iter] argument
    of {!Caffeine_regress.Linfit.fit_stream}: [pass f] calls [f ~row0
    ~len columns] with [columns.(j)] holding column [j]'s values for rows
    [row0 .. row0+len-1] in its first [len] cells, valid only during the
    call. *)

val finite_gram : t -> Expr.basis array -> targets:float array -> (gram * pass) option
(** The per-candidate entry point of [Model.fit]: {!gram}'s products for
    [bases] and a {!pass} over their columns, or [None] as soon as one
    basis is known not to be finite on the data.  Each basis is hashed
    once.  Resident storage fetches each distinct basis's memoized column
    once (one column-cache lookup, and one evaluation on a miss), reads
    its all-finite flag, set when the column was installed, and returns
    [None] at the first false flag (a miss evaluates the column on its
    own one-root tape, so the columns after that flag are never computed),
    before any product; otherwise it forms every product from the held
    columns with no finiteness scan, and the pass hands over those same
    columns as one chunk, so the fit looks nothing up again.  Chunked
    storage returns [None] when its finite memo already records a basis
    as non-finite, before any product lookup; otherwise it serves and
    streams products as {!gram} does, returns [None] if the pass found a
    non-finite basis, and its pass streams the bases again through one
    fused tape per chunk.  Every product is {!gram}'s word.  Raises
    [Invalid_argument] on an empty basis array or when [targets] does not
    have one entry per sample. *)

val iter_basis_chunks :
  t ->
  Expr.basis array ->
  f:(row0:int -> len:int -> float array array -> unit) ->
  unit
(** Visit the bases' value columns as row chunks in order, as
    [Model.predict] reads them.  [columns.(j)] holds basis
    [j]'s values for rows [row0 .. row0+len-1] in its first [len] cells;
    buffers are only valid during the callback.  Chunked storage
    evaluates all bases through one fused tape per chunk (never
    materializing a full column); dense storage is the one-chunk case, a
    single whole-dataset call from memoized columns.  Raises
    [Invalid_argument] on an empty basis array. *)

val basis_columns : t -> Expr.basis array -> float array array
(** Every basis's full value column: the values {!basis_column} gives
    for each, bit for bit.  Dense storage returns the
    memoized columns (shared, do not mutate); chunked storage evaluates
    the whole set through one fused tape in a single pass over the chunks
    and returns fresh columns, uncached. *)

val cached_columns : t -> int
(** Number of distinct bases memoized so far (cache introspection). *)

type cache_stats = {
  columns_cached : int;  (** basis columns currently memoized *)
  column_hits : int;
  column_misses : int;
  column_evictions : int;  (** entries dropped by shard overflow *)
  dots_cached : int;  (** pair + target products currently memoized (chunked) *)
  dot_hits : int;
  dot_misses : int;
  dot_evictions : int;
}

val stats : t -> cache_stats
(** Lifetime counters of both caches (since creation or the last process
    start — {!clear_cache} drops entries but keeps counters), for cache
    effectiveness reporting ([fit --metrics] and [--trace], perf PRs).
    The column counters move on resident storage only and the dot
    counters on chunked storage only, the level each storage caches.  A
    resident {!finite_gram} counts one column lookup per distinct basis
    it fetches. *)

val publish_metrics : t -> unit
(** Snapshot {!stats} into the {!Caffeine_obs.Metrics.default} registry as
    gauges [dataset.columns_cached], [dataset.column_hits],
    [dataset.column_misses], [dataset.column_evictions],
    [dataset.dots_cached], [dataset.dot_hits], [dataset.dot_misses] and
    [dataset.dot_evictions] (each call overwrites the previous snapshot).
    The values depend on evaluation-order races between pool domains, so
    they are reporting data, not part of the determinism contract. *)

val clear_cache : t -> unit
(** Drop every memoized column, dot product and finiteness flag.  Useful
    between independent experiments on one dataset (e.g. benchmark
    repetitions) and after a long run whose cache is no longer worth its
    memory. *)
