(** NSGA-II, the fast elitist non-dominated sorting genetic algorithm of Deb
    et al. (PPSN VI, 2000), generic over the genome type.

    All objectives are minimized.  Non-finite objective values are treated as
    [infinity] (worst), so invalid genomes are dominated away rather than
    crashing the sort. *)

type 'a individual = {
  genome : 'a;
  objectives : float array;  (** sanitized: nan replaced by [infinity] *)
  rank : int;  (** 0 = Pareto-optimal within the population *)
  crowding : float;  (** crowding distance within its front *)
}

val dominates : float array -> float array -> bool
(** [dominates a b]: [a] is no worse in every objective and strictly better
    in at least one. *)

val fast_nondominated_sort : float array array -> int list array
(** Partition indices into fronts; element 0 is the non-dominated front.
    The fronts, and the order of the members inside each, are those of
    Deb's pairwise sort (O(m N²)): front 0 in ascending index order, each
    later front in the order Deb's algorithm emits it.  That order decides
    crowding ties and which members survive truncation, so it is part of
    the contract.

    When every vector has exactly two entries and none is NaN — always
    the case inside {!run}, which sanitizes NaN to [infinity] — the sort
    is a lexicographic sweep with a binary search over the fronts (Jensen,
    2003) that rebuilds Deb's member order, in O(N log N) time and O(N)
    space, with output identical to the pairwise sort.  Every other input
    takes the pairwise sort. *)

val crowding_distances : float array array -> int list -> (int * float) list
(** Crowding distance of each member of one front (boundary points get
    [infinity]). *)

val pareto_front : 'a individual array -> 'a individual array
(** Members with [rank = 0]. *)

type 'a config = {
  pop_size : int;
  generations : int;
  init : Caffeine_util.Rng.t -> 'a;
  objectives : 'a -> float array;
  vary : Caffeine_util.Rng.t -> 'a -> 'a -> 'a;
      (** Produce one child from two (tournament-selected) parents; expected
          to perform crossover and/or mutation internally. *)
}

type 'a cache = {
  lookup : 'a -> float array option;
  store : 'a -> float array -> unit;
}
(** Optional memo in front of [objectives].  The contract is exactness:
    [lookup g] must return either [None] or the same values (after NaN
    sanitization) that [objectives g] would compute, so caching never
    changes the evolved population.  {!run} consults and fills the cache
    sequentially on the calling domain — lookups in genome order before
    the parallel evaluation of the misses, stores in genome order after —
    so implementations are never called from pool workers and see a
    deterministic access sequence. *)

val run :
  ?on_generation:(int -> 'a individual array -> unit) ->
  ?executor:Caffeine_par.Executor.t ->
  ?start:int * 'a individual array ->
  ?cache:'a cache ->
  ?prepare:('a array -> unit) ->
  rng:Caffeine_util.Rng.t ->
  'a config ->
  'a individual array
(** Full NSGA-II loop: initialize, then per generation create [pop_size]
    children by binary tournament on (rank, crowding), merge parents and
    children, and keep the best [pop_size] by non-dominated rank with
    crowding-distance truncation of the split front.  Returns the final
    population sorted by (rank, crowding desc).  [on_generation] observes
    the population after each environmental selection.

    The initial and per-generation objective evaluations fan out through
    [executor] (default {!Caffeine_par.Executor.sequential}); with a
    domain-pool executor, [objectives] must be safe to call from any
    domain.  Initialization, selection and variation always stay on the
    caller's [rng] in sequential order, so for a fixed seed the returned
    population is bit-identical under every backend.

    Without [prepare], each generation's to-evaluate set (the cache
    misses, when a cache is present) fans out one genome at a time.
    [prepare], when given, turns that into batched evaluation: the set is
    split into contiguous chunks — roughly two per executor job, so a
    single chunk on sequential and process executors — and each worker
    calls [prepare] on its chunk's genomes before evaluating them one by
    one.  [prepare] must not affect results: it runs on pool domains (so
    it must be domain-safe) and chunk boundaries change with the jobs
    setting, so anything it precomputes must be bit-identical to what
    evaluation would compute on its own.  The search passes none; only
    the end-to-end benchmark's traced search ([perfbench/fits.ml]) does,
    to time column warming, and the option goes with that search.

    [start = (gen0, population)] resumes an interrupted run: [population]
    must be the population returned by an earlier [on_generation gen0]
    callback (rank and crowding included) and [rng] must carry the state
    the generator had at that instant; generations [gen0 + 1] through
    [generations] then replay the exact remaining stream of the
    uninterrupted run.  [on_generation] fires only for the resumed
    generations.  Raises [Invalid_argument] when [gen0] is out of range or
    the population size does not match [pop_size]. *)
