(** Domain-safe exact cache in front of NSGA-II objective evaluation.

    Most of a generation's budget is spent re-fitting candidates the search
    has already seen: variation frequently returns a child structurally
    equal to its parent (no-op mutations, depth-bound rejections).  This
    cache skips those duplicate evaluations.  It is bounded, sharded and
    keyed by the full structural hash of the whole individual
    ({!Caffeine_expr.Expr.hash_basis} folded over the bases,
    {!Caffeine_expr.Expr.equal_basis} collision checks).  A hit returns the
    objectives computed when the structure was first fitted,
    {e bit-identical to recomputation by construction}: the objectives are
    a pure function of (structure, data, targets), so the
    determinism-at-any-backend invariant survives with the cache on.

    Instances are rebuildable state: the search creates one per island per
    run, never serializes one into a checkpoint, and a resumed run simply
    starts cold.  Each holds a {!Caffeine_par.Memo} of at most 65536
    entries, the policy behind the dataset caches too: lookups and stores
    are sharded behind per-shard mutexes, bounded by wholesale per-shard
    resets.

    Every instance also bumps the process-wide
    {!Caffeine_obs.Metrics.default} counters [eval.cache_hits],
    [eval.cache_misses] and [eval.cache_evictions]. *)

module Expr = Caffeine_expr.Expr

type mode = Off | Exact

val mode_to_string : mode -> string

val mode_of_string : string -> (mode, string) result
(** Parses ["off"] and ["exact"] (the [--eval-cache] CLI values). *)

type t

val create :
  mode:mode -> wb:float -> wvc:float -> data:Caffeine_io.Dataset.t -> unit -> t
(** [create ~mode ~wb ~wvc ~data ()] builds a cache for the objectives the
    search computes on [data] with the complexity weights [wb] and [wvc]:
    the entries are valid for those inputs only. *)

val mode : t -> mode

val lookup : t -> Expr.basis array -> float array option
(** Previously computed [[| train_error; complexity |]] for this
    individual, or [None].  Hits are bit-identical to recomputation.
    Always [None] in {!Off} mode. *)

val store : t -> Expr.basis array -> float array -> unit
(** Record freshly computed objectives (a defensive copy is taken).
    No-op in {!Off} mode. *)

type stats = Caffeine_par.Memo.stats = {
  hits : int;  (** lookups served from the cache *)
  misses : int;  (** lookups that fell through to a real evaluation *)
  evictions : int;  (** entries dropped by per-shard overflow resets *)
  entries : int;  (** entries currently cached *)
}

val stats : t -> stats
(** Lifetime counters of this instance, for effectiveness reporting. *)

val global_stats : unit -> Caffeine_obs.Trace.eval_cache_stats
(** Process-wide [eval.cache_*] counter values (all instances of this
    process combined — worker processes keep their own), as the trace
    record [fit --trace] emits. *)
