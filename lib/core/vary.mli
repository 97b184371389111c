(** Evolutionary operators on CAFFEINE individuals (sets of basis-function
    trees).

    These implement the paper's operator inventory: basis-function set
    crossover (take >0 bases from each of two parents), deleting / adding /
    copying basis functions, grammar-respecting subtree crossover (only
    same-nonterminal subtrees are exchanged — here, nested REPVC bases and
    inner weighted sums), zero-mean Cauchy mutation on weights (5x more
    likely than the rest), VC one-point crossover and exponent perturbation,
    and same-arity operator swaps.  Every operator returns a structurally
    valid individual within the configured bounds. *)

module Expr = Caffeine_expr.Expr

type individual = Expr.basis array

type op_stats = {
  mutable crossovers : int;  (** children whose basis sets were mixed *)
  op_counts : int array;  (** applied mutations, indexed by operator id *)
  op_changed : int array;
      (** mutations that structurally changed their input and survived the
          depth bound, by operator id — the success counts the adaptive
          operator-selection ROADMAP item consumes.  [op_counts] minus
          [op_changed] is the operator's silent no-op + rejection rate. *)
  mutable depth_rejects : int;  (** mutations discarded by the depth bound *)
}
(** Per-call tallies of {!vary} decisions.  Variation always runs
    sequentially on the caller's RNG (see {!Caffeine_evo.Nsga2.run}), so
    plain mutable fields suffice. *)

val fresh_stats : unit -> op_stats
val reset_stats : op_stats -> unit

val vary :
  ?stats:op_stats ->
  Caffeine_util.Rng.t ->
  Config.t ->
  dims:int ->
  individual ->
  individual ->
  individual
(** Produce a child from two parents: with the configured probability the
    basis-function sets are first mixed, then a randomly chosen mutation is
    applied (parameter mutation weighted by [param_mutation_weight]).
    When [stats] is given, the crossover decision, the applied operator and
    any depth-bound rejection are tallied into it. *)

(** The individual pieces are exposed for unit testing. *)

val crossover_bases :
  Caffeine_util.Rng.t -> max_bases:int -> individual -> individual -> individual
(** ">0 basis functions from each of 2 parents", truncated to [max_bases]. *)

val mutate_weight : Caffeine_util.Rng.t -> individual -> individual
(** Cauchy-perturb one randomly chosen inner weight (no-op when the
    individual has no inner weights). *)

val mutate_vc : Caffeine_util.Rng.t -> Opset.t -> individual -> individual
(** Add or subtract 1 from one exponent of one VC, keeping it within the
    opset's exponent range and never producing an all-zero VC. *)

val add_basis : Caffeine_util.Rng.t -> Config.t -> dims:int -> individual -> individual
(** Append a freshly generated basis function (no-op at [max_bases]). *)

val delete_basis : Caffeine_util.Rng.t -> individual -> individual
(** Remove one random basis function (no-op when only one remains). *)

val subtree_crossover : Caffeine_util.Rng.t -> individual -> individual -> individual
(** Replace one nested basis of the child by a nested basis of the donor
    (same grammar nonterminal, REPVC). *)

val nested_bases : individual -> Expr.basis list
(** All bases appearing anywhere in the individual (top-level and nested);
    exposed for tests. *)
