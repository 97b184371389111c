(** Design-insight queries over fitted models.

    The paper's motivation is understanding: "one can examine the equations
    in more detail to gain an understanding of how design variables in the
    topology affect performance".  This module makes those examinations
    executable: which variables a model actually uses, local relative
    sensitivities at a design point, and how variable usage evolves along
    an error/complexity tradeoff front.

    Point probes run through {!Model.predict_point}, the tree
    interpreter (a handful of points per query), and the Sobol estimator
    batches its sample matrices through {!Model.predict} over
    column-major datasets on fused tapes. *)

val variables_used : Model.t -> int list
(** Sorted indices of the design variables appearing in the model (the
    paper: "each expression only contains a (sometimes small) subset of
    design variables"). *)

val unused_variables : dims:int -> Model.t -> int list
(** Complement of {!variables_used}. *)

val sensitivities : Model.t -> at:float array -> float array
(** Relative local sensitivities [S_i = (∂f/∂x_i) · x_i / f] by central
    finite differences at the point [at] (an [S_i] of 1 means "1% change in
    x_i moves f by 1%").  Entries are [nan] where the model or its
    perturbation is not finite, and 0 for unused variables. *)

val exact_sensitivities : Model.t -> at:float array -> float array
(** Like {!sensitivities} but with exact partial derivatives from
    forward-mode automatic differentiation ({!Caffeine_expr.Deriv}). *)

val dominant_variables : ?top:int -> Model.t -> at:float array -> (int * float) list
(** Variables ranked by |relative sensitivity|, strongest first, at most
    [top] entries (default 5); non-finite sensitivities are skipped. *)

val sobol_first_order :
  ?samples:int ->
  Caffeine_util.Rng.t ->
  Model.t ->
  lo:float array ->
  hi:float array ->
  float array
(** First-order Sobol' sensitivity indices over the box [\[lo, hi\]] by the
    Saltelli pick-freeze estimator ([samples] base points per matrix,
    default 1024): [S_i = Var(E[f|x_i]) / Var(f)] — the fraction of output
    variance explained by variable [i] alone, globally rather than at one
    point.  Indices are clamped to [\[0, 1\]]; all-zero when the model is
    constant over the box.  Sample points where the model is not finite are
    discarded. *)

val usage_along_front : Model.t list -> (int * int) list
(** For a front (or any model list): [(variable index, number of models
    using it)], sorted by decreasing count then index — the "which devices
    matter" summary of the paper's discussion. *)

val report :
  var_names:string array -> at:float array -> Model.t -> string
(** Human-readable one-model insight report: variables used, dominant
    sensitivities, expression. *)
