(** A fitted CAFFEINE model: a set of basis-function trees with
    least-squares-learned linear weights, plus its training error and the
    complexity measure of eq. (1).

    All batch evaluation goes through the tape engine: basis value
    columns come from {!Caffeine_io.Dataset.iter_basis_chunks} (evaluated
    on a {!Caffeine_expr.Fused} tape, memoized per dataset on resident
    data) rather than re-interpreting the trees.  Single points go
    through the interpreter, {!Caffeine_expr.Expr.eval_basis}. *)

module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset

type t = {
  bases : Expr.basis array;
  intercept : float;
  weights : float array;  (** same length as [bases] *)
  train_error : float;  (** normalized error on the fitting data *)
  complexity : float;
}

val complexity_of : wb:float -> wvc:float -> Expr.basis array -> float
(** Eq. (1): [Σ_j (w_b + nnodes(j) + Σ_k w_vc·Σ_d |vc_k(d)|)]. *)

val basis_columns : Expr.basis array -> Dataset.t -> float array array option
(** Evaluate each basis on each sample ({!Dataset.basis_columns}: memoized
    on dense storage, one fused pass on chunked storage); [None] when any
    value is not finite (the model is invalid on this data).  Dense
    columns are the dataset's cached arrays — do not mutate. *)

val fit :
  wb:float -> wvc:float -> Expr.basis array -> data:Dataset.t -> targets:float array ->
  t option
(** Least-squares weighting of the basis functions; [None] for invalid
    models.  An empty basis array yields the constant model.  One path on
    both storages: {!Dataset.finite_gram} returns [None] for an
    individual with a non-finite basis (on resident data from the flags
    of the memoized columns, before any product) or the products and a
    pass over the columns (on resident data the columns it fetched, one
    lookup per distinct basis), then
    {!Caffeine_regress.Linfit.fit_stream} solves with that pass. *)

val fit_columns :
  wb:float ->
  wvc:float ->
  Expr.basis array ->
  columns:float array array ->
  data:Dataset.t ->
  targets:float array ->
  t option
(** {!fit} from value columns the caller already holds: [columns.(j)] is
    basis [j]'s finite column on [data], as {!basis_columns} returns it.
    The Gram products still come from {!Dataset.gram}, and the held
    columns are the one chunk of {!Caffeine_regress.Linfit.fit_gram}, so
    the bases are not streamed again on either storage.  Bit-identical to
    {!fit} on the same bases. *)

val predict_point : t -> float array -> float
(** The response at one design point: the intercept plus each weighted
    basis value in order, each basis interpreted by
    {!Caffeine_expr.Expr.eval_basis}.  Prefer {!predict} for many
    points. *)

val predict : t -> Dataset.t -> float array
(** Batched response over a dataset: per row, the intercept plus each
    weighted basis value in order.  Reads cached columns on dense storage
    and evaluates the model's bases in one fused pass on chunked storage.
    A model with no bases predicts its intercept everywhere. *)

val warm : t -> Dataset.t -> unit
(** Fill the dataset's column cache for every basis of the model through
    one fused tape ({!Dataset.warm_columns}): subtrees shared between the
    model's bases evaluate once.  Purely a throughput optimization —
    subsequent {!predict} / {!error_on} calls return bit-identical
    results with or without warming. *)

val warm_front : t list -> Dataset.t -> unit
(** {!warm} for a whole front at once, sharing subtrees {e across}
    models — fronts grown by the search overlap heavily, so this is the
    cheap way to prepare SAG, scoring and export passes. *)

val error_on : t -> data:Dataset.t -> targets:float array -> float
(** Normalized error on a dataset; [infinity] when predictions are not
    finite. *)

val num_bases : t -> int

val to_string : var_names:string array -> t -> string
(** Paper-style rendering, e.g.
    ["90.5 + 190.6 * id1 / vsg1 + 22.2 * id2 / vds2"]. *)

val simplify : wb:float -> wvc:float -> t -> t
(** Algebraic cleanup: fold constant subexpressions into the linear weights
    and the intercept, drop zero-weight bases, recompute complexity.  The
    predictions are unchanged (up to rounding). *)
