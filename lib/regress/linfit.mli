(** Linear weighting of basis functions.

    CAFFEINE's top-level weights are not evolved: given the values of each
    basis function on the training samples, the weights (plus intercept) are
    learned by least squares.  This module performs that fit, computes the
    paper's normalized error measure, and exposes the PRESS statistic and
    PRESS-guided forward regression used by simplification-after-generation
    (section 5.1).

    All three entry points run on the incremental regression engine
    ({!Caffeine_linalg.Qr_update}): {!fit} and {!press} build one updatable
    factorization column by column, and {!forward_select} keeps a live
    factorization of the chosen set, scoring every candidate with an
    O(n·k) single-column probe instead of a from-scratch O(n·k²)
    refactorization.  Whenever a column set is numerically rank-deficient
    the engine rejects it and the code falls back to the scratch
    {!Caffeine_linalg.Decomp} path (ridge regression), so results agree
    with the pre-engine implementation within 1e-8 relative.
    {!fit_stream} adds a normal-equations fast path fed by memoized dot
    products, with {!fit_gram} as its one-chunk case.

    The engine reports into {!Caffeine_obs.Metrics.default}: counters
    [linfit.fits], [linfit.qr_fallbacks] (rank-deficient sets refactorized
    by the scratch path), [linfit.gram_fits], [linfit.gram_fallbacks]
    (Gram solves that tripped a conditioning guard) and
    [linfit.forward_rounds] (accepted forward-selection rounds). *)

type t = {
  intercept : float;
  weights : float array;  (** one weight per basis column *)
  predictions : float array;  (** fitted values on the training inputs *)
  train_error : float;  (** normalized error on the training targets *)
}

val design_matrix : float array array -> Caffeine_linalg.Matrix.t
(** [design_matrix columns] builds the [n x (1 + k)] design whose first column
    is all ones and whose remaining columns are the per-basis value vectors.
    All columns must share the (positive) length [n]. *)

val fit : basis_values:float array array -> targets:float array -> t
(** Least-squares fit of [targets ≈ intercept + Σ wᵢ · basisᵢ].  With an empty
    [basis_values] the result is the constant (mean) model.  Raises
    [Invalid_argument] when a basis column contains non-finite values —
    callers are expected to screen those out (such models are invalid).
    When a column is all zero (±0) and no column's sum of squares
    overflows, both the incremental QR and Householder are known to find
    the design rank-deficient, so neither runs and the fit goes straight
    to {!Caffeine_linalg.Decomp.lstsq_ridge}: the words of the path it
    skips. *)

val fit_constant : targets:float array -> t
(** The zero-complexity model: intercept = mean of targets. *)

val fit_stream :
  dot:(int -> int -> float) ->
  dot_y:(int -> float) ->
  col_sum:(int -> float) ->
  k:int ->
  n:int ->
  iter:((row0:int -> len:int -> float array array -> unit) -> unit) ->
  targets:float array ->
  t
(** Normal-equations fast path for the per-individual fit: assemble the
    bordered [(k+1) x (k+1)] Gram matrix from the supplied products —
    [dot i j = ⟨colᵢ, colⱼ⟩], [dot_y i = ⟨colᵢ, y⟩], [col_sum i = ⟨colᵢ, 1⟩]
    (typically read off a {!Caffeine_io.Dataset.gram}, memoized across the
    population; [dot] is only asked for [i <= j] and the lower triangle
    mirrors it) — and solve by Cholesky with unit-diagonal equilibration
    and one iterative-refinement step.  The [k] basis columns are never
    materialized: [iter f] must visit the [n] samples as row chunks in
    order, calling [f ~row0 ~len columns] with [columns.(j)] holding
    column [j]'s values for rows [row0 .. row0+len-1] in its first [len]
    cells, and each sample's prediction is a left fold over the weighted
    bases, so how the rows are chunked changes no word.  When
    conditioning threatens accuracy (non-positive diagonal, singular
    factorization, or a minimum Cholesky pivot below 1e-3 of the maximum)
    the call falls back to {!fit} on the columns of one [iter] pass, so
    the result always matches the QR answer within the engine's 1e-8
    contract.  A pass that hands over all [n] rows in one call, as [k]
    columns of exactly [n] cells (resident data), is fitted inside that
    call, reading the columns in place; the chunks of a longer pass are
    copied into fresh columns first.  The columns are never written.  The
    fallback takes each column's finiteness from the diagonal entry [dot i
    i], a sum of squares that a NaN or infinite cell leaves non-finite:
    only when some diagonal entry is not finite are the columns scanned,
    and a non-finite column raises [Invalid_argument] as {!fit} does.  On
    that fallback a rank-deficient design's ridge solve takes [aᵀa] and
    [aᵀy] from the supplied products instead of forming them from the
    columns again; when every product is the row-order sum from [+0.] of
    finite columns (as {!Caffeine_io.Dataset.gram} and {!Gram_stream} form
    them), the result is {!fit}'s word for word.  The fallback is
    {!fit}'s, so a design with an all-zero column skips both rank
    decisions as {!fit} does.  [iter] is invoked once (the prediction
    pass, or the fallback's); the pass
    {!Caffeine_io.Dataset.finite_gram} returns hands over the resident
    columns it already holds, with no second lookup. *)

val fit_gram :
  dot:(int -> int -> float) ->
  dot_y:(int -> float) ->
  col_sum:(int -> float) ->
  basis_values:float array array ->
  targets:float array ->
  t
(** {!fit_stream} over one chunk: the caller already holds the finite
    value columns [basis_values], one per basis, each with one entry per
    target.  Raises [Invalid_argument] when a column is empty, ragged,
    non-finite or of the wrong length. *)

val predict : t -> basis_values:float array array -> float array
(** Apply fitted weights to basis values measured at other sample points. *)

val press : basis_values:float array array -> targets:float array -> float
(** Predicted Residual Sum of Squares of the linear fit (leave-one-out
    shortcut on the linear parameters). *)

val forward_select :
  ?executor:Caffeine_par.Executor.t ->
  ?max_bases:int ->
  ?tolerance:float ->
  ?on_round:
    (round:int -> chosen:int -> press_before:float -> press_after:float -> unit) ->
  basis_values:float array array ->
  targets:float array ->
  unit ->
  int array
(** PRESS-guided forward regression: starting from the intercept-only model,
    greedily add the basis column whose inclusion lowers PRESS the most, and
    stop when no addition improves PRESS by more than [tolerance] (relative,
    default [1e-6]) or when [max_bases] columns are selected.  Returns the
    chosen column indices in selection order.  Columns with non-finite
    values — or whose trial fit is singular — are never selected.
    [on_round] observes each accepted round at its commit point, on the
    calling domain: the 0-based [round], the [chosen] column index, and the
    PRESS value before and after the addition.

    The chosen set is held as one live updatable factorization; each
    candidate is scored by a non-mutating O(n·k) single-column PRESS probe
    ({!Caffeine_linalg.Qr_update.press_probe}).  Candidates dependent on
    the current span are scored by the scratch ridge path instead, exactly
    as the pre-engine implementation did.

    Candidate PRESS scores within a round are mutually independent (the
    factorization is frozen until the round's winner is committed); they
    are evaluated through [executor] (default sequential), fanning across
    a domain pool when it has one.  The greedy reduction always scans
    candidates in index order, so the selection is identical under every
    backend. *)
