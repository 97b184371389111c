(** Matrix decompositions and solvers.

    Provides Householder QR, Cholesky, partial-pivot LU, least squares with a
    ridge fallback for rank-deficient systems, and the hat-matrix diagonal
    needed by the PRESS statistic. *)

exception Singular
(** Raised when a solve encounters an (effectively) singular system. *)

val qr : Matrix.t -> Matrix.t * Matrix.t
(** [qr a] for an [m x n] matrix with [m >= n] returns the thin factorization
    [(q, r)] where [q] is [m x n] with orthonormal columns and [r] is
    [n x n] upper triangular with [a = q r]. *)

val solve_upper_triangular : Matrix.t -> float array -> float array
(** Back substitution; raises {!Singular} on a zero pivot. *)

val solve_lower_triangular : Matrix.t -> float array -> float array
(** Forward substitution; raises {!Singular} on a zero pivot. *)

val lu_solve : Matrix.t -> float array -> float array
(** [lu_solve a b] solves the square system [a x = b] with partial pivoting.
    Raises {!Singular} when a pivot vanishes. *)

val cholesky : Matrix.t -> Matrix.t
(** [cholesky a] is the lower-triangular [l] with [a = l lᵀ] for a symmetric
    positive-definite [a].  Raises {!Singular} otherwise. *)

val solve_spd : Matrix.t -> float array -> float array
(** Solve a symmetric positive-definite system through {!cholesky}. *)

val rank_from_r : ?tol:float -> Matrix.t -> int
(** Numerical rank estimated from the diagonal of an upper-triangular factor. *)

val lstsq : ?ridge:float -> Matrix.t -> float array -> float array
(** [lstsq a b] minimizes [‖a x - b‖₂] via QR.  When [a] is numerically
    rank-deficient the problem is re-solved as ridge regression
    [(aᵀa + λI) x = aᵀ b] with [λ = ridge] (default [1e-10] scaled by the
    Gram trace), which always succeeds. *)

val lstsq_normal : ata:float array -> atb:float array -> Matrix.t -> float array -> float array
(** [lstsq_normal ~ata ~atb a b] is {!lstsq} [a b] for a caller that
    already holds the row-major normal matrix [ata] = [aᵀa] and [atb] =
    [aᵀb]: the rank decision still factors [a], but the ridge branch
    solves with [ata] and [atb] instead of forming them from [a].  The
    result is {!lstsq}'s word for word when [ata] and [atb] are the words
    {!lstsq} would form: for a finite [a], every entry summed over the
    rows in order from [+0.], whichever operand of each product comes
    first.  Raises [Invalid_argument] on mismatched dimensions. *)

val lstsq_ridge : ?ata:float array -> ?atb:float array -> Matrix.t -> float array -> float array
(** [lstsq_ridge a b] is {!lstsq}'s ridge branch taken without its rank
    decision: [(aᵀa + λI) x = aᵀb] with {!lstsq}'s default [λ], solved by
    the same Cholesky factor and triangular solves.  It is {!lstsq} [a b]
    word for word whenever {!lstsq} finds [a] rank-deficient, and skips
    the Householder factorization that decision costs; [ata] and [atb]
    stand in for [aᵀa] and [aᵀb] as in {!lstsq_normal} (not modified).
    Raises [Invalid_argument] on mismatched dimensions. *)

val hat_diag : ?ridge:float -> Matrix.t -> float array
(** [hat_diag a] is the diagonal of the projection ("hat") matrix
    [a (aᵀa)⁻¹ aᵀ], regularized like {!lstsq} when needed.  Entry [i] is the
    leverage of sample [i]; all entries lie in [\[0, 1\]] for the unregularized
    case. *)

val press : ?ridge:float -> Matrix.t -> float array -> float
(** [press a b] is the Predicted Residual Sum of Squares for the linear model
    [a x = b]: [Σ ((b_i - ŷ_i) / (1 - h_ii))²], an O(n³) shortcut for
    leave-one-out cross-validation of the linear parameters. *)
