(** Exact derivatives of canonical-form expressions by forward-mode
    automatic differentiation (dual numbers).

    Used for model sensitivity analysis: unlike finite differences, the
    result is exact up to floating point and costs one extra multiply per
    node.  Non-smooth points (|x| at 0, max/min ties, lte switches) take the
    derivative of the branch that evaluates. *)

type dual = { value : float; deriv : float }

val eval_vc : Expr.vc -> float array -> wrt:int -> dual
val eval_basis : Expr.basis -> float array -> wrt:int -> dual
(** Evaluate value and ∂/∂x_[wrt] simultaneously at the point. *)

val gradient_wsum : Expr.wsum -> float array -> float array
(** All partial derivatives at a point (one forward pass per variable). *)

val apply_unary : Op.unary -> dual -> dual
val apply_binary : Op.binary -> dual -> dual -> dual
(** Exposed for tests: dual-number op semantics. *)
