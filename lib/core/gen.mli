(** Random generation of canonical-form expressions.

    Every generated tree follows the derivation rules of the CAFFEINE
    grammar for the enabled operator set, with a hard depth budget so
    initialization cannot bloat. *)

module Expr = Caffeine_expr.Expr

val random_vc :
  Caffeine_util.Rng.t -> Opset.t -> dims:int -> max_vars:int -> Expr.vc
(** A variable combo touching 1..[max_vars] distinct variables, exponents
    drawn from the opset's allowed range with a bias towards ±1. *)

val random_basis :
  Caffeine_util.Rng.t -> Opset.t -> dims:int -> depth:int -> max_vc_vars:int -> Expr.basis
(** A basis function (REPVC derivation) within the remaining [depth]. *)

val random_wsum :
  Caffeine_util.Rng.t -> Opset.t -> dims:int -> depth:int -> max_vc_vars:int -> Expr.wsum
(** A weighted sum ('W' '+' REPADD derivation). *)

val random_individual :
  Caffeine_util.Rng.t -> Config.t -> dims:int -> Expr.basis array
(** A fresh individual: a small set (1..max(1, max_bases/3)) of basis
    functions. *)
