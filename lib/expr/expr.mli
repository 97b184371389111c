(** Canonical-form expression trees.

    A CAFFEINE model is a linear sum of weighted basis functions.  Each basis
    function is a product of an optional "variable combo" — a rational
    monomial over the design variables with integer exponents — and zero or
    more nonlinear operator applications; each operator argument is again a
    weighted sum of basis functions.  This datatype is the semantic image of
    the grammar in {!Caffeine_grammar.Grammar.caffeine}: [basis] corresponds
    to REPVC, [factor] to REPOP, [wsum] to ['W' '+' REPADD], and [arg] to
    MAYBEW.

    Inner weights are stored as plain floats (the weight-space transform used
    during evolution lives in the search layer). *)

type vc = int array
(** Exponent per design variable, e.g. [\[|1; 0; -2|\]] is x₀ / x₂². *)

type basis = { vc : vc option; factors : factor list }

and factor =
  | Unary of Op.unary * wsum
  | Binary of Op.binary * arg * arg
  | Lte of { test : wsum; threshold : arg; less : arg; otherwise : arg }
      (** [Lte] is the paper's conditional:
          if [test <= threshold] then [less] else [otherwise]. *)

and arg =
  | Const of float
  | Sum of wsum

and wsum = { bias : float; terms : (float * basis) list }

val constant_wsum : float -> wsum

(* {2 Evaluation} *)

val int_pow : float -> int -> float
(** [int_pow x e] for any integer [e]; [int_pow 0. e] with [e < 0] is [nan]. *)

val mul_int_pow_into :
  dst:float array -> src:float array -> off:int -> e:int -> len:int -> unit
(** The column form of {!int_pow} that monomial evaluation uses:
    [dst.(j) <- dst.(j) *. int_pow src.(off + j) e] for [j < len], except
    that [e = 1] multiplies by [src.(off + j)] itself.  Bit-identical to
    the scalar form, without allocating.  Raises [Invalid_argument] when
    the ranges fall outside the arrays. *)

val eval_vc : vc -> float array -> float

val eval_basis : basis -> float array -> float
(** The tree interpreter, at one design point: the reference semantics of
    canonical-form expressions.  Every compiled tape ({!Fused}) has its
    IEEE bits wherever the value is not NaN, and is NaN exactly where it
    is (payloads are unspecified). *)

val eval_wsum : wsum -> float array -> float

(* {2 Structure} *)

val nnodes_basis : basis -> int
(** Tree-node count used by the complexity measure: 1 per VC, operator,
    weight and constant. *)

val depth_basis : basis -> int
(** Nesting depth; a flat monomial basis has depth 1. *)

val vcs_of_basis : basis -> vc list
(** Every VC appearing in the basis, outermost first. *)

val variables_of_basis : basis -> int list
(** Sorted indices of design variables the basis depends on. *)

val num_weights_basis : basis -> int
(** Count of tunable inner weights (biases, term weights, constants). *)

val equal_basis : basis -> basis -> bool
(** Structural equality, weights compared by their IEEE bits: [0.] and
    [-0.] differ, and a NaN weight equals itself.  This is the identity
    {!hash_basis} hashes, so equal bases always hash equal. *)

val compare_basis : basis -> basis -> int
(** Total order for canonical sorting (polymorphic [compare]).  It agrees
    with {!equal_basis} except on signed zeros, which it ranks equal. *)

val hash_basis : basis -> int
(** Structural hash over the {e entire} tree: every constructor, operator,
    exponent and weight participates (weights included: a mutated weight is
    a different column).  [Hashtbl.hash] only inspects a bounded prefix of
    the tree, so deep bases sharing a prefix all collide under it; this
    fold does not.  Non-negative; the hash-consing key of every per-basis
    cache. *)

module Key : Hashtbl.HashedType with type t = basis
(** Hash-consing key: {!equal_basis} + {!hash_basis}. *)

module Tbl : Hashtbl.S with type key = basis
(** Hash tables keyed by whole basis trees under {!Key}. *)

val check : dims:int -> basis -> (unit, string) result
(** Validate the canonical-form invariants: VC vectors have width [dims] and
    at least one nonzero exponent; a basis is non-empty (has a VC or at least
    one factor); every stored weight is finite; every [wsum] that feeds an
    operator argument is non-empty. *)

(* {2 Simplification} *)

val simplify_basis : basis -> float * basis option
(** [simplify_basis b] is [(scale, simplified)]: constant subexpressions are
    folded, zero-weight terms dropped, and any constant overall factor
    extracted into [scale] (to be absorbed by the enclosing linear weight).
    [None] means the whole basis is the constant [scale]. *)

(* {2 Printing} *)

val weight_to_string : float -> string
(** Compact numeric rendering used in printed models. *)

val basis_to_string : var_names:string array -> basis -> string
(** Render like the paper's tables, e.g. ["id2 / vds2"] or
    ["ln(-1.95e+09 + 1e+10 / (vsg1*vsg3))"]. *)

val term_to_string : var_names:string array -> float -> basis -> string
(** Render a weighted term, folding the weight into rational VCs:
    [term_to_string 22.2 (id2/vds2)] is ["22.2 * id2 / vds2"]. *)

val wsum_to_string : var_names:string array -> wsum -> string
(** Render a weighted sum with signed terms, paper style. *)
