(** Which canonical-form building blocks the search may use.

    "The designer can turn off any of the rules if they are considered
    unwanted or unneeded.  For example, one could easily restrict the search
    to polynomials or rationals, or remove potentially difficult-to-interpret
    functions such as sin and cos."  The canonical form itself is fixed:
    {!Gen} and {!Vary} build and change only canonical-form trees.  An {!t}
    is the designer's freedom within it: the enabled operators plus VC
    exponent limits.  A list of operator names builds one via {!of_names}. *)

module Op = Caffeine_expr.Op

type t = {
  unops : Op.unary array;  (** enabled single-input operators *)
  binops : Op.binary array;  (** enabled double-input operators *)
  allow_lte : bool;  (** the paper's [lte] conditional *)
  max_exponent : int;  (** |VC exponent| limit, >= 1 *)
  min_exponent : int;  (** smallest allowed exponent (e.g. 0 to forbid
                           negative powers in the polynomial ablation) *)
}

val default : t
(** The full experimental setup of section 6.1: all 13 unary and 4 binary
    operators, [lte], exponents in [{-2, -1, 1, 2}]. *)

val rational : t
(** Rational-functions ablation: VCs only, no nonlinear operators. *)

val polynomial : t
(** Polynomial ablation: VCs with non-negative exponents only. *)

val no_trig : t
(** {!default} without sin, cos and tan — the "difficult-to-interpret"
    functions the paper suggests removing. *)

val allow_nonlinear : t -> bool
(** Whether any operator factor is enabled: a unary or binary operator, or
    [lte].  When none is, every basis function is a bare VC. *)

val names : string list
(** Every operator name {!of_names} accepts, in {!Op.all_unary},
    {!Op.all_binary} order, then ["LTE"]: the terminal names of the
    paper's grammar, e.g. ["LOG10"], ["DIVIDE"]. *)

val of_names : string list -> (t, string) result
(** The operator set enabling exactly the listed {!names}, with
    {!default}'s exponent limits.  The arrays follow {!Op.all_unary} and
    {!Op.all_binary} order whatever the order of the list, and duplicates
    count once, so a set of names gives one search.  [[]] is {!rational},
    all of {!names} is {!default}.  [Error] names the first token that is
    not in {!names}. *)

val exponent_choices : t -> int array
(** The nonzero exponents a VC entry may take, e.g. [{-2,-1,1,2}]. *)
