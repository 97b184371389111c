(** Parsing printed model expressions back into canonical form.

    {!Expr.wsum_to_string} renders models in a conventional infix syntax
    ("90.5 + 186.6 * id1 - 1.14 / vsg1 + ln(2 + id1)"); this module parses
    that syntax into a generic infix AST and canonicalizes it back into
    weighted canonical-form bases, enabling save/load of generated models as
    plain text. *)

type t =
  | Number of float
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * t  (** [x ^ k] with a constant integer exponent *)
  | Call of string * t list  (** function application, e.g. [ln(...)] *)

val parse : string -> (t, string) result
(** Recursive-descent parser with conventional precedence
    ([+ -] < [* /] < unary minus < [^]); identifiers are variables unless
    followed by an argument list.  Errors carry a character position. *)

val eval : t -> env:(string -> float option) -> (float, string) result
(** Numeric evaluation; unknown variables or function names are errors,
    domain violations follow {!Op} semantics (nan). *)

val parse_wsum : var_names:string array -> string -> (Expr.wsum, string) result
(** {!parse}, then canonicalization into an intercept and weighted
    bases, packaged as a weighted sum.  Succeeds on anything the model
    printer emits (a linear combination of canonical-form bases); returns
    [Error] for genuinely non-canonical shapes such as a bare product of
    sums. *)
