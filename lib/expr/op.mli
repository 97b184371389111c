(** The nonlinear operators of the CAFFEINE experimental setup (section 6.1):
    single-input √x, ln x, log₁₀ x, 1/x, |x|, x², sin, cos, tan, max(0,x),
    min(0,x), 2ˣ, 10ˣ and double-input division, power, max, min.
    (x₁+x₂ and x₁·x₂ are structural in the canonical form, not operators.)

    All applications are total: domain errors yield [nan], overflow yields
    infinities; the fitness layer discards models whose predictions are not
    finite. *)

type unary =
  | Sqrt
  | Log_e
  | Log_10
  | Inv
  | Abs
  | Square
  | Sin
  | Cos
  | Tan
  | Max0
  | Min0
  | Exp2
  | Exp10

type binary =
  | Div
  | Pow
  | Max
  | Min

val all_unary : unary list
val all_binary : binary list

val unary_name : unary -> string
(** Grammar terminal name, e.g. [Log_10 -> "LOG10"]. *)

val binary_name : binary -> string

val unary_of_name : string -> unary option
val binary_of_name : string -> binary option

val unary_pretty : unary -> string
(** Rendering used in printed models, e.g. [Log_e -> "ln"]. *)

val binary_pretty : binary -> string

val apply_unary : unary -> float -> float
val apply_binary : binary -> float -> float -> float

(** {2 Array kernels}

    [apply_*] over the first [len] cells of arrays, with the operator
    dispatched once per call instead of once per sample: the tape
    evaluators' inner loops.  Every cell is bit-identical to the scalar
    [apply_*] (same IEEE operations, libm calls and NaN conventions) and
    the kernels allocate nothing.  Each loop reads cell [j] of every
    operand before writing cell [j] of [dst], so [dst] may alias an
    operand.  Raise [Invalid_argument] when an array is shorter than
    [len]. *)

val unary_into : unary -> src:float array -> dst:float array -> len:int -> unit
(** [dst.(j) <- apply_unary op src.(j)] for [j < len]. *)

val binary_into :
  binary -> a:float array -> b:float array -> dst:float array -> len:int -> unit
(** [dst.(j) <- apply_binary op a.(j) b.(j)] for [j < len]. *)
