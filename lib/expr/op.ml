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

let all_unary =
  [ Sqrt; Log_e; Log_10; Inv; Abs; Square; Sin; Cos; Tan; Max0; Min0; Exp2; Exp10 ]

let all_binary = [ Div; Pow; Max; Min ]

let unary_name = function
  | Sqrt -> "SQRT"
  | Log_e -> "LOGE"
  | Log_10 -> "LOG10"
  | Inv -> "INV"
  | Abs -> "ABS"
  | Square -> "SQUARE"
  | Sin -> "SIN"
  | Cos -> "COS"
  | Tan -> "TAN"
  | Max0 -> "MAX0"
  | Min0 -> "MIN0"
  | Exp2 -> "EXP2"
  | Exp10 -> "EXP10"

let binary_name = function
  | Div -> "DIVIDE"
  | Pow -> "POW"
  | Max -> "MAX"
  | Min -> "MIN"

let unary_of_name name = List.find_opt (fun op -> unary_name op = name) all_unary
let binary_of_name name = List.find_opt (fun op -> binary_name op = name) all_binary

let unary_pretty = function
  | Sqrt -> "sqrt"
  | Log_e -> "ln"
  | Log_10 -> "log10"
  | Inv -> "inv"
  | Abs -> "abs"
  | Square -> "sq"
  | Sin -> "sin"
  | Cos -> "cos"
  | Tan -> "tan"
  | Max0 -> "max0"
  | Min0 -> "min0"
  | Exp2 -> "exp2"
  | Exp10 -> "exp10"

let binary_pretty = function
  | Div -> "div"
  | Pow -> "pow"
  | Max -> "max"
  | Min -> "min"

(* The domain guards are written once, here, and inlined both into
   [apply_*] and into the array kernels below; every other operator is a
   single primitive spelled the same way in both.  So the kernels run the
   same IEEE operations and libm calls as the scalar path, with the
   operator match hoisted out of the sample loop.  Dune's dev profile
   compiles with [-opaque], so a per-sample call to [apply_*] from another
   module would box every float it returns; a kernel call boxes nothing. *)

let[@inline] safe_sqrt x = if x < 0. then Float.nan else sqrt x
let[@inline] safe_log x = if x <= 0. then Float.nan else log x
let[@inline] safe_log10 x = if x <= 0. then Float.nan else log10 x
let[@inline] safe_inv x = if x = 0. then Float.nan else 1. /. x
let[@inline] safe_div x y = if y = 0. then Float.nan else x /. y

let apply_unary op x =
  match op with
  | Sqrt -> safe_sqrt x
  | Log_e -> safe_log x
  | Log_10 -> safe_log10 x
  | Inv -> safe_inv x
  | Abs -> Float.abs x
  | Square -> x *. x
  | Sin -> sin x
  | Cos -> cos x
  | Tan -> tan x
  | Max0 -> Float.max 0. x
  | Min0 -> Float.min 0. x
  | Exp2 -> Float.pow 2. x
  | Exp10 -> Float.pow 10. x

let apply_binary op x y =
  match op with
  | Div -> safe_div x y
  | Pow -> Float.pow x y
  | Max -> Float.max x y
  | Min -> Float.min x y

(* --- array kernels --- *)

let[@inline] check_len name len (a : float array) =
  if len < 0 || Array.length a < len then
    invalid_arg ("Op." ^ name ^ ": array shorter than len")

(* One spelled-out loop per operator: a loop taking the operator body as a
   closure would box every sample.  Each loop reads sample [j] of every
   operand before writing sample [j] of [dst], so [dst] may alias an
   operand. *)
let unary_into op ~(src : float array) ~(dst : float array) ~len =
  check_len "unary_into" len src;
  check_len "unary_into" len dst;
  let last = len - 1 in
  match op with
  | Sqrt ->
      for j = 0 to last do
        Array.unsafe_set dst j (safe_sqrt (Array.unsafe_get src j))
      done
  | Log_e ->
      for j = 0 to last do
        Array.unsafe_set dst j (safe_log (Array.unsafe_get src j))
      done
  | Log_10 ->
      for j = 0 to last do
        Array.unsafe_set dst j (safe_log10 (Array.unsafe_get src j))
      done
  | Inv ->
      for j = 0 to last do
        Array.unsafe_set dst j (safe_inv (Array.unsafe_get src j))
      done
  | Abs ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.abs (Array.unsafe_get src j))
      done
  | Square ->
      for j = 0 to last do
        let x = Array.unsafe_get src j in
        Array.unsafe_set dst j (x *. x)
      done
  | Sin ->
      for j = 0 to last do
        Array.unsafe_set dst j (sin (Array.unsafe_get src j))
      done
  | Cos ->
      for j = 0 to last do
        Array.unsafe_set dst j (cos (Array.unsafe_get src j))
      done
  | Tan ->
      for j = 0 to last do
        Array.unsafe_set dst j (tan (Array.unsafe_get src j))
      done
  | Max0 ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.max 0. (Array.unsafe_get src j))
      done
  | Min0 ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.min 0. (Array.unsafe_get src j))
      done
  | Exp2 ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.pow 2. (Array.unsafe_get src j))
      done
  | Exp10 ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.pow 10. (Array.unsafe_get src j))
      done

let binary_into op ~(a : float array) ~(b : float array) ~(dst : float array) ~len =
  check_len "binary_into" len a;
  check_len "binary_into" len b;
  check_len "binary_into" len dst;
  let last = len - 1 in
  match op with
  | Div ->
      for j = 0 to last do
        Array.unsafe_set dst j (safe_div (Array.unsafe_get a j) (Array.unsafe_get b j))
      done
  | Pow ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.pow (Array.unsafe_get a j) (Array.unsafe_get b j))
      done
  | Max ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.max (Array.unsafe_get a j) (Array.unsafe_get b j))
      done
  | Min ->
      for j = 0 to last do
        Array.unsafe_set dst j (Float.min (Array.unsafe_get a j) (Array.unsafe_get b j))
      done
