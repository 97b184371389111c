type vc = int array

type basis = { vc : vc option; factors : factor list }

and factor =
  | Unary of Op.unary * wsum
  | Binary of Op.binary * arg * arg
  | Lte of { test : wsum; threshold : arg; less : arg; otherwise : arg }

and arg =
  | Const of float
  | Sum of wsum

and wsum = { bias : float; terms : (float * basis) list }

let constant_wsum bias = { bias; terms = [] }

(* --- evaluation --- *)

(* Square-and-multiply with float refs, which the compiler keeps unboxed
   (a recursive helper would box its float arguments on every step).
   Inlined into [mul_int_pow_into], so the column form runs the same
   operations in the same order without a boxed result per sample. *)
let[@inline] int_pow x e =
  if e = 0 then 1.
  else begin
    let acc = ref 1. and base = ref x and k = ref (abs e) in
    while !k <> 0 do
      if !k land 1 = 1 then acc := !acc *. !base;
      base := !base *. !base;
      k := !k lsr 1
    done;
    if e < 0 then if !acc = 0. then Float.nan else 1. /. !acc else !acc
  end

let mul_int_pow_into ~(dst : float array) ~(src : float array) ~off ~e ~len =
  if len < 0 || off < 0 || off + len > Array.length src || len > Array.length dst then
    invalid_arg "Expr.mul_int_pow_into: range out of bounds";
  if e = 1 then
    for j = 0 to len - 1 do
      Array.unsafe_set dst j (Array.unsafe_get dst j *. Array.unsafe_get src (off + j))
    done
  else
    for j = 0 to len - 1 do
      (* Bound first, so the product keeps [dst.(j)] as its first operand
         (a NaN times a NaN returns the first one's payload): left in
         place, the load would be folded into the multiply with the
         operands swapped. *)
      let product = Array.unsafe_get dst j in
      Array.unsafe_set dst j (product *. int_pow (Array.unsafe_get src (off + j)) e)
    done

let eval_vc exponents x =
  let acc = ref 1. in
  Array.iteri (fun i e -> if e <> 0 then acc := !acc *. int_pow x.(i) e) exponents;
  !acc

let rec eval_basis b x =
  let from_vc = match b.vc with None -> 1. | Some exponents -> eval_vc exponents x in
  List.fold_left (fun acc f -> acc *. eval_factor f x) from_vc b.factors

and eval_factor f x =
  match f with
  | Unary (op, ws) -> Op.apply_unary op (eval_wsum ws x)
  | Binary (op, a1, a2) -> Op.apply_binary op (eval_arg a1 x) (eval_arg a2 x)
  | Lte { test; threshold; less; otherwise } ->
      let t = eval_wsum test x in
      let c = eval_arg threshold x in
      if Float.is_nan t || Float.is_nan c then Float.nan
      else if t <= c then eval_arg less x
      else eval_arg otherwise x

and eval_arg a x = match a with Const w -> w | Sum ws -> eval_wsum ws x

and eval_wsum ws x =
  List.fold_left (fun acc (w, b) -> acc +. (w *. eval_basis b x)) ws.bias ws.terms

(* --- structure --- *)

let rec nnodes_basis b =
  let vc_nodes = match b.vc with None -> 0 | Some _ -> 1 in
  List.fold_left (fun acc f -> acc + nnodes_factor f) vc_nodes b.factors

and nnodes_factor = function
  | Unary (_, ws) -> 1 + nnodes_wsum ws
  | Binary (_, a1, a2) -> 1 + nnodes_arg a1 + nnodes_arg a2
  | Lte { test; threshold; less; otherwise } ->
      1 + nnodes_wsum test + nnodes_arg threshold + nnodes_arg less + nnodes_arg otherwise

and nnodes_arg = function Const _ -> 1 | Sum ws -> nnodes_wsum ws

and nnodes_wsum ws =
  List.fold_left (fun acc (_, b) -> acc + 1 + nnodes_basis b) 1 ws.terms

let rec depth_basis b =
  List.fold_left (fun acc f -> max acc (1 + depth_factor f)) 1 b.factors

and depth_factor = function
  | Unary (_, ws) -> depth_wsum ws
  | Binary (_, a1, a2) -> max (depth_arg a1) (depth_arg a2)
  | Lte { test; threshold; less; otherwise } ->
      max
        (max (depth_wsum test) (depth_arg threshold))
        (max (depth_arg less) (depth_arg otherwise))

and depth_arg = function Const _ -> 0 | Sum ws -> depth_wsum ws

and depth_wsum ws = List.fold_left (fun acc (_, b) -> max acc (depth_basis b)) 0 ws.terms

let rec vcs_of_basis b =
  let own = match b.vc with None -> [] | Some exponents -> [ exponents ] in
  own @ List.concat_map vcs_of_factor b.factors

and vcs_of_factor = function
  | Unary (_, ws) -> vcs_of_wsum ws
  | Binary (_, a1, a2) -> vcs_of_arg a1 @ vcs_of_arg a2
  | Lte { test; threshold; less; otherwise } ->
      vcs_of_wsum test @ vcs_of_arg threshold @ vcs_of_arg less @ vcs_of_arg otherwise

and vcs_of_arg = function Const _ -> [] | Sum ws -> vcs_of_wsum ws

and vcs_of_wsum ws = List.concat_map (fun (_, b) -> vcs_of_basis b) ws.terms

let variables_of_basis b =
  let used = Hashtbl.create 8 in
  List.iter
    (fun exponents ->
      Array.iteri (fun i e -> if e <> 0 then Hashtbl.replace used i ()) exponents)
    (vcs_of_basis b);
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) used [])

let rec num_weights_basis b =
  List.fold_left (fun acc f -> acc + num_weights_factor f) 0 b.factors

and num_weights_factor = function
  | Unary (_, ws) -> num_weights_wsum ws
  | Binary (_, a1, a2) -> num_weights_arg a1 + num_weights_arg a2
  | Lte { test; threshold; less; otherwise } ->
      num_weights_wsum test + num_weights_arg threshold + num_weights_arg less
      + num_weights_arg otherwise

and num_weights_arg = function Const _ -> 1 | Sum ws -> num_weights_wsum ws

and num_weights_wsum ws =
  List.fold_left (fun acc (_, b) -> acc + 1 + num_weights_basis b) 1 ws.terms

(* Typed structural equality, weights compared by IEEE bits — the same
   identity [hash_basis] and [Fused]'s node keys hash by, so equal bases
   always hash equal (a weight of [0.] and its [-0.] twin are different
   keys, a NaN weight equals itself).  Physically equal subtrees, the
   common case on a cache hit, answer without a walk. *)
let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

let rec same_ints (x : int array) y i = i = Array.length x || (x.(i) = y.(i) && same_ints x y (i + 1))

let rec equal_basis a b =
  a == b || (equal_vc a.vc b.vc && List.equal equal_factor a.factors b.factors)

and equal_vc a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Array.length x = Array.length y && same_ints x y 0
  | (None | Some _), _ -> false

and equal_factor f g =
  match (f, g) with
  | Unary (o1, w1), Unary (o2, w2) -> o1 = o2 && equal_wsum w1 w2
  | Binary (o1, x1, y1), Binary (o2, x2, y2) -> o1 = o2 && equal_arg x1 x2 && equal_arg y1 y2
  | Lte l1, Lte l2 ->
      equal_wsum l1.test l2.test
      && equal_arg l1.threshold l2.threshold
      && equal_arg l1.less l2.less
      && equal_arg l1.otherwise l2.otherwise
  | (Unary _ | Binary _ | Lte _), _ -> false

and equal_arg x y =
  match (x, y) with
  | Const u, Const v -> same_bits u v
  | Sum u, Sum v -> equal_wsum u v
  | (Const _ | Sum _), _ -> false

and equal_wsum u v =
  u == v
  || (same_bits u.bias v.bias && List.equal equal_term u.terms v.terms)

and equal_term (w1, b1) (w2, b2) = same_bits w1 w2 && equal_basis b1 b2

let compare_basis a b = compare a b

(* --- structural hashing --- *)

(* A fold over every node: unlike [Hashtbl.hash] (which stops after a
   bounded number of meaningful words, so deep bases with a shared prefix
   all collide) this visits the whole tree.  Weights hash by their IEEE
   bits so any weight mutation changes the key. *)

let combine h k = (h * 0x01000193) + k (* FNV-ish multiply-and-add, wraps *)
let combine_float h f = combine h (Int64.to_int (Int64.bits_of_float f))

let rec hash_basis_acc h b =
  let h =
    match b.vc with
    | None -> combine h 0x11
    | Some exponents -> Array.fold_left combine (combine h 0x12) exponents
  in
  combine (List.fold_left hash_factor_acc (combine h 0x13) b.factors) 0x14

and hash_factor_acc h = function
  | Unary (op, ws) -> hash_wsum_acc (combine (combine h 0x21) (Hashtbl.hash op)) ws
  | Binary (op, a1, a2) ->
      hash_arg_acc (hash_arg_acc (combine (combine h 0x22) (Hashtbl.hash op)) a1) a2
  | Lte { test; threshold; less; otherwise } ->
      hash_arg_acc
        (hash_arg_acc (hash_arg_acc (hash_wsum_acc (combine h 0x23) test) threshold) less)
        otherwise

and hash_arg_acc h = function
  | Const w -> combine_float (combine h 0x31) w
  | Sum ws -> hash_wsum_acc (combine h 0x32) ws

and hash_wsum_acc h ws =
  let h = combine_float (combine h 0x41) ws.bias in
  combine (List.fold_left (fun h (w, b) -> hash_basis_acc (combine_float h w) b) h ws.terms) 0x42

let hash_basis b = hash_basis_acc 0x1505 b land max_int

module Key = struct
  type t = basis

  let equal = equal_basis
  let hash = hash_basis
end

module Tbl = Hashtbl.Make (Key)

(* --- validation --- *)

let rec check ~dims b =
  let check_vc exponents =
    if Array.length exponents <> dims then
      Error
        (Printf.sprintf "VC width %d does not match %d design variables"
           (Array.length exponents) dims)
    else if Array.for_all (fun e -> e = 0) exponents then Error "VC with all-zero exponents"
    else Ok ()
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let rec check_list checker = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = checker x in
        check_list checker rest
  in
  let rec check_factor f =
    match f with
    | Unary (_, ws) -> check_wsum ws
    | Binary (_, a1, a2) ->
        let* () = check_arg a1 in
        check_arg a2
    | Lte { test; threshold; less; otherwise } ->
        let* () = check_wsum test in
        let* () = check_arg threshold in
        let* () = check_arg less in
        check_arg otherwise
  and check_arg = function
    | Const w -> if Float.is_finite w then Ok () else Error "non-finite constant"
    | Sum ws -> check_wsum ws
  and check_wsum ws =
    let* () = if Float.is_finite ws.bias then Ok () else Error "non-finite bias" in
    check_list
      (fun (w, basis) ->
        let* () = if Float.is_finite w then Ok () else Error "non-finite term weight" in
        check ~dims basis)
      ws.terms
  in
  let* () =
    if b.vc = None && b.factors = [] then Error "empty basis (no VC, no factors)" else Ok ()
  in
  let* () = match b.vc with None -> Ok () | Some exponents -> check_vc exponents in
  check_list check_factor b.factors

(* --- simplification --- *)

let is_constant_basis b = variables_of_basis b = [] && b.vc = None

let rec simplify_basis b =
  let vc =
    match b.vc with
    | Some exponents when Array.exists (fun e -> e <> 0) exponents -> Some exponents
    | Some _ | None -> None
  in
  let scale = ref 1. in
  let factors =
    List.filter_map
      (fun f ->
        let f = simplify_factor f in
        if factor_is_constant f then begin
          scale := !scale *. eval_factor f [||];
          None
        end
        else Some f)
      b.factors
  in
  let simplified = { vc; factors } in
  if simplified.vc = None && simplified.factors = [] then (!scale, None)
  else (!scale, Some simplified)

and factor_is_constant f =
  match f with
  | Unary (_, ws) -> wsum_is_constant ws
  | Binary (_, a1, a2) -> arg_is_constant a1 && arg_is_constant a2
  | Lte { test; threshold; less; otherwise } ->
      wsum_is_constant test && arg_is_constant threshold && arg_is_constant less
      && arg_is_constant otherwise

and arg_is_constant = function Const _ -> true | Sum ws -> wsum_is_constant ws

and wsum_is_constant ws = List.for_all (fun (_, b) -> is_constant_basis b) ws.terms

and simplify_factor f =
  match f with
  | Unary (op, ws) -> Unary (op, simplify_wsum ws)
  | Binary (op, a1, a2) -> Binary (op, simplify_arg a1, simplify_arg a2)
  | Lte { test; threshold; less; otherwise } ->
      Lte
        {
          test = simplify_wsum test;
          threshold = simplify_arg threshold;
          less = simplify_arg less;
          otherwise = simplify_arg otherwise;
        }

and simplify_arg a =
  match a with
  | Const w -> Const w
  | Sum ws ->
      let ws = simplify_wsum ws in
      if ws.terms = [] then Const ws.bias else Sum ws

and simplify_wsum ws =
  let bias = ref ws.bias in
  let terms =
    List.filter_map
      (fun (w, b) ->
        if w = 0. then None
        else
          let scale, simplified = simplify_basis b in
          match simplified with
          | None ->
              bias := !bias +. (w *. scale);
              None
          | Some basis ->
              let w = w *. scale in
              if w = 0. then None else Some (w, basis))
      ws.terms
  in
  { bias = !bias; terms }

(* --- printing --- *)

let weight_to_string w =
  let rendered = Printf.sprintf "%.4g" w in
  (* "%.4g" may print integers without a decimal marker; keep as-is. *)
  rendered

let var_power var_names i e =
  let name =
    if i < Array.length var_names then var_names.(i) else Printf.sprintf "x%d" i
  in
  if e = 1 then name else Printf.sprintf "%s^%d" name e

let product_group parts =
  match parts with
  | [] -> ""
  | [ single ] -> single
  | _ :: _ :: _ -> "(" ^ String.concat "*" parts ^ ")"

(* A basis renders as an optional numerator / denominator pair so that the
   enclosing weighted term can fold the weight into rational forms the way
   the paper prints them ("22.2 * id2 / vds2"). *)
let rec basis_parts ~var_names b =
  let numerator = ref [] and denominator = ref [] in
  (match b.vc with
  | None -> ()
  | Some exponents ->
      Array.iteri
        (fun i e ->
          if e > 0 then numerator := var_power var_names i e :: !numerator
          else if e < 0 then denominator := var_power var_names i (-e) :: !denominator)
        exponents);
  let numerator = List.rev !numerator and denominator = List.rev !denominator in
  let factor_strings = List.map (factor_to_string ~var_names) b.factors in
  (numerator @ factor_strings, denominator)

and factor_to_string ~var_names f =
  match f with
  | Unary (op, ws) ->
      Printf.sprintf "%s(%s)" (Op.unary_pretty op) (wsum_to_string ~var_names ws)
  | Binary (op, a1, a2) ->
      Printf.sprintf "%s(%s, %s)" (Op.binary_pretty op) (arg_to_string ~var_names a1)
        (arg_to_string ~var_names a2)
  | Lte { test; threshold; less; otherwise } ->
      Printf.sprintf "lte(%s, %s, %s, %s)"
        (wsum_to_string ~var_names test)
        (arg_to_string ~var_names threshold)
        (arg_to_string ~var_names less)
        (arg_to_string ~var_names otherwise)

and arg_to_string ~var_names a =
  match a with
  | Const w -> weight_to_string w
  | Sum ws -> wsum_to_string ~var_names ws

and basis_to_string ~var_names b =
  let numerator, denominator = basis_parts ~var_names b in
  match (numerator, denominator) with
  | [], [] -> "1"
  | num, [] -> String.concat " * " num
  | [], den -> "1 / " ^ product_group den
  | num, den -> product_group num ^ " / " ^ product_group den

and term_to_string ~var_names w b =
  let numerator, denominator = basis_parts ~var_names b in
  let weight = weight_to_string w in
  match (numerator, denominator) with
  | [], [] -> weight
  | num, [] when w = 1. -> product_group num
  | num, [] -> weight ^ " * " ^ product_group num
  | [], den -> weight ^ " / " ^ product_group den
  | num, den when w = 1. -> product_group num ^ " / " ^ product_group den
  | num, den -> weight ^ " * " ^ product_group num ^ " / " ^ product_group den

and wsum_to_string ~var_names ws =
  let buffer = Buffer.create 64 in
  let started = ref false in
  if ws.bias <> 0. || ws.terms = [] then begin
    Buffer.add_string buffer (weight_to_string ws.bias);
    started := true
  end;
  List.iter
    (fun (w, b) ->
      if !started then
        if w < 0. then begin
          Buffer.add_string buffer " - ";
          Buffer.add_string buffer (term_to_string ~var_names (-.w) b)
        end
        else begin
          Buffer.add_string buffer " + ";
          Buffer.add_string buffer (term_to_string ~var_names w b)
        end
      else begin
        Buffer.add_string buffer (term_to_string ~var_names w b);
        started := true
      end)
    ws.terms;
  Buffer.contents buffer
