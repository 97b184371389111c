(* Tests for canonical-form expression trees: evaluation, structural
   measures, validation, simplification, and printing, plus qcheck
   properties over randomly generated grammar-conforming trees. *)

module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Rng = Caffeine_util.Rng

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* handy constructors *)
let vc exponents = { Expr.vc = Some exponents; factors = [] }
let wsum ?(bias = 0.) terms = { Expr.bias; terms }

(* --- int_pow --- *)

let test_int_pow () =
  check_close "x^0" 1. (Expr.int_pow 5. 0);
  check_close "x^3" 8. (Expr.int_pow 2. 3);
  check_close "x^-2" 0.25 (Expr.int_pow 2. (-2));
  check_close "(-2)^3" (-8.) (Expr.int_pow (-2.) 3);
  check_close "(-2)^2" 4. (Expr.int_pow (-2.) 2);
  Alcotest.(check bool) "0^-1 is nan" true (Float.is_nan (Expr.int_pow 0. (-1)))

(* --- ops --- *)

let test_op_safety () =
  Alcotest.(check bool) "sqrt(-1) nan" true (Float.is_nan (Op.apply_unary Op.Sqrt (-1.)));
  Alcotest.(check bool) "ln(0) nan" true (Float.is_nan (Op.apply_unary Op.Log_e 0.));
  Alcotest.(check bool) "log10(-3) nan" true (Float.is_nan (Op.apply_unary Op.Log_10 (-3.)));
  Alcotest.(check bool) "1/0 nan" true (Float.is_nan (Op.apply_unary Op.Inv 0.));
  Alcotest.(check bool) "x/0 nan" true (Float.is_nan (Op.apply_binary Op.Div 1. 0.));
  check_close "max0" 3. (Op.apply_unary Op.Max0 3.);
  check_close "max0 clamps" 0. (Op.apply_unary Op.Max0 (-3.));
  check_close "min0 clamps" (-3.) (Op.apply_unary Op.Min0 (-3.));
  check_close "min0" 0. (Op.apply_unary Op.Min0 3.);
  check_close "exp2" 8. (Op.apply_unary Op.Exp2 3.);
  check_close "exp10" 100. (Op.apply_unary Op.Exp10 2.);
  check_close "pow" 9. (Op.apply_binary Op.Pow 3. 2.);
  check_close "max" 5. (Op.apply_binary Op.Max 5. 2.);
  check_close "min" 2. (Op.apply_binary Op.Min 5. 2.)

let test_op_names_roundtrip () =
  List.iter
    (fun op ->
      match Op.unary_of_name (Op.unary_name op) with
      | Some back -> Alcotest.(check bool) "unary round-trip" true (back = op)
      | None -> Alcotest.fail "unary name not recognized")
    Op.all_unary;
  List.iter
    (fun op ->
      match Op.binary_of_name (Op.binary_name op) with
      | Some back -> Alcotest.(check bool) "binary round-trip" true (back = op)
      | None -> Alcotest.fail "binary name not recognized")
    Op.all_binary

(* --- evaluation --- *)

let test_eval_vc () =
  (* x0 * x2^-2 at (3, 9, 2) = 3/4 *)
  check_close "rational monomial" 0.75 (Expr.eval_vc [| 1; 0; -2 |] [| 3.; 9.; 2. |])

let test_eval_basis_product () =
  (* basis = x0 * ln(1 + 2*x1): at x = (2, 3): 2 * ln(7) *)
  let b =
    {
      Expr.vc = Some [| 1; 0 |];
      factors = [ Expr.Unary (Op.Log_e, wsum ~bias:1. [ (2., vc [| 0; 1 |]) ]) ];
    }
  in
  check_close "product of vc and op" (2. *. log 7.) (Expr.eval_basis b [| 2.; 3. |])

let test_eval_binary_div () =
  (* div(1 + x0, x1) at (3, 8) = 0.5 *)
  let b =
    {
      Expr.vc = None;
      factors =
        [
          Expr.Binary
            (Op.Div, Expr.Sum (wsum ~bias:1. [ (1., vc [| 1; 0 |]) ]), Expr.Const 8.);
        ];
    }
  in
  check_close "division" 0.5 (Expr.eval_basis b [| 3.; 0. |])

let test_eval_lte_branches () =
  let lte threshold =
    {
      Expr.vc = None;
      factors =
        [
          Expr.Lte
            {
              test = wsum ~bias:0. [ (1., vc [| 1 |]) ];
              threshold = Expr.Const threshold;
              less = Expr.Const 10.;
              otherwise = Expr.Const 20.;
            };
        ];
    }
  in
  check_close "below threshold" 10. (Expr.eval_basis (lte 5.) [| 3. |]);
  check_close "above threshold" 20. (Expr.eval_basis (lte 2.) [| 3. |])

let test_eval_nan_propagates () =
  let b = { Expr.vc = None; factors = [ Expr.Unary (Op.Log_e, wsum ~bias:(-1.) []) ] } in
  Alcotest.(check bool) "nan result" true (Float.is_nan (Expr.eval_basis b [| 1. |]))

let test_eval_wsum () =
  let ws = wsum ~bias:2. [ (3., vc [| 1 |]); (-1., vc [| 2 |]) ] in
  (* 2 + 3x - x^2 at x=4: 2 + 12 - 16 = -2 *)
  check_close "weighted sum" (-2.) (Expr.eval_wsum ws [| 4. |])

(* --- structure --- *)

let test_nnodes_counts () =
  Alcotest.(check int) "plain vc" 1 (Expr.nnodes_basis (vc [| 1; 0 |]));
  let b = { Expr.vc = Some [| 1 |]; factors = [ Expr.Unary (Op.Inv, wsum ~bias:1. [ (2., vc [| 1 |]) ]) ] } in
  (* vc(1) + op(1) + bias(1) + term weight(1) + inner vc(1) = 5 *)
  Alcotest.(check int) "nested count" 5 (Expr.nnodes_basis b)

let test_nnodes_subterm_monotone () =
  let inner = wsum ~bias:1. [ (2., vc [| 1 |]) ] in
  let small = { Expr.vc = None; factors = [ Expr.Unary (Op.Inv, inner) ] } in
  let large = { Expr.vc = Some [| 1 |]; factors = [ Expr.Unary (Op.Inv, inner); Expr.Unary (Op.Abs, inner) ] } in
  Alcotest.(check bool) "monotone" true (Expr.nnodes_basis small < Expr.nnodes_basis large)

let test_depth () =
  Alcotest.(check int) "flat" 1 (Expr.depth_basis (vc [| 1 |]));
  let nested =
    {
      Expr.vc = None;
      factors =
        [
          Expr.Unary
            ( Op.Inv,
              wsum ~bias:0.
                [ (1., { Expr.vc = None; factors = [ Expr.Unary (Op.Abs, wsum ~bias:1. [ (1., vc [| 1 |]) ]) ] }) ] );
        ];
    }
  in
  Alcotest.(check bool) "nested deeper" true (Expr.depth_basis nested > 2)

let test_vcs_of_basis () =
  let b =
    {
      Expr.vc = Some [| 1; 0 |];
      factors = [ Expr.Unary (Op.Inv, wsum ~bias:0. [ (1., vc [| 0; -1 |]) ]) ];
    }
  in
  Alcotest.(check int) "two vcs" 2 (List.length (Expr.vcs_of_basis b))

let test_variables_of_basis () =
  let b =
    {
      Expr.vc = Some [| 1; 0; 0 |];
      factors = [ Expr.Unary (Op.Inv, wsum ~bias:0. [ (1., vc [| 0; 0; 2 |]) ]) ];
    }
  in
  Alcotest.(check (list int)) "variables 0 and 2" [ 0; 2 ] (Expr.variables_of_basis b)

(* --- validation --- *)

let test_check_accepts_valid () =
  let b = vc [| 1; -2; 0 |] in
  Alcotest.(check bool) "valid" true (Expr.check ~dims:3 b = Ok ())

let test_check_rejects_bad () =
  let all_zero = vc [| 0; 0 |] in
  Alcotest.(check bool) "all-zero vc" true (Expr.check ~dims:2 all_zero <> Ok ());
  let wrong_width = vc [| 1 |] in
  Alcotest.(check bool) "wrong width" true (Expr.check ~dims:2 wrong_width <> Ok ());
  let empty = { Expr.vc = None; factors = [] } in
  Alcotest.(check bool) "empty basis" true (Expr.check ~dims:2 empty <> Ok ());
  let nan_weight = { Expr.vc = None; factors = [ Expr.Unary (Op.Abs, wsum ~bias:Float.nan []) ] } in
  Alcotest.(check bool) "nan weight" true (Expr.check ~dims:2 nan_weight <> Ok ())

(* --- simplification --- *)

let test_simplify_constant_factor_extracted () =
  (* abs(-3) * x0 simplifies to scale 3, basis x0. *)
  let b =
    { Expr.vc = Some [| 1 |]; factors = [ Expr.Unary (Op.Abs, wsum ~bias:(-3.) []) ] }
  in
  let scale, simplified = Expr.simplify_basis b in
  check_close "scale" 3. scale;
  match simplified with
  | Some s ->
      Alcotest.(check bool) "no factors left" true (s.Expr.factors = []);
      Alcotest.(check bool) "vc kept" true (s.Expr.vc = Some [| 1 |])
  | None -> Alcotest.fail "expected a residual basis"

let test_simplify_pure_constant () =
  let b = { Expr.vc = None; factors = [ Expr.Unary (Op.Square, wsum ~bias:2. []) ] } in
  let scale, simplified = Expr.simplify_basis b in
  check_close "folded" 4. scale;
  Alcotest.(check bool) "fully constant" true (simplified = None)

let test_simplify_drops_zero_weight_terms () =
  let b =
    {
      Expr.vc = None;
      factors =
        [ Expr.Unary (Op.Abs, wsum ~bias:1. [ (0., vc [| 1 |]); (2., vc [| 1 |]) ]) ];
    }
  in
  let _, simplified = Expr.simplify_basis b in
  match simplified with
  | Some { Expr.factors = [ Expr.Unary (_, inner) ]; _ } ->
      Alcotest.(check int) "one term kept" 1 (List.length inner.Expr.terms)
  | Some _ | None -> Alcotest.fail "unexpected shape"

let test_simplify_preserves_value () =
  let rng = Rng.create ~seed:5 () in
  let opset = Caffeine.Opset.default in
  let x = [| 1.7; 0.6; 2.2 |] in
  for _ = 1 to 200 do
    let b = Caffeine.Gen.random_basis rng opset ~dims:3 ~depth:5 ~max_vc_vars:2 in
    let original = Expr.eval_basis b x in
    let scale, simplified = Expr.simplify_basis b in
    let recovered =
      match simplified with None -> scale | Some s -> scale *. Expr.eval_basis s x
    in
    if Float.is_finite original then
      check_close ~tol:1e-6 "simplify preserves value" original recovered
  done

(* --- printing --- *)

let names = [| "id1"; "id2"; "vds2" |]

let test_print_rational () =
  Alcotest.(check string) "ratio" "id2 / vds2" (Expr.basis_to_string ~var_names:names (vc [| 0; 1; -1 |]));
  Alcotest.(check string) "pure denominator" "1 / (id1*vds2)"
    (Expr.basis_to_string ~var_names:names (vc [| -1; 0; -1 |]));
  Alcotest.(check string) "power" "id1^2" (Expr.basis_to_string ~var_names:names (vc [| 2; 0; 0 |]))

let test_print_term_folds_weight () =
  Alcotest.(check string) "weight over denominator" "22.2 / vds2"
    (Expr.term_to_string ~var_names:names 22.2 (vc [| 0; 0; -1 |]));
  Alcotest.(check string) "weight times ratio" "22.2 * id2 / vds2"
    (Expr.term_to_string ~var_names:names 22.2 (vc [| 0; 1; -1 |]))

let test_print_wsum_signs () =
  let ws = wsum ~bias:90.5 [ (186.6, vc [| 1; 0; 0 |]); (-1.14, vc [| -1; 0; 0 |]) ] in
  Alcotest.(check string) "paper style" "90.5 + 186.6 * id1 - 1.14 / id1"
    (Expr.wsum_to_string ~var_names:names ws)

let test_print_unary () =
  let b =
    { Expr.vc = None; factors = [ Expr.Unary (Op.Log_e, wsum ~bias:2. [ (1., vc [| 1; 0; 0 |]) ]) ] }
  in
  Alcotest.(check string) "ln rendering" "ln(2 + id1)" (Expr.basis_to_string ~var_names:names b)

(* --- qcheck properties over generated trees --- *)

let generated_basis =
  let gen =
    QCheck.Gen.map
      (fun (seed, depth) ->
        let rng = Rng.create ~seed () in
        Caffeine.Gen.random_basis rng Caffeine.Opset.default ~dims:4 ~depth ~max_vc_vars:3)
      QCheck.Gen.(pair int (int_range 1 8))
  in
  QCheck.make gen

(* --- array kernels pinned to the scalar operators --- *)

(* The recursive square-and-multiply [Expr.int_pow] used before it became a
   loop: the loop and its column form must reproduce it bit for bit. *)
let reference_int_pow x e =
  if e = 0 then 1.
  else begin
    let negative = e < 0 in
    let exponent = abs e in
    let rec loop acc base e =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then acc *. base else acc in
        loop acc (base *. base) (e lsr 1)
    in
    let power = loop 1. x exponent in
    if negative then if power = 0. then Float.nan else 1. /. power else power
  end

let special_floats =
  [
    0.; -0.; 1.; -1.; 2.; -2.; 0.5; -0.5; 10.; 1e-3; -7.25;
    Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
    Int64.float_of_bits 0x7FF8_0000_0000_0123L (* NaN with a payload *);
    Float.min_float; 4.9e-324; -4.9e-324; 1e-310; -1e-310 (* subnormals *);
    Float.max_float; -.Float.max_float; 1e300; -1e300; 710.; -750.;
  ]

let kernel_input =
  QCheck.Gen.(
    array_size (int_range 0 48)
      (frequency
         [ (3, oneofl special_floats); (3, float_range (-20.) 20.); (1, float) ]))

let print_floats values =
  "[|" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") values)) ^ "|]"

let kernel_arb = QCheck.make ~print:print_floats kernel_input

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let bits_equal expected (actual : float array) =
  Array.for_all2 same_bits expected (Array.sub actual 0 (Array.length expected))

(* A kernel over the first [len] cells leaves the cells past [len] alone. *)
let sentinel = 123.25
let padded (values : float array) = Array.append values [| sentinel; sentinel |]

let tail_untouched len (dst : float array) =
  same_bits dst.(len) sentinel && same_bits dst.(len + 1) sentinel

let unary_kernel_matches src =
  let len = Array.length src in
  List.for_all
    (fun op ->
      let expected = Array.map (Op.apply_unary op) src in
      let dst = padded (Array.make len 0.) in
      Op.unary_into op ~src ~dst ~len;
      let in_place = padded src in
      Op.unary_into op ~src:in_place ~dst:in_place ~len;
      bits_equal expected dst && tail_untouched len dst
      && bits_equal expected in_place && tail_untouched len in_place)
    Op.all_unary

let binary_kernel_matches (a, b) =
  let len = Int.min (Array.length a) (Array.length b) in
  let a = Array.sub a 0 len and b = Array.sub b 0 len in
  List.for_all
    (fun op ->
      let expected = Array.init len (fun j -> Op.apply_binary op a.(j) b.(j)) in
      let dst = padded (Array.make len 0.) in
      Op.binary_into op ~a ~b ~dst ~len;
      (* [dst] aliasing either operand, and both operands one array. *)
      let onto_a = padded a in
      Op.binary_into op ~a:onto_a ~b ~dst:onto_a ~len;
      let onto_b = padded b in
      Op.binary_into op ~a ~b:onto_b ~dst:onto_b ~len;
      let both = padded a in
      Op.binary_into op ~a:both ~b:both ~dst:both ~len;
      bits_equal expected dst && tail_untouched len dst
      && bits_equal expected onto_a && tail_untouched len onto_a
      && bits_equal expected onto_b && tail_untouched len onto_b
      && bits_equal (Array.map (fun x -> Op.apply_binary op x x) a) both
      && tail_untouched len both)
    Op.all_binary

let exponents = List.init 25 (fun i -> i - 12) @ [ 1000; -1000; max_int; min_int ]

let int_pow_matches_reference values =
  let values = Array.append values (Array.of_list special_floats) in
  let len = Array.length values in
  List.for_all
    (fun e ->
      Array.for_all (fun x -> same_bits (reference_int_pow x e) (Expr.int_pow x e)) values
      &&
      (* The column form, reading [src] at an offset and multiplying into
         [dst]; exponent 1 multiplies by the value itself.  [dst.(j)] is
         the product's first operand, whose payload a NaN times a NaN
         keeps. *)
      let src = Array.append [| 3.; -3. |] values in
      let dst = padded (Array.init len (fun j -> values.(len - 1 - j))) in
      let expected =
        Array.init len (fun j ->
            let x = src.(2 + j) in
            dst.(j) *. if e = 1 then x else reference_int_pow x e)
      in
      Expr.mul_int_pow_into ~dst ~src ~off:2 ~e ~len;
      bits_equal expected dst && tail_untouched len dst)
    exponents

let kernel_tests =
  [
    QCheck.Test.make ~name:"unary kernels equal apply_unary bit for bit" ~count:300 kernel_arb
      unary_kernel_matches;
    QCheck.Test.make ~name:"binary kernels equal apply_binary bit for bit" ~count:300
      (QCheck.pair kernel_arb kernel_arb) binary_kernel_matches;
    QCheck.Test.make ~name:"int_pow and its column form equal the recursive reference"
      ~count:100 kernel_arb int_pow_matches_reference;
  ]

let property_tests =
  kernel_tests
  @ [
    QCheck.Test.make ~name:"generated bases satisfy canonical invariants" ~count:300
      generated_basis (fun b -> Expr.check ~dims:4 b = Ok ());
    QCheck.Test.make ~name:"generated bases respect the depth budget" ~count:300
      (QCheck.make
         (QCheck.Gen.map
            (fun (seed, depth) ->
              let rng = Rng.create ~seed () in
              ( depth,
                Caffeine.Gen.random_basis rng Caffeine.Opset.default ~dims:4 ~depth
                  ~max_vc_vars:3 ))
            QCheck.Gen.(pair int (int_range 1 8))))
      (fun (depth, b) -> Expr.depth_basis b <= max 1 depth);
    QCheck.Test.make ~name:"nnodes positive and >= depth" ~count:300 generated_basis (fun b ->
        let nodes = Expr.nnodes_basis b in
        nodes >= 1 || b.Expr.vc = None);
    QCheck.Test.make ~name:"printing never raises and is non-empty" ~count:300 generated_basis
      (fun b ->
        String.length (Expr.basis_to_string ~var_names:[| "a"; "b"; "c"; "d" |] b) > 0);
    QCheck.Test.make ~name:"eval is deterministic" ~count:200 generated_basis (fun b ->
        let x = [| 1.3; 0.7; 2.1; 0.4 |] in
        let v1 = Expr.eval_basis b x and v2 = Expr.eval_basis b x in
        (Float.is_nan v1 && Float.is_nan v2) || v1 = v2);
  ]

let suite =
  [
    Alcotest.test_case "int_pow" `Quick test_int_pow;
    Alcotest.test_case "op safety" `Quick test_op_safety;
    Alcotest.test_case "op name round-trip" `Quick test_op_names_roundtrip;
    Alcotest.test_case "eval: vc" `Quick test_eval_vc;
    Alcotest.test_case "eval: product basis" `Quick test_eval_basis_product;
    Alcotest.test_case "eval: binary div" `Quick test_eval_binary_div;
    Alcotest.test_case "eval: lte branches" `Quick test_eval_lte_branches;
    Alcotest.test_case "eval: nan propagates" `Quick test_eval_nan_propagates;
    Alcotest.test_case "eval: weighted sum" `Quick test_eval_wsum;
    Alcotest.test_case "nnodes: counts" `Quick test_nnodes_counts;
    Alcotest.test_case "nnodes: monotone" `Quick test_nnodes_subterm_monotone;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "vcs_of_basis" `Quick test_vcs_of_basis;
    Alcotest.test_case "variables_of_basis" `Quick test_variables_of_basis;
    Alcotest.test_case "check: valid" `Quick test_check_accepts_valid;
    Alcotest.test_case "check: invalid" `Quick test_check_rejects_bad;
    Alcotest.test_case "simplify: constant factor" `Quick test_simplify_constant_factor_extracted;
    Alcotest.test_case "simplify: pure constant" `Quick test_simplify_pure_constant;
    Alcotest.test_case "simplify: zero-weight terms" `Quick test_simplify_drops_zero_weight_terms;
    Alcotest.test_case "simplify: value-preserving" `Quick test_simplify_preserves_value;
    Alcotest.test_case "print: rational forms" `Quick test_print_rational;
    Alcotest.test_case "print: weight folding" `Quick test_print_term_folds_weight;
    Alcotest.test_case "print: signed sums" `Quick test_print_wsum_signs;
    Alcotest.test_case "print: unary" `Quick test_print_unary;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
