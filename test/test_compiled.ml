(* Tests for the compiled form of one basis — a one-root fused tape — and
   for the structural hash: the tape agrees with the tree interpreter on
   random bases (including NaN/∞ propagation), at a single sample and as a
   dataset column, and the full structural hash distinguishes deep bases
   that collide under the depth-bounded polymorphic [Hashtbl.hash]. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Fused = Caffeine_expr.Fused
module Dataset = Caffeine_io.Dataset
module Opset = Caffeine.Opset
module Gen = Caffeine.Gen

(* NaN-aware agreement: both NaN, or bitwise-comparable specials, or within
   1e-12 relative tolerance. *)
let agree expected actual =
  if Float.is_nan expected then Float.is_nan actual
  else if Float.is_nan actual then false
  else if expected = actual then true (* covers ±∞ and exact zeros *)
  else Float.abs (expected -. actual) <= 1e-12 *. Float.max 1. (Float.abs expected)

let check_agree msg expected actual =
  if not (agree expected actual) then
    Alcotest.failf "%s: interpreter %.17g, compiled %.17g" msg expected actual

(* The one-root tape at a single sample: each design variable becomes a
   one-sample column. *)
let eval_point basis point =
  (Fused.eval_columns
     (Fused.compile [| basis |])
     ~scratch:(Fused.scratch ())
     ~columns:(Array.map (fun x -> [| x |]) point)
     ~n:1).(0).(0)

(* --- property: compiled = interpreted on random bases ------------------- *)

let random_matrix rng ~n ~dims =
  Array.init n (fun _ ->
      Array.init dims (fun _ ->
          (* Mix benign magnitudes with zeros and negatives so that domain
             errors (ln of negatives, 0^-e, tan poles) actually occur. *)
          match Rng.int rng 8 with
          | 0 -> 0.
          | 1 -> -.Rng.range rng 0.1 3.0
          | _ -> Rng.range rng 0.05 4.0))

let test_random_bases_agree () =
  let rng = Rng.create ~seed:2026 () in
  for trial = 1 to 200 do
    let dims = 1 + Rng.int rng 6 in
    let depth = 2 + Rng.int rng 5 in
    let basis = Gen.random_basis rng Opset.default ~dims ~depth ~max_vc_vars:dims in
    let n = 3 + Rng.int rng 15 in
    let rows = random_matrix rng ~n ~dims in
    (* Point evaluation. *)
    Array.iteri
      (fun i row ->
        check_agree
          (Printf.sprintf "trial %d point %d" trial i)
          (Expr.eval_basis basis row) (eval_point basis row))
      rows;
    (* Column evaluation over the whole matrix. *)
    let data = Dataset.of_rows rows in
    let column = Dataset.basis_column data basis in
    Array.iteri
      (fun i row ->
        check_agree
          (Printf.sprintf "trial %d column %d" trial i)
          (Expr.eval_basis basis row) column.(i))
      rows
  done

(* --- targeted NaN / ∞ cases --------------------------------------------- *)

let vc_basis exponents = Expr.{ vc = Some exponents; factors = [] }

let check_all_evals msg basis point =
  let expected = Expr.eval_basis basis point in
  check_agree (msg ^ " (point)") expected (eval_point basis point);
  let data = Dataset.of_rows [| point |] in
  check_agree (msg ^ " (column)") expected (Dataset.basis_column data basis).(0)

let test_negative_exponent_on_zero () =
  (* x0^-1 at x0 = 0 is nan (int_pow's convention), not an infinity. *)
  check_all_evals "0^-1" (vc_basis [| -1 |]) [| 0. |];
  check_all_evals "0^-3 * x1" (vc_basis [| -3; 1 |]) [| 0.; 2.5 |];
  (* Positive exponents at zero stay finite. *)
  check_all_evals "0^2" (vc_basis [| 2 |]) [| 0. |]

let test_lte_nan_propagation () =
  (* The conditional is NaN-strict in its test and threshold: if either is
     nan the whole factor is nan even when a branch is finite. *)
  let lte ~test_bias ~threshold =
    Expr.
      {
        vc = None;
        factors =
          [
            Lte
              {
                test = { bias = test_bias; terms = [ (1., vc_basis [| 1 |]) ] };
                threshold;
                less = Const 10.;
                otherwise = Const 20.;
              };
          ];
      }
  in
  (* NaN test: x0^-1 at 0 inside the test wsum. *)
  let nan_test =
    Expr.
      {
        vc = None;
        factors =
          [
            Lte
              {
                test = { bias = 0.; terms = [ (1., vc_basis [| -1 |]) ] };
                threshold = Const 1.;
                less = Const 10.;
                otherwise = Const 20.;
              };
          ];
      }
  in
  check_all_evals "nan test" nan_test [| 0. |];
  Alcotest.(check bool) "nan test is nan" true
    (Float.is_nan (Expr.eval_basis nan_test [| 0. |]));
  (* NaN threshold. *)
  let nan_threshold =
    lte ~test_bias:0. ~threshold:(Expr.Sum { bias = 0.; terms = [ (1., vc_basis [| -2 |]) ] })
  in
  check_all_evals "nan threshold" nan_threshold [| 0. |];
  (* Finite case selects per sample: both branches exercised in one column. *)
  let finite = lte ~test_bias:0. ~threshold:(Expr.Const 1.) in
  let rows = [| [| 0.5 |]; [| 3. |]; [| 1. |] |] in
  let column = Dataset.basis_column (Dataset.of_rows rows) finite in
  Array.iteri
    (fun i row -> check_agree (Printf.sprintf "select %d" i) (Expr.eval_basis finite row) column.(i))
    rows

let test_infinity_propagation () =
  (* exp10 of a large sum overflows to +∞; the enclosing product keeps it. *)
  let basis =
    Expr.
      {
        vc = Some [| 1 |];
        factors = [ Unary (Op.Exp10, { bias = 400.; terms = [] }) ];
      }
  in
  check_all_evals "inf product" basis [| 2. |];
  check_all_evals "0 * inf = nan" basis [| 0. |];
  (* ln of a negative constant is nan through any further operator. *)
  let nan_chain =
    Expr.
      {
        vc = None;
        factors =
          [
            Unary
              ( Op.Sqrt,
                {
                  bias = 0.;
                  terms =
                    [
                      ( 1.,
                        {
                          vc = None;
                          factors = [ Unary (Op.Log_e, { bias = -5.; terms = [] }) ];
                        } );
                    ];
                } );
          ];
      }
  in
  check_all_evals "nan chain" nan_chain [| 1. |]

let test_empty_vc_basis () =
  (* vc = None: the implicit leading factor is 1. *)
  let basis =
    Expr.{ vc = None; factors = [ Unary (Op.Square, { bias = 1.5; terms = [] }) ] }
  in
  check_all_evals "no-vc basis" basis [| 7. |];
  (* And with several factors, the product folds left in the same order. *)
  let multi =
    Expr.
      {
        vc = None;
        factors =
          [
            Unary (Op.Abs, { bias = -2.; terms = [] });
            Unary (Op.Inv, { bias = 4.; terms = [ (0.5, vc_basis [| 1 |]) ] });
          ];
      }
  in
  check_all_evals "multi-factor" multi [| 3. |]

(* --- structural hash vs the depth-bounded polymorphic hash -------------- *)

(* A chain of [depth] unary operators around a leaf monomial: deep enough
   that [Hashtbl.hash]'s bounded traversal never reaches the leaf. *)
let deep_chain ~depth leaf_exponent =
  let rec wrap d basis =
    if d = 0 then basis
    else wrap (d - 1) Expr.{ vc = None; factors = [ Unary (Op.Sqrt, { bias = 0.; terms = [ (1., basis) ] }) ] }
  in
  wrap depth (vc_basis [| leaf_exponent |])

let test_structural_hash_beats_polymorphic () =
  let a = deep_chain ~depth:25 1 in
  let b = deep_chain ~depth:25 2 in
  Alcotest.(check bool) "distinct bases" false (Expr.equal_basis a b);
  (* The regression: the polymorphic hash cannot see past its traversal
     bound, so the two deep bases collide... *)
  Alcotest.(check int) "polymorphic hash collides" (Hashtbl.hash a) (Hashtbl.hash b);
  (* ...while the full structural hash separates them. *)
  Alcotest.(check bool) "structural hash separates" false
    (Expr.hash_basis a = Expr.hash_basis b)

let test_hash_respects_equality () =
  let rng = Rng.create ~seed:7 () in
  for _ = 1 to 50 do
    let dims = 1 + Rng.int rng 4 in
    let basis = Gen.random_basis rng Opset.default ~dims ~depth:5 ~max_vc_vars:dims in
    (* Equal bases hash equally, and the hash is non-negative. *)
    let copy = Expr.{ vc = basis.vc; factors = basis.factors } in
    Alcotest.(check int) "hash of equal" (Expr.hash_basis basis) (Expr.hash_basis copy);
    Alcotest.(check bool) "non-negative" true (Expr.hash_basis basis >= 0)
  done;
  (* Weights participate: a mutated inner weight is a different column. *)
  let with_weight w =
    Expr.{ vc = None; factors = [ Unary (Op.Sin, { bias = 0.; terms = [ (w, vc_basis [| 1 |]) ] }) ] }
  in
  Alcotest.(check bool) "weight changes hash" false
    (Expr.hash_basis (with_weight 2.) = Expr.hash_basis (with_weight 2.0000001))

let test_tbl_keys_deep_bases () =
  (* The hash-consing table keeps deep near-identical bases apart. *)
  let tbl = Expr.Tbl.create 16 in
  let a = deep_chain ~depth:25 1 and b = deep_chain ~depth:25 2 in
  Expr.Tbl.replace tbl a 1;
  Expr.Tbl.replace tbl b 2;
  Alcotest.(check int) "two entries" 2 (Expr.Tbl.length tbl);
  Alcotest.(check int) "a" 1 (Expr.Tbl.find tbl a);
  Alcotest.(check int) "b" 2 (Expr.Tbl.find tbl b)

(* --- equality agrees with the hash ---------------------------------------- *)

(* Rebuild a basis node by node, sharing nothing with the original, passing
   every weight through [f]. *)
let rec map_weights f (b : Expr.basis) =
  Expr.{ vc = Option.map Array.copy b.vc; factors = List.map (map_factor f) b.factors }

and map_factor f = function
  | Expr.Unary (op, ws) -> Expr.Unary (op, map_wsum f ws)
  | Expr.Binary (op, x, y) -> Expr.Binary (op, map_arg f x, map_arg f y)
  | Expr.Lte { test; threshold; less; otherwise } ->
      Expr.Lte
        {
          test = map_wsum f test;
          threshold = map_arg f threshold;
          less = map_arg f less;
          otherwise = map_arg f otherwise;
        }

and map_arg f = function
  | Expr.Const w -> Expr.Const (f w)
  | Expr.Sum ws -> Expr.Sum (map_wsum f ws)

and map_wsum f (ws : Expr.wsum) =
  { Expr.bias = f ws.bias; terms = List.map (fun (w, b) -> (f w, map_weights f b)) ws.terms }

(* Every weight of a basis, in traversal order. *)
let weights_of b =
  let acc = ref [] in
  ignore (map_weights (fun w -> acc := w :: !acc; w) b : Expr.basis);
  List.rev !acc

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* w ** x: at odd negative x the sign of a zero weight decides the sign of
   the (infinite) value. *)
let power_of w =
  Expr.
    {
      vc = None;
      factors = [ Binary (Op.Pow, Const w, Sum { bias = 0.; terms = [ (1., vc_basis [| 1 |]) ] }) ];
    }

let test_signed_zero_twins_differ () =
  let pos = power_of 0. and neg = power_of (-0.) in
  Alcotest.(check bool) "0 and -0 twins are different keys" false (Expr.equal_basis pos neg);
  (* The twins share a structural hash (its fold drops the sign bit), so
     only equality keeps them apart: a cache keyed by them must never serve
     one twin's column for the other, and the columns differ in sign. *)
  let data = Dataset.of_columns [| [| -1.; -3. |] |] in
  let pos_col = Array.copy (Dataset.basis_column data pos) in
  let neg_col = Dataset.basis_column data neg in
  Alcotest.(check (array (float 0.))) "+0 column" [| Float.infinity; Float.infinity |] pos_col;
  Alcotest.(check (array (float 0.))) "-0 column" [| Float.neg_infinity; Float.neg_infinity |]
    neg_col

let test_nan_weight_equals_itself () =
  let basis () = power_of Float.nan in
  let b = basis () in
  Alcotest.(check bool) "equal to itself" true (Expr.equal_basis b b);
  Alcotest.(check bool) "equal to a rebuilt copy" true (Expr.equal_basis b (basis ()));
  let tbl = Expr.Tbl.create 4 in
  Expr.Tbl.replace tbl b 1;
  Expr.Tbl.replace tbl (basis ()) 2;
  Alcotest.(check int) "one table entry" 1 (Expr.Tbl.length tbl);
  Alcotest.(check int) "found again" 2 (Expr.Tbl.find tbl (basis ()))

let equality_properties =
  [
    QCheck.Test.make ~name:"equal bases hash equal; weights compare by bits" ~count:500
      QCheck.small_int
      (fun seed ->
        let rng = Rng.create ~seed () in
        let dims = 1 + Rng.int rng 3 in
        let random () = Gen.random_basis rng Opset.default ~dims ~depth:4 ~max_vc_vars:dims in
        let special w =
          if Rng.bernoulli rng 0.6 then w else [| 0.; -0.; Float.nan; Float.infinity |].(Rng.int rng 4)
        in
        let a = map_weights special (random ()) in
        (* A twin differing at most in the sign of zero weights. *)
        let twin = map_weights (fun w -> if w = 0. && Rng.bernoulli rng 0.3 then -.w else w) a in
        let other = random () in
        let implies p q = (not p) || q in
        let hash = Expr.hash_basis in
        Expr.equal_basis a a
        && Expr.equal_basis a (map_weights Fun.id a)
        && Expr.equal_basis a twin = List.for_all2 same_bits (weights_of a) (weights_of twin)
        && implies (Expr.equal_basis a twin) (hash a = hash twin)
        && implies (Expr.equal_basis a other) (hash a = hash other));
  ]

(* --- fold-order fidelity ------------------------------------------------- *)

let test_fold_order_matches_interpreter () =
  (* Products and weighted sums are order-sensitive in floating point; the
     tape must reproduce the interpreter's association exactly, so the
     comparison here is bit-for-bit equality, not a tolerance. *)
  let rng = Rng.create ~seed:99 () in
  for _ = 1 to 100 do
    let dims = 3 in
    let basis = Gen.random_basis rng Opset.default ~dims ~depth:6 ~max_vc_vars:3 in
    let point = Array.init dims (fun _ -> Rng.range rng 0.3 1.7) in
    let expected = Expr.eval_basis basis point in
    let actual = eval_point basis point in
    if Float.is_nan expected then Alcotest.(check bool) "nan" true (Float.is_nan actual)
    else
      Alcotest.(check bool) "bit-identical" true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))
  done

let suite =
  [
    Alcotest.test_case "random bases agree with interpreter" `Quick test_random_bases_agree;
    Alcotest.test_case "negative exponent on zero" `Quick test_negative_exponent_on_zero;
    Alcotest.test_case "Lte NaN propagation" `Quick test_lte_nan_propagation;
    Alcotest.test_case "infinity propagation" `Quick test_infinity_propagation;
    Alcotest.test_case "empty-vc bases" `Quick test_empty_vc_basis;
    Alcotest.test_case "structural hash vs polymorphic collision" `Quick
      test_structural_hash_beats_polymorphic;
    Alcotest.test_case "hash respects equality" `Quick test_hash_respects_equality;
    Alcotest.test_case "hash-consed table separates deep bases" `Quick test_tbl_keys_deep_bases;
    Alcotest.test_case "fold order is bit-identical" `Quick test_fold_order_matches_interpreter;
    Alcotest.test_case "signed-zero weight twins differ" `Quick test_signed_zero_twins_differ;
    Alcotest.test_case "NaN weight equals itself" `Quick test_nan_weight_equals_itself;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) equality_properties
