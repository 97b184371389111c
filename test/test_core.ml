(* Tests for the CAFFEINE core: weight transform, operator sets, random
   generation, variation operators, model fitting, the search loop, and SAG
   post-processing. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Weight = Caffeine.Weight
module Opset = Caffeine.Opset
module Config = Caffeine.Config
module Gen = Caffeine.Gen
module Vary = Caffeine.Vary
module Model = Caffeine.Model
module Search = Caffeine.Search
module Sag = Caffeine.Sag
module Dataset = Caffeine_io.Dataset
module Trace = Caffeine_obs.Trace

(* Column-major view of a row-major sample matrix, for the dataset-taking
   fit/search/SAG entry points. *)
let data_of rows = Dataset.of_rows rows

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Weight --- *)

let test_weight_transform_zero () =
  check_close "raw 0 is value 0" 0. (Weight.value (Weight.of_raw 0.))

let test_weight_transform_range () =
  (* raw = B maps to 10^0 = 1; raw = 2B maps to 10^B; raw -> 0+ maps to
     1e-B. *)
  check_close "raw B -> 1" 1. (Weight.value (Weight.of_raw Weight.bound));
  check_close "raw 2B -> 1e10" 1e10 (Weight.value (Weight.of_raw (2. *. Weight.bound)));
  check_close "raw -B -> -1" (-1.) (Weight.value (Weight.of_raw (-.Weight.bound)));
  check_close ~tol:1e-6 "raw 0.001 small" (10. ** (0.001 -. 10.))
    (Weight.value (Weight.of_raw 0.001))

let test_weight_of_value_roundtrip () =
  List.iter
    (fun v ->
      check_close ~tol:1e-9 ("round-trip " ^ string_of_float v) v
        (Weight.value (Weight.of_value v)))
    [ 1.; -1.; 3.7; -0.002; 1e8; -1e-8; 0. ]

let test_weight_boundary_roundtrip () =
  (* A nonzero value at (or clamped to) the 1e-B magnitude boundary must not
     collapse to raw 0 — [value] reserves that for exact zero.  The raw
     floor keeps the sign, and the boundary round-trips exactly. *)
  Alcotest.(check (float 0.)) "+1e-B exact" 1e-10 (Weight.value (Weight.of_value 1e-10));
  Alcotest.(check (float 0.)) "-1e-B exact" (-1e-10) (Weight.value (Weight.of_value (-1e-10)));
  Alcotest.(check (float 0.)) "sub-boundary clamps, sign kept" (-1e-10)
    (Weight.value (Weight.of_value (-1e-15)));
  Alcotest.(check bool) "nonzero never maps to raw 0" true (Weight.raw (Weight.of_value 1e-15) <> 0.);
  Alcotest.(check (float 0.)) "only zero maps to zero" 0. (Weight.value (Weight.of_value 0.))

let test_weight_clamping () =
  check_close "huge value clamps to 1e10" 1e10 (Weight.value (Weight.of_value 1e15));
  check_close "raw clamp" (2. *. Weight.bound) (Weight.raw (Weight.of_raw 1e9))

let test_weight_random_in_domain () =
  let rng = Rng.create ~seed:1 () in
  for _ = 1 to 1000 do
    let v = Weight.random_value rng in
    let magnitude = Float.abs v in
    Alcotest.(check bool) "in +-[1e-B,1e+B] or 0" true
      (v = 0. || (magnitude >= 1e-10 -. 1e-24 && magnitude <= 1e10 +. 1.))
  done

let test_weight_mutation_moves () =
  let rng = Rng.create ~seed:2 () in
  let start = Weight.of_value 2.5 in
  let moved = ref false in
  for _ = 1 to 20 do
    if Weight.raw (Weight.mutate rng start) <> Weight.raw start then moved := true
  done;
  Alcotest.(check bool) "mutation changes the raw value" true !moved

(* --- Opset --- *)

let test_opset_presets () =
  Alcotest.(check int) "default unary count" 13 (Array.length Opset.default.Opset.unops);
  Alcotest.(check int) "rational has no ops" 0 (Array.length Opset.rational.Opset.unops);
  Alcotest.(check bool) "default is nonlinear" true (Opset.allow_nonlinear Opset.default);
  Alcotest.(check bool) "rational is not" false (Opset.allow_nonlinear Opset.rational);
  Alcotest.(check int) "polynomial min exponent" 0 Opset.polynomial.Opset.min_exponent;
  Alcotest.(check bool) "no_trig drops sin" true
    (not (Array.mem Op.Sin Opset.no_trig.Opset.unops))

let opset_of_names names =
  match Opset.of_names names with Ok opset -> opset | Error msg -> Alcotest.fail msg

let test_opset_of_names () =
  let no_trig = List.filter (fun n -> not (List.mem n [ "SIN"; "COS"; "TAN" ])) Opset.names in
  Alcotest.(check bool) "all names: default" true (opset_of_names Opset.names = Opset.default);
  Alcotest.(check bool) "no-trig names: no_trig" true (opset_of_names no_trig = Opset.no_trig);
  Alcotest.(check bool) "no names: rational" true (opset_of_names [] = Opset.rational);
  Alcotest.(check bool) "reversed and repeated: default" true
    (opset_of_names (List.rev Opset.names @ Opset.names) = Opset.default);
  Alcotest.(check bool) "reversed: no_trig" true
    (opset_of_names (List.rev no_trig) = Opset.no_trig);
  let opset = opset_of_names [ "MIN"; "ABS"; "LTE"; "SQRT"; "ABS"; "DIVIDE" ] in
  Alcotest.(check bool) "unary in Op.all_unary order" true
    (opset.Opset.unops = [| Op.Sqrt; Op.Abs |]);
  Alcotest.(check bool) "binary in Op.all_binary order" true
    (opset.Opset.binops = [| Op.Div; Op.Min |]);
  Alcotest.(check bool) "LTE listed" true opset.Opset.allow_lte;
  List.iter
    (fun (names, token) ->
      match Opset.of_names names with
      | Ok _ -> Alcotest.failf "%S accepted" token
      | Error msg ->
          let prefix = Printf.sprintf "unknown operator %S " token in
          Alcotest.(check string) "names the first unknown token" prefix
            (String.sub msg 0 (min (String.length msg) (String.length prefix))))
    [ ([ "SIN"; "SINN"; "COSS" ], "SINN"); ([ "sin" ], "sin"); ([ "ABS"; "" ], "") ]

let test_opset_exponent_choices () =
  let choices = Opset.exponent_choices Opset.default in
  Alcotest.(check (list int)) "default exponents" [ -2; -1; 1; 2 ]
    (List.sort compare (Array.to_list choices));
  let poly = Opset.exponent_choices Opset.polynomial in
  Alcotest.(check (list int)) "polynomial exponents" [ 1; 2 ]
    (List.sort compare (Array.to_list poly))

(* --- Gen --- *)

let default_config = Config.default
let dims = 5

let test_gen_vc_valid () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 500 do
    let v = Gen.random_vc rng Opset.default ~dims ~max_vars:3 in
    Alcotest.(check int) "width" dims (Array.length v);
    Alcotest.(check bool) "not all zero" true (Array.exists (fun e -> e <> 0) v);
    Array.iter
      (fun e -> Alcotest.(check bool) "exponent range" true (abs e <= 2))
      v
  done

let test_gen_polynomial_opset_nonnegative_exponents () =
  let rng = Rng.create ~seed:4 () in
  for _ = 1 to 300 do
    let v = Gen.random_vc rng Opset.polynomial ~dims ~max_vars:3 in
    Array.iter (fun e -> Alcotest.(check bool) "non-negative" true (e >= 0)) v
  done

let test_gen_individual_bounds () =
  let rng = Rng.create ~seed:5 () in
  for _ = 1 to 100 do
    let ind = Gen.random_individual rng default_config ~dims in
    Alcotest.(check bool) "at least one basis" true (Array.length ind >= 1);
    Alcotest.(check bool) "within max_bases" true
      (Array.length ind <= default_config.Config.max_bases);
    Array.iter
      (fun b ->
        Alcotest.(check bool) "canonical invariants" true (Expr.check ~dims b = Ok ());
        Alcotest.(check bool) "depth bound" true
          (Expr.depth_basis b <= default_config.Config.max_depth))
      ind
  done

(* A fixed-seed check of the property's empty subset below, which the
   property draws only one time in six: under {!Opset.rational} every basis
   is a plain monomial. *)
let test_gen_rational_opset_produces_plain_monomials () =
  let rng = Rng.create ~seed:6 () in
  for _ = 1 to 100 do
    let b = Gen.random_basis rng Opset.rational ~dims ~depth:6 ~max_vc_vars:2 in
    Alcotest.(check bool) "no operator factors" true (b.Expr.factors = [])
  done

(* --- Vary --- *)

let random_parents seed =
  let rng = Rng.create ~seed () in
  let p1 = Gen.random_individual rng default_config ~dims in
  let p2 = Gen.random_individual rng default_config ~dims in
  (rng, p1, p2)

let all_valid individual =
  Array.for_all (fun b -> Expr.check ~dims b = Ok ()) individual

let test_vary_produces_valid_children () =
  let rng, p1, p2 = random_parents 7 in
  for _ = 1 to 500 do
    let child = Vary.vary rng default_config ~dims p1 p2 in
    Alcotest.(check bool) "non-empty" true (Array.length child >= 1);
    Alcotest.(check bool) "within max bases" true
      (Array.length child <= default_config.Config.max_bases);
    Alcotest.(check bool) "canonical invariants hold" true (all_valid child)
  done

let test_crossover_bases_mixes_parents () =
  let rng, p1, p2 = random_parents 8 in
  let child = Vary.crossover_bases rng ~max_bases:15 p1 p2 in
  let from_either b =
    Array.exists (Expr.equal_basis b) p1 || Array.exists (Expr.equal_basis b) p2
  in
  Alcotest.(check bool) "child bases come from parents" true (Array.for_all from_either child)

let test_mutate_weight_changes_exactly_one_site () =
  let rng = Rng.create ~seed:9 () in
  (* Build an individual with several weights. *)
  let opset = Opset.default in
  let b = Gen.random_basis rng opset ~dims ~depth:5 ~max_vc_vars:2 in
  let individual = [| b; b |] in
  let mutated = Vary.mutate_weight rng individual in
  Alcotest.(check bool) "still valid" true (all_valid mutated)

let test_mutate_vc_respects_bounds () =
  let rng, p1, _ = random_parents 10 in
  for _ = 1 to 300 do
    let mutated = Vary.mutate_vc rng Opset.default p1 in
    Array.iter
      (fun b ->
        List.iter
          (fun vc ->
            Alcotest.(check bool) "exponent bound" true
              (Array.for_all (fun e -> e >= -2 && e <= 2) vc);
            Alcotest.(check bool) "not all zero" true (Array.exists (fun e -> e <> 0) vc))
          (Expr.vcs_of_basis b))
      mutated
  done

let test_delete_basis_keeps_one () =
  let rng = Rng.create ~seed:11 () in
  let single = [| Expr.{ vc = Some [| 1; 0; 0; 0; 0 |]; factors = [] } |] in
  let result = Vary.delete_basis rng single in
  Alcotest.(check int) "single basis preserved" 1 (Array.length result)

let test_add_basis_respects_cap () =
  let rng = Rng.create ~seed:12 () in
  let base = Expr.{ vc = Some [| 1; 0; 0; 0; 0 |]; factors = [] } in
  let full = Array.make default_config.Config.max_bases base in
  let result = Vary.add_basis rng default_config ~dims full in
  Alcotest.(check int) "cap respected" default_config.Config.max_bases (Array.length result)

let test_nested_bases_includes_top_level () =
  let _, p1, _ = random_parents 13 in
  let nested = Vary.nested_bases p1 in
  Array.iter
    (fun b ->
      Alcotest.(check bool) "top-level present" true
        (List.exists (Expr.equal_basis b) nested))
    p1

let test_subtree_crossover_valid () =
  let rng, p1, p2 = random_parents 14 in
  for _ = 1 to 200 do
    let child = Vary.subtree_crossover rng p1 p2 in
    Alcotest.(check bool) "valid" true (all_valid child)
  done

(* --- Model --- *)

let simple_inputs = Array.init 40 (fun i -> Array.init dims (fun d -> 1. +. (0.1 *. float_of_int ((i + d) mod 10))))

let test_model_complexity_formula () =
  (* One basis, vc [2,0,0,0,0]: wb + nnodes(=1) + wvc*|2| *)
  let b = Expr.{ vc = Some [| 2; 0; 0; 0; 0 |]; factors = [] } in
  check_close "eq (1)" (10. +. 1. +. (0.25 *. 2.)) (Model.complexity_of ~wb:10. ~wvc:0.25 [| b |])

let test_model_complexity_counts_all_vcs () =
  let inner = Expr.{ vc = Some [| 0; -1; 0; 0; 0 |]; factors = [] } in
  let b =
    Expr.
      {
        vc = Some [| 1; 0; 0; 0; 0 |];
        factors = [ Unary (Op.Inv, { bias = 1.; terms = [ (2., inner) ] }) ];
      }
  in
  (* nnodes: vc(1) + op(1) + bias(1) + weight(1) + inner vc(1) = 5;
     vc cost: 0.25 * (1 + 1) = 0.5; total = 10 + 5 + 0.5. *)
  check_close "nested vc cost" 15.5 (Model.complexity_of ~wb:10. ~wvc:0.25 [| b |])

let test_model_fit_and_predict () =
  let b1 = Expr.{ vc = Some [| 1; 0; 0; 0; 0 |]; factors = [] } in
  let b2 = Expr.{ vc = Some [| 0; 1; 0; 0; 0 |]; factors = [] } in
  let targets = Array.map (fun x -> 2. +. (3. *. x.(0)) -. (1.5 *. x.(1))) simple_inputs in
  match Model.fit ~wb:10. ~wvc:0.25 [| b1; b2 |] ~data:(data_of simple_inputs) ~targets with
  | None -> Alcotest.fail "fit failed"
  | Some m ->
      check_close ~tol:1e-6 "intercept" 2. m.Model.intercept;
      check_close ~tol:1e-6 "w1" 3. m.Model.weights.(0);
      check_close ~tol:1e-6 "w2" (-1.5) m.Model.weights.(1);
      check_close ~tol:1e-6 "zero train error" 0. m.Model.train_error;
      let x = [| 2.; 1.; 1.; 1.; 1. |] in
      check_close ~tol:1e-6 "prediction" 6.5 (Model.predict_point m x)

let test_model_fit_invalid_basis_returns_none () =
  (* ln of a negative-bias constant sum -> nan on all samples. *)
  let bad =
    Expr.{ vc = None; factors = [ Unary (Op.Log_e, { bias = -5.; terms = [] }) ] }
  in
  Alcotest.(check bool) "invalid model rejected" true
    (Model.fit ~wb:10. ~wvc:0.25 [| bad |] ~data:(data_of simple_inputs)
       ~targets:(Array.map (fun _ -> 1.) simple_inputs)
    = None)

let test_model_fit_screens_warmed_nonfinite () =
  (* On chunked storage, where the finite table lives, a Gram pass that
     has screened a basis records its finiteness, so a later fit rejects
     the individual before its Gram pass: no dot-cache lookup at all. *)
  let good = Expr.{ vc = Some [| 1; 0; 0; 0; 0 |]; factors = [] } in
  let bad =
    Expr.{ vc = None; factors = [ Unary (Op.Log_e, { bias = -5.; terms = [] }) ] }
  in
  let columns = Array.init dims (Dataset.column (data_of simple_inputs)) in
  let data = Dataset.chunked_of_columns ~chunk_rows:16 columns in
  ignore (Dataset.gram data [| bad |] ~targets:(Array.map (fun _ -> 1.) simple_inputs));
  let before = (Dataset.stats data).Dataset.dot_misses in
  Alcotest.(check bool) "invalid model rejected" true
    (Model.fit ~wb:10. ~wvc:0.25 [| good; bad |] ~data
       ~targets:(Array.map (fun _ -> 1.) simple_inputs)
    = None);
  Alcotest.(check int) "no product computed" before (Dataset.stats data).Dataset.dot_misses

let test_model_to_string_paper_style () =
  let b = Expr.{ vc = Some [| 1; -1; 0; 0; 0 |]; factors = [] } in
  let m =
    {
      Model.bases = [| b |];
      intercept = 90.5;
      weights = [| 22.2 |];
      train_error = 0.;
      complexity = 0.;
    }
  in
  Alcotest.(check string) "rendering" "90.5 + 22.2 * x0 / x1"
    (Model.to_string ~var_names:[| "x0"; "x1"; "x2"; "x3"; "x4" |] m)

let test_model_simplify_folds_constants () =
  let constant_basis =
    Expr.{ vc = None; factors = [ Unary (Op.Square, { bias = 2.; terms = [] }) ] }
  in
  let live_basis = Expr.{ vc = Some [| 1; 0; 0; 0; 0 |]; factors = [] } in
  let m =
    {
      Model.bases = [| constant_basis; live_basis |];
      intercept = 1.;
      weights = [| 2.; 3. |];
      train_error = 0.;
      complexity = 0.;
    }
  in
  let simplified = Model.simplify ~wb:10. ~wvc:0.25 m in
  Alcotest.(check int) "constant basis folded away" 1 (Array.length simplified.Model.bases);
  (* intercept absorbs 2 * (2^2) = 8. *)
  check_close "intercept updated" 9. simplified.Model.intercept;
  let x = [| 1.7; 1.; 1.; 1.; 1. |] in
  check_close ~tol:1e-9 "same prediction" (Model.predict_point m x)
    (Model.predict_point simplified x)

(* --- Search --- *)

let test_search_recovers_ground_truth () =
  let rng = Rng.create ~seed:15 () in
  let inputs =
    Array.init 80 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.0))
  in
  let targets = Array.map (fun x -> 1. +. (2. *. x.(0) /. x.(1))) inputs in
  let config = Config.scaled ~pop_size:60 ~generations:40 Config.default in
  let outcome = Search.run ~seed:16 config ~data:(data_of inputs) ~targets in
  let best =
    List.fold_left
      (fun acc (m : Model.t) -> Float.min acc m.Model.train_error)
      Float.infinity outcome.Search.front
  in
  Alcotest.(check bool) "near-exact recovery" true (best < 0.01)

let test_search_front_properties () =
  let rng = Rng.create ~seed:17 () in
  let inputs = Array.init 60 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.0)) in
  let targets = Array.map (fun x -> x.(0) +. (x.(1) *. x.(2)) +. (0.3 /. x.(2))) inputs in
  let config = Config.scaled ~pop_size:40 ~generations:25 Config.default in
  let outcome = Search.run ~seed:18 config ~data:(data_of inputs) ~targets in
  let front = outcome.Search.front in
  Alcotest.(check bool) "front non-empty" true (List.length front > 0);
  (* Contains the constant model at complexity 0. *)
  (match front with
  | first :: _ -> check_close "zero-complexity end" 0. first.Model.complexity
  | [] -> Alcotest.fail "empty front");
  (* Sorted by complexity with strictly decreasing error along the front. *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "complexity increases" true
          (a.Model.complexity <= b.Model.complexity);
        Alcotest.(check bool) "error decreases" true
          (b.Model.train_error <= a.Model.train_error);
        check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted front

let test_search_respects_max_bases () =
  let rng = Rng.create ~seed:19 () in
  let inputs = Array.init 50 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.0)) in
  let targets = Array.map (fun x -> sin x.(0) +. (x.(1) *. x.(1)) +. sqrt x.(2)) inputs in
  let config =
    { (Config.scaled ~pop_size:30 ~generations:20 Config.default) with Config.max_bases = 4 }
  in
  let outcome = Search.run ~seed:20 config ~data:(data_of inputs) ~targets in
  List.iter
    (fun (m : Model.t) ->
      Alcotest.(check bool) "max bases respected" true (Model.num_bases m <= 4))
    outcome.Search.front

let test_search_deterministic_given_seed () =
  let inputs = Array.init 30 (fun i -> [| 1. +. (0.05 *. float_of_int i) |]) in
  let targets = Array.map (fun x -> 3. *. x.(0) *. x.(0)) inputs in
  let config = Config.scaled ~pop_size:20 ~generations:10 Config.default in
  let run () =
    let outcome = Search.run ~seed:21 config ~data:(data_of inputs) ~targets in
    List.map (fun (m : Model.t) -> (m.Model.train_error, m.Model.complexity)) outcome.Search.front
  in
  Alcotest.(check bool) "same front twice" true (run () = run ())

let test_search_on_generation_callback () =
  let inputs = Array.init 20 (fun i -> [| 1. +. (0.1 *. float_of_int i) |]) in
  let targets = Array.map (fun x -> x.(0) |> fun v -> v *. 2.) inputs in
  let config = Config.scaled ~pop_size:10 ~generations:5 Config.default in
  let calls = ref 0 in
  let _ =
    Search.run ~seed:22
      ~on_generation:(fun (_ : Caffeine_obs.Trace.generation) -> incr calls)
      config ~data:(data_of inputs) ~targets
  in
  Alcotest.(check bool) "callback invoked per generation" true (!calls >= 5)

(* --- Sag --- *)

let test_sag_prunes_useless_basis () =
  let rng = Rng.create ~seed:23 () in
  let inputs = Array.init 60 (fun _ -> Array.init 2 (fun _ -> Rng.range rng 0.5 2.0)) in
  let targets = Array.map (fun x -> 4. *. x.(0)) inputs in
  let useful = Expr.{ vc = Some [| 1; 0 |]; factors = [] } in
  let useless = Expr.{ vc = Some [| 0; 2 |]; factors = [] } in
  let data = data_of inputs in
  match Model.fit ~wb:10. ~wvc:0.25 [| useful; useless |] ~data ~targets with
  | None -> Alcotest.fail "fit failed"
  | Some m ->
      let simplified = Sag.simplify_model ~wb:10. ~wvc:0.25 m ~data ~targets in
      Alcotest.(check int) "useless basis dropped" 1 (Model.num_bases simplified);
      Alcotest.(check bool) "error stays near zero" true
        (simplified.Model.train_error < 1e-6)

let test_sag_test_tradeoff_is_nondominated () =
  let rng = Rng.create ~seed:24 () in
  let inputs = Array.init 60 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.0)) in
  let targets = Array.map (fun x -> x.(0) +. (0.5 *. x.(1) *. x.(2))) inputs in
  let test_inputs = Array.init 60 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.7 1.8)) in
  let test_targets = Array.map (fun x -> x.(0) +. (0.5 *. x.(1) *. x.(2))) test_inputs in
  let config = Config.scaled ~pop_size:40 ~generations:25 Config.default in
  let outcome = Search.run ~seed:25 config ~data:(data_of inputs) ~targets in
  let scored =
    Sag.test_tradeoff outcome.Search.front ~data:(data_of test_inputs) ~targets:test_targets
  in
  Alcotest.(check bool) "non-empty" true (List.length scored > 0);
  List.iter
    (fun (a : Sag.scored) ->
      List.iter
        (fun (b : Sag.scored) ->
          let dominates =
            b.Sag.test_error <= a.Sag.test_error
            && b.Sag.model.Model.complexity <= a.Sag.model.Model.complexity
            && (b.Sag.test_error < a.Sag.test_error
               || b.Sag.model.Model.complexity < a.Sag.model.Model.complexity)
          in
          Alcotest.(check bool) "mutually nondominated" false dominates)
        scored)
    scored

let test_sag_best_within () =
  let make train test =
    {
      Sag.model =
        {
          Model.bases = [||];
          intercept = 0.;
          weights = [||];
          train_error = train;
          complexity = 0.;
        };
      test_error = test;
    }
  in
  let scored = [ make 0.2 0.05; make 0.05 0.2; make 0.08 0.09 ] in
  (match Sag.best_within scored ~train_cap:0.1 ~test_cap:0.1 with
  | Some s -> check_close "picks the qualifying model" 0.08 s.Sag.model.Model.train_error
  | None -> Alcotest.fail "expected a model");
  Alcotest.(check bool) "none when impossible" true
    (Sag.best_within scored ~train_cap:0.01 ~test_cap:0.01 = None)

let test_sag_at_train_error_fallback () =
  let make train =
    {
      Sag.model =
        {
          Model.bases = [||];
          intercept = 0.;
          weights = [||];
          train_error = train;
          complexity = 0.;
        };
      test_error = 0.;
    }
  in
  let scored = [ make 0.5; make 0.3 ] in
  match Sag.at_train_error scored ~train_cap:0.1 with
  | Some s -> check_close "closest fallback" 0.3 s.Sag.model.Model.train_error
  | None -> Alcotest.fail "expected fallback model"

let test_sag_test_tradeoff_all_nonfinite_fallback () =
  (* Models fitted on x > 0 but tested where a 1/x basis divides by zero:
     every test error is infinite.  The tradeoff must fall back to the
     train-error ordering (and say so on the trace) instead of silently
     returning []. *)
  let train = data_of [| [| 1. |]; [| 2. |]; [| 4. |]; [| 8. |] |] in
  let train_targets = [| 1.; 0.5; 0.25; 0.125 |] in
  let inverse = Expr.{ vc = Some [| -1 |]; factors = [] } in
  let linear = Expr.{ vc = Some [| 1 |]; factors = [] } in
  let fit bases =
    Option.get (Model.fit ~wb:10. ~wvc:0.25 bases ~data:train ~targets:train_targets)
  in
  let front = [ fit [| inverse |]; fit [| inverse; linear |] ] in
  let test_data = data_of [| [| 0. |]; [| 1. |] |] in
  let sink = Trace.memory () in
  let scored = Sag.test_tradeoff ~trace:sink front ~data:test_data ~targets:[| 5.; 1. |] in
  Alcotest.(check int) "whole front kept" 2 (List.length scored);
  List.iter
    (fun (s : Sag.scored) ->
      Alcotest.(check bool) "test error really non-finite" false (Float.is_finite s.Sag.test_error))
    scored;
  (match scored with
  | a :: b :: _ ->
      Alcotest.(check bool) "ordered by train error" true
        (a.Sag.model.Model.train_error <= b.Sag.model.Model.train_error)
  | _ -> ());
  Alcotest.(check bool) "warning surfaced on the trace" true
    (List.exists
       (function
         | Trace.Warning w -> w.Trace.context = "sag.test_tradeoff"
         | _ -> false)
       (Trace.contents sink))

(* --- qcheck properties --- *)

(* The name of every operator factor of a basis, at any depth. *)
let rec operator_names (b : Expr.basis) = List.concat_map factor_names b.Expr.factors

and factor_names = function
  | Expr.Unary (op, ws) -> Op.unary_name op :: wsum_names ws
  | Expr.Binary (op, a1, a2) -> (Op.binary_name op :: arg_names a1) @ arg_names a2
  | Expr.Lte { test; threshold; less; otherwise } ->
      ("LTE" :: wsum_names test) @ arg_names threshold @ arg_names less @ arg_names otherwise

and arg_names = function Expr.Const _ -> [] | Expr.Sum ws -> wsum_names ws
and wsum_names (ws : Expr.wsum) = List.concat_map (fun (_, b) -> operator_names b) ws.Expr.terms

(* A subset of the operator names: one draw in six the empty subset, whose
   bases must all be plain monomials, one in six all of them ({!Opset.default}),
   otherwise each name in or out at even odds. *)
let operator_subset =
  QCheck.make ~print:(fun names -> "[" ^ String.concat "," names ^ "]")
    QCheck.Gen.(
      frequency
        [
          (1, return []);
          (1, return Opset.names);
          ( 4,
            map
              (fun keep -> List.filteri (fun i _ -> List.nth keep i) Opset.names)
              (list_repeat (List.length Opset.names) bool) );
        ])

let property_tests =
  [
    (* Generation and a line of 20 variations under a drawn operator set:
       every basis drawn and every child uses only the listed operators and
       keeps the canonical form. *)
    QCheck.Test.make ~name:"vary preserves canonical invariants" ~count:200
      QCheck.(triple small_int small_int operator_subset)
      (fun (seed1, seed2, names) ->
        let config = { default_config with Config.opset = opset_of_names names } in
        let obeys individual =
          Array.length individual >= 1
          && Array.length individual <= config.Config.max_bases
          && all_valid individual
          && Array.for_all
               (fun b -> List.for_all (fun name -> List.mem name names) (operator_names b))
               individual
        in
        let rng = Rng.create ~seed:(seed1 + 1) () in
        let p1 = Gen.random_individual rng config ~dims in
        let p2 = Gen.random_individual rng config ~dims in
        let child_rng = Rng.create ~seed:(seed2 + 1) () in
        let rec line steps parent donor =
          steps = 0
          ||
          let child = Vary.vary child_rng config ~dims parent donor in
          obeys child && line (steps - 1) child parent
        in
        obeys p1 && obeys p2 && line 20 p1 p2);
    QCheck.Test.make ~name:"weight transform round-trips" ~count:300
      QCheck.(float_range (-20.) 20.)
      (fun raw ->
        let w = Weight.of_raw raw in
        let v = Weight.value w in
        Float.abs (Weight.value (Weight.of_value v) -. v)
        <= 1e-9 *. Float.max 1. (Float.abs v));
    QCheck.Test.make ~name:"interpreted weight round-trips incl. the 1e-B boundary" ~count:300
      (QCheck.make ~print:string_of_float
         (QCheck.Gen.frequency
            [
              (4, QCheck.Gen.float_range (-1e4) 1e4);
              (2, QCheck.Gen.float_range (-1e-9) 1e-9);
              ( 1,
                QCheck.Gen.oneofl
                  [ 1e-10; -1e-10; 1e10; -1e10; 0.; 1e-300; -1e-300; 4e-11; -4e-11 ] );
            ]))
      (fun v ->
        let v' = Weight.value (Weight.of_value v) in
        if v = 0. then v' = 0.
        else
          (* Magnitudes clamp into [1e-B, 1e+B]; within it they round-trip,
             and the sign always survives. *)
          let clamped = Float.min 1e10 (Float.max 1e-10 (Float.abs v)) in
          v' <> 0.
          && Float.sign_bit v' = Float.sign_bit v
          && Float.abs (Float.abs v' -. clamped) <= 1e-9 *. clamped);
    QCheck.Test.make ~name:"complexity is positive and monotone in bases" ~count:100
      QCheck.small_int
      (fun seed ->
        let rng = Rng.create ~seed () in
        let ind = Gen.random_individual rng default_config ~dims in
        let all = Model.complexity_of ~wb:10. ~wvc:0.25 ind in
        let fewer = Model.complexity_of ~wb:10. ~wvc:0.25 (Array.sub ind 0 (Array.length ind - 1)) in
        (Array.length ind = 1 && all > 0.) || (all > fewer && all > 0.));
  ]

let suite =
  [
    Alcotest.test_case "weight: zero" `Quick test_weight_transform_zero;
    Alcotest.test_case "weight: transform range" `Quick test_weight_transform_range;
    Alcotest.test_case "weight: of_value round-trip" `Quick test_weight_of_value_roundtrip;
    Alcotest.test_case "weight: 1e-B boundary round-trip" `Quick test_weight_boundary_roundtrip;
    Alcotest.test_case "weight: clamping" `Quick test_weight_clamping;
    Alcotest.test_case "weight: random domain" `Quick test_weight_random_in_domain;
    Alcotest.test_case "weight: mutation moves" `Quick test_weight_mutation_moves;
    Alcotest.test_case "opset: presets" `Quick test_opset_presets;
    Alcotest.test_case "opset: exponent choices" `Quick test_opset_exponent_choices;
    Alcotest.test_case "opset: of_names" `Quick test_opset_of_names;
    Alcotest.test_case "gen: vc validity" `Quick test_gen_vc_valid;
    Alcotest.test_case "gen: polynomial exponents" `Quick test_gen_polynomial_opset_nonnegative_exponents;
    Alcotest.test_case "gen: individual bounds" `Quick test_gen_individual_bounds;
    Alcotest.test_case "gen: rational monomials" `Quick test_gen_rational_opset_produces_plain_monomials;
    Alcotest.test_case "vary: valid children" `Quick test_vary_produces_valid_children;
    Alcotest.test_case "vary: crossover provenance" `Quick test_crossover_bases_mixes_parents;
    Alcotest.test_case "vary: weight mutation" `Quick test_mutate_weight_changes_exactly_one_site;
    Alcotest.test_case "vary: vc mutation bounds" `Quick test_mutate_vc_respects_bounds;
    Alcotest.test_case "vary: delete keeps one" `Quick test_delete_basis_keeps_one;
    Alcotest.test_case "vary: add respects cap" `Quick test_add_basis_respects_cap;
    Alcotest.test_case "vary: nested bases" `Quick test_nested_bases_includes_top_level;
    Alcotest.test_case "vary: subtree crossover" `Quick test_subtree_crossover_valid;
    Alcotest.test_case "model: complexity eq (1)" `Quick test_model_complexity_formula;
    Alcotest.test_case "model: nested vc cost" `Quick test_model_complexity_counts_all_vcs;
    Alcotest.test_case "model: fit and predict" `Quick test_model_fit_and_predict;
    Alcotest.test_case "model: invalid rejected" `Quick test_model_fit_invalid_basis_returns_none;
    Alcotest.test_case "model: warmed non-finite basis skips the Gram" `Quick
      test_model_fit_screens_warmed_nonfinite;
    Alcotest.test_case "model: paper-style printing" `Quick test_model_to_string_paper_style;
    Alcotest.test_case "model: simplify folds constants" `Quick test_model_simplify_folds_constants;
    Alcotest.test_case "search: ground-truth recovery" `Slow test_search_recovers_ground_truth;
    Alcotest.test_case "search: front properties" `Quick test_search_front_properties;
    Alcotest.test_case "search: max bases" `Quick test_search_respects_max_bases;
    Alcotest.test_case "search: deterministic" `Quick test_search_deterministic_given_seed;
    Alcotest.test_case "search: generation callback" `Quick test_search_on_generation_callback;
    Alcotest.test_case "sag: prunes useless basis" `Quick test_sag_prunes_useless_basis;
    Alcotest.test_case "sag: test tradeoff nondominated" `Quick test_sag_test_tradeoff_is_nondominated;
    Alcotest.test_case "sag: best_within" `Quick test_sag_best_within;
    Alcotest.test_case "sag: at_train_error fallback" `Quick test_sag_at_train_error_fallback;
    Alcotest.test_case "sag: all-non-finite test errors fall back" `Quick
      test_sag_test_tradeoff_all_nonfinite_fallback;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests

(* --- Insight --- *)

module Insight = Caffeine.Insight

let ratio_model =
  (* f = 2 + 3 * x0 / x1 over 5 variables; x2..x4 unused. *)
  let b = Expr.{ vc = Some [| 1; -1; 0; 0; 0 |]; factors = [] } in
  {
    Model.bases = [| b |];
    intercept = 2.;
    weights = [| 3. |];
    train_error = 0.;
    complexity = 0.;
  }

let test_insight_variables_used () =
  Alcotest.(check (list int)) "uses x0 and x1" [ 0; 1 ] (Insight.variables_used ratio_model);
  Alcotest.(check (list int)) "unused are x2..x4" [ 2; 3; 4 ]
    (Insight.unused_variables ~dims:5 ratio_model)

let test_insight_sensitivities () =
  let at = [| 1.; 1.; 1.; 1.; 1. |] in
  (* f = 5 at that point; df/dx0 = 3 -> S0 = 3/5; df/dx1 = -3 -> S1 = -3/5 *)
  let s = Insight.sensitivities ratio_model ~at in
  check_close ~tol:1e-4 "S(x0)" 0.6 s.(0);
  check_close ~tol:1e-4 "S(x1)" (-0.6) s.(1);
  check_close "unused exact zero" 0. s.(2)

let test_insight_dominant_variables () =
  let at = [| 1.; 1.; 1.; 1.; 1. |] in
  match Insight.dominant_variables ~top:1 ratio_model ~at with
  | [ (i, _) ] -> Alcotest.(check bool) "x0 or x1 dominates" true (i = 0 || i = 1)
  | _ -> Alcotest.fail "expected exactly one entry"

let test_insight_usage_along_front () =
  let constant =
    { Model.bases = [||]; intercept = 1.; weights = [||]; train_error = 0.; complexity = 0. }
  in
  let usage = Insight.usage_along_front [ ratio_model; ratio_model; constant ] in
  Alcotest.(check bool) "x0 used twice" true (List.mem (0, 2) usage);
  Alcotest.(check bool) "x1 used twice" true (List.mem (1, 2) usage)

let test_insight_report_readable () =
  let at = [| 1.; 1.; 1.; 1.; 1. |] in
  let text = Insight.report ~var_names:[| "id1"; "vsg1"; "a"; "b"; "c" |] ~at ratio_model in
  Alcotest.(check bool) "mentions id1" true
    (String.length text > 0
    &&
    let re_found = ref false in
    String.iteri
      (fun i _ ->
        if i + 3 <= String.length text && String.sub text i 3 = "id1" then re_found := true)
      text;
    !re_found)

let insight_suite =
  [
    Alcotest.test_case "insight: variables used" `Quick test_insight_variables_used;
    Alcotest.test_case "insight: sensitivities" `Quick test_insight_sensitivities;
    Alcotest.test_case "insight: dominant variables" `Quick test_insight_dominant_variables;
    Alcotest.test_case "insight: front usage" `Quick test_insight_usage_along_front;
    Alcotest.test_case "insight: report" `Quick test_insight_report_readable;
  ]

let suite = suite @ insight_suite

(* --- multi-restart search --- *)

let test_merge_fronts_nondominated () =
  let make err cx =
    { Model.bases = [||]; intercept = 0.; weights = [||]; train_error = err; complexity = cx }
  in
  let front1 = [ make 0.5 0.; make 0.2 10. ] in
  let front2 = [ make 0.4 0.; make 0.2 8.; make 0.1 20. ] in
  let merged = Caffeine.Search.merge_fronts [ front1; front2 ] in
  (* Survivors: (0.4, 0), (0.2, 8), (0.1, 20); (0.5,0) and (0.2,10) dominated. *)
  Alcotest.(check int) "three survivors" 3 (List.length merged);
  Alcotest.(check bool) "sorted by complexity" true
    (List.map (fun (m : Model.t) -> m.Model.complexity) merged = [ 0.; 8.; 20. ])

let test_run_multi_at_least_as_good () =
  let rng = Rng.create ~seed:30 () in
  let inputs = Array.init 40 (fun _ -> Array.init 2 (fun _ -> Rng.range rng 0.5 2.)) in
  let targets = Array.map (fun x -> (x.(0) *. x.(0)) +. (1. /. x.(1))) inputs in
  let config = Config.scaled ~pop_size:20 ~generations:10 Config.default in
  let data = data_of inputs in
  (* Island RNGs are split off the master in island order, so a 3-restart
     run executes a superset of the 1-restart run's islands and its merged
     front can only be at least as good. *)
  let single = Search.run_multi ~seed:31 ~restarts:1 config ~data ~targets in
  let multi = Search.run_multi ~seed:31 ~restarts:3 config ~data ~targets in
  let best outcome =
    List.fold_left (fun acc (m : Model.t) -> Float.min acc m.Model.train_error) Float.infinity
      outcome.Search.front
  in
  Alcotest.(check bool) "multi >= single" true (best multi <= best single +. 1e-12);
  Alcotest.(check bool) "counts generations" true
    (multi.Search.generations_run = 3 * config.Config.generations)

let multi_suite =
  [
    Alcotest.test_case "search: merge fronts" `Quick test_merge_fronts_nondominated;
    Alcotest.test_case "search: multi restart" `Quick test_run_multi_at_least_as_good;
  ]

let suite = suite @ multi_suite

(* --- deeper integration: operator discovery and opset restriction --- *)

let test_search_discovers_transcendental_structure () =
  (* Ground truth needs ln; the search must do much better than any
     rational model of similar size can on this log-dominated target. *)
  let rng = Rng.create ~seed:50 () in
  let inputs = Array.init 100 (fun _ -> [| Rng.range rng 0.2 5.0 |]) in
  let targets = Array.map (fun x -> 2. +. (3. *. log x.(0))) inputs in
  let config = Config.scaled ~pop_size:80 ~generations:60 Config.default in
  let outcome = Search.run ~seed:51 config ~data:(data_of inputs) ~targets in
  let best =
    List.fold_left (fun acc (m : Model.t) -> Float.min acc m.Model.train_error) Float.infinity
      outcome.Search.front
  in
  Alcotest.(check bool) "log structure captured (< 2% error)" true (best < 0.02)

let test_search_with_rational_opset_stays_rational () =
  let rng = Rng.create ~seed:52 () in
  let inputs = Array.init 50 (fun _ -> Array.init 2 (fun _ -> Rng.range rng 0.5 2.) ) in
  let targets = Array.map (fun x -> x.(0) /. x.(1)) inputs in
  let config =
    { (Config.scaled ~pop_size:30 ~generations:20 Config.default) with Config.opset = Opset.rational }
  in
  let outcome = Search.run ~seed:53 config ~data:(data_of inputs) ~targets in
  List.iter
    (fun (m : Model.t) ->
      Array.iter
        (fun b -> Alcotest.(check bool) "no operator factors" true (b.Expr.factors = []))
        m.Model.bases)
    outcome.Search.front;
  let best =
    List.fold_left (fun acc (m : Model.t) -> Float.min acc m.Model.train_error) Float.infinity
      outcome.Search.front
  in
  Alcotest.(check bool) "exact rational recovery" true (best < 1e-6)

let test_search_handles_constant_target () =
  let inputs = Array.init 20 (fun i -> [| 1. +. float_of_int i |]) in
  let targets = Array.map (fun _ -> 42.) inputs in
  let config = Config.scaled ~pop_size:10 ~generations:5 Config.default in
  let outcome = Search.run ~seed:54 config ~data:(data_of inputs) ~targets in
  match outcome.Search.front with
  | first :: _ ->
      check_close "constant recovered" 42. first.Model.intercept;
      check_close "zero error" 0. first.Model.train_error
  | [] -> Alcotest.fail "empty front"

let integration_suite =
  [
    Alcotest.test_case "integration: discovers ln structure" `Slow
      test_search_discovers_transcendental_structure;
    Alcotest.test_case "integration: rational opset respected" `Quick
      test_search_with_rational_opset_stays_rational;
    Alcotest.test_case "integration: constant target" `Quick test_search_handles_constant_target;
  ]

let suite = suite @ integration_suite

(* --- Sobol global sensitivity --- *)

let test_sobol_additive_model () =
  (* f = 2 x0 + x1 over [0,1]^3: Var = 4/12 + 1/12; S0 = 0.8, S1 = 0.2,
     S2 = 0. *)
  let b0 = Expr.{ vc = Some [| 1; 0; 0 |]; factors = [] } in
  let b1 = Expr.{ vc = Some [| 0; 1; 0 |]; factors = [] } in
  let model =
    {
      Model.bases = [| b0; b1 |];
      intercept = 0.;
      weights = [| 2.; 1. |];
      train_error = 0.;
      complexity = 0.;
    }
  in
  let rng = Rng.create ~seed:60 () in
  let indices =
    Caffeine.Insight.sobol_first_order ~samples:4000 rng model ~lo:[| 0.; 0.; 0. |]
      ~hi:[| 1.; 1.; 1. |]
  in
  check_close ~tol:0.08 "S0 near 0.8" 0.8 indices.(0);
  check_close ~tol:0.08 "S1 near 0.2" 0.2 indices.(1);
  Alcotest.(check bool) "unused variable near 0" true (indices.(2) < 0.05)

let test_sobol_constant_model_is_zero () =
  let model =
    { Model.bases = [||]; intercept = 7.; weights = [||]; train_error = 0.; complexity = 0. }
  in
  let rng = Rng.create ~seed:61 () in
  let indices =
    Caffeine.Insight.sobol_first_order ~samples:200 rng model ~lo:[| 0. |] ~hi:[| 1. |]
  in
  check_close "constant model" 0. indices.(0)

let test_sobol_indices_bounded () =
  let rng = Rng.create ~seed:62 () in
  let basis = Gen.random_basis rng Opset.no_trig ~dims:3 ~depth:3 ~max_vc_vars:2 in
  let model =
    { Model.bases = [| basis |]; intercept = 1.; weights = [| 2. |]; train_error = 0.; complexity = 0. }
  in
  let indices =
    Caffeine.Insight.sobol_first_order ~samples:500 rng model ~lo:[| 0.5; 0.5; 0.5 |]
      ~hi:[| 2.; 2.; 2. |]
  in
  Array.iter
    (fun s -> Alcotest.(check bool) "index in [0,1]" true (s >= 0. && s <= 1.))
    indices

let test_sobol_offset_dominated_model () =
  (* Regression: a large intercept must not wash out the indices (the
     uncentered Saltelli estimator's Monte-Carlo error scales with the
     squared mean).  f = 187.4 - 74.14/x0 - 60.05/x1 over +-10% boxes:
     analytic first-order indices are ~0.63 / ~0.37. *)
  let b1 = Expr.{ vc = Some [| -1; 0 |]; factors = [] } in
  let b2 = Expr.{ vc = Some [| 0; -1 |]; factors = [] } in
  let model =
    {
      Model.bases = [| b1; b2 |];
      intercept = 187.4;
      weights = [| -74.14; -60.05 |];
      train_error = 0.;
      complexity = 0.;
    }
  in
  let rng = Rng.create ~seed:63 () in
  let indices =
    Caffeine.Insight.sobol_first_order ~samples:8000 rng model ~lo:[| 0.99; 1.035 |]
      ~hi:[| 1.21; 1.265 |]
  in
  check_close ~tol:0.08 "S0" 0.63 indices.(0);
  check_close ~tol:0.08 "S1" 0.37 indices.(1)

let sobol_suite =
  [
    Alcotest.test_case "sobol: additive model" `Quick test_sobol_additive_model;
    Alcotest.test_case "sobol: constant model" `Quick test_sobol_constant_model_is_zero;
    Alcotest.test_case "sobol: bounded" `Quick test_sobol_indices_bounded;
    Alcotest.test_case "sobol: offset-dominated" `Quick test_sobol_offset_dominated_model;
  ]

let suite = suite @ sobol_suite

(* --- evaluation cache --- *)

module Eval_cache = Caffeine.Eval_cache
module Executor = Caffeine_par.Executor
module Ota = Caffeine_ota.Ota

(* The OTA training DOE (dx 0.10) and its PM targets, simulated once. *)
let ota_pm =
  lazy
    (let doe = Ota.doe_dataset ~dx:0.10 in
     (doe.Ota.inputs, Array.map (Ota.modeling_target Ota.Pm) (Ota.targets doe Ota.Pm)))

(* Whole fronts word for word: every float of every model by its IEEE
   bits, every basis by [Expr.equal_basis]. *)
let same_front a b =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let same_floats x y = Array.length x = Array.length y && Array.for_all2 same_bits x y in
  let same_model (a : Model.t) (b : Model.t) =
    same_bits a.Model.intercept b.Model.intercept
    && same_floats a.Model.weights b.Model.weights
    && same_bits a.Model.train_error b.Model.train_error
    && same_bits a.Model.complexity b.Model.complexity
    && Array.length a.Model.bases = Array.length b.Model.bases
    && Array.for_all2 Expr.equal_basis a.Model.bases b.Model.bases
  in
  List.length a = List.length b && List.for_all2 same_model a b

let test_eval_cache_mode_strings () =
  List.iter
    (fun mode ->
      match Eval_cache.mode_of_string (Eval_cache.mode_to_string mode) with
      | Ok m -> Alcotest.(check bool) "mode round-trips" true (m = mode)
      | Error e -> Alcotest.fail e)
    [ Eval_cache.Off; Eval_cache.Exact ];
  List.iter
    (fun input ->
      match Eval_cache.mode_of_string input with
      | Ok _ -> Alcotest.failf "%s mode accepted" input
      | Error _ -> ())
    [ "bogus"; "behavioral" ]

let cache_inputs seed n dims =
  let rng = Rng.create ~seed () in
  Array.init n (fun _ -> Array.init dims (fun _ -> Rng.range rng 0.5 2.0))

let test_eval_cache_exact_lookup_store () =
  let data = data_of (cache_inputs 60 24 2) in
  let cache = Eval_cache.create ~mode:Eval_cache.Exact ~wb:10. ~wvc:0.25 ~data () in
  let ind = [| Expr.{ vc = Some [| 1; 0 |]; factors = [] } |] in
  Alcotest.(check bool) "cold lookup misses" true (Eval_cache.lookup cache ind = None);
  Eval_cache.store cache ind [| 0.5; 3. |];
  (match Eval_cache.lookup cache ind with
  | Some o -> Alcotest.(check bool) "stored objectives returned" true (o = [| 0.5; 3. |])
  | None -> Alcotest.fail "stored individual not found");
  (* A structurally equal rebuild hits; a different individual misses. *)
  let rebuilt = [| Expr.{ vc = Some [| 1; 0 |]; factors = [] } |] in
  let other = [| Expr.{ vc = Some [| 0; 1 |]; factors = [] } |] in
  Alcotest.(check bool) "structural twin hits" true (Eval_cache.lookup cache rebuilt <> None);
  Alcotest.(check bool) "different individual misses" true (Eval_cache.lookup cache other = None);
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "hits" 2 s.Eval_cache.hits;
  Alcotest.(check int) "misses" 2 s.Eval_cache.misses;
  Alcotest.(check int) "one entry" 1 s.Eval_cache.entries

let test_eval_cache_off_is_inert () =
  let data = data_of (cache_inputs 61 20 2) in
  let cache = Eval_cache.create ~mode:Eval_cache.Off ~wb:10. ~wvc:0.25 ~data () in
  let ind = [| Expr.{ vc = Some [| 1; 0 |]; factors = [] } |] in
  Eval_cache.store cache ind [| 0.5; 3. |];
  Alcotest.(check bool) "off never hits" true (Eval_cache.lookup cache ind = None);
  Alcotest.(check int) "off stores nothing" 0 (Eval_cache.stats cache).Eval_cache.entries

(* The exactness contract, end to end: every cell of {seq, 4 domains,
   3 shards} x {off, exact} evolves the front of the cache-off sequential
   run, model for model and word for word. *)
let front_invariant ~seed config ~inputs ~targets =
  let data = data_of inputs in
  let run backend ?jobs ?shards mode =
    Executor.with_executor ?jobs ?shards backend @@ fun executor ->
    (Search.run ~seed ~executor ~eval_cache:mode config ~data ~targets).Search.front
  in
  let reference = run Executor.Seq Eval_cache.Off in
  List.for_all (same_front reference)
    [
      run Executor.Seq Eval_cache.Exact;
      run Executor.Domains ~jobs:4 Eval_cache.Off;
      run Executor.Domains ~jobs:4 Eval_cache.Exact;
      run Executor.Processes ~shards:3 Eval_cache.Off;
      run Executor.Processes ~shards:3 Eval_cache.Exact;
    ]

let eval_cache_front_invariance =
  QCheck.Test.make ~name:"eval cache never changes the front (any backend)" ~count:3
    QCheck.(int_bound 1000)
    (fun salt ->
      let seed = 700 + salt in
      let inputs = cache_inputs seed 24 2 in
      let targets = Array.map (fun x -> (x.(0) *. x.(0)) +. (0.7 /. x.(1))) inputs in
      front_invariant ~seed (Config.scaled ~pop_size:12 ~generations:6 Config.default) ~inputs
        ~targets)

(* The property's case checks one fixed input first, which its generator
   cannot draw: OTA PM on the paper's configuration at pop 24 x 12, seed 11. *)
let eval_cache_front_invariance_case =
  let name, speed, run = QCheck_alcotest.to_alcotest ~long:false eval_cache_front_invariance in
  ( name,
    speed,
    fun () ->
      let inputs, targets = Lazy.force ota_pm in
      Alcotest.(check bool) "OTA PM, pop 24 x 12, seed 11" true
        (front_invariant ~seed:11
           (Config.scaled ~pop_size:24 ~generations:12 Config.paper)
           ~inputs ~targets);
      run () )

let eval_cache_suite =
  [
    Alcotest.test_case "eval cache: mode strings" `Quick test_eval_cache_mode_strings;
    Alcotest.test_case "eval cache: exact lookup/store" `Quick test_eval_cache_exact_lookup_store;
    Alcotest.test_case "eval cache: off is inert" `Quick test_eval_cache_off_is_inert;
    eval_cache_front_invariance_case;
  ]

let suite = suite @ eval_cache_suite

(* --- Nsga2.run's prepare hint --------------------------------------------- *)

module Nsga2 = Caffeine_evo.Nsga2

(* [Nsga2.run] with the search's closures — initialization, variation, and
   objectives from [Model.fit] — on a fresh dataset, with or without a
   [prepare] that warms each chunk's columns through one fused tape. *)
let nsga2_with_search_closures ~seed ~executor ~eval_cache ~warm =
  let inputs, targets = Lazy.force ota_pm in
  let data = Dataset.of_rows ~var_names:Ota.var_names inputs in
  let config = Config.scaled ~pop_size:30 ~generations:5 Config.default in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let dims = Dataset.dims data in
  let objectives individual =
    match Model.fit ~wb ~wvc individual ~data ~targets with
    | Some m -> [| m.Model.train_error; m.Model.complexity |]
    | None -> [| Float.infinity; Model.complexity_of ~wb ~wvc individual |]
  in
  let cache =
    match eval_cache with
    | Eval_cache.Off -> None
    | mode ->
        let c = Eval_cache.create ~mode ~wb ~wvc ~data () in
        Some { Nsga2.lookup = Eval_cache.lookup c; store = Eval_cache.store c }
  in
  let prepare =
    if warm then
      Some
        (fun (chunk : Expr.basis array array) ->
          let bases = Array.concat (Array.to_list chunk) in
          ignore (Dataset.warm_columns data bases : Dataset.fuse_stats))
    else None
  in
  Nsga2.run ~executor ?cache ?prepare ~rng:(Rng.create ~seed ())
    {
      Nsga2.pop_size = config.Config.pop_size;
      generations = config.Config.generations;
      init = (fun rng -> Gen.random_individual rng config ~dims);
      objectives;
      vary = (fun rng p1 p2 -> Vary.vary rng config ~dims p1 p2);
    }

let same_individual (a : Expr.basis array Nsga2.individual)
    (b : Expr.basis array Nsga2.individual) =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  Array.length a.Nsga2.genome = Array.length b.Nsga2.genome
  && Array.for_all2 Expr.equal_basis a.Nsga2.genome b.Nsga2.genome
  && Array.length a.Nsga2.objectives = Array.length b.Nsga2.objectives
  && Array.for_all2 same_bits a.Nsga2.objectives b.Nsga2.objectives

(* [prepare] is a pure hint: warming a chunk's columns before its fits
   leaves the final population the same, genome for genome and objective
   word for word, on one domain and on two, with the eval cache off and
   exact. *)
let test_nsga2_prepare_is_a_pure_hint () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, run) ->
          List.iter
            (fun eval_cache ->
              let population warm =
                run (fun executor -> nsga2_with_search_closures ~seed ~executor ~eval_cache ~warm)
              in
              let plain = population false and warmed = population true in
              if
                not
                  (Array.length plain = Array.length warmed
                  && Array.for_all2 same_individual plain warmed)
              then
                Alcotest.failf "seed %d, %s, eval cache %s: prepare changed the population" seed
                  name (Eval_cache.mode_to_string eval_cache))
            [ Eval_cache.Off; Eval_cache.Exact ])
        [
          ("sequential", fun f -> f Executor.sequential);
          ("2 domains", fun f -> Executor.with_executor ~jobs:2 Executor.Domains f);
        ])
    [ 3; 17; 101 ]

let suite =
  suite
  @ [
      Alcotest.test_case "nsga2: prepare warming is a pure hint on OTA PM" `Quick
        test_nsga2_prepare_is_a_pure_hint;
    ]
