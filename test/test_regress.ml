(* Tests for linear basis weighting, PRESS, and forward regression. *)

module Linfit = Caffeine_regress.Linfit
module Rng = Caffeine_util.Rng

let check_close ?(tol = 1e-7) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_fit_constant () =
  let fitted = Linfit.fit_constant ~targets:[| 2.; 4.; 6. |] in
  check_close "intercept is mean" 4. fitted.Linfit.intercept;
  Alcotest.(check int) "no weights" 0 (Array.length fitted.Linfit.weights)

let test_fit_recovers_linear_combination () =
  let rng = Rng.create ~seed:1 () in
  let n = 50 in
  let col1 = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
  let col2 = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
  let targets = Array.init n (fun i -> 1.5 +. (2. *. col1.(i)) -. (0.7 *. col2.(i))) in
  let fitted = Linfit.fit ~basis_values:[| col1; col2 |] ~targets in
  check_close "intercept" 1.5 fitted.Linfit.intercept;
  check_close "w1" 2. fitted.Linfit.weights.(0);
  check_close "w2" (-0.7) fitted.Linfit.weights.(1);
  check_close "zero training error" 0. fitted.Linfit.train_error

let test_fit_empty_basis_is_constant () =
  let fitted = Linfit.fit ~basis_values:[||] ~targets:[| 1.; 3. |] in
  check_close "mean model" 2. fitted.Linfit.intercept

let test_fit_rejects_nonfinite_columns () =
  Alcotest.(check bool) "nan column rejected" true
    (match Linfit.fit ~basis_values:[| [| 1.; Float.nan |] |] ~targets:[| 1.; 2. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_predict_matches_fit () =
  let col = [| 1.; 2.; 3.; 4. |] in
  let targets = [| 3.; 5.; 7.; 9. |] in
  let fitted = Linfit.fit ~basis_values:[| col |] ~targets in
  let predictions = Linfit.predict fitted ~basis_values:[| [| 10. |] |] in
  check_close "extrapolated" 21. predictions.(0)

let test_press_positive_and_above_rss () =
  (* PRESS is leave-one-out, so it is at least the in-sample RSS. *)
  let rng = Rng.create ~seed:2 () in
  let n = 30 in
  let col = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let targets = Array.init n (fun i -> col.(i) +. Rng.gaussian ~sigma:0.2 rng) in
  let press = Linfit.press ~basis_values:[| col |] ~targets in
  let fitted = Linfit.fit ~basis_values:[| col |] ~targets in
  let rss =
    Array.fold_left ( +. ) 0.
      (Array.mapi
         (fun i p ->
           let e = targets.(i) -. p in
           e *. e)
         fitted.Linfit.predictions)
  in
  Alcotest.(check bool) "press >= rss" true (press >= rss -. 1e-9);
  Alcotest.(check bool) "press positive" true (press > 0.)

let test_press_intercept_only () =
  let targets = [| 1.; 2.; 3. |] in
  (* Leave-one-out for the mean model: prediction of sample i is the mean of
     the others; PRESS shortcut with h = 1/n must agree. *)
  let explicit = ref 0. in
  for i = 0 to 2 do
    let others = List.filteri (fun j _ -> j <> i) (Array.to_list targets) in
    let mean = List.fold_left ( +. ) 0. others /. 2. in
    let e = targets.(i) -. mean in
    explicit := !explicit +. (e *. e)
  done;
  check_close "intercept-only press" !explicit (Linfit.press ~basis_values:[||] ~targets)

let test_forward_select_picks_true_predictors () =
  let rng = Rng.create ~seed:3 () in
  let n = 60 in
  let signal1 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let signal2 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let noise1 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let noise2 = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
  let targets = Array.init n (fun i -> (3. *. signal1.(i)) -. (2. *. signal2.(i))) in
  let chosen =
    Linfit.forward_select ~basis_values:[| noise1; signal1; noise2; signal2 |] ~targets ()
  in
  let chosen = Array.to_list chosen in
  Alcotest.(check bool) "signal 1 selected" true (List.mem 1 chosen);
  Alcotest.(check bool) "signal 2 selected" true (List.mem 3 chosen);
  Alcotest.(check bool) "no more than 3 columns" true (List.length chosen <= 3)

let test_forward_select_respects_max_bases () =
  let rng = Rng.create ~seed:4 () in
  let n = 40 in
  let columns = Array.init 6 (fun _ -> Array.init n (fun _ -> Rng.range rng (-1.) 1.)) in
  let targets =
    Array.init n (fun i ->
        Array.fold_left ( +. ) 0. (Array.map (fun col -> col.(i)) columns))
  in
  let chosen = Linfit.forward_select ~max_bases:2 ~basis_values:columns ~targets () in
  Alcotest.(check bool) "cap respected" true (Array.length chosen <= 2)

let test_forward_select_skips_nonfinite_columns () =
  let good = [| 1.; 2.; 3.; 4. |] in
  let bad = [| 1.; Float.nan; 3.; 4. |] in
  let targets = [| 2.; 4.; 6.; 8. |] in
  let chosen = Linfit.forward_select ~basis_values:[| bad; good |] ~targets () in
  Array.iter (fun i -> Alcotest.(check int) "only the good column" 1 i) chosen

let test_forward_select_stops_on_noise () =
  (* Pure-noise columns should mostly be rejected by the PRESS criterion. *)
  let rng = Rng.create ~seed:5 () in
  let n = 50 in
  let columns = Array.init 5 (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
  let targets = Array.init n (fun _ -> Rng.gaussian rng) in
  let chosen = Linfit.forward_select ~basis_values:columns ~targets () in
  Alcotest.(check bool) "few noise columns admitted" true (Array.length chosen <= 2)

let test_forward_select_names_itself () =
  Alcotest.check_raises "empty targets"
    (Invalid_argument "Linfit.forward_select: no targets")
    (fun () -> ignore (Linfit.forward_select ~basis_values:[||] ~targets:[||] () : int array))

let test_design_matrix_shape () =
  let m = Linfit.design_matrix [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check int) "rows" 2 (Caffeine_linalg.Matrix.rows m);
  Alcotest.(check int) "cols = 1 + k" 3 (Caffeine_linalg.Matrix.cols m);
  Alcotest.(check (float 1e-12)) "ones column" 1. (Caffeine_linalg.Matrix.get m 1 0)

(* Scratch reference for the incremental engine: full Householder
   refactorization per score, as Linfit did before the updatable QR. *)
let reference_forward_select ?max_bases ?(tolerance = 1e-6) ~basis_values ~targets () =
  let module Matrix = Caffeine_linalg.Matrix in
  let module Decomp = Caffeine_linalg.Decomp in
  let total = Array.length basis_values in
  let cap = match max_bases with Some m -> Stdlib.min m total | None -> total in
  let n = Array.length targets in
  let usable = Array.map Caffeine_util.Stats.is_finite_array basis_values in
  let chosen_mask = Array.make total false in
  let chosen = ref [] in
  let chosen_columns = ref [||] in
  let press_of columns =
    let k = Array.length columns in
    let design = Matrix.init n (k + 1) (fun i j -> if j = 0 then 1. else columns.(j - 1).(i)) in
    Decomp.press design targets
  in
  let current_press = ref (Linfit.press ~basis_values:[||] ~targets) in
  let continue = ref true in
  while !continue && List.length !chosen < cap do
    let best = ref None in
    Array.iteri
      (fun candidate column ->
        if usable.(candidate) && not chosen_mask.(candidate) then begin
          let score =
            match press_of (Array.append !chosen_columns [| column |]) with
            | value -> value
            | exception Decomp.Singular -> Float.nan
          in
          if Float.is_finite score then
            match !best with
            | Some (_, best_score) when best_score <= score -> ()
            | Some _ | None -> best := Some (candidate, score)
        end)
      basis_values;
    match !best with
    | Some (candidate, score) when score < !current_press *. (1. -. tolerance) ->
        chosen_mask.(candidate) <- true;
        chosen := candidate :: !chosen;
        chosen_columns := Array.append !chosen_columns [| basis_values.(candidate) |];
        current_press := score
    | Some _ | None -> continue := false
  done;
  Array.of_list (List.rev !chosen)

let rel_vec_close tol a b =
  let norm v = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v) in
  Array.length a = Array.length b
  &&
  let d = Array.mapi (fun i x -> x -. b.(i)) a in
  norm d <= tol *. Float.max 1. (Float.max (norm a) (norm b))

(* A finite design made rank-deficient on purpose: one column is a copy,
   a multiple or a constant (a multiple of the ones column) of another
   column, or all zeros; entries elsewhere include exact zeros of both
   signs. *)
let rank_deficient_case ~seed =
  let rng = Rng.create ~seed () in
  let n = 2 + Rng.int rng 30 and k = 2 + Rng.int rng 4 in
  let entry () =
    match Rng.int rng 4 with 0 -> 0. | 1 -> -0. | _ -> Rng.range rng (-2.) 2.
  in
  let columns = Array.init k (fun _ -> Array.init n (fun _ -> entry ())) in
  let src = Rng.int rng k in
  let dst = (src + 1 + Rng.int rng (k - 1)) mod k in
  columns.(dst) <-
    (match Rng.int rng 4 with
    | 0 -> Array.copy columns.(src)
    | 1 ->
        let c = Rng.choose rng [| 2.; -0.5; 3. |] in
        Array.map (fun x -> c *. x) columns.(src)
    | 2 -> Array.make n (Rng.range rng (-2.) 2.)
    | _ -> Array.init n (fun _ -> if Rng.bool rng then 0. else -0.));
  (columns, Array.init n (fun _ -> Rng.range rng (-3.) 3.))

(* Row-order sums from +0, the products [Dataset.gram] hands over. *)
let row_dot a b =
  let acc = ref 0. in
  for r = 0 to Array.length a - 1 do
    acc := !acc +. (a.(r) *. b.(r))
  done;
  !acc

let same_fit (a : Linfit.t) (b : Linfit.t) =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let arr_eq x y = Array.length x = Array.length y && Array.for_all2 feq x y in
  feq a.Linfit.intercept b.Linfit.intercept
  && arr_eq a.Linfit.weights b.Linfit.weights
  && arr_eq a.Linfit.predictions b.Linfit.predictions
  && feq a.Linfit.train_error b.Linfit.train_error

let gram_fallbacks =
  Caffeine_obs.Metrics.(counter default "linfit.gram_fallbacks")

let property_tests =
  [
    QCheck.Test.make ~name:"fit residual error is within [0, constant-model error]" ~count:100
      QCheck.(pair small_int (int_range 5 40))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let col = Array.init n (fun _ -> Rng.range rng (-2.) 2.) in
        let targets = Array.init n (fun _ -> Rng.range rng 1. 3.) in
        let fitted = Linfit.fit ~basis_values:[| col |] ~targets in
        let constant = Linfit.fit_constant ~targets in
        fitted.Linfit.train_error >= -1e-12
        && fitted.Linfit.train_error <= constant.Linfit.train_error +. 1e-9);
    QCheck.Test.make ~name:"fit agrees with scratch lstsq within 1e-8" ~count:200
      QCheck.(triple small_int (int_range 10 40) (int_range 1 5))
      (fun (seed, n, k) ->
        let rng = Rng.create ~seed () in
        let columns = Array.init k (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        let fitted = Linfit.fit ~basis_values:columns ~targets in
        let coeffs =
          Caffeine_linalg.Decomp.lstsq (Linfit.design_matrix columns) targets
        in
        rel_vec_close 1e-8
          (Array.append [| fitted.Linfit.intercept |] fitted.Linfit.weights)
          coeffs);
    QCheck.Test.make ~name:"fit_gram agrees with the QR fit" ~count:200
      QCheck.(triple small_int (int_range 10 40) (int_range 1 5))
      (fun (seed, n, k) ->
        let rng = Rng.create ~seed () in
        let columns = Array.init k (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        let dot_cols a b = Array.fold_left ( +. ) 0. (Array.mapi (fun i x -> x *. b.(i)) a) in
        let gram =
          Linfit.fit_gram
            ~dot:(fun i j -> dot_cols columns.(i) columns.(j))
            ~dot_y:(fun i -> dot_cols columns.(i) targets)
            ~col_sum:(fun i -> Array.fold_left ( +. ) 0. columns.(i))
            ~basis_values:columns ~targets
        in
        let fitted = Linfit.fit ~basis_values:columns ~targets in
        rel_vec_close 1e-8
          (Array.append [| gram.Linfit.intercept |] gram.Linfit.weights)
          (Array.append [| fitted.Linfit.intercept |] fitted.Linfit.weights)
        && rel_vec_close 1e-8 gram.Linfit.predictions fitted.Linfit.predictions);
    QCheck.Test.make ~name:"forward_select matches the scratch reference replay" ~count:60
      QCheck.(pair small_int (int_range 20 40))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let total = 12 in
        let columns =
          Array.init total (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.))
        in
        let targets =
          Array.init n (fun i ->
              (2. *. columns.(1).(i)) -. columns.(4).(i) +. Rng.gaussian ~sigma:0.3 rng)
        in
        Linfit.forward_select ~max_bases:5 ~basis_values:columns ~targets ()
        = reference_forward_select ~max_bases:5 ~basis_values:columns ~targets ());
    QCheck.Test.make ~name:"fit_stream fallback equals fit word for word on rank-deficient designs"
      ~count:300 QCheck.small_int (fun seed ->
        let columns, targets = rank_deficient_case ~seed in
        let k = Array.length columns and n = Array.length targets in
        let before = Caffeine_obs.Metrics.counter_value gram_fallbacks in
        let streamed =
          Linfit.fit_stream
            ~dot:(fun i j -> row_dot columns.(i) columns.(j))
            ~dot_y:(fun i -> row_dot columns.(i) targets)
            ~col_sum:(fun i -> Array.fold_left ( +. ) 0. columns.(i))
            ~k ~n
            ~iter:(fun f -> f ~row0:0 ~len:n columns)
            ~targets
        in
        Caffeine_obs.Metrics.counter_value gram_fallbacks = before + 1
        && same_fit streamed (Linfit.fit ~basis_values:columns ~targets));
  ]

let suite =
  [
    Alcotest.test_case "constant fit" `Quick test_fit_constant;
    Alcotest.test_case "recovers linear combination" `Quick test_fit_recovers_linear_combination;
    Alcotest.test_case "empty basis" `Quick test_fit_empty_basis_is_constant;
    Alcotest.test_case "non-finite rejected" `Quick test_fit_rejects_nonfinite_columns;
    Alcotest.test_case "predict on new data" `Quick test_predict_matches_fit;
    Alcotest.test_case "press >= rss" `Quick test_press_positive_and_above_rss;
    Alcotest.test_case "press intercept-only" `Quick test_press_intercept_only;
    Alcotest.test_case "forward select: true predictors" `Quick test_forward_select_picks_true_predictors;
    Alcotest.test_case "forward select: cap" `Quick test_forward_select_respects_max_bases;
    Alcotest.test_case "forward select: non-finite" `Quick test_forward_select_skips_nonfinite_columns;
    Alcotest.test_case "forward select: noise rejected" `Quick test_forward_select_stops_on_noise;
    Alcotest.test_case "forward select: error names it" `Quick test_forward_select_names_itself;
    Alcotest.test_case "design matrix shape" `Quick test_design_matrix_shape;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
