(* Tests for the PRNG and statistics utilities, including qcheck property
   tests on distribution invariants. *)

module Rng = Caffeine_util.Rng
module Stats = Caffeine_util.Stats

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 () in
  let b = Rng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1 () in
  let b = Rng.create ~seed:2 () in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds, different streams" true !differs

let test_rng_copy_independent () =
  let a = Rng.create ~seed:9 () in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check bool) "copy continues identically" true (x = y);
  ignore (Rng.bits64 a);
  let x2 = Rng.bits64 a and y2 = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal draws" true (x2 <> y2 || x2 = y2)

let test_rng_split_differs () =
  let parent = Rng.create ~seed:5 () in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 3)

(* The first draws of three seeds, recorded from an implementation that
   kept the state in four mutable [int64] fields: the stream is part of
   the checkpoint format's contract, so every word must survive any
   change of representation. *)
let pinned_draws =
  [
    ( 0,
      [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L ],
      [ 6; 5; 3 ],
      [ 0x3fdb05837bb4bd52L; 0x3fe12415ac91f861L; 0x3feb60658174ea72L ] );
    ( 7,
      [ 0xb358faf74ef9765aL; 0x475c3d964f482cd2L; 0xd6f1d349952c7996L ],
      [ 1; 3; 10 ],
      [ 0x3faf1ae5852bd8b0L; 0x3fbabc4dcb546f60L; 0x3fd9d653e5b2b220L ] );
    ( 0x5EED,
      [ 0xef33f17055244b74L; 0xe1f591112fb5051bL; 0xd8ab05640214863aL ],
      [ 2; 2; 11 ],
      [ 0x3fd386b2c76f8a22L; 0x3fdb04ff4968c554L; 0x3fe8d072d7748261L ] );
  ]

let test_rng_pinned_stream () =
  let int64_list = Alcotest.(list int64) in
  List.iter
    (fun (seed, bits, ints, uniforms) ->
      let rng = Rng.create ~seed () in
      let draw f = List.map (fun _ -> f rng) bits in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.check int64_list (name "bits64") bits (draw Rng.bits64);
      Alcotest.(check (list int)) (name "int 13") ints (draw (fun r -> Rng.int r 13));
      Alcotest.check int64_list (name "uniform bits") uniforms
        (draw (fun r -> Int64.bits_of_float (Rng.uniform r))))
    pinned_draws

(* A snapshot names each word's place: the seed's state words and the
   draws of a hand-made state are recorded, so a generator that stored or
   read two words in each other's place fails here even where its own
   round trip would still agree with itself. *)
let test_rng_state_round_trip () =
  let rng = Rng.create ~seed:7 () in
  let s = Rng.to_state rng in
  Alcotest.(check (list int64))
    "seed 7 state words"
    [ 0x63cbe1e459320dd7L; 0x44c3cd7f43c661cL; 0xe6984080bab12a02L; 0x953aeb70673e29cbL ]
    [ s.Rng.w0; s.Rng.w1; s.Rng.w2; s.Rng.w3 ];
  let made = Rng.of_state { Rng.w0 = 1L; w1 = 2L; w2 = 3L; w3 = 4L } in
  Alcotest.(check (list int64))
    "draws of state 1 2 3 4" [ 0x2d00L; 0x0L; 0x5a007080L ]
    (List.init 3 (fun _ -> Rng.bits64 made));
  for _ = 1 to 5 do
    ignore (Rng.uniform rng : float)
  done;
  let resumed = Rng.of_state (Rng.to_state rng) in
  for i = 1 to 50 do
    Alcotest.(check int64) (Printf.sprintf "draw %d continues" i) (Rng.bits64 rng)
      (Rng.bits64 resumed)
  done

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:7 () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create ~seed:4 () in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng
  done;
  check_close ~tol:0.01 "mean near 0.5" 0.5 (!sum /. float_of_int n)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:8 () in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng) in
  check_close ~tol:0.02 "mean near 0" 0. (Stats.mean samples);
  check_close ~tol:0.03 "variance near 1" 1. (Stats.variance samples)

let test_rng_cauchy_median () =
  (* The Cauchy has no mean; its median is 0 and quartiles are at +-scale. *)
  let rng = Rng.create ~seed:21 () in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.cauchy rng) in
  check_close ~tol:0.05 "median near 0" 0. (Stats.median samples);
  check_close ~tol:0.08 "upper quartile near 1" 1. (Stats.quantile samples 0.75)

let test_rng_cauchy_heavy_tails () =
  let rng = Rng.create ~seed:22 () in
  let n = 20_000 in
  let extreme = ref 0 in
  for _ = 1 to n do
    if Float.abs (Rng.cauchy rng) > 20. then incr extreme
  done;
  (* P(|X| > 20) ~ 2/(pi*20) ~ 3.2%; a Gaussian would essentially never. *)
  Alcotest.(check bool) "tail mass present" true (!extreme > n / 200)

let test_rng_bernoulli_probability () =
  let rng = Rng.create ~seed:30 () in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close ~tol:0.02 "p near 0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_weighted_index () =
  let rng = Rng.create ~seed:31 () in
  let counts = Array.make 3 0 in
  let weights = [| 1.; 0.; 3. |] in
  for _ = 1 to 40_000 do
    let i = Rng.weighted_index rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never chosen" 0 counts.(1);
  check_close ~tol:0.05 "ratio 3:1" 3.
    (float_of_int counts.(2) /. float_of_int counts.(0))

let test_rng_permutation_is_permutation () =
  let rng = Rng.create ~seed:40 () in
  let p = Rng.permutation rng 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "all values present" true (Array.for_all (fun b -> b) seen)

let test_rng_sample_without_replacement () =
  let rng = Rng.create ~seed:41 () in
  let s = Rng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "ten values" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

let test_rng_shuffle_preserves_elements () =
  let rng = Rng.create ~seed:42 () in
  let xs = Array.init 20 (fun i -> i * i) in
  let shuffled = Array.copy xs in
  Rng.shuffle_in_place rng shuffled;
  Array.sort compare shuffled;
  Alcotest.(check bool) "same multiset" true (shuffled = Array.init 20 (fun i -> i * i))

(* --- Stats --- *)

let test_stats_mean_variance () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_close "mean" 2.5 (Stats.mean xs);
  check_close "population variance" 1.25 (Stats.variance xs);
  check_close "sample variance" (5. /. 3.) (Stats.sample_variance xs)

let test_stats_median_even_odd () =
  check_close "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  check_close "even median" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_quantile_interpolation () =
  let xs = [| 0.; 10. |] in
  check_close "q25" 2.5 (Stats.quantile xs 0.25);
  check_close "q0" 0. (Stats.quantile xs 0.);
  check_close "q1" 10. (Stats.quantile xs 1.)

let test_stats_min_max () =
  let xs = [| 3.; -1.; 7.; 2. |] in
  check_close "min" (-1.) (Stats.min_value xs);
  check_close "max" 7. (Stats.max_value xs)

let test_stats_mse_rmse () =
  let reference = [| 1.; 2.; 3. |] in
  let predicted = [| 1.; 3.; 5. |] in
  check_close "mse" (5. /. 3.) (Stats.mse reference predicted);
  check_close "rmse" (sqrt (5. /. 3.)) (Stats.rmse reference predicted)

let test_stats_normalized_error_perfect_fit () =
  let reference = [| 2.; 4.; 8. |] in
  check_close "zero error" 0. (Stats.normalized_error reference reference)

let test_stats_normalized_error_scale () =
  (* RMS residual 1 against mean magnitude 10 -> 10% error. *)
  let reference = [| 10.; 10.; 10.; 10. |] in
  let predicted = [| 11.; 9.; 11.; 9. |] in
  check_close "10 percent" 0.1 (Stats.normalized_error reference predicted)

let test_stats_nmse_constant_model () =
  let reference = [| 1.; 2.; 3.; 4. |] in
  let mean = Stats.mean reference in
  let predicted = Array.map (fun _ -> mean) reference in
  check_close "nmse of mean model is 1" 1. (Stats.nmse reference predicted);
  check_close "r^2 of mean model is 0" 0. (Stats.r_squared reference predicted)

let test_stats_correlation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  check_close "perfect correlation" 1. (Stats.correlation xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_close "perfect anticorrelation" (-1.) (Stats.correlation xs zs);
  check_close "constant input" 0. (Stats.correlation xs [| 5.; 5.; 5.; 5. |])

let test_stats_is_finite_array () =
  Alcotest.(check bool) "finite" true (Stats.is_finite_array [| 1.; -2.; 0. |]);
  Alcotest.(check bool) "nan" false (Stats.is_finite_array [| 1.; Float.nan |]);
  Alcotest.(check bool) "inf" false (Stats.is_finite_array [| Float.infinity |])

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Stats.mean [||]))

(* --- qcheck properties --- *)

let property_tests =
  let nonempty_floats =
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1000.) 1000.))
  in
  [
    QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
      QCheck.(pair nonempty_floats (pair (float_range 0. 1.) (float_range 0. 1.)))
      (fun (xs, (q1, q2)) ->
        let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
        Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-9);
    QCheck.Test.make ~name:"variance is non-negative" ~count:200 nonempty_floats (fun xs ->
        Stats.variance xs >= 0.);
    QCheck.Test.make ~name:"min <= mean <= max" ~count:200 nonempty_floats (fun xs ->
        Stats.min_value xs <= Stats.mean xs +. 1e-9
        && Stats.mean xs <= Stats.max_value xs +. 1e-9);
    (* The fitness measure reaches every front, so its loops must add in
       the order of the left folds that define it, to the last bit. *)
    QCheck.Test.make ~name:"mean and normalized error are the left-fold values, bit for bit"
      ~count:300 (QCheck.pair nonempty_floats nonempty_floats) (fun (xs, ys) ->
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        let fold_mean v = Array.fold_left ( +. ) 0. v /. float_of_int (Array.length v) in
        let ys = Array.init (Array.length xs) (fun i -> ys.(i mod Array.length ys)) in
        let rms =
          sqrt (fold_mean (Array.mapi (fun i x -> (x -. ys.(i)) *. (x -. ys.(i))) xs))
        in
        let scale = fold_mean (Array.map Float.abs xs) in
        same (Stats.mean xs) (fold_mean xs)
        && same (Stats.normalized_error xs ys) (if scale > 0. then rms /. scale else rms));
    QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed () in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"weight range maps into [lo,hi)" ~count:200
      QCheck.(triple small_int (float_range (-50.) 50.) (float_range 0.001 50.))
      (fun (seed, lo, width) ->
        let rng = Rng.create ~seed () in
        let v = Rng.range rng lo (lo +. width) in
        v >= lo && v < lo +. width);
  ]

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed changes stream" `Quick test_rng_seed_changes_stream;
    Alcotest.test_case "rng: copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng: split" `Quick test_rng_split_differs;
    Alcotest.test_case "rng: pinned stream" `Quick test_rng_pinned_stream;
    Alcotest.test_case "rng: state round trip" `Quick test_rng_state_round_trip;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int bad bound" `Quick test_rng_int_rejects_bad_bound;
    Alcotest.test_case "rng: uniform range" `Quick test_rng_uniform_range;
    Alcotest.test_case "rng: uniform mean" `Quick test_rng_uniform_mean;
    Alcotest.test_case "rng: gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng: cauchy median/quartile" `Quick test_rng_cauchy_median;
    Alcotest.test_case "rng: cauchy heavy tails" `Quick test_rng_cauchy_heavy_tails;
    Alcotest.test_case "rng: bernoulli" `Quick test_rng_bernoulli_probability;
    Alcotest.test_case "rng: weighted index" `Quick test_rng_weighted_index;
    Alcotest.test_case "rng: permutation" `Quick test_rng_permutation_is_permutation;
    Alcotest.test_case "rng: sampling w/o replacement" `Quick test_rng_sample_without_replacement;
    Alcotest.test_case "rng: shuffle" `Quick test_rng_shuffle_preserves_elements;
    Alcotest.test_case "stats: mean/variance" `Quick test_stats_mean_variance;
    Alcotest.test_case "stats: median" `Quick test_stats_median_even_odd;
    Alcotest.test_case "stats: quantile" `Quick test_stats_quantile_interpolation;
    Alcotest.test_case "stats: min/max" `Quick test_stats_min_max;
    Alcotest.test_case "stats: mse/rmse" `Quick test_stats_mse_rmse;
    Alcotest.test_case "stats: normalized error, perfect" `Quick test_stats_normalized_error_perfect_fit;
    Alcotest.test_case "stats: normalized error, scale" `Quick test_stats_normalized_error_scale;
    Alcotest.test_case "stats: nmse of constant" `Quick test_stats_nmse_constant_model;
    Alcotest.test_case "stats: correlation" `Quick test_stats_correlation;
    Alcotest.test_case "stats: finite array" `Quick test_stats_is_finite_array;
    Alcotest.test_case "stats: empty raises" `Quick test_stats_empty_raises;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests

let test_stats_worst_relative_error () =
  let reference = [| 10.; 10.; 10.; 10. |] in
  let predicted = [| 10.; 12.; 9.; 10. |] in
  (* worst |residual| = 2, mean |reference| = 10 -> 0.2 *)
  check_close "worst case" 0.2 (Stats.worst_relative_error reference predicted);
  check_close "perfect fit" 0. (Stats.worst_relative_error reference reference);
  Alcotest.(check bool) "worst >= mean measure" true
    (Stats.worst_relative_error reference predicted
    >= Stats.normalized_error reference predicted)

let suite = suite @ [ Alcotest.test_case "stats: worst relative error" `Quick test_stats_worst_relative_error ]
