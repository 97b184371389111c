let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let require_same_length name xs ys =
  if Array.length xs <> Array.length ys then invalid_arg (name ^ ": length mismatch")

(* Every fitted candidate goes through [mean], [normalized_error] and
   [is_finite_array], so they are written as monomorphic loops: the
   polymorphic [Array] iterators box each float they pass through.  The
   additions happen in the same order as a left fold. *)
let sum xs =
  let acc = ref 0. in
  for i = 0 to Array.length xs - 1 do
    acc := !acc +. xs.(i)
  done;
  !acc

let mean xs =
  require_nonempty "Stats.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let sum_sq_dev xs =
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs

let variance xs =
  require_nonempty "Stats.variance" xs;
  sum_sq_dev xs /. float_of_int (Array.length xs)

let sample_variance xs =
  if Array.length xs < 2 then invalid_arg "Stats.sample_variance: need at least 2 samples";
  sum_sq_dev xs /. float_of_int (Array.length xs - 1)

let stddev xs = sqrt (variance xs)

let min_value xs =
  require_nonempty "Stats.min_value" xs;
  Array.fold_left Float.min xs.(0) xs

let max_value xs =
  require_nonempty "Stats.max_value" xs;
  Array.fold_left Float.max xs.(0) xs

let sorted_copy xs =
  let copy = Array.copy xs in
  Array.sort compare copy;
  copy

let quantile xs q =
  require_nonempty "Stats.quantile" xs;
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0, 1]";
  let sorted = sorted_copy xs in
  let n = Array.length sorted in
  let position = q *. float_of_int (n - 1) in
  let lower = int_of_float (floor position) in
  let upper = int_of_float (ceil position) in
  if lower = upper then sorted.(lower)
  else
    let fraction = position -. float_of_int lower in
    sorted.(lower) +. (fraction *. (sorted.(upper) -. sorted.(lower)))

let median xs = quantile xs 0.5

let mse reference predicted =
  require_nonempty "Stats.mse" reference;
  require_same_length "Stats.mse" reference predicted;
  let n = Array.length reference in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let e = reference.(i) -. predicted.(i) in
    acc := !acc +. (e *. e)
  done;
  !acc /. float_of_int n

let rmse reference predicted = sqrt (mse reference predicted)

(* The sum of |reference| and [mse]'s sum of squared residuals in one
   sweep: two accumulators, each the left fold from +0 its own loop would
   run, so every word is the two-pass value. *)
let normalized_error reference predicted =
  require_nonempty "Stats.mean" reference;
  require_same_length "Stats.mse" reference predicted;
  let n = Array.length reference in
  let abs_sum = ref 0. and sq_sum = ref 0. in
  for i = 0 to n - 1 do
    let y = reference.(i) in
    let e = y -. predicted.(i) in
    abs_sum := !abs_sum +. Float.abs y;
    sq_sum := !sq_sum +. (e *. e)
  done;
  let scale = !abs_sum /. float_of_int n in
  let rms = sqrt (!sq_sum /. float_of_int n) in
  if scale > 0. then rms /. scale else rms

let nmse reference predicted =
  let denom = variance reference in
  let raw = mse reference predicted in
  if denom > 0. then raw /. denom else raw

let r_squared reference predicted = 1. -. nmse reference predicted

let correlation xs ys =
  require_nonempty "Stats.correlation" xs;
  require_same_length "Stats.correlation" xs ys;
  let mx = mean xs and my = mean ys in
  let n = Array.length xs in
  let cov = ref 0. and vx = ref 0. and vy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    cov := !cov +. (dx *. dy);
    vx := !vx +. (dx *. dx);
    vy := !vy +. (dy *. dy)
  done;
  if !vx <= 0. || !vy <= 0. then 0. else !cov /. sqrt (!vx *. !vy)

let rec finite_from xs i = i = Array.length xs || (Float.is_finite xs.(i) && finite_from xs (i + 1))
let is_finite_array xs = finite_from xs 0

let worst_relative_error reference predicted =
  require_nonempty "Stats.worst_relative_error" reference;
  require_same_length "Stats.worst_relative_error" reference predicted;
  let scale = mean (Array.map Float.abs reference) in
  let scale = if scale > 0. then scale else 1. in
  let worst = ref 0. in
  Array.iteri
    (fun i y -> worst := Float.max !worst (Float.abs (y -. predicted.(i)) /. scale))
    reference;
  !worst
