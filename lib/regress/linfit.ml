module Matrix = Caffeine_linalg.Matrix
module Decomp = Caffeine_linalg.Decomp
module Qr_update = Caffeine_linalg.Qr_update
module Stats = Caffeine_util.Stats
module Metrics = Caffeine_obs.Metrics

(* Eager handles into the default registry (module initialization runs on
   the main domain; the updates themselves are atomic and fire from pool
   workers).  The fallback counters are the interesting ones: they count
   how often the fast incremental/Gram paths gave up and refactorized. *)
let m_fits = Metrics.counter Metrics.default "linfit.fits"
let m_qr_fallbacks = Metrics.counter Metrics.default "linfit.qr_fallbacks"
let m_gram_fits = Metrics.counter Metrics.default "linfit.gram_fits"
let m_gram_fallbacks = Metrics.counter Metrics.default "linfit.gram_fallbacks"
let m_forward_rounds = Metrics.counter Metrics.default "linfit.forward_rounds"

type t = {
  intercept : float;
  weights : float array;
  predictions : float array;
  train_error : float;
}

let check_columns name columns =
  let k = Array.length columns in
  if k = 0 then invalid_arg (name ^ ": no columns");
  let n = Array.length columns.(0) in
  if n = 0 then invalid_arg (name ^ ": empty columns");
  Array.iter
    (fun col ->
      if Array.length col <> n then invalid_arg (name ^ ": ragged columns");
      if not (Stats.is_finite_array col) then invalid_arg (name ^ ": non-finite basis values"))
    columns;
  n

(* The design [ones | columns] of [n]-row columns a caller has checked,
   filled column by column straight into the row-major data, with no
   closure call per element and no second scan. *)
let fill_design n columns =
  let dim = Array.length columns + 1 in
  let design = Matrix.create n dim in
  let d = design.data in
  for i = 0 to n - 1 do
    d.(i * dim) <- 1.
  done;
  Array.iteri
    (fun j col ->
      for i = 0 to n - 1 do
        d.((i * dim) + j + 1) <- col.(i)
      done)
    columns;
  design

let design_matrix columns = fill_design (check_columns "Linfit.design_matrix" columns) columns

let fit_constant ~targets =
  if Array.length targets = 0 then invalid_arg "Linfit.fit_constant: no targets";
  let intercept = Stats.mean targets in
  let predictions = Array.map (fun _ -> intercept) targets in
  {
    intercept;
    weights = [||];
    predictions;
    train_error = Stats.normalized_error targets predictions;
  }

(* Updatable factorization of [ones | columns]; [None] when any column is
   numerically dependent on the ones appended before it — exactly the cases
   where the scratch path falls back to ridge regression, which the callers
   below reproduce by refactorizing with [Decomp]. *)
let incremental_design columns targets =
  let n = Array.length targets in
  let qr = Qr_update.create targets in
  if not (Qr_update.append qr (Array.make n 1.)) then None
  else
    let rec add j =
      if j >= Array.length columns then Some qr
      else if Qr_update.append qr columns.(j) then add (j + 1)
      else None
    in
    add 0

let finish ~targets coeffs predictions =
  {
    intercept = coeffs.(0);
    weights = Array.sub coeffs 1 (Array.length coeffs - 1);
    predictions;
    train_error = Stats.normalized_error targets predictions;
  }

let rec all_zero (col : float array) i = i = Array.length col || (col.(i) = 0. && all_zero col (i + 1))

let sum_squares (col : float array) =
  let acc = ref 0. in
  for i = 0 to Array.length col - 1 do
    acc := !acc +. (col.(i) *. col.(i))
  done;
  !acc

(* Whether both rank decisions are already known to fail: some column is
   all zero (±0) and no column's sum of squares overflows.  Then the
   incremental design returns [None]: if no earlier column was rejected,
   the zero column is, because the ones column went first and set
   [max_diag] to √n, every committed column has a finite [q] (a finite
   column norm bounds every projection), so each of the zero column's
   projections is +0, its remainder stays zero and [dependent] holds.
   And Householder leaves the zero column zero (each reflection's dot with
   it is +0, so the factor is 0; a reflector gone non-finite would make
   it NaN instead), builds no reflector at its step, and so leaves an R
   pivot of ±0 or NaN, which [full_rank] never counts.  Both therefore end
   in {!Decomp.lstsq}'s ridge branch.  The norm check keeps the argument
   in finite arithmetic: a column near the float limit can turn CGS2's
   projections into NaNs, after which it commits every column, and
   although the ridge then ends in NaNs as well, nothing here proves the
   words agree. *)
let ridge_is_forced columns =
  Array.exists (fun col -> all_zero col 0) columns
  && Array.for_all (fun col -> Float.is_finite (sum_squares col)) columns

(* The QR fit of checked [n]-row columns.  [normal] is the design's aᵀa
   and aᵀy when the caller already holds them, for the ridge solve.  When
   the ridge is forced, neither factorization runs; the counters move as
   they would have. *)
let qr_fit ?normal ~n ~basis_values ~targets () =
  Metrics.incr m_fits;
  let forced = ridge_is_forced basis_values in
  match if forced then None else incremental_design basis_values targets with
  | Some qr -> finish ~targets (Qr_update.coefficients qr) (Qr_update.predictions qr)
  | None ->
      Metrics.incr m_qr_fallbacks;
      let design = fill_design n basis_values in
      let coeffs =
        match normal with
        | Some (ata, atb) when forced -> Decomp.lstsq_ridge ~ata ~atb design targets
        | None when forced -> Decomp.lstsq_ridge design targets
        | Some (ata, atb) -> Decomp.lstsq_normal ~ata ~atb design targets
        | None -> Decomp.lstsq design targets
      in
      finish ~targets coeffs (Matrix.mul_vec design coeffs)

let fit ~basis_values ~targets =
  if Array.length basis_values = 0 then fit_constant ~targets
  else begin
    let n = check_columns "Linfit.fit" basis_values in
    if n <> Array.length targets then invalid_arg "Linfit.fit: sample count mismatch";
    qr_fit ~n ~basis_values ~targets ()
  end

let predict model ~basis_values =
  if Array.length basis_values <> Array.length model.weights then
    invalid_arg "Linfit.predict: basis count mismatch";
  if Array.length basis_values = 0 then
    Array.make (Array.length model.predictions) model.intercept
  else begin
    let n = check_columns "Linfit.predict" basis_values in
    Array.init n (fun i ->
        let acc = ref model.intercept in
        Array.iteri (fun j col -> acc := !acc +. (model.weights.(j) *. col.(i))) basis_values;
        !acc)
  end

let press ~basis_values ~targets =
  if Array.length basis_values = 0 then begin
    (* Intercept-only: h_ii = 1/n for every sample. *)
    let n = Array.length targets in
    if n = 0 then invalid_arg "Linfit.press: no targets";
    let m = Stats.mean targets in
    let shrink = 1. -. (1. /. float_of_int n) in
    Array.fold_left
      (fun acc y ->
        let e = (y -. m) /. Float.max shrink 1e-9 in
        acc +. (e *. e))
      0. targets
  end
  else begin
    let n = check_columns "Linfit.press" basis_values in
    if n <> Array.length targets then invalid_arg "Linfit.press: sample count mismatch";
    match incremental_design basis_values targets with
    | Some qr -> Qr_update.press qr
    | None ->
        Metrics.incr m_qr_fallbacks;
        Decomp.press (fill_design n basis_values) targets
  end

(* The bordered Gram [ones | columns]ᵀ[ones | columns] (row-major) and the
   right-hand side [ones | columns]ᵀy, from the supplied products.  The
   Gram is symmetric, so only its upper triangle is fetched and mirrored:
   [dot i j] is ⟨colᵢ, colⱼ⟩, one word per unordered pair. *)
let normal_equations ~dot ~dot_y ~col_sum ~n ~k ~targets =
  let dim = k + 1 in
  let gd = Array.make (dim * dim) 0. in
  gd.(0) <- float_of_int n;
  for j = 1 to k do
    let s = col_sum (j - 1) in
    gd.(j) <- s;
    gd.(j * dim) <- s
  done;
  for i = 1 to k do
    for j = i to k do
      let v = dot (i - 1) (j - 1) in
      gd.((i * dim) + j) <- v;
      gd.((j * dim) + i) <- v
    done
  done;
  let target_sum = ref 0. in
  for i = 0 to Array.length targets - 1 do
    target_sum := !target_sum +. targets.(i)
  done;
  let rhs = Array.init dim (fun i -> if i = 0 then !target_sum else dot_y (i - 1)) in
  (gd, rhs)

(* Core of the normal-equations fast path: solve the bordered system with
   the guards — unit-diagonal equilibration, a minimum Cholesky-pivot
   threshold, one iterative-refinement step.  [None] means a guard
   tripped and the caller must take its QR fallback. *)
let gram_coefficients ~dim gd raw_rhs =
  let degenerate = ref false in
  let d = Array.make dim 1. in
  for i = 0 to dim - 1 do
    let gii = gd.((i * dim) + i) in
    if Float.is_finite gii && gii > 0. then d.(i) <- 1. /. sqrt gii else degenerate := true
  done;
  if !degenerate then None
  else begin
    let gs = Matrix.create dim dim in
    let gsd = gs.data in
    for i = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        gsd.((i * dim) + j) <- d.(i) *. gd.((i * dim) + j) *. d.(j)
      done
    done;
    let rs = Array.init dim (fun i -> d.(i) *. raw_rhs.(i)) in
    match Decomp.cholesky gs with
    | exception Decomp.Singular -> None
    | l ->
        let min_pivot = ref Float.infinity and max_pivot = ref 0. in
        for i = 0 to dim - 1 do
          let p = l.data.((i * dim) + i) in
          if p < !min_pivot then min_pivot := p;
          if p > !max_pivot then max_pivot := p
        done;
        (* Pivot ratio ~ 1/sqrt(cond): below 1e-3 the squared conditioning
           threatens the 1e-8 agreement contract, so use QR instead. *)
        if !min_pivot < 1e-3 *. !max_pivot then None
        else begin
          let solve b = Decomp.solve_lower_transposed l (Decomp.solve_lower_triangular l b) in
          let x0 = solve rs in
          let residual = Array.make dim 0. in
          for i = 0 to dim - 1 do
            let acc = ref rs.(i) in
            for j = 0 to dim - 1 do
              acc := !acc -. (gsd.((i * dim) + j) *. x0.(j))
            done;
            residual.(i) <- !acc
          done;
          let dx = solve residual in
          Some (Array.init dim (fun i -> (x0.(i) +. dx.(i)) *. d.(i)))
        end
  end

(* Whether every column of the bordered Gram [gd] has a finite diagonal
   entry ⟨colᵢ, colᵢ⟩.  That entry is a sum of squares, so a NaN or
   infinite cell leaves it NaN or +∞ whatever the order of the sum: a
   finite diagonal proves the column finite, and only a non-finite one
   (a bad cell, or squares that overflow) leaves a scan to decide. *)
let diagonal_finite ~dim gd =
  let rec from i = i = dim || (Float.is_finite gd.((i * dim) + i) && from (i + 1)) in
  from 1

(* A chunk that is the whole pass: [k] columns of exactly [n] cells. *)
let whole_columns ~k ~n ~row0 ~len (columns : float array array) =
  row0 = 0 && len = n && Array.length columns = k
  && Array.for_all (fun (col : float array) -> Array.length col = n) columns

(* The per-individual fit: solve the normal equations from a bordered
   Gram matrix whose entries the caller supplies (typically memoized dot
   products shared across the population), with basis values arriving as
   row chunks through [iter].  Each sample's prediction is an independent
   left fold, so the chunking does not change a word.  The fallback has
   no streaming form — it runs [fit]'s QR path on the columns of one
   [iter] pass, except that a ridge solve takes aᵀa and aᵀy from the Gram
   it was handed: for finite columns those are the words [fit] would form
   from the design (every entry a row-order sum from +0, which never
   holds -0, so its skipped zero terms and swapped product operands
   change no bit).  A pass that hands over all [n] rows in one chunk of
   exact-length columns (resident data) is fitted in place, inside the
   callback where the columns are valid; chunks of a longer stream are
   copied into fresh columns first.  Either way the columns are read, never
   written, and the Gram's diagonal decides their finiteness. *)
let fit_stream ~dot ~dot_y ~col_sum ~k ~n ~iter ~targets =
  if k = 0 then fit_constant ~targets
  else begin
    if n < 1 then invalid_arg "Linfit.fit_stream: empty dataset";
    if n <> Array.length targets then invalid_arg "Linfit.fit_stream: sample count mismatch";
    Metrics.incr m_gram_fits;
    let ata, atb = normal_equations ~dot ~dot_y ~col_sum ~n ~k ~targets in
    match gram_coefficients ~dim:(k + 1) ata atb with
    | None ->
        Metrics.incr m_gram_fallbacks;
        let finite = diagonal_finite ~dim:(k + 1) ata in
        let fallback basis_values =
          if not finite then ignore (check_columns "Linfit.fit" basis_values : int);
          qr_fit ~normal:(ata, atb) ~n ~basis_values ~targets ()
        in
        let fitted = ref None and copy = lazy (Array.init k (fun _ -> Array.make n 0.)) in
        iter (fun ~row0 ~len (columns : float array array) ->
            if whole_columns ~k ~n ~row0 ~len columns then fitted := Some (fallback columns)
            else
              let copy = Lazy.force copy in
              for j = 0 to k - 1 do
                Array.blit columns.(j) 0 copy.(j) row0 len
              done);
        (match !fitted with Some fitted -> fitted | None -> fallback (Lazy.force copy))
    | Some coeffs ->
        let predictions = Array.make n 0. in
        iter (fun ~row0 ~len (columns : float array array) ->
            for i = 0 to len - 1 do
              let acc = ref coeffs.(0) in
              for j = 0 to k - 1 do
                acc := !acc +. (coeffs.(j + 1) *. columns.(j).(i))
              done;
              predictions.(row0 + i) <- !acc
            done);
        finish ~targets coeffs predictions
  end

(* Resident columns are the one-chunk case of [fit_stream]. *)
let fit_gram ~dot ~dot_y ~col_sum ~basis_values ~targets =
  let k = Array.length basis_values in
  if k = 0 then fit_constant ~targets
  else
    let n = check_columns "Linfit.fit_gram" basis_values in
    if n <> Array.length targets then invalid_arg "Linfit.fit_gram: sample count mismatch";
    fit_stream ~dot ~dot_y ~col_sum ~k ~n ~iter:(fun f -> f ~row0:0 ~len:n basis_values) ~targets

let forward_select ?(executor = Caffeine_par.Executor.sequential) ?max_bases
    ?(tolerance = 1e-6) ?on_round ~basis_values ~targets () =
  let total = Array.length basis_values in
  let cap = match max_bases with Some m -> min m total | None -> total in
  let n = Array.length targets in
  if n = 0 then invalid_arg "Linfit.forward_select: no targets";
  let usable = Array.map Stats.is_finite_array basis_values in
  let chosen_mask = Array.make total false in
  let chosen = ref [] in (* reverse selection order *)
  let chosen_store = Array.make (Stdlib.max cap 1) [||] in
      (* selection order; one slot written per accepted round — the scratch
         path below never reallocates a chosen∪candidate array per score *)
  let chosen_count = ref 0 in
  (* One live factorization of [ones | chosen], committed to once per
     accepted round.  Candidate scoring probes it without mutation, so a
     pool can fan the probes across domains; once a selected column is
     numerically dependent on the span the factorization is abandoned and
     every later score takes the scratch ridge path. *)
  let qr = Qr_update.create targets in
  let live = ref (Qr_update.append qr (Array.make n 1.)) in
  let scratch_press candidate =
    let k = !chosen_count in
    let cand = basis_values.(candidate) in
    let design =
      Matrix.init n
        (k + 2)
        (fun i j -> if j = 0 then 1. else if j <= k then chosen_store.(j - 1).(i) else cand.(i))
    in
    Decomp.press design targets
  in
  let current_press =
    ref (if !live then Qr_update.press qr else press ~basis_values:[||] ~targets)
  in
  let continue = ref true in
  (* Candidate scores within one round are independent of each other: each
     reads only the round's frozen factorization and the already-chosen
     columns.  A non-finite score (including a singular fit) marks the
     candidate unusable this round. *)
  let score candidate =
    if usable.(candidate) && not chosen_mask.(candidate) then
      match
        if !live then
          match Qr_update.press_probe qr basis_values.(candidate) with
          | Some value -> value
          | None -> scratch_press candidate
        else scratch_press candidate
      with
      | value -> value
      | exception Decomp.Singular -> Float.nan
    else Float.nan
  in
  let candidates = Array.init total Fun.id in
  while !continue && !chosen_count < cap do
    let scores = Caffeine_par.Executor.map executor score candidates in
    let best = ref None in
    Array.iteri
      (fun candidate score ->
        if Float.is_finite score then
          match !best with
          | Some (_, best_score) when best_score <= score -> ()
          | Some _ | None -> best := Some (candidate, score))
      scores;
    match !best with
    | Some (candidate, score) when score < !current_press *. (1. -. tolerance) ->
        Metrics.incr m_forward_rounds;
        (match on_round with
        | Some f ->
            f ~round:!chosen_count ~chosen:candidate ~press_before:!current_press
              ~press_after:score
        | None -> ());
        chosen_mask.(candidate) <- true;
        chosen := candidate :: !chosen;
        chosen_store.(!chosen_count) <- basis_values.(candidate);
        incr chosen_count;
        current_press := score;
        if !live && not (Qr_update.append qr basis_values.(candidate)) then live := false
    | Some _ | None -> continue := false
  done;
  Array.of_list (List.rev !chosen)
