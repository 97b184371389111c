(* Tests for dense matrices, decompositions, least squares, PRESS, and the
   complex solver, with qcheck properties on algebraic identities. *)

module Matrix = Caffeine_linalg.Matrix
module Decomp = Caffeine_linalg.Decomp
module Cmatrix = Caffeine_linalg.Cmatrix
module Qr_update = Caffeine_linalg.Qr_update
module Rng = Caffeine_util.Rng

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let random_matrix rng rows cols =
  Matrix.init rows cols (fun _ _ -> Rng.range rng (-3.) 3.)

let random_vector rng n = Array.init n (fun _ -> Rng.range rng (-3.) 3.)

(* --- Matrix basics --- *)

let test_matrix_construction () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_close "get 0 0" 1. (Matrix.get m 0 0);
  check_close "get 1 0" 3. (Matrix.get m 1 0);
  Alcotest.(check int) "rows" 2 (Matrix.rows m);
  Alcotest.(check int) "cols" 2 (Matrix.cols m)

let test_matrix_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows") (fun () ->
      ignore (Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_matrix_transpose_involution () =
  let rng = Rng.create ~seed:1 () in
  let m = random_matrix rng 4 7 in
  Alcotest.(check bool) "(mᵀ)ᵀ = m" true (Matrix.equal m (Matrix.transpose (Matrix.transpose m)))

let test_matrix_identity_multiplication () =
  let rng = Rng.create ~seed:2 () in
  let m = random_matrix rng 5 5 in
  Alcotest.(check bool) "I m = m" true (Matrix.equal m (Matrix.mul (Matrix.identity 5) m));
  Alcotest.(check bool) "m I = m" true (Matrix.equal m (Matrix.mul m (Matrix.identity 5)))

let test_matrix_mul_known () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Matrix.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let product = Matrix.mul a b in
  check_close "c00" 19. (Matrix.get product 0 0);
  check_close "c01" 22. (Matrix.get product 0 1);
  check_close "c10" 43. (Matrix.get product 1 0);
  check_close "c11" 50. (Matrix.get product 1 1)

let test_matrix_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.; 0.; 2. |]; [| -1.; 3.; 1. |] |] in
  let v = Matrix.mul_vec a [| 3.; 1.; 2. |] in
  check_close "row 0" 7. v.(0);
  check_close "row 1" 2. v.(1)

let test_matrix_select_columns () =
  let m = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let s = Matrix.select_columns m [| 2; 0 |] in
  check_close "reordered" 3. (Matrix.get s 0 0);
  check_close "reordered" 1. (Matrix.get s 0 1)

let test_matrix_add_sub_scale () =
  let a = Matrix.of_arrays [| [| 1.; 2. |] |] in
  let b = Matrix.of_arrays [| [| 3.; 5. |] |] in
  let sum = Matrix.add a b in
  check_close "add" 4. (Matrix.get sum 0 0);
  let difference = Matrix.sub b a in
  check_close "sub" 3. (Matrix.get difference 0 1);
  let scaled = Matrix.scale 2. a in
  check_close "scale" 4. (Matrix.get scaled 0 1)

(* --- QR --- *)

let test_qr_reconstruction () =
  let rng = Rng.create ~seed:3 () in
  let a = random_matrix rng 8 5 in
  let q, r = Decomp.qr a in
  Alcotest.(check bool) "a = q r" true (Matrix.equal ~tol:1e-8 a (Matrix.mul q r))

let test_qr_orthonormal_columns () =
  let rng = Rng.create ~seed:4 () in
  let a = random_matrix rng 10 4 in
  let q, _ = Decomp.qr a in
  let qtq = Matrix.mul (Matrix.transpose q) q in
  Alcotest.(check bool) "qᵀq = I" true (Matrix.equal ~tol:1e-8 qtq (Matrix.identity 4))

let test_qr_r_upper_triangular () =
  let rng = Rng.create ~seed:5 () in
  let a = random_matrix rng 6 6 in
  let _, r = Decomp.qr a in
  let ok = ref true in
  for i = 0 to 5 do
    for j = 0 to i - 1 do
      if Float.abs (Matrix.get r i j) > 1e-12 then ok := false
    done
  done;
  Alcotest.(check bool) "strictly lower part is zero" true !ok

(* --- solvers --- *)

let test_lu_solve_known_system () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Decomp.lu_solve a [| 5.; 10. |] in
  check_close "x0" 1. x.(0);
  check_close "x1" 3. x.(1)

let test_lu_solve_random_residual () =
  let rng = Rng.create ~seed:6 () in
  for _ = 1 to 10 do
    let a = random_matrix rng 6 6 in
    let b = random_vector rng 6 in
    match Decomp.lu_solve a b with
    | x ->
        let residual = Matrix.mul_vec a x in
        Array.iteri (fun i r -> check_close ~tol:1e-7 "residual" b.(i) r) residual
    | exception Decomp.Singular -> () (* random singular matrix: fine *)
  done

let test_lu_singular_raises () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "singular detected" true
    (match Decomp.lu_solve a [| 1.; 2. |] with
    | _ -> false
    | exception Decomp.Singular -> true)

let test_cholesky_reconstruction () =
  let rng = Rng.create ~seed:7 () in
  let m = random_matrix rng 6 4 in
  let spd = Matrix.gram m in
  (* make it definitely positive definite *)
  let spd = Matrix.add spd (Matrix.scale 0.5 (Matrix.identity 4)) in
  let l = Decomp.cholesky spd in
  Alcotest.(check bool) "l lᵀ = a" true
    (Matrix.equal ~tol:1e-8 spd (Matrix.mul l (Matrix.transpose l)))

let test_cholesky_rejects_indefinite () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.(check bool) "indefinite rejected" true
    (match Decomp.cholesky a with _ -> false | exception Decomp.Singular -> true)

let test_solve_spd_matches_lu () =
  let rng = Rng.create ~seed:8 () in
  let m = random_matrix rng 7 5 in
  let spd = Matrix.add (Matrix.gram m) (Matrix.scale 0.1 (Matrix.identity 5)) in
  let b = random_vector rng 5 in
  let x1 = Decomp.solve_spd spd b in
  let x2 = Decomp.lu_solve spd b in
  Array.iteri (fun i v -> check_close ~tol:1e-7 "same solution" v x2.(i)) x1

(* --- least squares --- *)

let test_lstsq_exact_system () =
  (* Overdetermined but consistent: recover exact coefficients. *)
  let rng = Rng.create ~seed:9 () in
  let a = random_matrix rng 20 3 in
  let truth = [| 2.; -1.; 0.5 |] in
  let b = Matrix.mul_vec a truth in
  let x = Decomp.lstsq a b in
  Array.iteri (fun i v -> check_close ~tol:1e-8 "coefficient" truth.(i) v) x

let test_lstsq_residual_orthogonality () =
  (* At the least-squares optimum, the residual is orthogonal to the
     column space: aᵀ(b - ax) = 0. *)
  let rng = Rng.create ~seed:10 () in
  let a = random_matrix rng 15 4 in
  let b = random_vector rng 15 in
  let x = Decomp.lstsq a b in
  let predicted = Matrix.mul_vec a x in
  let residual = Array.init 15 (fun i -> b.(i) -. predicted.(i)) in
  let gradient = Matrix.mul_vec (Matrix.transpose a) residual in
  Array.iter (fun g -> check_close ~tol:1e-7 "gradient zero" 0. g) gradient

let test_lstsq_rank_deficient_falls_back () =
  (* Duplicate column: rank-deficient; the ridge fallback must return finite
     coefficients that still fit well. *)
  let rng = Rng.create ~seed:11 () in
  let base = random_matrix rng 12 2 in
  let a = Matrix.init 12 3 (fun i j -> if j < 2 then Matrix.get base i j else Matrix.get base i 0) in
  let b = Matrix.mul_vec base [| 1.; 2. |] in
  let x = Decomp.lstsq a b in
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite x);
  let predicted = Matrix.mul_vec a x in
  Array.iteri (fun i p -> check_close ~tol:1e-3 "fit preserved" b.(i) p) predicted

(* --- hat diagonal and PRESS --- *)

let test_hat_diag_range_and_trace () =
  let rng = Rng.create ~seed:12 () in
  let a = random_matrix rng 20 4 in
  let h = Decomp.hat_diag a in
  Array.iter
    (fun v -> Alcotest.(check bool) "leverage in [0,1]" true (v >= -1e-9 && v <= 1. +. 1e-9))
    h;
  (* trace(H) = rank = 4 *)
  check_close ~tol:1e-6 "trace equals rank" 4. (Array.fold_left ( +. ) 0. h)

let test_press_equals_explicit_loo () =
  (* PRESS must equal brute-force leave-one-out residual sum of squares. *)
  let rng = Rng.create ~seed:13 () in
  let m = 12 and n = 3 in
  let a = random_matrix rng m n in
  let b = random_vector rng m in
  let press = Decomp.press a b in
  let explicit = ref 0. in
  for holdout = 0 to m - 1 do
    let rows = List.filter (fun i -> i <> holdout) (List.init m (fun i -> i)) in
    let sub = Matrix.init (m - 1) n (fun i j -> Matrix.get a (List.nth rows i) j) in
    let sub_b = Array.of_list (List.map (fun i -> b.(i)) rows) in
    let x = Decomp.lstsq sub sub_b in
    let predicted = ref 0. in
    for j = 0 to n - 1 do
      predicted := !predicted +. (Matrix.get a holdout j *. x.(j))
    done;
    let e = b.(holdout) -. !predicted in
    explicit := !explicit +. (e *. e)
  done;
  check_close ~tol:1e-6 "press = explicit LOO" !explicit press

(* --- complex --- *)

let complex_close msg (a : Complex.t) (b : Complex.t) =
  if Complex.norm (Complex.sub a b) > 1e-9 *. Float.max 1. (Complex.norm a) then
    Alcotest.failf "%s: expected %g+%gi, got %g+%gi" msg a.re a.im b.re b.im

let test_cmatrix_solve_real_system () =
  let m = Cmatrix.create 2 2 in
  Cmatrix.set m 0 0 { Complex.re = 2.; im = 0. };
  Cmatrix.set m 0 1 { Complex.re = 1.; im = 0. };
  Cmatrix.set m 1 0 { Complex.re = 1.; im = 0. };
  Cmatrix.set m 1 1 { Complex.re = 3.; im = 0. };
  let x = Cmatrix.solve m [| { Complex.re = 5.; im = 0. }; { Complex.re = 10.; im = 0. } |] in
  complex_close "x0" { Complex.re = 1.; im = 0. } x.(0);
  complex_close "x1" { Complex.re = 3.; im = 0. } x.(1)

let test_cmatrix_solve_complex_residual () =
  let rng = Rng.create ~seed:14 () in
  let n = 5 in
  let m = Cmatrix.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmatrix.set m i j { Complex.re = Rng.range rng (-2.) 2.; im = Rng.range rng (-2.) 2. }
    done;
    (* Diagonal dominance keeps it comfortably nonsingular. *)
    Cmatrix.set m i i { Complex.re = 10.; im = 1. }
  done;
  let b =
    Array.init n (fun _ -> { Complex.re = Rng.range rng (-2.) 2.; im = Rng.range rng (-2.) 2. })
  in
  let x = Cmatrix.solve m b in
  let reconstructed = Cmatrix.mul_vec m x in
  Array.iteri (fun i v -> complex_close "residual" b.(i) v) reconstructed

let test_cmatrix_add_entry_accumulates () =
  let m = Cmatrix.create 1 1 in
  Cmatrix.add_entry m 0 0 { Complex.re = 1.; im = 2. };
  Cmatrix.add_entry m 0 0 { Complex.re = 3.; im = -1. };
  complex_close "accumulated" { Complex.re = 4.; im = 1. } (Cmatrix.get m 0 0)

(* --- updatable QR --- *)

let columns_matrix m cols = Matrix.init m (Array.length cols) (fun i j -> cols.(j).(i))

let vec_norm v = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v)

let rel_vec_close tol a b =
  Array.length a = Array.length b
  &&
  let d = Array.mapi (fun i x -> x -. b.(i)) a in
  vec_norm d <= tol *. Float.max 1. (Float.max (vec_norm a) (vec_norm b))

let rel_close tol a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs b)

let test_qr_update_validation () =
  (match Qr_update.create [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty target accepted");
  let qr = Qr_update.create [| 1.; 2.; 3. |] in
  Alcotest.(check int) "rows" 3 (Qr_update.rows qr);
  Alcotest.(check int) "cols" 0 (Qr_update.cols qr);
  (match Qr_update.append qr [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted");
  (match Qr_update.drop_last qr with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "drop_last on empty factorization accepted")

let test_qr_update_rejects_duplicate_column () =
  let rng = Rng.create ~seed:42 () in
  let col = random_vector rng 12 in
  let qr = Qr_update.create (random_vector rng 12) in
  Alcotest.(check bool) "first append" true (Qr_update.append qr col);
  let before = Qr_update.press qr in
  let doubled = Array.map (fun x -> 2. *. x) col in
  Alcotest.(check bool) "scaled duplicate rejected" false (Qr_update.append qr doubled);
  Alcotest.(check int) "cols unchanged" 1 (Qr_update.cols qr);
  Alcotest.(check (float 0.)) "press unchanged" before (Qr_update.press qr);
  Alcotest.(check bool) "probe rejects too" true (Qr_update.press_probe qr doubled = None)

(* --- reference kernels ----------------------------------------------------- *)

(* The Householder QR, triangular solves, LU, Cholesky and least-squares
   paths as they read before [Decomp]'s kernels moved onto the raw
   row-major array (R-first rank test, Q only for full-rank designs, one
   factorization per PRESS).  Kept verbatim, through the public
   [Matrix.get]/[Matrix.set] API, so the properties below can pin the
   rewritten kernels to them IEEE word for IEEE word. *)
module Reference = struct
  exception Singular = Decomp.Singular

  let qr a =
    let m = Matrix.rows a and n = Matrix.cols a in
    if m < n then invalid_arg "Decomp.qr: need rows >= cols";
    let r = Matrix.copy a in
    let reflectors = Array.make n None in
    let apply_reflector target k v vnorm2 =
      let width = Matrix.cols target in
      for j = 0 to width - 1 do
        let dot = ref 0. in
        for i = k to m - 1 do
          dot := !dot +. (v.(i) *. Matrix.get target i j)
        done;
        let factor = 2. *. !dot /. vnorm2 in
        if factor <> 0. then
          for i = k to m - 1 do
            Matrix.set target i j (Matrix.get target i j -. (factor *. v.(i)))
          done
      done
    in
    for k = 0 to n - 1 do
      let norm = ref 0. in
      for i = k to m - 1 do
        let x = Matrix.get r i k in
        norm := !norm +. (x *. x)
      done;
      let norm = sqrt !norm in
      if norm > 0. then begin
        let v = Array.make m 0. in
        let head = Matrix.get r k k in
        let alpha = if head >= 0. then -.norm else norm in
        v.(k) <- head -. alpha;
        for i = k + 1 to m - 1 do
          v.(i) <- Matrix.get r i k
        done;
        let vnorm2 = ref 0. in
        for i = k to m - 1 do
          vnorm2 := !vnorm2 +. (v.(i) *. v.(i))
        done;
        if !vnorm2 > 0. then begin
          apply_reflector r k v !vnorm2;
          reflectors.(k) <- Some (v, !vnorm2)
        end
      end
    done;
    let q = Matrix.init m n (fun i j -> if i = j then 1. else 0.) in
    for k = n - 1 downto 0 do
      match reflectors.(k) with
      | None -> ()
      | Some (v, vnorm2) -> apply_reflector q k v vnorm2
    done;
    let r_top = Matrix.init n n (fun i j -> if i <= j then Matrix.get r i j else 0.) in
    (q, r_top)

  let solve_upper_triangular r b =
    let n = Matrix.rows r in
    if Matrix.cols r <> n || Array.length b <> n then
      invalid_arg "Decomp.solve_upper_triangular: dimension mismatch";
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let acc = ref b.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Matrix.get r i j *. x.(j))
      done;
      let pivot = Matrix.get r i i in
      if pivot = 0. then raise Singular;
      x.(i) <- !acc /. pivot
    done;
    x

  let solve_lower_triangular l b =
    let n = Matrix.rows l in
    if Matrix.cols l <> n || Array.length b <> n then
      invalid_arg "Decomp.solve_lower_triangular: dimension mismatch";
    let x = Array.make n 0. in
    for i = 0 to n - 1 do
      let acc = ref b.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Matrix.get l i j *. x.(j))
      done;
      let pivot = Matrix.get l i i in
      if pivot = 0. then raise Singular;
      x.(i) <- !acc /. pivot
    done;
    x

  let lu_solve a b =
    let n = Matrix.rows a in
    if Matrix.cols a <> n || Array.length b <> n then
      invalid_arg "Decomp.lu_solve: dimension mismatch";
    let work = Matrix.copy a in
    let rhs = Array.copy b in
    for k = 0 to n - 1 do
      let best = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Matrix.get work i k) > Float.abs (Matrix.get work !best k) then best := i
      done;
      if !best <> k then begin
        for j = 0 to n - 1 do
          let tmp = Matrix.get work k j in
          Matrix.set work k j (Matrix.get work !best j);
          Matrix.set work !best j tmp
        done;
        let tmp = rhs.(k) in
        rhs.(k) <- rhs.(!best);
        rhs.(!best) <- tmp
      end;
      let pivot = Matrix.get work k k in
      if Float.abs pivot < 1e-300 then raise Singular;
      for i = k + 1 to n - 1 do
        let factor = Matrix.get work i k /. pivot in
        if factor <> 0. then begin
          for j = k to n - 1 do
            Matrix.set work i j (Matrix.get work i j -. (factor *. Matrix.get work k j))
          done;
          rhs.(i) <- rhs.(i) -. (factor *. rhs.(k))
        end
      done
    done;
    solve_upper_triangular work rhs

  let cholesky a =
    let n = Matrix.rows a in
    if Matrix.cols a <> n then invalid_arg "Decomp.cholesky: not square";
    let l = Matrix.create n n in
    for i = 0 to n - 1 do
      for j = 0 to i do
        let acc = ref (Matrix.get a i j) in
        for k = 0 to j - 1 do
          acc := !acc -. (Matrix.get l i k *. Matrix.get l j k)
        done;
        if i = j then begin
          if !acc <= 0. then raise Singular;
          Matrix.set l i i (sqrt !acc)
        end
        else Matrix.set l i j (!acc /. Matrix.get l j j)
      done
    done;
    l

  let solve_spd a b =
    let l = cholesky a in
    let y = solve_lower_triangular l b in
    solve_upper_triangular (Matrix.transpose l) y

  let rank_from_r ?(tol = 1e-10) r =
    let n = min (Matrix.rows r) (Matrix.cols r) in
    let largest = ref 0. in
    for i = 0 to n - 1 do
      largest := Float.max !largest (Float.abs (Matrix.get r i i))
    done;
    let threshold = !largest *. tol in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if Float.abs (Matrix.get r i i) > threshold then incr count
    done;
    !count

  let gram_trace a =
    let n = Matrix.cols a in
    let g = Matrix.gram a in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. Matrix.get g i i
    done;
    (g, Float.max !acc 1.)

  let ridge_solve ?ridge a b =
    let n = Matrix.cols a in
    let g, trace = gram_trace a in
    let lambda = match ridge with Some r -> r | None -> 1e-10 *. trace /. float_of_int n in
    let regularized =
      Matrix.init n n (fun i j ->
          let base = Matrix.get g i j in
          if i = j then base +. lambda else base)
    in
    let atb = Matrix.mul_vec (Matrix.transpose a) b in
    solve_spd regularized atb

  let lstsq ?ridge a b =
    if Matrix.rows a <> Array.length b then invalid_arg "Decomp.lstsq: dimension mismatch";
    if Matrix.rows a < Matrix.cols a then ridge_solve ?ridge a b
    else
      let q, r = qr a in
      if rank_from_r r < Matrix.cols a then ridge_solve ?ridge a b
      else
        let qtb = Matrix.mul_vec (Matrix.transpose q) b in
        solve_upper_triangular r qtb

  let hat_diag ?ridge a =
    let m = Matrix.rows a and n = Matrix.cols a in
    let via_ridge () =
      let g, trace = gram_trace a in
      let lambda = match ridge with Some r -> r | None -> 1e-10 *. trace /. float_of_int n in
      let regularized =
        Matrix.init n n (fun i j ->
            let base = Matrix.get g i j in
            if i = j then base +. lambda else base)
      in
      let l = cholesky regularized in
      let h = Array.make m 0. in
      for i = 0 to m - 1 do
        let ai = Matrix.row a i in
        let y = solve_lower_triangular l ai in
        let z = solve_upper_triangular (Matrix.transpose l) y in
        let acc = ref 0. in
        for k = 0 to n - 1 do
          acc := !acc +. (ai.(k) *. z.(k))
        done;
        h.(i) <- !acc
      done;
      h
    in
    if m < n then via_ridge ()
    else
      let q, r = qr a in
      if rank_from_r r < n then via_ridge ()
      else
        Array.init m (fun i ->
            let acc = ref 0. in
            for j = 0 to n - 1 do
              let qij = Matrix.get q i j in
              acc := !acc +. (qij *. qij)
            done;
            !acc)

  let press ?ridge a b =
    let coeffs = lstsq ?ridge a b in
    let predicted = Matrix.mul_vec a coeffs in
    let leverages = hat_diag ?ridge a in
    let m = Matrix.rows a in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      let denom = Float.max (1. -. leverages.(i)) 1e-9 in
      let e = (b.(i) -. predicted.(i)) /. denom in
      acc := !acc +. (e *. e)
    done;
    !acc
end

(* IEEE-word equality, NaN payloads included. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_matrix a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && Array.for_all2 same_vec (Matrix.to_arrays a) (Matrix.to_arrays b)

(* Same value or same exception: the kernels must also fail alike. *)
let same_outcome eq f g =
  match f () with
  | x -> ( match g () with y -> eq x y | exception _ -> false)
  | exception e1 -> ( match g () with _ -> false | exception e2 -> e1 = e2)

(* Designs of the shapes the fit fallback meets: full rank, or rank-deficient
   through duplicated, scaled-duplicate, constant or zero columns, sometimes
   wide (fewer rows than columns) and sometimes with a non-finite cell. *)
let reference_design seed =
  let rng = Rng.create ~seed () in
  let n = 1 + Rng.int rng 8 in
  let m = if n > 1 && Rng.int rng 6 = 0 then 1 + Rng.int rng (n - 1) else n + Rng.int rng 30 in
  let cols = Array.init n (fun _ -> random_vector rng m) in
  for _ = 1 to Rng.int rng 3 do
    let j = Rng.int rng n and src = Rng.int rng n in
    cols.(j) <-
      (match Rng.int rng 4 with
      | 0 -> Array.copy cols.(src)
      | 1 -> Array.map (fun x -> 2.5 *. x) cols.(src)
      | 2 -> Array.make m (Rng.range rng (-2.) 2.)
      | _ -> Array.make m 0.)
  done;
  if Rng.int rng 10 = 0 then
    cols.(Rng.int rng n).(Rng.int rng m) <-
      [| Float.infinity; Float.neg_infinity; Float.nan |].(Rng.int rng 3);
  (Matrix.init m n (fun i j -> cols.(j).(i)), random_vector rng m)

let rank_deficient_243x8 () =
  let rng = Rng.create ~seed:243 () in
  let cols = Array.init 8 (fun _ -> random_vector rng 243) in
  cols.(7) <- Array.copy cols.(2);
  (Matrix.init 243 8 (fun i j -> cols.(j).(i)), random_vector rng 243)

let test_lstsq_allocation_ceiling () =
  (* The rank-deficient path decides the rank from R and never builds Q:
     a 243x8 design (the OTA fit's shape) stays far below the 1.4 MB the
     [Matrix.get]-based kernels allocated. *)
  let a, b = rank_deficient_243x8 () in
  ignore (Decomp.lstsq a b : float array);
  (* Empty the minor heap first: promoting older survivors inside the
     window would be subtracted from the count. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Decomp.lstsq a b : float array);
  let bytes = Gc.allocated_bytes () -. before in
  if bytes >= 256. *. 1024. then Alcotest.failf "lstsq allocated %.0f bytes (limit 256 KB)" bytes

(* --- qcheck properties --- *)

let property_tests =
  let dims = QCheck.Gen.(pair (int_range 3 12) (int_range 1 5)) in
  let seeded = QCheck.make QCheck.Gen.(triple int dims (return ())) in
  let qr_seeded = QCheck.make QCheck.Gen.(triple int (int_range 8 20) (int_range 1 6)) in
  let random_columns rng m k = Array.init k (fun _ -> random_vector rng m) in
  let build b cols =
    let qr = Qr_update.create b in
    let accepted = Array.for_all (fun c -> Qr_update.append qr c) cols in
    (qr, accepted)
  in
  let qr_update_tests =
    [
      QCheck.Test.make ~count:400 qr_seeded
        ~name:"qr_update: append agrees with scratch lstsq/hat_diag/press" (fun (seed, m, k) ->
          let rng = Rng.create ~seed () in
          let cols = random_columns rng m k in
          let b = random_vector rng m in
          let qr, accepted = build b cols in
          let design = columns_matrix m cols in
          accepted
          && rel_vec_close 1e-8 (Qr_update.coefficients qr) (Decomp.lstsq design b)
          && rel_vec_close 1e-8 (Qr_update.leverages qr) (Decomp.hat_diag design)
          && rel_close 1e-8 (Qr_update.press qr) (Decomp.press design b));
      QCheck.Test.make ~count:300 qr_seeded
        ~name:"qr_update: drop_last restores the smaller factorization" (fun (seed, m, k) ->
          let rng = Rng.create ~seed () in
          let cols = random_columns rng m (k + 1) in
          let b = random_vector rng m in
          let qr, accepted = build b cols in
          Qr_update.drop_last qr;
          let kept = Array.sub cols 0 k in
          let design = columns_matrix m kept in
          accepted
          && Qr_update.cols qr = k
          && rel_vec_close 1e-8 (Qr_update.coefficients qr) (Decomp.lstsq design b)
          && rel_vec_close 1e-8 (Qr_update.leverages qr) (Decomp.hat_diag design)
          && rel_close 1e-8 (Qr_update.press qr) (Decomp.press design b));
      QCheck.Test.make ~count:300 qr_seeded
        ~name:"qr_update: press_probe equals append-then-press and never mutates"
        (fun (seed, m, k) ->
          let rng = Rng.create ~seed () in
          let cols = random_columns rng m k in
          let candidate = random_vector rng m in
          let b = random_vector rng m in
          let qr, accepted = build b cols in
          let before = Qr_update.press qr in
          match Qr_update.press_probe qr candidate with
          | None -> false
          | Some probed ->
              accepted
              && Qr_update.press qr = before (* bitwise: the probe is read-only *)
              && Qr_update.cols qr = k
              && Qr_update.append qr candidate
              && rel_close 1e-8 probed (Qr_update.press qr));
      QCheck.Test.make ~count:100 qr_seeded
        ~name:"qr_update: dependent columns rejected; scratch ridge path stays finite"
        (fun (seed, m, k) ->
          let rng = Rng.create ~seed () in
          let cols = random_columns rng m k in
          let b = random_vector rng m in
          let qr, accepted = build b cols in
          let weights = Array.init k (fun _ -> Rng.range rng (-2.) 2.) in
          let dependent =
            Array.init m (fun i ->
                let acc = ref 0. in
                Array.iteri (fun j w -> acc := !acc +. (w *. cols.(j).(i))) weights;
                !acc)
          in
          let before = Qr_update.press qr in
          let rejected =
            (not (Qr_update.append qr dependent))
            && Qr_update.press_probe qr dependent = None
            && Qr_update.cols qr = k
            && Qr_update.press qr = before
          in
          (* The caller-side fallback for rejected columns: scratch ridge
             regression on the rank-deficient design must stay finite. *)
          let design = columns_matrix m (Array.append cols [| dependent |]) in
          accepted && rejected
          && Array.for_all Float.is_finite (Decomp.lstsq design b)
          && Float.is_finite (Decomp.press design b));
    ]
  in
  let reference_tests =
    [
      QCheck.Test.make ~count:1000 QCheck.int
        ~name:"reference: qr/lstsq/hat_diag/press IEEE-identical to the Matrix.get kernels"
        (fun seed ->
          let a, b = reference_design seed in
          (Matrix.rows a < Matrix.cols a
          || same_outcome
               (fun (q1, r1) (q2, r2) -> same_matrix q1 q2 && same_matrix r1 r2)
               (fun () -> Decomp.qr a)
               (fun () -> Reference.qr a))
          && Decomp.rank_from_r (Matrix.gram a) = Reference.rank_from_r (Matrix.gram a)
          && same_outcome same_vec (fun () -> Decomp.lstsq a b) (fun () -> Reference.lstsq a b)
          && same_outcome same_vec (fun () -> Decomp.hat_diag a) (fun () -> Reference.hat_diag a)
          && same_outcome same_bits (fun () -> Decomp.press a b) (fun () -> Reference.press a b)
          && same_outcome same_vec
               (fun () -> Decomp.lstsq ~ridge:0.5 a b)
               (fun () -> Reference.lstsq ~ridge:0.5 a b));
      QCheck.Test.make ~count:500 QCheck.int
        ~name:"reference: lu/cholesky/triangular solves IEEE-identical" (fun seed ->
          let rng = Rng.create ~seed () in
          let n = 1 + Rng.int rng 8 in
          let a = random_matrix rng n n in
          let b = random_vector rng n in
          let spd = Matrix.add (Matrix.gram a) (Matrix.scale (Rng.range rng (-1.) 1.) (Matrix.identity n)) in
          same_outcome same_vec (fun () -> Decomp.lu_solve a b) (fun () -> Reference.lu_solve a b)
          && same_outcome same_matrix (fun () -> Decomp.cholesky spd) (fun () -> Reference.cholesky spd)
          && same_outcome same_vec (fun () -> Decomp.solve_spd spd b) (fun () -> Reference.solve_spd spd b)
          && same_outcome same_vec
               (fun () -> Decomp.solve_upper_triangular a b)
               (fun () -> Reference.solve_upper_triangular a b)
          && same_outcome same_vec
               (fun () -> Decomp.solve_lower_triangular a b)
               (fun () -> Reference.solve_lower_triangular a b));
    ]
  in
  qr_update_tests @ reference_tests
  @ [
    QCheck.Test.make ~name:"qr reconstructs for random shapes" ~count:60 seeded
      (fun (seed, (m, extra), ()) ->
        let n = max 1 (m - extra) in
        let rng = Rng.create ~seed () in
        let a = random_matrix rng m n in
        let q, r = Decomp.qr a in
        Matrix.equal ~tol:1e-7 a (Matrix.mul q r));
    QCheck.Test.make ~name:"lstsq never returns non-finite" ~count:60 seeded
      (fun (seed, (m, extra), ()) ->
        let n = max 1 (m - extra) in
        let rng = Rng.create ~seed () in
        let a = random_matrix rng m n in
        let b = random_vector rng m in
        Array.for_all Float.is_finite (Decomp.lstsq a b));
    QCheck.Test.make ~name:"hat trace equals column count (full rank)" ~count:40 seeded
      (fun (seed, (m, extra), ()) ->
        let n = max 1 (m - extra - 1) in
        let rng = Rng.create ~seed () in
        let a = random_matrix rng (m + 4) n in
        let h = Decomp.hat_diag a in
        Float.abs (Array.fold_left ( +. ) 0. h -. float_of_int n) < 1e-5);
  ]

let suite =
  [
    Alcotest.test_case "matrix: construction" `Quick test_matrix_construction;
    Alcotest.test_case "matrix: ragged rejected" `Quick test_matrix_ragged_rejected;
    Alcotest.test_case "matrix: transpose involution" `Quick test_matrix_transpose_involution;
    Alcotest.test_case "matrix: identity" `Quick test_matrix_identity_multiplication;
    Alcotest.test_case "matrix: known product" `Quick test_matrix_mul_known;
    Alcotest.test_case "matrix: mul_vec" `Quick test_matrix_mul_vec;
    Alcotest.test_case "matrix: select columns" `Quick test_matrix_select_columns;
    Alcotest.test_case "matrix: add/sub/scale" `Quick test_matrix_add_sub_scale;
    Alcotest.test_case "qr: reconstruction" `Quick test_qr_reconstruction;
    Alcotest.test_case "qr: orthonormal columns" `Quick test_qr_orthonormal_columns;
    Alcotest.test_case "qr: upper triangular" `Quick test_qr_r_upper_triangular;
    Alcotest.test_case "lu: known system" `Quick test_lu_solve_known_system;
    Alcotest.test_case "lu: random residuals" `Quick test_lu_solve_random_residual;
    Alcotest.test_case "lu: singular raises" `Quick test_lu_singular_raises;
    Alcotest.test_case "cholesky: reconstruction" `Quick test_cholesky_reconstruction;
    Alcotest.test_case "cholesky: indefinite rejected" `Quick test_cholesky_rejects_indefinite;
    Alcotest.test_case "spd solve matches lu" `Quick test_solve_spd_matches_lu;
    Alcotest.test_case "lstsq: exact recovery" `Quick test_lstsq_exact_system;
    Alcotest.test_case "lstsq: residual orthogonality" `Quick test_lstsq_residual_orthogonality;
    Alcotest.test_case "lstsq: rank-deficient fallback" `Quick test_lstsq_rank_deficient_falls_back;
    Alcotest.test_case "hat diag: range and trace" `Quick test_hat_diag_range_and_trace;
    Alcotest.test_case "press equals explicit LOO" `Quick test_press_equals_explicit_loo;
    Alcotest.test_case "lstsq: rank-deficient 243x8 allocates under 256 KB" `Quick
      test_lstsq_allocation_ceiling;
    Alcotest.test_case "qr_update: validation" `Quick test_qr_update_validation;
    Alcotest.test_case "qr_update: duplicate rejected" `Quick test_qr_update_rejects_duplicate_column;
    Alcotest.test_case "cmatrix: real system" `Quick test_cmatrix_solve_real_system;
    Alcotest.test_case "cmatrix: complex residual" `Quick test_cmatrix_solve_complex_residual;
    Alcotest.test_case "cmatrix: add_entry" `Quick test_cmatrix_add_entry_accumulates;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
