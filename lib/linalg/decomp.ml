exception Singular

(* Every kernel here loops over [Matrix.t]'s row-major [data] directly.
   Library modules are compiled with [-opaque] in dune's dev profile, so a
   cross-module [Matrix.get] is a real call that boxes the float it returns
   (two words per read, over a megabyte per 243x8 QR); in-module array reads
   stay unboxed.  The tests pin every kernel IEEE-identical to a
   [Matrix.get]-based reference copy, operation order included. *)

(* --- Householder QR ------------------------------------------------------ *)

(* A first pass applies reflectors H_k to a working copy of [a], producing R
   with P a = R for P = H_{n-1} … H_0.  Since each reflector is symmetric,
   Q = Pᵀ = H_0 … H_{n-1}; materializing it ({!q_of}) applies the stored
   reflectors in reverse order to a thin identity.  Callers decide the rank
   from R first and build Q only when they need it: a rank-deficient design
   falls back to ridge regression, which never reads Q. *)
type householder = {
  m : int;
  n : int;
  work : float array;  (* m x n row-major; the upper triangle holds R *)
  reflectors : (float array * float) option array;  (* (v, ‖v‖²) per step *)
}

(* Apply H = I - 2vvᵀ/‖v‖² (v zero above row [k]) to columns [first ..
   width-1] of a row-major [m x width] array.  Column j's update and
   column j+1's dot share one sweep over rows k .. m-1: the dot reads
   cells the update does not write, so every cell takes the same
   subtraction and every dot the same additions in row order as one loop
   per dot and one per update would.  Reads are [Array.unsafe_get] within
   the [m x width] bounds, each product with a bound value or [v]'s load
   on its left (a bare load left of a non-load would be swapped into the
   memory operand, and a NaN times a NaN keeps the left payload). *)
let reflect data ~m ~width ~first k v vnorm2 =
  if first < width then begin
    let dot = ref 0. in
    for i = k to m - 1 do
      dot := !dot +. (Array.unsafe_get v i *. Array.unsafe_get data ((i * width) + first))
    done;
    for j = first to width - 1 do
      let factor = 2. *. !dot /. vnorm2 in
      let next = ref 0. in
      if j + 1 < width then begin
        if factor <> 0. then
          for i = k to m - 1 do
            let p = (i * width) + j in
            let vi = Array.unsafe_get v i in
            Array.unsafe_set data p (Array.unsafe_get data p -. (factor *. vi));
            next := !next +. (vi *. Array.unsafe_get data (p + 1))
          done
        else
          for i = k to m - 1 do
            next := !next +. (Array.unsafe_get v i *. Array.unsafe_get data ((i * width) + j + 1))
          done
      end
      else if factor <> 0. then
        for i = k to m - 1 do
          let p = (i * width) + j in
          Array.unsafe_set data p (Array.unsafe_get data p -. (factor *. Array.unsafe_get v i))
        done;
      dot := !next
    done
  end

let householder (a : Matrix.t) =
  let m = a.rows and n = a.cols in
  let work = Array.copy a.data in
  let reflectors = Array.make n None in
  for k = 0 to n - 1 do
    let norm = ref 0. in
    for i = k to m - 1 do
      let x = work.((i * n) + k) in
      norm := !norm +. (x *. x)
    done;
    let norm = sqrt !norm in
    if norm > 0. then begin
      let v = Array.make m 0. in
      let head = work.((k * n) + k) in
      let alpha = if head >= 0. then -.norm else norm in
      v.(k) <- head -. alpha;
      for i = k + 1 to m - 1 do
        v.(i) <- work.((i * n) + k)
      done;
      let vnorm2 = ref 0. in
      for i = k to m - 1 do
        vnorm2 := !vnorm2 +. (v.(i) *. v.(i))
      done;
      if !vnorm2 > 0. then begin
        (* Columns left of [k] are skipped: H_k only touches rows >= k, which
           are below their diagonal, and R never reads those entries. *)
        reflect work ~m ~width:n ~first:k k v !vnorm2;
        reflectors.(k) <- Some (v, !vnorm2)
      end
    end
  done;
  { m; n; work; reflectors }

let r_of h =
  let n = h.n in
  let r = Matrix.create n n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      r.data.((i * n) + j) <- h.work.((i * n) + j)
    done
  done;
  r

let q_of h =
  let m = h.m and n = h.n in
  let q = Matrix.create m n in
  for i = 0 to n - 1 do
    q.data.((i * n) + i) <- 1.
  done;
  for k = n - 1 downto 0 do
    match h.reflectors.(k) with
    | None -> ()
    | Some (v, vnorm2) -> reflect q.data ~m ~width:n ~first:0 k v vnorm2
  done;
  q

let qr (a : Matrix.t) =
  if a.rows < a.cols then invalid_arg "Decomp.qr: need rows >= cols";
  let h = householder a in
  (q_of h, r_of h)

(* Numerical rank from the diagonal of an [n x n]-leading upper factor
   stored row-major with row stride [stride]. *)
let rank_of_diag ~tol ~stride ~n data =
  let largest = ref 0. in
  for i = 0 to n - 1 do
    largest := Float.max !largest (Float.abs data.((i * stride) + i))
  done;
  let threshold = !largest *. tol in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Float.abs data.((i * stride) + i) > threshold then incr count
  done;
  !count

let rank_from_r ?(tol = 1e-10) (r : Matrix.t) =
  rank_of_diag ~tol ~stride:r.cols ~n:(min r.rows r.cols) r.data

let full_rank h = rank_of_diag ~tol:1e-10 ~stride:h.n ~n:h.n h.work = h.n

(* --- triangular solves and Cholesky --------------------------------------- *)

let upper_solve ~n r b =
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (r.((i * n) + j) *. x.(j))
    done;
    let pivot = r.((i * n) + i) in
    if pivot = 0. then raise Singular;
    x.(i) <- !acc /. pivot
  done;
  x

(* Back substitution against lᵀ, reading the lower factor [l] in place. *)
let upper_solve_transposed ~n l b =
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (l.((j * n) + i) *. x.(j))
    done;
    let pivot = l.((i * n) + i) in
    if pivot = 0. then raise Singular;
    x.(i) <- !acc /. pivot
  done;
  x

let lower_solve ~n l b =
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (l.((i * n) + j) *. x.(j))
    done;
    let pivot = l.((i * n) + i) in
    if pivot = 0. then raise Singular;
    x.(i) <- !acc /. pivot
  done;
  x

let check_square_system name (a : Matrix.t) b =
  if a.cols <> a.rows || Array.length b <> a.rows then
    invalid_arg (name ^ ": dimension mismatch")

let solve_upper_triangular (r : Matrix.t) b =
  check_square_system "Decomp.solve_upper_triangular" r b;
  upper_solve ~n:r.rows r.data b

let solve_lower_triangular (l : Matrix.t) b =
  check_square_system "Decomp.solve_lower_triangular" l b;
  lower_solve ~n:l.rows l.data b

let solve_lower_transposed (l : Matrix.t) b =
  check_square_system "Decomp.solve_lower_transposed" l b;
  upper_solve_transposed ~n:l.rows l.data b

(* Partial-pivot elimination of the row-major [n x n] [work] and the
   right-hand side [rhs], both overwritten: [rhs] ends holding the
   solution, each entry solved by [upper_solve]'s back substitution in
   place (entry [i] is read before it is written, entries past [i] are
   already solved).  Cells below the diagonal left of the pivot column are
   neither swapped nor updated: no later pivot search, update or back
   substitution reads them.  Reads in the two inner loops are
   [Array.unsafe_get] within the checked [n x n] bounds. *)
let lu_solve_in_place ~n work rhs =
  if n < 1 || Array.length work <> n * n || Array.length rhs <> n then
    invalid_arg "Decomp.lu_solve: dimension mismatch";
  for k = 0 to n - 1 do
    (* Partial pivoting. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs work.((i * n) + k) > Float.abs work.((!best * n) + k) then best := i
    done;
    if !best <> k then begin
      for j = k to n - 1 do
        let tmp = work.((k * n) + j) in
        work.((k * n) + j) <- work.((!best * n) + j);
        work.((!best * n) + j) <- tmp
      done;
      let tmp = rhs.(k) in
      rhs.(k) <- rhs.(!best);
      rhs.(!best) <- tmp
    end;
    let pivot = work.((k * n) + k) in
    if Float.abs pivot < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = work.((i * n) + k) /. pivot in
      if factor <> 0. then begin
        for j = k + 1 to n - 1 do
          let p = (i * n) + j in
          Array.unsafe_set work p
            (Array.unsafe_get work p -. (factor *. Array.unsafe_get work ((k * n) + j)))
        done;
        rhs.(i) <- rhs.(i) -. (factor *. rhs.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let acc = ref rhs.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get work ((i * n) + j) *. Array.unsafe_get rhs j)
    done;
    let pivot = work.((i * n) + i) in
    if pivot = 0. then raise Singular;
    rhs.(i) <- !acc /. pivot
  done

let lu_solve (a : Matrix.t) b =
  check_square_system "Decomp.lu_solve" a b;
  let rhs = Array.copy b in
  lu_solve_in_place ~n:a.rows (Array.copy a.data) rhs;
  rhs

(* Lower factor of the row-major [n x n] array [a]. *)
let cholesky_data ~n a =
  let l = Matrix.create n n in
  let ld = l.data in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref a.((i * n) + j) in
      for k = 0 to j - 1 do
        acc := !acc -. (ld.((i * n) + k) *. ld.((j * n) + k))
      done;
      if i = j then begin
        if !acc <= 0. then raise Singular;
        ld.((i * n) + i) <- sqrt !acc
      end
      else ld.((i * n) + j) <- !acc /. ld.((j * n) + j)
    done
  done;
  l

let cholesky (a : Matrix.t) =
  if a.cols <> a.rows then invalid_arg "Decomp.cholesky: not square";
  cholesky_data ~n:a.rows a.data

let solve_spd a b =
  let l = cholesky a in
  upper_solve_transposed ~n:l.rows l.data (solve_lower_triangular l b)

(* --- least squares -------------------------------------------------------- *)

(* aᵀa, accumulated exactly as [Matrix.gram] (that is [Matrix.mul
   (transpose a) a]) does it — same order, same skip of zero
   multipliers. *)
let normal_matrix (a : Matrix.t) =
  let m = a.rows and n = a.cols and d = a.data in
  let g = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    for k = 0 to m - 1 do
      let aki = d.((k * n) + i) in
      if aki <> 0. then
        for j = 0 to n - 1 do
          g.((i * n) + j) <- g.((i * n) + j) +. (aki *. d.((k * n) + j))
        done
    done
  done;
  g

(* Cholesky factor of aᵀa + λI from the row-major [n x n] aᵀa [g], which
   it overwrites; λ defaults to 1e-10 of the mean diagonal (trace floored
   at 1). *)
let ridge_factor ?ridge ~n g =
  let trace = ref 0. in
  for i = 0 to n - 1 do
    trace := !trace +. g.((i * n) + i)
  done;
  let trace = Float.max !trace 1. in
  let lambda = match ridge with Some r -> r | None -> 1e-10 *. trace /. float_of_int n in
  for i = 0 to n - 1 do
    g.((i * n) + i) <- g.((i * n) + i) +. lambda
  done;
  cholesky_data ~n g

(* aᵀb, each entry accumulated over rows in order. *)
let normal_rhs (a : Matrix.t) b =
  let m = a.rows and n = a.cols and d = a.data in
  Array.init n (fun j ->
      let acc = ref 0. in
      for i = 0 to m - 1 do
        acc := !acc +. (d.((i * n) + j) *. b.(i))
      done;
      !acc)

(* (aᵀa + λI)⁻¹ aᵀb through the ridge factor [l]. *)
let ridge_coefficients (l : Matrix.t) atb =
  let n = l.rows in
  upper_solve_transposed ~n l.data (lower_solve ~n l.data atb)

(* h_ii = aᵢᵀ (aᵀa + λI)⁻¹ aᵢ, one pair of triangular solves per row. *)
let ridge_leverages (l : Matrix.t) (a : Matrix.t) =
  let m = a.rows and n = a.cols in
  let h = Array.make m 0. in
  for i = 0 to m - 1 do
    let ai = Matrix.row a i in
    let z = upper_solve_transposed ~n l.data (lower_solve ~n l.data ai) in
    let acc = ref 0. in
    for k = 0 to n - 1 do
      acc := !acc +. (ai.(k) *. z.(k))
    done;
    h.(i) <- !acc
  done;
  h

(* Qᵀb, accumulated over rows in order. *)
let qt_times (q : Matrix.t) b =
  let m = q.rows and n = q.cols in
  let qtb = Array.make n 0. in
  for j = 0 to n - 1 do
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (q.data.((i * n) + j) *. b.(i))
    done;
    qtb.(j) <- !acc
  done;
  qtb

(* Row norms of Q: the leverages of a full-rank design. *)
let q_leverages (q : Matrix.t) =
  let m = q.rows and n = q.cols in
  let h = Array.make m 0. in
  for i = 0 to m - 1 do
    let acc = ref 0. in
    for j = 0 to n - 1 do
      let qij = q.data.((i * n) + j) in
      acc := !acc +. (qij *. qij)
    done;
    h.(i) <- !acc
  done;
  h

(* The rank-deficient branch: the ridge factor of aᵀa, taken from [ata]
   when the caller already holds it (copied, since the factor overwrites
   it). *)
let ridge_branch ?ridge ?ata (a : Matrix.t) =
  let g = match ata with Some g -> Array.copy g | None -> normal_matrix a in
  `Ridge (ridge_factor ?ridge ~n:a.cols g)

(* The factorization both [lstsq] and [hat_diag] start from: [`Full] when
   the Householder R has full numerical rank, [`Ridge] otherwise (or when
   the design is wide). *)
let factorize ?ridge ?ata (a : Matrix.t) =
  if a.rows < a.cols then ridge_branch ?ridge ?ata a
  else
    let h = householder a in
    if full_rank h then `Full (q_of h, r_of h) else ridge_branch ?ridge ?ata a

let check_rhs a b =
  if a.Matrix.rows <> Array.length b then invalid_arg "Decomp.lstsq: dimension mismatch"

let solve_factored ?atb a b = function
  | `Full (q, r) -> solve_upper_triangular r (qt_times q b)
  | `Ridge l -> ridge_coefficients l (match atb with Some v -> v | None -> normal_rhs a b)

let leverages_factored a = function
  | `Full (q, _) -> q_leverages q
  | `Ridge l -> ridge_leverages l a

let lstsq ?ridge a b =
  check_rhs a b;
  solve_factored a b (factorize ?ridge a)

let check_normal name a ?ata ?atb () =
  let n = a.Matrix.cols in
  let wrong len = function Some v -> Array.length v <> len | None -> false in
  if wrong (n * n) ata || wrong n atb then
    invalid_arg (name ^ ": normal equations do not match the design")

let lstsq_normal ~ata ~atb a b =
  check_rhs a b;
  check_normal "Decomp.lstsq_normal" a ~ata ~atb ();
  solve_factored ~atb a b (factorize ~ata a)

let lstsq_ridge ?ata ?atb a b =
  check_rhs a b;
  check_normal "Decomp.lstsq_ridge" a ?ata ?atb ();
  solve_factored ?atb a b (ridge_branch ?ata a)

let hat_diag ?ridge a = leverages_factored a (factorize ?ridge a)

(* [Float.max s 1e-9] word for word, without its [caml_signbit] calls: the
   same clamp as [Qr_update.clamp_shrink], copied because a call across
   modules boxes its float under [-opaque]. *)
let[@inline] clamp_shrink s = if s < 1e-9 then 1e-9 else s

let press ?ridge a b =
  check_rhs a b;
  let f = factorize ?ridge a in
  let coeffs = solve_factored a b f in
  let predicted = Matrix.mul_vec a coeffs in
  let leverages = leverages_factored a f in
  let m = a.rows in
  let acc = ref 0. in
  for i = 0 to m - 1 do
    let denom = clamp_shrink (1. -. leverages.(i)) in
    let e = (b.(i) -. predicted.(i)) /. denom in
    acc := !acc +. (e *. e)
  done;
  !acc
