(* Updatable thin QR via modified Gram-Schmidt with one reorthogonalization
   pass (CGS2).  Q is stored column-wise with capacity doubling; R is stored
   column-wise as well (r.(j) has length j+1) so appending never reshapes
   earlier columns.  Alongside Q/R we maintain Qᵀb, the residual b − QQᵀb
   and the leverages h_ii = Σ_j q_ij², which together make PRESS an O(n)
   read and a single-candidate probe an O(n·k) computation. *)

type t = {
  m : int;                       (* rows *)
  b : float array;               (* target, copied at create *)
  mutable k : int;               (* columns committed so far *)
  mutable q : float array array; (* q.(j), j < k: orthonormal columns *)
  mutable r : float array array; (* r.(j), j < k: length j+1 *)
  mutable qtb : float array;     (* qtb.(j) = q_jᵀ b, j < k *)
  resid : float array;           (* b − Q Qᵀ b *)
  h : float array;               (* leverages *)
  mutable max_diag : float;      (* max |r_jj| seen among committed cols *)
}

let create b =
  let m = Array.length b in
  if m = 0 then invalid_arg "Qr_update.create: empty target";
  {
    m;
    b = Array.copy b;
    k = 0;
    q = [||];
    r = [||];
    qtb = [||];
    resid = Array.copy b;
    h = Array.make m 0.;
    max_diag = 0.;
  }

let rows t = t.m
let cols t = t.k

(* Columns whose orthogonalized remainder falls at or below this fraction
   of the column scale are treated as dependent on the current span —
   the same 1e-10 threshold Decomp.rank_from_r applies to R diagonals. *)
let dependence_tol = 1e-10

let ensure_capacity t =
  let cap = Array.length t.q in
  if t.k >= cap then begin
    let cap' = Int.max 4 (2 * cap) in
    let grow arr = Array.init cap' (fun j -> if j < cap then arr.(j) else [||]) in
    t.q <- grow t.q;
    t.r <- grow t.r;
    let qtb' = Array.make cap' 0. in
    Array.blit t.qtb 0 qtb' 0 cap;
    t.qtb <- qtb'
  end

(* The sweeps below read every array of [t.m] cells — the target, the
   residual, the leverages, each committed q, and the column, checked at
   [append] and [press_probe] — with [Array.unsafe_get].  An operation on
   two NaNs keeps its left operand's payload, so operand order is part of
   every word.  A bare load on the left of a commutative operation whose
   right operand is not a load is folded into the memory operand with the
   operands swapped, so such a load is bound first.  The projection
   coefficient and [append]'s ⟨q, b⟩ once came back boxed from a dot
   function, and unboxing them was such a swapped load, so their products
   keep the row's value on the left ([q.(i) *. c], [u *. c]): the order
   these words were defined in.  [press_probe]'s [c] was always computed
   in place and stays on the left. *)

(* CGS2 of [col] into [v]: 2k projections, the committed columns in order
   and then again, each subtracting c·q from v with c = ⟨v, q⟩ taken on v
   as the projections before it left it, c added into [rj].  One sweep over
   the rows finishes a projection's axpy and, from the values it has just
   written, accumulates the next projection's dot; the first sweep reads
   [col] itself (a copy would be one more pass) and also accumulates
   ‖col‖², and the last accumulates the remainder's ‖v‖², and ⟨v, b⟩ when
   [with_b].  So each v.(i) takes the same subtractions and each
   accumulator the same additions, row by row in order and with the same
   operand on each side, as one loop per dot and per axpy would.  Two
   passes keep ‖Qᵀq_new‖ at machine-epsilon level, which the 1e-8 contract
   needs.  [sums] receives ‖col‖², ‖v‖² and ⟨v, b⟩. *)
let orthogonalize t col v rj ~with_b sums =
  let m = t.m and k = t.k and q = t.q and b = t.b in
  let col_norm2 = ref 0. and d = ref 0. in
  if k = 0 then begin
    for i = 0 to m - 1 do
      let x = Array.unsafe_get col i in
      Array.unsafe_set v i x;
      col_norm2 := !col_norm2 +. (x *. x)
    done;
    if with_b then
      for i = 0 to m - 1 do
        let x = Array.unsafe_get v i in
        d := !d +. (x *. Array.unsafe_get b i)
      done;
    sums.(0) <- !col_norm2;
    sums.(1) <- !col_norm2;
    sums.(2) <- !d
  end
  else begin
    let q0 = q.(0) in
    for i = 0 to m - 1 do
      let x = Array.unsafe_get col i in
      col_norm2 := !col_norm2 +. (x *. x);
      d := !d +. (x *. Array.unsafe_get q0 i)
    done;
    sums.(0) <- !col_norm2;
    (* Projections 0 .. 2k-2: projection p's axpy, then p+1's dot. *)
    for p = 0 to (2 * k) - 2 do
      let j = p mod k in
      let c = !d in
      rj.(j) <- rj.(j) +. c;
      let src = if p = 0 then col else v in
      let qj = q.(j) and next = q.((p + 1) mod k) in
      let acc = ref 0. in
      for i = 0 to m - 1 do
        let qi = Array.unsafe_get qj i in
        let x = Array.unsafe_get src i -. (qi *. c) in
        Array.unsafe_set v i x;
        acc := !acc +. (x *. Array.unsafe_get next i)
      done;
      d := !acc
    done;
    (* The last projection's axpy, with the remainder's products. *)
    let c = !d in
    rj.(k - 1) <- rj.(k - 1) +. c;
    let qj = q.(k - 1) in
    let norm2 = ref 0. in
    if with_b then begin
      let vb = ref 0. in
      for i = 0 to m - 1 do
        let qi = Array.unsafe_get qj i in
        let x = Array.unsafe_get v i -. (qi *. c) in
        Array.unsafe_set v i x;
        norm2 := !norm2 +. (x *. x);
        vb := !vb +. (x *. Array.unsafe_get b i)
      done;
      sums.(2) <- !vb
    end
    else
      for i = 0 to m - 1 do
        let qi = Array.unsafe_get qj i in
        let x = Array.unsafe_get v i -. (qi *. c) in
        Array.unsafe_set v i x;
        norm2 := !norm2 +. (x *. x)
      done;
    sums.(1) <- !norm2
  end

let dependent t ~col_norm ~resid_norm =
  resid_norm <= dependence_tol *. Float.max col_norm t.max_diag

let append t col =
  if Array.length col <> t.m then invalid_arg "Qr_update.append: length mismatch";
  let m = t.m in
  let v = Array.create_float m in
  let rj = Array.make (t.k + 1) 0. in
  let sums = Array.create_float 3 in
  orthogonalize t col v rj ~with_b:false sums;
  let col_norm = sqrt sums.(0) and nrm = sqrt sums.(1) in
  if dependent t ~col_norm ~resid_norm:nrm then false
  else begin
    ensure_capacity t;
    (* Normalize, and accumulate ⟨q, b⟩ from the normalized values. *)
    let b = t.b in
    let qb = ref 0. in
    for i = 0 to m - 1 do
      let u = Array.unsafe_get v i /. nrm in
      Array.unsafe_set v i u;
      qb := !qb +. (u *. Array.unsafe_get b i)
    done;
    rj.(t.k) <- nrm;
    let c = !qb in
    t.q.(t.k) <- v;
    t.r.(t.k) <- rj;
    t.qtb.(t.k) <- c;
    let resid = t.resid and h = t.h in
    for i = 0 to m - 1 do
      let u = Array.unsafe_get v i and hi = Array.unsafe_get h i in
      Array.unsafe_set resid i (Array.unsafe_get resid i -. (u *. c));
      Array.unsafe_set h i (hi +. (u *. u))
    done;
    t.max_diag <- Float.max t.max_diag nrm;
    t.k <- t.k + 1;
    true
  end

let drop_last t =
  if t.k = 0 then invalid_arg "Qr_update.drop_last: no columns";
  let j = t.k - 1 in
  let qj = t.q.(j) in
  let c = t.qtb.(j) in
  for i = 0 to t.m - 1 do
    t.resid.(i) <- t.resid.(i) +. (c *. qj.(i));
    t.h.(i) <- t.h.(i) -. (qj.(i) *. qj.(i))
  done;
  t.k <- j;
  (* Drop the columns' storage so down-dated memory can be reclaimed and
     recompute max_diag from the surviving R diagonals. *)
  t.q.(j) <- [||];
  t.r.(j) <- [||];
  t.qtb.(j) <- 0.;
  let md = ref 0. in
  for i = 0 to t.k - 1 do
    md := Float.max !md (Float.abs t.r.(i).(i))
  done;
  t.max_diag <- !md

let coefficients t =
  let x = Array.make t.k 0. in
  for j = t.k - 1 downto 0 do
    (* Row j of R lives spread across columns j..k-1: R[j][col] = r.(col).(j). *)
    let acc = ref t.qtb.(j) in
    for col = j + 1 to t.k - 1 do
      acc := !acc -. (t.r.(col).(j) *. x.(col))
    done;
    let pivot = t.r.(j).(j) in
    if pivot = 0. then raise Decomp.Singular;
    x.(j) <- !acc /. pivot
  done;
  x

let leverages t = Array.copy t.h
let residual t = Array.copy t.resid

let predictions t =
  let p = Array.create_float t.m in
  for i = 0 to t.m - 1 do
    p.(i) <- t.b.(i) -. t.resid.(i)
  done;
  p

let press_of ~m ~resid ~h =
  let acc = ref 0. in
  for i = 0 to m - 1 do
    let e = resid.(i) /. Float.max (1. -. h.(i)) 1e-9 in
    acc := !acc +. (e *. e)
  done;
  !acc

let press t = press_of ~m:t.m ~resid:t.resid ~h:t.h

let press_probe t col =
  if Array.length col <> t.m then invalid_arg "Qr_update.press_probe: length mismatch";
  let m = t.m in
  let v = Array.create_float m in
  let rj = Array.make (t.k + 1) 0. in
  let sums = Array.create_float 3 in
  orthogonalize t col v rj ~with_b:true sums;
  let col_norm = sqrt sums.(0) and nrm = sqrt sums.(1) in
  if dependent t ~col_norm ~resid_norm:nrm then None
  else begin
    let c = sums.(2) /. nrm in
    (* With u = v/nrm the updated residual is resid − (c/1)·u and the
       updated leverage is h_i + u_i²; accumulate PRESS directly instead
       of materializing the updated vectors. *)
    let resid = t.resid and h = t.h in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      let u = Array.unsafe_get v i /. nrm and hi = Array.unsafe_get h i in
      let r = Array.unsafe_get resid i -. (c *. u) in
      let hh = hi +. (u *. u) in
      let e = r /. Float.max (1. -. hh) 1e-9 in
      acc := !acc +. (e *. e)
    done;
    Some !acc
  end
