type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Cmatrix.create: dimensions must be positive";
  { rows; cols; re = Array.make (rows * cols) 0.; im = Array.make (rows * cols) 0. }

let check_bounds m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Cmatrix: index out of bounds"

let get m i j =
  check_bounds m i j;
  let p = (i * m.cols) + j in
  { Complex.re = m.re.(p); im = m.im.(p) }

let set m i j (z : Complex.t) =
  check_bounds m i j;
  let p = (i * m.cols) + j in
  m.re.(p) <- z.re;
  m.im.(p) <- z.im

let add_entry m i j (z : Complex.t) =
  check_bounds m i j;
  let p = (i * m.cols) + j in
  m.re.(p) <- m.re.(p) +. z.re;
  m.im.(p) <- m.im.(p) +. z.im

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let mul_vec m (v : Complex.t array) =
  if m.cols <> Array.length v then invalid_arg "Cmatrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref Complex.zero in
      for j = 0 to m.cols - 1 do
        acc := Complex.add !acc (Complex.mul (get m i j) v.(j))
      done;
      !acc)

(* [Complex.norm] of [re + i·im].  It is [Float.hypot], which is +0 at
   (±0, ±0) (C99 F.9.4.3: hypot(x, ±0) is |x|), so an exact zero, the
   common cell of an MNA matrix, skips the call. *)
let[@inline] modulus re im = if re = 0. && im = 0. then 0. else Float.hypot re im

(* [Complex.norm z > 0.] for [z = re + i·im].  For finite parts the
   modulus is at least the larger magnitude (and +0 at (±0, ±0)), so it
   is above 0 exactly when a part is not 0; an infinite or NaN part keeps
   the call. *)
let[@inline] modulus_positive re im =
  if Float.abs re < Float.infinity && Float.abs im < Float.infinity then re <> 0. || im <> 0.
  else Float.hypot re im > 0.

(* Every formula below is the one [Complex] writes ([sub], [mul], [div],
   [norm]), with the same operands in the same order, applied to split
   real and imaginary arrays; OCaml never contracts [a *. b +. c], so each
   result is the word [Complex] arithmetic gives.  Cells below the
   diagonal left of the pivot column are neither swapped nor updated:
   neither the later pivot searches nor back substitution read them.  The
   two inner loops read and write unchecked, within the [n x n] bounds
   checked on entry. *)
let solve_in_place m xr xi =
  let n = m.rows in
  if m.cols <> n || Array.length xr <> n || Array.length xi <> n then
    invalid_arg "Cmatrix.solve: dimension mismatch";
  let re = m.re and im = m.im in
  for k = 0 to n - 1 do
    let kk = (k * n) + k in
    let best = ref k and best_norm = ref (modulus re.(kk) im.(kk)) in
    for i = k + 1 to n - 1 do
      let p = (i * n) + k in
      let norm = modulus re.(p) im.(p) in
      if norm > !best_norm then begin
        best := i;
        best_norm := norm
      end
    done;
    if !best <> k then begin
      let b = !best in
      for j = k to n - 1 do
        let p = (k * n) + j and q = (b * n) + j in
        let tr = re.(p) and ti = im.(p) in
        re.(p) <- re.(q);
        im.(p) <- im.(q);
        re.(q) <- tr;
        im.(q) <- ti
      done;
      let tr = xr.(k) and ti = xi.(k) in
      xr.(k) <- xr.(b);
      xi.(k) <- xi.(b);
      xr.(b) <- tr;
      xi.(b) <- ti
    end;
    if !best_norm < 1e-300 then raise Decomp.Singular;
    (* [Complex.div a pivot] for every [a] below the pivot: the branch, [r]
       and [d] depend on the pivot alone. *)
    let pr = re.(kk) and pi = im.(kk) in
    let wide = Float.abs pr >= Float.abs pi in
    let r = if wide then pi /. pr else pr /. pi in
    let d = if wide then pr +. (r *. pi) else pi +. (r *. pr) in
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      let ar = re.(ik) and ai = im.(ik) in
      (* A zero [a] gives a factor of ±0 or NaN (|d| >= the larger pivot
         part, which is not 0 past the singular test), whose modulus is
         not above 0: the row is skipped, as [Complex.norm factor > 0.]
         would skip it. *)
      if not (ar = 0. && ai = 0.) then begin
        let fr = if wide then (ar +. (r *. ai)) /. d else ((r *. ar) +. ai) /. d in
        let fi = if wide then (ai -. (r *. ar)) /. d else ((r *. ai) -. ar) /. d in
        if modulus_positive fr fi then begin
          for j = k + 1 to n - 1 do
            let kj = (k * n) + j and ij = (i * n) + j in
            let br = Array.unsafe_get re kj and bi = Array.unsafe_get im kj in
            Array.unsafe_set re ij (Array.unsafe_get re ij -. ((fr *. br) -. (fi *. bi)));
            Array.unsafe_set im ij (Array.unsafe_get im ij -. ((fr *. bi) +. (fi *. br)))
          done;
          let br = xr.(k) and bi = xi.(k) in
          xr.(i) <- xr.(i) -. ((fr *. br) -. (fi *. bi));
          xi.(i) <- xi.(i) -. ((fr *. bi) +. (fi *. br))
        end
      end
    done
  done;
  (* Back substitution, each solved entry overwriting its right-hand side. *)
  for i = n - 1 downto 0 do
    let ar = ref xr.(i) and ai = ref xi.(i) in
    for j = i + 1 to n - 1 do
      let p = (i * n) + j in
      let wr = Array.unsafe_get re p and wi = Array.unsafe_get im p in
      let vr = Array.unsafe_get xr j and vi = Array.unsafe_get xi j in
      ar := !ar -. ((wr *. vr) -. (wi *. vi));
      ai := !ai -. ((wr *. vi) +. (wi *. vr))
    done;
    let ii = (i * n) + i in
    let pr = re.(ii) and pi = im.(ii) in
    if Float.abs pr >= Float.abs pi then begin
      let r = pi /. pr in
      let d = pr +. (r *. pi) in
      xr.(i) <- (!ar +. (r *. !ai)) /. d;
      xi.(i) <- (!ai -. (r *. !ar)) /. d
    end
    else begin
      let r = pr /. pi in
      let d = pi +. (r *. pr) in
      xr.(i) <- ((r *. !ar) +. !ai) /. d;
      xi.(i) <- ((r *. !ai) -. !ar) /. d
    end
  done

let solve m (b : Complex.t array) =
  let n = m.rows in
  if m.cols <> n || Array.length b <> n then invalid_arg "Cmatrix.solve: dimension mismatch";
  let xr = Array.map (fun (z : Complex.t) -> z.re) b in
  let xi = Array.map (fun (z : Complex.t) -> z.im) b in
  solve_in_place (copy m) xr xi;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })
