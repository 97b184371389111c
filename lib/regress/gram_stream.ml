(* Single-pass streaming accumulation of the Gram entries feeding
   {!Linfit.fit_stream}, restricted to the entries the caller asks for.

   Each chunk advances every requested scalar through the chunk's rows:
   the accumulator is loaded once, advanced in row order, and stored
   back.  Because each scalar therefore sees exactly the sequence
   acc ← acc +. (a.(r) *. b.(r)) over rows 0..n-1 in global row order,
   the accumulated value does not depend on how the rows are cut into
   chunks — resident data is the one-chunk case — which is the property
   the determinism contract (bit-identical fronts across backends and
   data paths) rests on. *)

type t = {
  k : int;
  pairs : (int * int) array;
  dots : float array;  (* dots.(p) = ⟨colᵢ, colⱼ⟩ for pairs.(p) = (i, j) *)
  dot_y_cols : int array;
  dot_ys : float array;
  col_sum_cols : int array;
  col_sums : float array;
  finite_cols : int array;
  finite : bool array;
  mutable rows_seen : int;
}

let create k ~pairs ~dot_ys ~col_sums ~finite =
  if k < 1 then invalid_arg "Gram_stream.create: need at least one column";
  {
    k;
    pairs;
    dots = Array.make (Array.length pairs) 0.;
    dot_y_cols = dot_ys;
    dot_ys = Array.make (Array.length dot_ys) 0.;
    col_sum_cols = col_sums;
    col_sums = Array.make (Array.length col_sums) 0.;
    finite_cols = finite;
    finite = Array.make (Array.length finite) true;
    rows_seen = 0;
  }

(* The sweeps advance four accumulators at a time over a chunk's rows,
   and a remainder loop takes the last one to three.  Each accumulator is
   still loaded once, advanced over the rows in order and stored back, so
   its word is the one a loop of its own would leave, NaN payloads
   included; four independent additions per row only let the processor
   overlap them instead of waiting on one chain.  [update] checks that
   every column holds [len] rows before any sweep reads them unchecked;
   the reads call [Array.unsafe_get] on arrays typed [float array], so
   each compiles to a direct float load (an alias of the primitive would
   be a generic array read that tests every array's tag). *)
let sweep_pairs t (columns : float array array) len =
  let pairs = t.pairs and dots = t.dots in
  let m = Array.length pairs in
  let p = ref 0 in
  while !p + 4 <= m do
    let q = !p in
    let i0, j0 = pairs.(q) and i1, j1 = pairs.(q + 1) in
    let i2, j2 = pairs.(q + 2) and i3, j3 = pairs.(q + 3) in
    let a0 = columns.(i0) and b0 = columns.(j0) and a1 = columns.(i1) and b1 = columns.(j1) in
    let a2 = columns.(i2) and b2 = columns.(j2) and a3 = columns.(i3) and b3 = columns.(j3) in
    let s0 = ref dots.(q) and s1 = ref dots.(q + 1) in
    let s2 = ref dots.(q + 2) and s3 = ref dots.(q + 3) in
    for r = 0 to len - 1 do
      s0 := !s0 +. (Array.unsafe_get a0 r *. Array.unsafe_get b0 r);
      s1 := !s1 +. (Array.unsafe_get a1 r *. Array.unsafe_get b1 r);
      s2 := !s2 +. (Array.unsafe_get a2 r *. Array.unsafe_get b2 r);
      s3 := !s3 +. (Array.unsafe_get a3 r *. Array.unsafe_get b3 r)
    done;
    dots.(q) <- !s0;
    dots.(q + 1) <- !s1;
    dots.(q + 2) <- !s2;
    dots.(q + 3) <- !s3;
    p := q + 4
  done;
  for q = !p to m - 1 do
    let i, j = pairs.(q) in
    let a = columns.(i) and b = columns.(j) in
    let s = ref dots.(q) in
    for r = 0 to len - 1 do
      s := !s +. (Array.unsafe_get a r *. Array.unsafe_get b r)
    done;
    dots.(q) <- !s
  done

(* [⟨col, y⟩] over the rows [row0 ..]: four columns share each target
   read.  Each column value is bound before it is multiplied: the code
   generator folds a bare load on the left of a commutative multiply into
   its memory operand by swapping the operands, and a NaN times a NaN
   keeps the left operand's payload, so [col *. y] must keep [col] on the
   left as a lone loop does. *)
let sweep_dot_ys t (columns : float array array) (targets : float array) row0 len =
  let cols = t.dot_y_cols and sums = t.dot_ys in
  let m = Array.length cols in
  let p = ref 0 in
  while !p + 4 <= m do
    let q = !p in
    let a0 = columns.(cols.(q)) and a1 = columns.(cols.(q + 1)) in
    let a2 = columns.(cols.(q + 2)) and a3 = columns.(cols.(q + 3)) in
    let s0 = ref sums.(q) and s1 = ref sums.(q + 1) in
    let s2 = ref sums.(q + 2) and s3 = ref sums.(q + 3) in
    for r = 0 to len - 1 do
      let y = Array.unsafe_get targets (row0 + r) in
      let x0 = Array.unsafe_get a0 r and x1 = Array.unsafe_get a1 r in
      let x2 = Array.unsafe_get a2 r and x3 = Array.unsafe_get a3 r in
      s0 := !s0 +. (x0 *. y);
      s1 := !s1 +. (x1 *. y);
      s2 := !s2 +. (x2 *. y);
      s3 := !s3 +. (x3 *. y)
    done;
    sums.(q) <- !s0;
    sums.(q + 1) <- !s1;
    sums.(q + 2) <- !s2;
    sums.(q + 3) <- !s3;
    p := q + 4
  done;
  for q = !p to m - 1 do
    let a = columns.(cols.(q)) in
    let s = ref sums.(q) in
    for r = 0 to len - 1 do
      s := !s +. (Array.unsafe_get a r *. Array.unsafe_get targets (row0 + r))
    done;
    sums.(q) <- !s
  done

let sweep_col_sums t (columns : float array array) len =
  let cols = t.col_sum_cols and sums = t.col_sums in
  let m = Array.length cols in
  let p = ref 0 in
  while !p + 4 <= m do
    let q = !p in
    let a0 = columns.(cols.(q)) and a1 = columns.(cols.(q + 1)) in
    let a2 = columns.(cols.(q + 2)) and a3 = columns.(cols.(q + 3)) in
    let s0 = ref sums.(q) and s1 = ref sums.(q + 1) in
    let s2 = ref sums.(q + 2) and s3 = ref sums.(q + 3) in
    for r = 0 to len - 1 do
      s0 := !s0 +. Array.unsafe_get a0 r;
      s1 := !s1 +. Array.unsafe_get a1 r;
      s2 := !s2 +. Array.unsafe_get a2 r;
      s3 := !s3 +. Array.unsafe_get a3 r
    done;
    sums.(q) <- !s0;
    sums.(q + 1) <- !s1;
    sums.(q + 2) <- !s2;
    sums.(q + 3) <- !s3;
    p := q + 4
  done;
  for q = !p to m - 1 do
    let a = columns.(cols.(q)) in
    let s = ref sums.(q) in
    for r = 0 to len - 1 do
      s := !s +. Array.unsafe_get a r
    done;
    sums.(q) <- !s
  done

let update t ~columns ~targets ~row0 ~len =
  if Array.length columns <> t.k then invalid_arg "Gram_stream.update: column count mismatch";
  if row0 <> t.rows_seen then invalid_arg "Gram_stream.update: chunks out of order";
  if row0 + len > Array.length targets then
    invalid_arg "Gram_stream.update: chunk exceeds target length";
  Array.iter
    (fun (col : float array) ->
      if Array.length col < len then invalid_arg "Gram_stream.update: column shorter than chunk")
    columns;
  Array.iteri
    (fun p i ->
      if t.finite.(p) then begin
        let a = columns.(i) in
        let ok = ref true in
        for r = 0 to len - 1 do
          if not (Float.is_finite a.(r)) then ok := false
        done;
        if not !ok then t.finite.(p) <- false
      end)
    t.finite_cols;
  sweep_col_sums t columns len;
  sweep_dot_ys t columns targets row0 len;
  sweep_pairs t columns len;
  t.rows_seen <- t.rows_seen + len

let rows_seen t = t.rows_seen
let dot t p = t.dots.(p)
let dot_y t p = t.dot_ys.(p)
let col_sum t p = t.col_sums.(p)
let finite t p = t.finite.(p)
