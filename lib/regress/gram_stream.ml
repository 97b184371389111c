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

let update t ~columns ~targets ~row0 ~len =
  if Array.length columns <> t.k then invalid_arg "Gram_stream.update: column count mismatch";
  if row0 <> t.rows_seen then invalid_arg "Gram_stream.update: chunks out of order";
  if row0 + len > Array.length targets then
    invalid_arg "Gram_stream.update: chunk exceeds target length";
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
  Array.iteri
    (fun p i ->
      let a = columns.(i) in
      let acc = ref t.col_sums.(p) in
      for r = 0 to len - 1 do
        acc := !acc +. a.(r)
      done;
      t.col_sums.(p) <- !acc)
    t.col_sum_cols;
  Array.iteri
    (fun p i ->
      let a = columns.(i) in
      let acc = ref t.dot_ys.(p) in
      for r = 0 to len - 1 do
        acc := !acc +. (a.(r) *. targets.(row0 + r))
      done;
      t.dot_ys.(p) <- !acc)
    t.dot_y_cols;
  Array.iteri
    (fun p (i, j) ->
      let a = columns.(i) and b = columns.(j) in
      let acc = ref t.dots.(p) in
      for r = 0 to len - 1 do
        acc := !acc +. (a.(r) *. b.(r))
      done;
      t.dots.(p) <- !acc)
    t.pairs;
  t.rows_seen <- t.rows_seen + len

let rows_seen t = t.rows_seen
let dot t p = t.dots.(p)
let dot_y t p = t.dot_ys.(p)
let col_sum t p = t.col_sums.(p)
let finite t p = t.finite.(p)
