type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dimensions must be positive";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays arrays =
  let rows = Array.length arrays in
  if rows = 0 then invalid_arg "Matrix.of_arrays: no rows";
  let cols = Array.length arrays.(0) in
  if cols = 0 then invalid_arg "Matrix.of_arrays: empty rows";
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged rows")
    arrays;
  init rows cols (fun i j -> arrays.(i).(j))

let rows m = m.rows
let cols m = m.cols

let check_bounds m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix: index out of bounds"

let get m i j =
  check_bounds m i j;
  m.data.((i * m.cols) + j)

let set m i j v =
  check_bounds m i j;
  m.data.((i * m.cols) + j) <- v

let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.row: out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let select_columns m idx =
  if Array.length idx = 0 then invalid_arg "Matrix.select_columns: no columns";
  Array.iter
    (fun j -> if j < 0 || j >= m.cols then invalid_arg "Matrix.select_columns: out of bounds")
    idx;
  init m.rows (Array.length idx) (fun i k -> get m i idx.(k))

let zip_with name op a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg (name ^ ": dimension mismatch");
  { a with data = Array.mapi (fun k x -> op x b.data.(k)) a.data }

let add a b = zip_with "Matrix.add" ( +. ) a b
let sub a b = zip_with "Matrix.sub" ( -. ) a b
let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          m.data.((i * m.cols) + j) <-
            m.data.((i * m.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  m

(* A plain loop: [Array.init]'s closure would box every row's float. *)
let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  let out = Array.create_float a.rows in
  for i = 0 to a.rows - 1 do
    let acc = ref 0. in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (a.data.((i * a.cols) + j) *. v.(j))
    done;
    out.(i) <- !acc
  done;
  out

let gram a = mul (transpose a) a

let frobenius_norm m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix.max_abs_diff: dimension mismatch";
  let worst = ref 0. in
  Array.iteri (fun k x -> worst := Float.max !worst (Float.abs (x -. b.data.(k)))) a.data;
  !worst

let equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol
