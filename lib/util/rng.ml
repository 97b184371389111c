(* The four xoshiro256** words live in one 32-byte buffer, read and
   written with [Bytes.get_int64_le]/[set_int64_le]: a record of mutable
   [int64] fields would box every word it stores, so each draw would
   allocate.  In [step]'s inlined body the words stay unboxed, and [int],
   [uniform] and [bool] consume its result without boxing it either. *)
type t = Bytes.t

(* splitmix64: used only to expand a seed into the four xoshiro words, and to
   derive split streams.  Constants from Steele, Lea and Flood (2014). *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words w0 w1 w2 w3 =
  let s = Bytes.create 32 in
  Bytes.set_int64_le s 0 w0;
  Bytes.set_int64_le s 8 w1;
  Bytes.set_int64_le s 16 w2;
  Bytes.set_int64_le s 24 w3;
  s

let of_seed64 seed =
  let state = ref seed in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  of_words s0 s1 s2 s3

let create ?(seed = 0x5EED) () = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

type state = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }

let to_state s =
  {
    w0 = Bytes.get_int64_le s 0;
    w1 = Bytes.get_int64_le s 8;
    w2 = Bytes.get_int64_le s 16;
    w3 = Bytes.get_int64_le s 24;
  }

let of_state { w0; w1; w2; w3 } =
  (* The all-zero state is the one fixed point of xoshiro256**: it would
     emit zeros forever, and seeding through splitmix64 can never reach
     it, so reject it rather than resurrect a degenerate stream. *)
  if w0 = 0L && w1 = 0L && w2 = 0L && w3 = 0L then
    invalid_arg "Rng.of_state: all-zero state is not a valid xoshiro256** state";
  of_words w0 w1 w2 w3

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] step s =
  let open Int64 in
  let s0 = Bytes.get_int64_le s 0 and s1 = Bytes.get_int64_le s 8 in
  let s2 = Bytes.get_int64_le s 16 and s3 = Bytes.get_int64_le s 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le s 0 s0;
  Bytes.set_int64_le s 8 s1;
  Bytes.set_int64_le s 16 (logxor s2 t);
  Bytes.set_int64_le s 24 (rotl s3 45);
  result

let bits64 rng = step rng

let split rng = of_seed64 (step rng)

let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on 63 non-negative bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.mul (Int64.div Int64.max_int bound64) bound64 in
  let raw = ref (Int64.shift_right_logical (step rng) 1) in
  while Int64.compare !raw limit >= 0 do
    raw := Int64.shift_right_logical (step rng) 1
  done;
  Int64.to_int (Int64.rem !raw bound64)

let uniform rng =
  (* 53 random bits mapped to [0,1). *)
  let raw = Int64.shift_right_logical (step rng) 11 in
  Int64.to_float raw *. 0x1.0p-53

let float rng bound = uniform rng *. bound

let range rng lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo +. (uniform rng *. (hi -. lo))

let bool rng = Int64.compare (Int64.logand (step rng) 1L) 0L <> 0

let bernoulli rng p = uniform rng < p

let gaussian ?(mu = 0.) ?(sigma = 1.) rng =
  let rec nonzero () =
    let u = uniform rng in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = uniform rng in
  let radius = sqrt (-2. *. log u1) in
  mu +. (sigma *. radius *. cos (2. *. Float.pi *. u2))

let cauchy ?(scale = 1.) rng =
  (* Inverse-CDF; keep the argument away from +/- pi/2 exactly. *)
  let rec interior () =
    let u = uniform rng in
    if u > 0. && u < 1. then u else interior ()
  in
  scale *. tan (Float.pi *. (interior () -. 0.5))

let choose rng xs =
  if Array.length xs = 0 then invalid_arg "Rng.choose: empty array";
  xs.(int rng (Array.length xs))

let choose_list rng xs =
  match xs with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ :: _ -> List.nth xs (int rng (List.length xs))

let weighted_index rng ws =
  let total = Array.fold_left (fun acc w ->
      if w < 0. then invalid_arg "Rng.weighted_index: negative weight";
      acc +. w)
      0. ws
  in
  if total <= 0. then invalid_arg "Rng.weighted_index: all weights zero";
  let target = float rng total in
  let n = Array.length ws in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. ws.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let shuffle_in_place rng xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let permutation rng n =
  let xs = Array.init n (fun i -> i) in
  shuffle_in_place rng xs;
  xs

let sample_without_replacement rng k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let perm = permutation rng n in
  Array.sub perm 0 k
