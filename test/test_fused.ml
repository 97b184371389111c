(* Tests for the fused multi-expression engine: hash-consing a set of bases
   into one DAG and evaluating it with tiled kernels must give every root
   the bits of that basis on its own one-root tape, and the interpreter's
   bits wherever the value is not NaN — on random expression sets, on a
   single sample, and through the dataset's warm-columns entry point. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Fused = Caffeine_expr.Fused
module Dataset = Caffeine_io.Dataset
module Opset = Caffeine.Opset
module Gen = Caffeine.Gen

let bits = Int64.bits_of_float

let check_row_bits msg (expected : float array) (actual : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if not (Int64.equal (bits e) (bits actual.(i))) then
        Alcotest.failf "%s: sample %d: per-expression %.17g, fused %.17g" msg i e actual.(i))
    expected

let random_matrix rng ~n ~dims =
  Array.init n (fun _ ->
      Array.init dims (fun _ ->
          (* Mix benign magnitudes with zeros and negatives so domain errors
             (ln of negatives, 0^-e, division by zero) actually occur. *)
          match Rng.int rng 8 with
          | 0 -> 0.
          | 1 -> -.Rng.range rng 0.1 3.0
          | _ -> Rng.range rng 0.05 4.0))

let columns_of_rows dims rows = Array.init dims (fun v -> Array.map (fun row -> row.(v)) rows)

let random_bases rng ~count ~dims =
  Array.init count (fun _ ->
      Gen.random_basis rng Opset.default ~dims ~depth:(2 + Rng.int rng 4) ~max_vc_vars:dims)

(* Per-expression reference: each basis on its own one-root tape. *)
let reference_columns bases ~columns ~n =
  let scratch = Fused.scratch () in
  Array.map (fun b -> (Fused.eval_columns (Fused.compile [| b |]) ~scratch ~columns ~n).(0)) bases

(* The interpreter's value at sample [i], against a tape's: the same bits,
   or both NaN (payloads are unspecified). *)
let check_interpreter_bits msg basis ~columns i actual =
  let expected = Expr.eval_basis basis (Array.map (fun column -> column.(i)) columns) in
  let same =
    if Float.is_nan expected then Float.is_nan actual
    else Int64.equal (bits expected) (bits actual)
  in
  if not same then
    Alcotest.failf "%s: sample %d: interpreter %.17g, tape %.17g" msg i expected actual

(* --- full-column agreement on random sets -------------------------------- *)

let test_random_sets_bit_identical () =
  let rng = Rng.create ~seed:2027 () in
  for trial = 1 to 50 do
    let dims = 1 + Rng.int rng 6 in
    let count = 1 + Rng.int rng 12 in
    let n = 1 + Rng.int rng 40 in
    let bases = random_bases rng ~count ~dims in
    let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
    let fused = Fused.compile bases in
    let rows = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns ~n in
    let expected = reference_columns bases ~columns ~n in
    Array.iteri
      (fun k row -> check_row_bits (Printf.sprintf "trial %d root %d" trial k) expected.(k) row)
      rows
  done

let test_random_sets_match_interpreter () =
  (* The interpreter is the reference semantics: every fused value has its
     bits, except that a NaN may carry another payload. *)
  let rng = Rng.create ~seed:2028 () in
  for trial = 1 to 50 do
    let dims = 1 + Rng.int rng 6 in
    let count = 1 + Rng.int rng 12 in
    let n = 1 + Rng.int rng 40 in
    let bases = random_bases rng ~count ~dims in
    let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
    let rows = Fused.eval_columns (Fused.compile bases) ~scratch:(Fused.scratch ()) ~columns ~n in
    Array.iteri
      (fun k row ->
        Array.iteri
          (fun i v ->
            let msg = Printf.sprintf "trial %d root %d" trial k in
            check_interpreter_bits msg bases.(k) ~columns i v)
          row)
      rows
  done

(* --- single-sample evaluation -------------------------------------------- *)

let test_single_sample_columns () =
  let rng = Rng.create ~seed:33 () in
  let dims = 5 in
  let bases = random_bases rng ~count:8 ~dims in
  let columns = columns_of_rows dims (random_matrix rng ~n:1 ~dims) in
  let fused = Fused.compile bases in
  let rows = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns ~n:1 in
  let expected = reference_columns bases ~columns ~n:1 in
  Array.iteri (fun k row -> check_row_bits (Printf.sprintf "root %d" k) expected.(k) row) rows

(* --- hash-consing structure ----------------------------------------------- *)

let test_empty_set () =
  let fused = Fused.compile [||] in
  Alcotest.(check int) "no roots" 0 (Array.length (Fused.roots fused));
  Alcotest.(check int) "no nodes" 0 (Fused.nodes_out fused);
  let rows = Fused.eval_columns fused ~scratch:(Fused.scratch ()) ~columns:[| [| 1. |] |] ~n:1 in
  Alcotest.(check int) "no output rows" 0 (Array.length rows)

let test_duplicates_collapse () =
  let rng = Rng.create ~seed:34 () in
  let dims = 4 in
  let basis = Gen.random_basis rng Opset.default ~dims ~depth:4 ~max_vc_vars:dims in
  let alone = Fused.compile [| basis |] in
  let repeated = Fused.compile (Array.make 5 basis) in
  (* Five copies of one basis share every DAG node; only the roots differ. *)
  Alcotest.(check int) "same node count" (Fused.nodes_out alone) (Fused.nodes_out repeated);
  let roots = Fused.roots repeated in
  Alcotest.(check int) "five roots" 5 (Array.length roots);
  Array.iter (fun r -> Alcotest.(check int) "all roots share one node" roots.(0) r) roots;
  (* Each duplicate still gets its own output row. *)
  let columns = columns_of_rows dims (random_matrix rng ~n:7 ~dims) in
  let rows = Fused.eval_columns repeated ~scratch:(Fused.scratch ()) ~columns ~n:7 in
  Alcotest.(check int) "five rows" 5 (Array.length rows);
  Array.iter (fun row -> check_row_bits "duplicate row" rows.(0) row) rows

let test_cse_counters () =
  let rng = Rng.create ~seed:35 () in
  let dims = 4 in
  let bases = random_bases rng ~count:10 ~dims in
  let fused = Fused.compile bases in
  Alcotest.(check bool) "nodes_out positive" true (Fused.nodes_out fused > 0);
  Alcotest.(check bool) "sharing never inflates" true
    (Fused.nodes_out fused <= Fused.nodes_in fused);
  Alcotest.(check int) "nodes_out = |nodes|" (Array.length (Fused.nodes fused))
    (Fused.nodes_out fused);
  (* Duplicating the whole set doubles nodes_in but leaves nodes_out. *)
  let doubled = Fused.compile (Array.append bases bases) in
  Alcotest.(check int) "nodes_in doubles" (2 * Fused.nodes_in fused) (Fused.nodes_in doubled);
  Alcotest.(check int) "nodes_out unchanged" (Fused.nodes_out fused) (Fused.nodes_out doubled)

(* --- dataset integration --------------------------------------------------- *)

let test_warm_columns_bit_identical () =
  let rng = Rng.create ~seed:36 () in
  let dims = 5 in
  let n = 20 in
  let rows = random_matrix rng ~n ~dims in
  let bases = random_bases rng ~count:9 ~dims in
  (* Lazily computed columns on one dataset... *)
  let lazy_data = Dataset.of_rows rows in
  let lazy_columns = Array.map (Dataset.basis_column lazy_data) bases in
  (* ...must equal fused-warmed columns on a fresh dataset, bit for bit. *)
  let warmed_data = Dataset.of_rows rows in
  let stats = Dataset.warm_columns warmed_data bases in
  Alcotest.(check bool) "some bases fused" true (stats.Dataset.fused_bases > 0);
  Alcotest.(check bool) "warm CSE never inflates" true
    (stats.Dataset.nodes_out <= stats.Dataset.nodes_in);
  Array.iteri
    (fun k b ->
      check_row_bits
        (Printf.sprintf "basis %d" k)
        lazy_columns.(k)
        (Dataset.basis_column warmed_data b))
    bases;
  (* Re-warming finds every column cached: nothing left to fuse. *)
  let again = Dataset.warm_columns warmed_data bases in
  Alcotest.(check int) "second warm is a no-op" 0 again.Dataset.fused_bases

let test_warm_equals_lazy_nan_payloads () =
  (* NaN-heavy data: a warmed column must be the lazily computed one word
     for word, NaN payloads included, since a root's row does not depend
     on the tape it shares. *)
  let rng = Rng.create ~seed:5 () in
  let entry () =
    match Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> -.Rng.range rng 0.1 3.0
    | 2 -> Float.nan
    | 3 -> Float.neg_infinity
    | _ -> Rng.range rng 0.05 4.0
  in
  for trial = 1 to 300 do
    let dims = 1 + Rng.int rng 4 in
    let rows = Array.init 30 (fun _ -> Array.init dims (fun _ -> entry ())) in
    let bases = random_bases rng ~count:10 ~dims in
    let cold = Dataset.of_rows rows in
    let warmed = Dataset.of_rows rows in
    ignore (Dataset.warm_columns warmed bases : Dataset.fuse_stats);
    Array.iteri
      (fun k b ->
        check_row_bits
          (Printf.sprintf "trial %d basis %d" trial k)
          (Dataset.basis_column cold b) (Dataset.basis_column warmed b))
      bases
  done

(* --- allocation ceiling ------------------------------------------------------ *)

(* One root per operator, each a product with the monomial x0^3 / x1^2, so
   the tape runs every unary and binary kernel and both exponent forms of
   the monomial kernel; the first root carries a conditional as well. *)
let every_operator_bases () =
  let monomial = Some [| 3; -2 |] in
  let arg vc = { Expr.bias = 0.5; terms = [ (1.5, { Expr.vc = Some vc; factors = [] }) ] } in
  let lte =
    Expr.Lte
      {
        test = arg [| 1; 0 |];
        threshold = Expr.Const 1.;
        less = Expr.Sum (arg [| 0; 1 |]);
        otherwise = Expr.Const (-2.);
      }
  in
  let unary op = { Expr.vc = monomial; factors = [ Expr.Unary (op, arg [| 1; 0 |]) ] } in
  let binary op =
    {
      Expr.vc = monomial;
      factors = [ Expr.Binary (op, Expr.Sum (arg [| 1; 0 |]), Expr.Sum (arg [| 0; 1 |])) ];
    }
  in
  let bases = Array.of_list (List.map unary Op.all_unary @ List.map binary Op.all_binary) in
  bases.(0) <- { (bases.(0)) with Expr.factors = lte :: bases.(0).Expr.factors };
  bases

(* Minor words one call allocates, measured after a warm-up call (scratch
   buffers grow on first use) and an emptied minor heap. *)
let minor_words_of f =
  f ();
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_tape_allocation_ceiling () =
  let n = 4096 in
  let columns =
    [|
      Array.init n (fun i -> float_of_int ((i mod 61) - 12) /. 8.);
      Array.init n (fun i -> float_of_int ((i mod 37) - 5) /. 4.);
    |]
  in
  let bases = every_operator_bases () in
  let ceiling = 256. in
  let fused = Fused.compile bases in
  let scratch = Fused.scratch () in
  let out = Array.map (fun _ -> Array.make n 0.) bases in
  let words = minor_words_of (fun () -> Fused.eval_columns_into fused ~scratch ~columns ~n ~out) in
  if words >= ceiling then
    Alcotest.failf "Fused.eval_columns_into allocated %.0f words over %d rows (limit %.0f)" words n
      ceiling;
  let scratch = Fused.scratch () in
  let out = [| Array.make n 0. |] in
  Array.iteri
    (fun k basis ->
      let one_root = Fused.compile [| basis |] in
      let words =
        minor_words_of (fun () -> Fused.eval_columns_into one_root ~scratch ~columns ~n ~out)
      in
      if words >= ceiling then
        Alcotest.failf "one-root eval_columns_into allocated %.0f words on root %d (limit %.0f)"
          words k ceiling)
    bases

(* --- qcheck property: fused ≡ per-expression ------------------------------ *)

let close a b =
  (* The engines are bit-identical by design; the property pins at least
     1e-12 relative agreement so a future refactor that reassociates
     (legitimately or not) fails loudly rather than silently. *)
  if Float.is_nan a then Float.is_nan b
  else if Float.is_nan b then false
  else a = b || Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs a)

let property_tests =
  [
    QCheck.Test.make ~name:"fused set evaluation matches per-expression tapes" ~count:100
      QCheck.small_int
      (fun seed ->
        let rng = Rng.create ~seed:(seed + 1) () in
        let dims = 1 + Rng.int rng 5 in
        let count = 1 + Rng.int rng 8 in
        let n = 1 + Rng.int rng 25 in
        let bases = random_bases rng ~count ~dims in
        let columns = columns_of_rows dims (random_matrix rng ~n ~dims) in
        let fused_rows =
          Fused.eval_columns (Fused.compile bases) ~scratch:(Fused.scratch ()) ~columns ~n
        in
        let expected = reference_columns bases ~columns ~n in
        Array.for_all2
          (fun e row -> Array.for_all2 close e row)
          expected fused_rows);
  ]

let suite =
  [
    Alcotest.test_case "random sets are bit-identical" `Quick test_random_sets_bit_identical;
    Alcotest.test_case "random sets match the interpreter's bits" `Quick
      test_random_sets_match_interpreter;
    Alcotest.test_case "single-sample columns" `Quick test_single_sample_columns;
    Alcotest.test_case "empty expression set" `Quick test_empty_set;
    Alcotest.test_case "duplicate bases collapse to one node" `Quick test_duplicates_collapse;
    Alcotest.test_case "CSE counters" `Quick test_cse_counters;
    Alcotest.test_case "warm_columns is bit-identical" `Quick test_warm_columns_bit_identical;
    Alcotest.test_case "warmed columns equal lazy ones, NaN payloads included" `Quick
      test_warm_equals_lazy_nan_payloads;
    Alcotest.test_case "tape evaluation allocation ceiling" `Quick test_tape_allocation_ceiling;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
