(* Streaming ≡ dense equivalence.

   The chunked (out-of-core) storage path must be indistinguishable from
   dense storage on the same samples: every Gram product carries one
   scalar accumulator across chunk boundaries in row order, every fused
   chunk evaluation matches per-expression compilation, and the solve is
   the shared Cholesky core — so fits, point reads, forward selection, and
   whole evolved fronts are pinned here to be BIT-identical, not merely
   close.  [Dataset.chunked_of_columns] is the in-memory stand-in for a
   Colstore file, so the properties run without touching disk. *)

module Dataset = Caffeine_io.Dataset
module Expr = Caffeine_expr.Expr
module Linfit = Caffeine_regress.Linfit
module Model = Caffeine.Model
module Sag = Caffeine.Sag
module Search = Caffeine.Search
module Config = Caffeine.Config
module Opset = Caffeine.Opset
module Gen = Caffeine.Gen
module Rng = Caffeine_util.Rng
module Executor = Caffeine_par.Executor

(* NaN-safe exact comparison: two paths agreeing "bit for bit" must agree
   on the exact IEEE words, NaN payloads included. *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let farr_eq a b = Array.length a = Array.length b && Array.for_all2 feq a b

let wb = 1.0
let wvc = 0.5

(* Random columns, targets and structurally random bases (the full
   grammar: VCs, unaries, conditionals — whatever [Gen] produces). *)
let make_case ~seed ~n ~dims ~k =
  let rng = Rng.create ~seed () in
  let columns = Array.init dims (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
  let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
  let bases =
    Array.init k (fun _ -> Gen.random_basis rng Opset.default ~dims ~depth:3 ~max_vc_vars:2)
  in
  (columns, targets, bases)

let fit_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Model.t), Some (b : Model.t) ->
      feq a.Model.intercept b.Model.intercept
      && farr_eq a.Model.weights b.Model.weights
      && feq a.Model.train_error b.Model.train_error
      && a.Model.complexity = b.Model.complexity
  | _ -> false

let property_tests =
  [
    QCheck.Test.make ~name:"chunked gram is bit-identical to dense" ~count:150
      QCheck.(triple small_int (int_range 3 60) (int_range 1 70))
      (fun (seed, n, chunk_rows) ->
        let columns, targets, bases = make_case ~seed ~n ~dims:3 ~k:4 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows columns in
        let gd = Dataset.gram dense bases ~targets in
        let gc = Dataset.gram chunked bases ~targets in
        gd.Dataset.finite_bases = gc.Dataset.finite_bases
        && Array.for_all2 farr_eq gd.Dataset.dots gc.Dataset.dots
        && farr_eq gd.Dataset.dot_ys gc.Dataset.dot_ys
        && farr_eq gd.Dataset.col_sums gc.Dataset.col_sums);
    QCheck.Test.make ~name:"Model.fit is bit-identical across storages and chunk sizes"
      ~count:150
      QCheck.(triple small_int (int_range 3 60) (int_range 1 70))
      (fun (seed, n, chunk_rows) ->
        let columns, targets, bases = make_case ~seed ~n ~dims:3 ~k:3 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows columns in
        let other = Dataset.chunked_of_columns ~chunk_rows:(chunk_rows + 3) columns in
        let fit data = Model.fit ~wb ~wvc bases ~data ~targets in
        fit_eq (fit dense) (fit chunked)
        && fit_eq (fit chunked) (fit other)
        (* The empty individual routes through the constant fit on every
           storage. *)
        && fit_eq
             (Model.fit ~wb ~wvc [||] ~data:dense ~targets)
             (Model.fit ~wb ~wvc [||] ~data:chunked ~targets));
    QCheck.Test.make ~name:"fit_stream is bit-identical to fit_gram" ~count:150
      QCheck.(triple small_int (int_range 2 50) (int_range 1 60))
      (fun (seed, n, chunk) ->
        let rng = Rng.create ~seed () in
        let k = 1 + Rng.int rng 4 in
        let columns =
          Array.init k (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.))
        in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        (* The sequential dot products both entry points are specified
           against: one scalar accumulator in row order. *)
        let dot_cols a b =
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (a.(i) *. b.(i))
          done;
          !acc
        in
        let ones = Array.make n 1. in
        let dot i j = dot_cols columns.(i) columns.(j) in
        let dot_y i = dot_cols columns.(i) targets in
        let col_sum i = dot_cols columns.(i) ones in
        let iter f =
          let lo = ref 0 in
          while !lo < n do
            let len = min chunk (n - !lo) in
            f ~row0:!lo ~len (Array.map (fun c -> Array.sub c !lo len) columns);
            lo := !lo + len
          done
        in
        let streamed = Linfit.fit_stream ~dot ~dot_y ~col_sum ~k ~n ~iter ~targets in
        let gram = Linfit.fit_gram ~dot ~dot_y ~col_sum ~basis_values:columns ~targets in
        feq streamed.Linfit.intercept gram.Linfit.intercept
        && farr_eq streamed.Linfit.weights gram.Linfit.weights
        && farr_eq streamed.Linfit.predictions gram.Linfit.predictions
        && feq streamed.Linfit.train_error gram.Linfit.train_error);
    QCheck.Test.make ~name:"probe and materialized columns are bit-identical" ~count:100
      QCheck.(triple small_int (int_range 3 40) (int_range 1 50))
      (fun (seed, n, chunk_rows) ->
        let columns, _, bases = make_case ~seed ~n ~dims:3 ~k:3 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows columns in
        let rng = Rng.create ~seed:(seed + 1) () in
        let indices = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng n) in
        Array.for_all (fun i -> farr_eq (Dataset.point dense i) (Dataset.point chunked i)) indices
        && Array.for_all
             (fun basis ->
               farr_eq (Dataset.basis_column dense basis) (Dataset.basis_column chunked basis))
             bases);
    QCheck.Test.make ~name:"forward_select picks identical columns on both storages" ~count:75
      QCheck.(pair small_int (int_range 8 40))
      (fun (seed, n) ->
        let columns, targets, bases = make_case ~seed ~n ~dims:3 ~k:4 in
        let dense = Dataset.of_columns columns in
        let chunked = Dataset.chunked_of_columns ~chunk_rows:5 columns in
        let values data = Array.map (Dataset.basis_column data) bases in
        let select values =
          Linfit.forward_select ~basis_values:values ~targets ()
        in
        select (values dense) = select (values chunked))
  ]

(* Dense ≡ chunked Gram, word for word, where NaN payloads can tell the
   two apart: columns full of zeros, negatives, NaN and -∞, and
   individuals that repeat a basis, so one unordered pair recurs within a
   Gram and its two columns meet in both orders.  Every entry must be the
   word the cache holds, on both storages and for every chunk size. *)
let test_gram_nan_repeats () =
  let gram_eq (a : Dataset.gram) (b : Dataset.gram) =
    a.Dataset.finite_bases = b.Dataset.finite_bases
    && Array.for_all2 farr_eq a.Dataset.dots b.Dataset.dots
    && farr_eq a.Dataset.dot_ys b.Dataset.dot_ys
    && farr_eq a.Dataset.col_sums b.Dataset.col_sums
  in
  let dims = 3 in
  let mismatches = ref [] in
  for seed = 0 to 2999 do
    let rng = Rng.create ~seed () in
    let n = 1 + Rng.int rng 40 in
    let entry () =
      match Rng.int rng 5 with
      | 0 -> 0.
      | 1 -> -.Rng.range rng 0.1 3.
      | 2 -> Float.nan
      | 3 -> Float.neg_infinity
      | _ -> Rng.range rng 0.1 3.
    in
    let columns = Array.init dims (fun _ -> Array.init n (fun _ -> entry ())) in
    let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
    let pool =
      Array.init (1 + Rng.int rng 4) (fun _ ->
          Gen.random_basis rng Opset.default ~dims ~depth:3 ~max_vc_vars:2)
    in
    let bases = Array.init (1 + Rng.int rng 5) (fun _ -> Rng.choose rng pool) in
    let chunk_rows = 1 + Rng.int rng n in
    let dense = Dataset.gram (Dataset.of_columns columns) bases ~targets in
    let chunked = Dataset.gram (Dataset.chunked_of_columns ~chunk_rows columns) bases ~targets in
    if not (gram_eq dense chunked) then mismatches := seed :: !mismatches
  done;
  Alcotest.(check (list int)) "seeds whose dense and chunked Grams differ" []
    (List.rev !mismatches)

(* A whole evolved front — search loop, NSGA-II, eval cache, SAG-ready
   models — must come out byte-for-byte the same whether the samples are
   resident or streamed, and regardless of the execution backend. *)
let test_front_identity () =
  let columns, targets, _ = make_case ~seed:7 ~n:64 ~dims:3 ~k:0 in
  let names = [| "a"; "b"; "c" |] in
  let dense = Dataset.of_columns ~var_names:names columns in
  let chunked = Dataset.chunked_of_columns ~var_names:names ~chunk_rows:7 columns in
  let config = Config.scaled ~pop_size:16 ~generations:3 Config.paper in
  let front data = (Search.run ~seed:23 config ~data ~targets).Search.front in
  let reference = front dense in
  Alcotest.(check bool) "front is non-trivial" true (List.length reference >= 1);
  let check_same label other =
    Alcotest.(check int) (label ^ ": front size") (List.length reference) (List.length other);
    List.iter2
      (fun (a : Model.t) (b : Model.t) ->
        Alcotest.(check string)
          (label ^ ": model text")
          (Model.to_string ~var_names:names a)
          (Model.to_string ~var_names:names b);
        Alcotest.(check bool) (label ^ ": intercept") true (feq a.Model.intercept b.Model.intercept);
        Alcotest.(check bool) (label ^ ": weights") true (farr_eq a.Model.weights b.Model.weights);
        Alcotest.(check bool)
          (label ^ ": train error")
          true
          (feq a.Model.train_error b.Model.train_error))
      reference other
  in
  check_same "chunked/seq" (front chunked);
  Executor.with_executor ~jobs:2 Executor.Domains (fun executor ->
      check_same "chunked/domains"
        (Search.run ~seed:23 ~executor config ~data:chunked ~targets).Search.front)

(* SAG after the search — PRESS pruning, both refits, then test scoring —
   must also come out bit-identical on streamed data, for every chunk size
   and on both executors: streamed SAG evaluates each model in one fused
   pass and refits from the columns it holds. *)
let test_sag_identity () =
  let structured ~seed ~n =
    let rng = Rng.create ~seed () in
    let columns = Array.init 3 (fun _ -> Array.init n (fun _ -> Rng.range rng 0.2 2.)) in
    let targets =
      Array.init n (fun i ->
          let a = columns.(0).(i) and b = columns.(1).(i) and c = columns.(2).(i) in
          3. +. (2. *. a *. b) -. (0.5 *. c *. c) +. Rng.range rng (-0.05) 0.05)
    in
    (columns, targets)
  in
  let n = 64 and test_n = 40 in
  let columns, targets = structured ~seed:7 ~n in
  let test_columns, test_targets = structured ~seed:8 ~n:test_n in
  let names = [| "a"; "b"; "c" |] in
  let config = Config.scaled ~pop_size:16 ~generations:3 Config.paper in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let front =
    (Search.run ~seed:23 config ~data:(Dataset.of_columns ~var_names:names columns) ~targets)
      .Search.front
  in
  let sag executor ~data ~test_data =
    let simplified = Sag.process_front ~executor ~wb ~wvc front ~data ~targets in
    (simplified, Sag.test_tradeoff simplified ~data:test_data ~targets:test_targets)
  in
  let dense () =
    (Dataset.of_columns ~var_names:names columns, Dataset.of_columns ~var_names:names test_columns)
  in
  let chunked chunk_rows () =
    ( Dataset.chunked_of_columns ~var_names:names ~chunk_rows columns,
      Dataset.chunked_of_columns ~var_names:names ~chunk_rows test_columns )
  in
  let run executor storage =
    let data, test_data = storage () in
    sag executor ~data ~test_data
  in
  let ref_simplified, ref_scored = run Executor.sequential dense in
  Alcotest.(check bool) "SAG keeps a model with bases" true
    (List.exists (fun (m : Model.t) -> Model.num_bases m > 0) ref_simplified);
  let same_model label (a : Model.t) (b : Model.t) =
    Alcotest.(check string)
      (label ^ ": model text")
      (Model.to_string ~var_names:names a)
      (Model.to_string ~var_names:names b);
    Alcotest.(check bool) (label ^ ": intercept") true (feq a.Model.intercept b.Model.intercept);
    Alcotest.(check bool) (label ^ ": weights") true (farr_eq a.Model.weights b.Model.weights);
    Alcotest.(check bool) (label ^ ": train error") true (feq a.Model.train_error b.Model.train_error)
  in
  let check_same label (simplified, scored) =
    Alcotest.(check int) (label ^ ": simplified size") (List.length ref_simplified)
      (List.length simplified);
    List.iter2 (same_model (label ^ " simplified")) ref_simplified simplified;
    Alcotest.(check int) (label ^ ": tradeoff size") (List.length ref_scored) (List.length scored);
    List.iter2
      (fun (a : Sag.scored) (b : Sag.scored) ->
        same_model (label ^ " scored") a.Sag.model b.Sag.model;
        Alcotest.(check bool) (label ^ ": test error") true (feq a.Sag.test_error b.Sag.test_error))
      ref_scored scored
  in
  let storages =
    [ ("chunk 1", chunked 1); ("chunk 7", chunked 7); ("chunk n", chunked n) ]
  in
  List.iter
    (fun (name, storage) -> check_same (name ^ "/seq") (run Executor.sequential storage))
    storages;
  Executor.with_executor ~jobs:2 Executor.Domains (fun executor ->
      List.iter
        (fun (name, storage) -> check_same (name ^ "/domains") (run executor storage))
        (("dense", dense) :: storages))

let suite =
  (Alcotest.test_case "evolved fronts are bit-identical across storages/backends" `Quick
     test_front_identity
  :: List.map QCheck_alcotest.to_alcotest property_tests)
  @ [
      Alcotest.test_case "SAG and test scoring are bit-identical across storages/backends"
        `Quick test_sag_identity;
      Alcotest.test_case "dense and chunked Grams agree word for word on NaN-heavy repeats"
        `Quick test_gram_nan_repeats;
    ]
