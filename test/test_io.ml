(* Tests for CSV dataset IO and the column-major Dataset. *)

module Csv = Caffeine_io.Csv
module Dataset = Caffeine_io.Dataset
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Rng = Caffeine_util.Rng
module Gen = Caffeine.Gen
module Opset = Caffeine.Opset

let sample_table =
  {
    Csv.header = [| "x"; "y"; "z" |];
    rows = [| [| 1.; 2.; 3. |]; [| 4.5; -6.; 7.25e-3 |] |];
  }

let test_write_read_roundtrip () =
  let path = Filename.temp_file "caffeine_csv" ".csv" in
  Csv.write ~path sample_table;
  (match Csv.read ~path with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok table ->
      Alcotest.(check bool) "header" true (table.Csv.header = sample_table.Csv.header);
      Alcotest.(check int) "rows" 2 (Array.length table.Csv.rows);
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v -> Alcotest.(check (float 1e-15)) "cell" sample_table.Csv.rows.(i).(j) v)
            row)
        table.Csv.rows);
  Sys.remove path

let test_column_extraction () =
  let y = Csv.column sample_table "y" in
  Alcotest.(check (float 0.)) "y0" 2. y.(0);
  Alcotest.(check (float 0.)) "y1" (-6.) y.(1);
  Alcotest.(check bool) "missing column raises" true
    (match Csv.column sample_table "missing" with
    | _ -> false
    | exception Not_found -> true)

let test_columns_except () =
  let names, rows = Csv.columns_except sample_table [ "y" ] in
  Alcotest.(check bool) "names" true (names = [| "x"; "z" |]);
  Alcotest.(check (float 0.)) "kept cells" 3. rows.(0).(1)

let contains_substring text fragment =
  let len = String.length fragment in
  let rec from i =
    i + len <= String.length text && (String.sub text i len = fragment || from (i + 1))
  in
  from 0

let test_read_errors () =
  let write_text text =
    let path = Filename.temp_file "caffeine_csv" ".csv" in
    let channel = open_out path in
    output_string channel text;
    close_out channel;
    path
  in
  let expect_error text =
    let path = write_text text in
    (match Csv.read ~path with
    | Ok _ -> Alcotest.failf "expected error for %S" text
    | Error _ -> ());
    Sys.remove path
  in
  expect_error "";
  expect_error "a,b\n1,2,3\n";
  expect_error "a,b\n1,zzz\n"

let write_text text =
  let path = Filename.temp_file "caffeine_csv" ".csv" in
  let channel = open_out_bin path in
  output_string channel text;
  close_out channel;
  path

let expect_error_containing text fragment =
  let path = write_text text in
  (match Csv.read ~path with
  | Ok _ -> Alcotest.failf "expected an error for %S" text
  | Error msg ->
      if not (contains_substring msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment);
  Sys.remove path

let test_read_error_line_numbers () =
  (* Blank lines are skipped but must not shift reported positions: the bad
     cell below sits on line 5 of the file, the ragged row on line 4. *)
  expect_error_containing "a,b\n\n1,2\n\nx,4\n" "line 5";
  expect_error_containing "a,b\n\n\n1,2,3\n" "line 4"

let test_read_crlf () =
  let path = write_text "a,b\r\n1,2\r\n\r\n3,4\r\n" in
  (match Csv.read ~path with
  | Error msg -> Alcotest.failf "CRLF read failed: %s" msg
  | Ok table ->
      Alcotest.(check bool) "header" true (table.Csv.header = [| "a"; "b" |]);
      Alcotest.(check int) "rows" 2 (Array.length table.Csv.rows);
      Alcotest.(check (float 0.)) "cell" 4. table.Csv.rows.(1).(1));
  Sys.remove path;
  (* A bad cell in a CRLF file still reports its original line. *)
  expect_error_containing "a,b\r\n\r\nx,2\r\n" "line 3"

let test_read_header_only () =
  expect_error_containing "a,b\n" "only a header";
  expect_error_containing "a,b\n\n\n" "only a header"

let test_duplicate_header_rejected () =
  (* A duplicate name would silently bind --target / exclusions to the
     first occurrence; the error must name the column and both positions. *)
  expect_error_containing "a,b,a\n1,2,3\n" "duplicate column name \"a\"";
  expect_error_containing "a,b,a\n1,2,3\n" "columns 1 and 3";
  expect_error_containing "x,x\n1,2\n" "columns 1 and 2";
  (* CRLF must not defeat the duplicate check on the last column. *)
  expect_error_containing "a,b,b\r\n1,2,3\r\n" "duplicate column name \"b\""

let test_crlf_error_messages_trimmed () =
  (* The offending cell is quoted without its carriage return: pre-fix the
     message read [bad number "zzz\r"], pointing users at a phantom cell. *)
  let path = write_text "a,b\r\n1,zzz\r\n" in
  (match Csv.read ~path with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
      Alcotest.(check bool) "no carriage return in message" false
        (String.contains msg '\r');
      let fragment = "bad number \"zzz\"" in
      let len = String.length fragment in
      let rec occurs i =
        i + len <= String.length msg && (String.sub msg i len = fragment || occurs (i + 1))
      in
      Alcotest.(check bool) "quotes the trimmed cell" true (occurs 0));
  Sys.remove path

let test_stream_incremental () =
  (* The streaming driver visits rows one at a time without materializing
     the table; a row-callback error aborts the scan with its message. *)
  let path = write_text "a,b\n1,2\n\n3,4\n5,6\n" in
  let seen = ref [] in
  (match
     Csv.stream ~path
       ~header:(fun names ->
         Alcotest.(check bool) "header" true (names = [| "a"; "b" |]);
         Ok ())
       ~row:(fun ~lineno row ->
         seen := (lineno, row.(0), row.(1)) :: !seen;
         Ok ())
   with
  | Error msg -> Alcotest.failf "stream failed: %s" msg
  | Ok () ->
      Alcotest.(check bool) "rows in order with file line numbers" true
        (List.rev !seen = [ (2, 1., 2.); (4, 3., 4.); (5, 5., 6.) ]));
  (match
     Csv.stream ~path
       ~header:(fun _ -> Ok ())
       ~row:(fun ~lineno _ -> if lineno >= 4 then Error "stop here" else Ok ())
   with
  | Ok () -> Alcotest.fail "expected the row error to propagate"
  | Error msg -> Alcotest.(check string) "row error surfaces" "stop here" msg);
  Sys.remove path

let test_read_skips_blank_lines () =
  let path = Filename.temp_file "caffeine_csv" ".csv" in
  let channel = open_out path in
  output_string channel "a,b\n\n1,2\n\n3,4\n";
  close_out channel;
  (match Csv.read ~path with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok table -> Alcotest.(check int) "two rows" 2 (Array.length table.Csv.rows));
  Sys.remove path

let test_write_rejects_ragged () =
  let path = Filename.temp_file "caffeine_csv" ".csv" in
  Alcotest.(check bool) "ragged rejected" true
    (match Csv.write ~path { Csv.header = [| "a"; "b" |]; rows = [| [| 1. |] |] } with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Sys.remove path

(* --- Dataset ------------------------------------------------------------- *)

let test_dataset_rows_columns_roundtrip () =
  let rows = [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let data = Dataset.of_rows ~var_names:[| "a"; "b" |] rows in
  Alcotest.(check int) "samples" 3 (Dataset.n_samples data);
  Alcotest.(check int) "dims" 2 (Dataset.dims data);
  Alcotest.(check bool) "names" true (Dataset.var_names data = [| "a"; "b" |]);
  Alcotest.(check bool) "column b" true (Dataset.column data 1 = [| 2.; 4.; 6. |]);
  Alcotest.(check bool) "point 1" true (Dataset.point data 1 = [| 3.; 4. |]);
  Alcotest.(check bool) "rows round-trip" true (Dataset.rows data = rows)

let test_dataset_of_table () =
  let table =
    { Csv.header = [| "x"; "y"; "target" |]; rows = [| [| 1.; 2.; 9. |]; [| 3.; 4.; 8. |] |] }
  in
  let data = Dataset.of_table ~exclude:[ "target" ] table in
  Alcotest.(check int) "dims exclude target" 2 (Dataset.dims data);
  Alcotest.(check bool) "names" true (Dataset.var_names data = [| "x"; "y" |]);
  Alcotest.(check bool) "x column" true (Dataset.column data 0 = [| 1.; 3. |])

let test_dataset_split () =
  let rows = Array.init 10 (fun i -> [| float_of_int i |]) in
  let data = Dataset.of_rows rows in
  let train, test = Dataset.split data ~at:7 in
  Alcotest.(check int) "train size" 7 (Dataset.n_samples train);
  Alcotest.(check int) "test size" 3 (Dataset.n_samples test);
  Alcotest.(check bool) "test values" true (Dataset.column test 0 = [| 7.; 8.; 9. |]);
  Alcotest.(check bool) "bad split rejected" true
    (match Dataset.split data ~at:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_dataset_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> Dataset.of_rows [||]);
  expect_invalid (fun () -> Dataset.of_rows [| [| 1. |]; [| 1.; 2. |] |]);
  expect_invalid (fun () -> Dataset.of_rows ~var_names:[| "a"; "b" |] [| [| 1. |] |]);
  expect_invalid (fun () -> Dataset.of_columns [| [| 1. |]; [| 1.; 2. |] |]);
  (* A header-only table has no samples to evaluate on. *)
  expect_invalid (fun () -> Dataset.of_table { Csv.header = [| "x"; "y" |]; rows = [||] })

let test_dataset_ragged_names_offender () =
  (* Regression: a short column once raised a generic "ragged columns"
     message; every downstream consumer indexes columns with unsafe
     accesses trusting n, so the rejection must say WHICH variable is
     short and by how much. *)
  let columns = [| [| 1.; 2.; 3. |]; [| 4.; 5. |]; [| 6.; 7.; 8. |] |] in
  (match Dataset.of_columns ~var_names:[| "vdd"; "ibias"; "w1" |] columns with
  | (_ : Dataset.t) -> Alcotest.fail "ragged columns accepted"
  | exception Invalid_argument msg ->
      if not (contains_substring msg "\"ibias\"") then
        Alcotest.failf "message %S does not name the offending variable" msg;
      if not (contains_substring msg "has 2 values, expected 3") then
        Alcotest.failf "message %S does not state the length mismatch" msg);
  (* Default names still identify the column. *)
  match Dataset.of_columns [| [| 1. |]; [| 2.; 3. |] |] with
  | (_ : Dataset.t) -> Alcotest.fail "ragged columns accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "default name in message" true (contains_substring msg "\"x1\"")

let test_dataset_basis_column_memoizes () =
  let rows = [| [| 2. |]; [| 3. |]; [| 4. |] |] in
  let data = Dataset.of_rows rows in
  let basis = Expr.{ vc = Some [| 2 |]; factors = [] } in
  let column = Dataset.basis_column data basis in
  Alcotest.(check bool) "squares" true (column = [| 4.; 9.; 16. |]);
  Alcotest.(check int) "one cached" 1 (Dataset.cached_columns data);
  (* A structurally equal (but physically distinct) basis hits the cache. *)
  let again = Dataset.basis_column data Expr.{ vc = Some [| 2 |]; factors = [] } in
  Alcotest.(check bool) "same array shared" true (column == again);
  Alcotest.(check int) "still one cached" 1 (Dataset.cached_columns data);
  let other = Dataset.basis_column data Expr.{ vc = Some [| 3 |]; factors = [] } in
  Alcotest.(check bool) "cubes" true (other = [| 8.; 27.; 64. |]);
  Alcotest.(check int) "two cached" 2 (Dataset.cached_columns data)

let test_dataset_eval_column_matches_interpreter () =
  let rows = [| [| 0.5; 2. |]; [| 1.5; 0.25 |] |] in
  let data = Dataset.of_rows rows in
  let basis =
    Expr.
      {
        vc = Some [| 1; -1 |];
        factors = [ Unary (Caffeine_expr.Op.Sqrt, { bias = 1.; terms = [] }) ];
      }
  in
  let column = Dataset.basis_column data basis in
  Array.iteri
    (fun i row ->
      Alcotest.(check (float 1e-12)) "agrees" (Expr.eval_basis basis row) column.(i))
    rows

(* The scalar tables live on chunked storage, where each product costs a
   stream over the data. *)
let test_dataset_dot_cache () =
  let data = Dataset.chunked_of_columns ~chunk_rows:2 [| [| 2.; 3.; 4. |] |] in
  let squares = Expr.{ vc = Some [| 2 |]; factors = [] } in
  let cubes = Expr.{ vc = Some [| 3 |]; factors = [] } in
  let targets = [| 1.; 1.; 1. |] in
  let manual a b = Array.fold_left ( +. ) 0. (Array.mapi (fun i x -> x *. b.(i)) a) in
  let sq_col = Dataset.basis_column data squares in
  let cu_col = Dataset.basis_column data cubes in
  let g = Dataset.gram data [| squares; cubes |] ~targets in
  Alcotest.(check (float 1e-9)) "dot value" (manual sq_col cu_col) g.Dataset.dots.(0).(1);
  (* Seven lookups, all misses: three pairs (the upper triangle), and a
     target product and a column sum per basis. *)
  let stats = Dataset.stats data in
  Alcotest.(check int) "seven products cached" 7 stats.Dataset.dots_cached;
  Alcotest.(check int) "every first lookup is a miss" 7 stats.Dataset.dot_misses;
  (* One canonical pair key: (a, b) and (b, a) share one entry. *)
  let swapped = Dataset.gram data [| cubes; squares |] ~targets in
  Alcotest.(check (float 1e-9)) "symmetric hit" (manual sq_col cu_col)
    swapped.Dataset.dots.(0).(1);
  let stats = Dataset.stats data in
  Alcotest.(check int) "still seven products cached" 7 stats.Dataset.dots_cached;
  Alcotest.(check int) "swapped order hits" 7 stats.Dataset.dot_hits;
  Alcotest.(check (float 1e-9)) "column sum" (Array.fold_left ( +. ) 0. sq_col)
    g.Dataset.col_sums.(0)

let test_dataset_dot_target_keying () =
  let data = Dataset.chunked_of_columns ~chunk_rows:2 [| [| 2.; 3.; 4. |] |] in
  let basis = Expr.{ vc = Some [| 2 |]; factors = [] } in
  let col = Dataset.basis_column data basis in
  let manual b = Array.fold_left ( +. ) 0. (Array.mapi (fun i x -> x *. b.(i)) col) in
  let targets_a = [| 1.; 0.; -1. |] in
  let targets_b = [| 2.; 2.; 2. |] in
  let dot_target targets = (Dataset.gram data [| basis |] ~targets).Dataset.dot_ys.(0) in
  (* Distinct target vectors must key distinct cache entries even for the
     same basis. *)
  Alcotest.(check (float 1e-9)) "target a" (manual targets_a) (dot_target targets_a);
  Alcotest.(check (float 1e-9)) "target b" (manual targets_b) (dot_target targets_b);
  Alcotest.(check (float 1e-9)) "target a again" (manual targets_a) (dot_target targets_a);
  (* The first call misses its target product, column sum and pair; the
     second misses only its own target product; the third hits all three. *)
  let stats = Dataset.stats data in
  Alcotest.(check int) "new target was a miss" 4 stats.Dataset.dot_misses;
  Alcotest.(check int) "repeat was a hit" 5 stats.Dataset.dot_hits;
  Alcotest.(check bool) "length mismatch rejected" true
    (match Dataset.gram data [| basis |] ~targets:[| 1. |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Dataset.clear_cache data;
  let stats = Dataset.stats data in
  Alcotest.(check int) "dots cleared" 0 stats.Dataset.dots_cached;
  Alcotest.(check int) "columns cleared" 0 stats.Dataset.columns_cached

(* Resident storage keeps no scalar table: every Gram is one pass over
   the memoized columns of its distinct bases, and a pair has one word in
   whichever order, and however often, its bases come.  At row 1, [a] is
   a NaN of one sign and [b] one of the other, so their product's word
   depends on which operand is on the left. *)
let test_dataset_resident_gram_uncached () =
  let data = Dataset.of_columns [| [| 2.; -.Float.nan; 4. |]; [| 0.5; -1.; 0.25 |] |] in
  let a = Expr.{ vc = Some [| 2; 0 |]; factors = [] } in
  let b =
    Expr.
      {
        vc = None;
        factors = [ Unary (Op.Log_e, { bias = 0.; terms = [ (1., { vc = Some [| 0; 1 |]; factors = [] }) ] }) ];
      }
  in
  let targets = [| 1.; 0.; -1. |] in
  let column_reads () =
    let s = Dataset.stats data in
    s.Dataset.column_hits + s.Dataset.column_misses
  in
  let gram bases =
    let before = column_reads () in
    let g = Dataset.gram data bases ~targets in
    Alcotest.(check int) "each distinct column read once" 2 (column_reads () - before);
    g
  in
  let aba = gram [| a; b; a |] in
  let ba = gram [| b; a |] in
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  Alcotest.(check bool) "one word per pair" true
    (feq aba.Dataset.dots.(0).(1) ba.Dataset.dots.(1).(0)
    && feq aba.Dataset.dots.(1).(2) ba.Dataset.dots.(0).(1)
    && feq aba.Dataset.dots.(0).(2) aba.Dataset.dots.(0).(0));
  Alcotest.(check bool) "repeated basis reads its entries" true
    (feq aba.Dataset.dot_ys.(0) aba.Dataset.dot_ys.(2)
    && feq aba.Dataset.dot_ys.(2) ba.Dataset.dot_ys.(1)
    && feq aba.Dataset.col_sums.(1) ba.Dataset.col_sums.(0));
  let stats = Dataset.stats data in
  Alcotest.(check int) "no product cached" 0 stats.Dataset.dots_cached;
  Alcotest.(check int) "no product looked up" 0 (stats.Dataset.dot_hits + stats.Dataset.dot_misses)

let test_dataset_stats_counters () =
  let rows = [| [| 2. |]; [| 3. |]; [| 4. |] |] in
  let data = Dataset.of_rows rows in
  let basis = Expr.{ vc = Some [| 2 |]; factors = [] } in
  ignore (Dataset.basis_column data basis);
  ignore (Dataset.basis_column data Expr.{ vc = Some [| 2 |]; factors = [] });
  let stats = Dataset.stats data in
  Alcotest.(check int) "column miss then hit" 1 stats.Dataset.column_misses;
  Alcotest.(check int) "column hit" 1 stats.Dataset.column_hits;
  Alcotest.(check int) "one column cached" 1 stats.Dataset.columns_cached;
  Alcotest.(check int) "no evictions yet" 0 stats.Dataset.column_evictions

(* A resident fit fetches each distinct basis's column once and hands the
   same columns to the Gram and the prediction pass: on warm columns,
   [Model.fit] of k distinct bases adds exactly k column hits (a second
   lookup for the prediction pass would add 2k), a repeated basis adds
   none, and an individual with a non-finite basis is rejected from the
   column's flag at the first such column, before any product. *)
let test_resident_fit_reads_each_column_once () =
  let rng = Rng.create ~seed:11 () in
  let n = 30 in
  let x0 = Array.init n (fun _ -> Rng.range rng 0.5 2.) in
  let x1 = Array.init n (fun _ -> Rng.range rng 0.5 2.) in
  let x2 = Array.init n (fun i -> if i = 17 then Float.nan else Rng.range rng 0.5 2.) in
  let data = Dataset.of_columns [| x0; x1; x2 |] in
  let targets = Array.init n (fun i -> 1. +. x0.(i) -. (2. *. x0.(i) *. x1.(i))) in
  let monomial vc = Expr.{ vc = Some vc; factors = [] } in
  let a = monomial [| 1; 0; 0 |] and b = monomial [| 1; 1; 0 |] and c = monomial [| 0; 2; 0 |] in
  let bad = monomial [| 0; 0; 1 |] in
  ignore (Dataset.warm_columns data [| a; b; c; bad |] : Dataset.fuse_stats);
  let fit bases =
    let before = Dataset.stats data in
    let fitted = Caffeine.Model.fit ~wb:10. ~wvc:0.25 bases ~data ~targets in
    let after = Dataset.stats data in
    Alcotest.(check int) "no column miss" before.Dataset.column_misses after.Dataset.column_misses;
    (fitted, after.Dataset.column_hits - before.Dataset.column_hits)
  in
  let fitted, hits = fit [| a; b; c |] in
  Alcotest.(check int) "three distinct bases, three hits" 3 hits;
  Alcotest.(check bool) "finite individual fits" true (Option.is_some fitted);
  let _, hits = fit [| b; a; b |] in
  Alcotest.(check int) "a repeated basis is fetched once" 2 hits;
  let fitted, hits = fit [| a; bad; b |] in
  Alcotest.(check bool) "non-finite basis rejects the individual" true (Option.is_none fitted);
  Alcotest.(check int) "fetching stops at the non-finite column" 2 hits;
  let stats = Dataset.stats data in
  Alcotest.(check int) "no product looked up" 0 (stats.Dataset.dot_hits + stats.Dataset.dot_misses)

(* --- Colstore ------------------------------------------------------------ *)

module Colstore = Caffeine_io.Colstore

let test_dataset_scratch_not_retained () =
  (* Evaluation scratch is per domain, not per dataset: OCaml never frees a
     domain-local key, so a key per dataset kept every dataset's buffers
     reachable for the life of the process.  Throwaway datasets must leave
     no heap behind. *)
  let rows = 243 in
  let leaf e = Expr.{ vc = Some [| e; 1 |]; factors = [] } in
  let sum e = Expr.Sum { bias = 1.; terms = [ (2., leaf e); (3., leaf (e + 1)) ] } in
  let basis =
    Expr.{ vc = Some [| 1; 0 |]; factors = [ Binary (Op.Max, sum 1, sum 2); Binary (Op.Min, sum 3, sum 4) ] }
  in
  let make () =
    Dataset.of_columns (Array.init 2 (fun v -> Array.init rows (fun i -> float (i + v + 1))))
  in
  ignore (Dataset.basis_column (make ()) basis);
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for _ = 1 to 400 do
    ignore (Dataset.basis_column (make ()) basis)
  done;
  Gc.full_major ();
  let grown = float ((Gc.stat ()).Gc.live_words - before) *. float (Sys.word_size / 8) in
  if grown > 1e6 then Alcotest.failf "400 dropped datasets left %.1f MB live" (grown /. 1e6)

let gram_properties =
  let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  [
    QCheck.Test.make ~name:"dense gram is symmetric and equals per-pair dot word for word"
      ~count:200
      QCheck.(pair small_int (int_range 1 50))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let dims = 1 + Rng.int rng 3 in
        let columns = Array.init dims (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.) 2.)) in
        let targets = Array.init n (fun _ -> Rng.range rng (-3.) 3.) in
        let k = 1 + Rng.int rng 6 in
        let pool =
          Array.init k (fun _ -> Gen.random_basis rng Opset.default ~dims ~depth:3 ~max_vc_vars:2)
        in
        (* Repeats: a basis paired with itself and with its duplicates. *)
        let bases = Array.init (k + 2) (fun _ -> pool.(Rng.int rng k)) in
        let g = Dataset.gram (Dataset.of_columns columns) bases ~targets in
        (* Per-pair products from a separate, cold dataset: nothing is
           shared with the Gram's cache, and each pair is computed on its
           own in a one- or two-basis Gram, the first time it is met. *)
        let fresh = Dataset.of_columns columns in
        let single b = Dataset.gram fresh [| b |] ~targets in
        let dot a b = (Dataset.gram fresh [| a; b |] ~targets).Dataset.dots.(0).(1) in
        let m = Array.length bases in
        let ok = ref true in
        for i = 0 to m - 1 do
          for j = 0 to m - 1 do
            ok :=
              !ok
              && feq g.Dataset.dots.(i).(j) g.Dataset.dots.(j).(i)
              && feq g.Dataset.dots.(i).(j) (dot bases.(i) bases.(j))
          done;
          ok :=
            !ok
            && feq g.Dataset.dot_ys.(i) (single bases.(i)).Dataset.dot_ys.(0)
            && feq g.Dataset.col_sums.(i) (single bases.(i)).Dataset.col_sums.(0)
        done;
        !ok);
  ]

let write_store ~chunk_rows ~rows ~dims =
  let path = Filename.temp_file "caffeine_colstore" ".cafs" in
  let var_names = Array.init dims (fun d -> Printf.sprintf "v%d" d) in
  let writer = Colstore.Writer.create ~path ~var_names ~chunk_rows () in
  let cell r d = float_of_int ((r * 17) + (d * 5)) /. 3. in
  let row = Array.make dims 0. in
  for r = 0 to rows - 1 do
    for d = 0 to dims - 1 do
      row.(d) <- cell r d
    done;
    Colstore.Writer.append_row writer row
  done;
  Colstore.Writer.close writer;
  (path, cell)

let check_store_contents ~rows ~dims ~chunk_rows path cell =
  let store = Colstore.openfile path in
  Alcotest.(check int) "n_rows" rows (Colstore.n_rows store);
  Alcotest.(check int) "chunk_rows" chunk_rows (Colstore.chunk_rows store);
  Alcotest.(check int) "dims" dims (Array.length (Colstore.var_names store));
  (* Chunks arrive in row order, the last one short. *)
  let visited = ref 0 in
  Colstore.iter_chunks store ~f:(fun ~row0 ~len columns ->
      Alcotest.(check int) "in order" !visited row0;
      for d = 0 to dims - 1 do
        for r = 0 to len - 1 do
          if columns.(d).(r) <> cell (row0 + r) d then
            Alcotest.failf "chunk cell (%d, %d) mismatch" (row0 + r) d
        done
      done;
      visited := !visited + len);
  Alcotest.(check int) "every row visited" rows !visited;
  (* Whole-column materialization and random-access gather agree. *)
  let col1 = Colstore.column store 1 in
  Alcotest.(check int) "column length" rows (Array.length col1);
  Alcotest.(check (float 0.)) "column cell" (cell (rows - 1) 1) col1.(rows - 1);
  let indices = [| 0; rows - 1; min chunk_rows (rows - 1); 3; 3 |] in
  let gathered = Colstore.gather store ~indices in
  Array.iteri
    (fun j i ->
      for d = 0 to dims - 1 do
        if gathered.(d).(j) <> cell i d then Alcotest.failf "gather (%d, %d) mismatch" i d
      done)
    indices;
  Alcotest.(check bool) "out-of-range gather rejected" true
    (match Colstore.gather store ~indices:[| rows |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Colstore.close store

let test_colstore_roundtrip () =
  (* 2.5 chunks: exercises the compact last chunk. *)
  let rows = 25 and dims = 3 and chunk_rows = 10 in
  let path, cell = write_store ~chunk_rows ~rows ~dims in
  check_store_contents ~rows ~dims ~chunk_rows path cell;
  Sys.remove path

(* Every cell reads back as the word written — NaNs of both signs with
   payloads, ±0, ±∞ and subnormals included — through each reader, at
   chunk sizes 1, 7 and the whole store.  [<>] is false on every NaN, so
   this compares bit patterns. *)
let test_colstore_odd_cells_bit_for_bit () =
  let rows = 23 and dims = 3 in
  let nan_with ~negative payload =
    Int64.float_of_bits
      (Int64.logor
         (Int64.logor 0x7ff8000000000000L payload)
         (if negative then Int64.min_int else 0L))
  in
  let odd =
    [|
      nan_with ~negative:false 0x5a5aL;
      nan_with ~negative:true 0xfedcbaL;
      Float.nan;
      0.;
      -0.;
      Float.infinity;
      Float.neg_infinity;
      4.9e-324;
      -2.5e-310;
      Float.max_float;
    |]
  in
  let cell r d =
    if (r + d) mod 3 = 0 then float_of_int ((r * 7) + d) /. 3.
    else odd.(((r * dims) + d) mod Array.length odd)
  in
  let bits x = Int64.bits_of_float x in
  let same what r d x =
    if not (Int64.equal (bits x) (bits (cell r d))) then
      Alcotest.failf "%s cell (%d, %d): %Lx, wrote %Lx" what r d (bits x) (bits (cell r d))
  in
  List.iter
    (fun chunk_rows ->
      let path = Filename.temp_file "caffeine_colstore_odd" ".cafs" in
      let var_names = Array.init dims (fun d -> Printf.sprintf "v%d" d) in
      let writer = Colstore.Writer.create ~path ~var_names ~chunk_rows () in
      for r = 0 to rows - 1 do
        Colstore.Writer.append_row writer (Array.init dims (cell r))
      done;
      Colstore.Writer.close writer;
      let store = Colstore.openfile path in
      let visited = ref 0 in
      Colstore.iter_chunks store ~f:(fun ~row0 ~len columns ->
          for d = 0 to dims - 1 do
            for i = 0 to len - 1 do
              same "iter_chunks" (row0 + i) d columns.(d).(i)
            done
          done;
          visited := !visited + len);
      Alcotest.(check int) "every row visited" rows !visited;
      for d = 0 to dims - 1 do
        Array.iteri (fun r x -> same "column" r d x) (Colstore.column store d)
      done;
      let indices = Array.init rows (fun j -> rows - 1 - j) in
      let gathered = Colstore.gather store ~indices in
      Array.iteri
        (fun j r ->
          for d = 0 to dims - 1 do
            same "gather" r d gathered.(d).(j)
          done)
        indices;
      Colstore.close store;
      Sys.remove path)
    [ 1; 7; rows ]

(* Damaged copies of a packed store.  Each corrupt one must be refused
   with an [Invalid_argument] that names its file, before the header can
   size an allocation or a read can run off the end; a [chunk_rows] larger
   than the store reads as one chunk of every row. *)
let test_colstore_corrupt_stores () =
  let rows = 25 and dims = 3 in
  (* One chunk, so a store patched to larger chunks has the same layout. *)
  let path, cell = write_store ~chunk_rows:rows ~rows ~dims in
  let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Sys.remove path;
  let variant name edit =
    let path = Filename.temp_file ("caffeine_colstore_" ^ name) ".cafs" in
    let copy = edit (Bytes.copy bytes) in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc copy);
    path
  in
  let patch offset v b =
    Bytes.set_int64_le b offset v;
    b
  in
  let corrupt =
    [
      ("empty", fun _ -> Bytes.empty);
      ("truncated", fun b -> Bytes.sub b 0 (Bytes.length b - 9));
      ("row-short", fun b -> Bytes.sub b 0 (Bytes.length b - (dims * 8)));
      ("header-cut", fun b -> Bytes.sub b 0 20);
      ("magic", fun b -> Bytes.blit_string "CAFSTOR0" 0 b 0 8; b);
      ("rows", patch 8 1_000_000_000L);
      ("dims", patch 16 (Int64.shift_left 1L 40));
      ("negative-dims", patch 16 (-1L));
      ("data-offset", patch 32 (Int64.shift_left 1L 40));
      ("name-length", patch 40 4096L);
      ("extra-byte", fun b -> Bytes.cat b (Bytes.make 1 '\000'));
    ]
  in
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "caffeine_no_such_store.cafs" in
  let expect_refused path =
    match Colstore.openfile path with
    | store ->
        Colstore.close store;
        Alcotest.failf "%s opened" path
    | exception Invalid_argument msg ->
        if not (contains_substring msg path) then
          Alcotest.failf "message %S does not name %s" msg path
  in
  expect_refused missing;
  List.iter
    (fun (name, edit) ->
      let path = variant name edit in
      expect_refused path;
      Sys.remove path)
    corrupt;
  let path = variant "chunk-rows" (patch 24 (Int64.shift_left 1L 40)) in
  check_store_contents ~rows ~dims ~chunk_rows:rows path cell;
  Sys.remove path

let test_colstore_close_releases_every_domain () =
  (* A store read from a second domain holds a channel there too; [close]
     on the opening domain must release it, or every reopen of a store
     that a pool worker read leaks one descriptor. *)
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  let path, _ = write_store ~chunk_rows:4 ~rows:10 ~dims:2 in
  let cycle () =
    let store = Colstore.openfile path in
    ignore (Domain.join (Domain.spawn (fun () -> Colstore.column store 1)) : float array);
    ignore (Colstore.column store 0 : float array);
    Colstore.close store
  in
  cycle ();
  let before = open_fds () in
  for _ = 1 to 20 do
    cycle ()
  done;
  let after = open_fds () in
  Sys.remove path;
  Alcotest.(check int) "descriptors after 20 open/read/close cycles" before after

let test_colstore_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  expect_invalid (fun () ->
      Colstore.Writer.create ~path:"/tmp/x.cafs" ~var_names:[||] ());
  expect_invalid (fun () ->
      Colstore.Writer.create ~path:"/tmp/x.cafs" ~var_names:[| "a" |] ~chunk_rows:0 ());
  (* A non-store file is rejected by the magic check. *)
  let path = Filename.temp_file "caffeine_colstore" ".cafs" in
  let oc = open_out path in
  output_string oc "definitely not a column store";
  close_out oc;
  expect_invalid (fun () -> Colstore.openfile path);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "write/read round-trip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "dataset rows/columns round-trip" `Quick test_dataset_rows_columns_roundtrip;
    Alcotest.test_case "dataset from CSV table" `Quick test_dataset_of_table;
    Alcotest.test_case "dataset split" `Quick test_dataset_split;
    Alcotest.test_case "dataset validation" `Quick test_dataset_validation;
    Alcotest.test_case "dataset basis-column memoization" `Quick test_dataset_basis_column_memoizes;
    Alcotest.test_case "dataset dot cache" `Quick test_dataset_dot_cache;
    Alcotest.test_case "dataset dot-target keying" `Quick test_dataset_dot_target_keying;
    Alcotest.test_case "resident gram caches no product" `Quick test_dataset_resident_gram_uncached;
    Alcotest.test_case "dataset stats counters" `Quick test_dataset_stats_counters;
    Alcotest.test_case "resident fit reads each column once" `Quick
      test_resident_fit_reads_each_column_once;
    Alcotest.test_case "dataset eval matches interpreter" `Quick
      test_dataset_eval_column_matches_interpreter;
    Alcotest.test_case "dropped datasets release their scratch" `Quick
      test_dataset_scratch_not_retained;
    Alcotest.test_case "column extraction" `Quick test_column_extraction;
    Alcotest.test_case "columns except" `Quick test_columns_except;
    Alcotest.test_case "read errors" `Quick test_read_errors;
    Alcotest.test_case "blank lines skipped" `Quick test_read_skips_blank_lines;
    Alcotest.test_case "error line numbers are file positions" `Quick test_read_error_line_numbers;
    Alcotest.test_case "CRLF files" `Quick test_read_crlf;
    Alcotest.test_case "CRLF trimmed from error messages" `Quick test_crlf_error_messages_trimmed;
    Alcotest.test_case "duplicate header rejected" `Quick test_duplicate_header_rejected;
    Alcotest.test_case "incremental stream driver" `Quick test_stream_incremental;
    Alcotest.test_case "header-only rejected" `Quick test_read_header_only;
    Alcotest.test_case "ragged write rejected" `Quick test_write_rejects_ragged;
    Alcotest.test_case "ragged dataset names the offender" `Quick
      test_dataset_ragged_names_offender;
    Alcotest.test_case "colstore round-trip" `Quick test_colstore_roundtrip;
    Alcotest.test_case "colstore reads odd cells back bit for bit" `Quick
      test_colstore_odd_cells_bit_for_bit;
    Alcotest.test_case "colstore refuses corrupt stores" `Quick test_colstore_corrupt_stores;
    Alcotest.test_case "colstore validation" `Quick test_colstore_validation;
    Alcotest.test_case "colstore close releases every domain's channel" `Quick
      test_colstore_close_releases_every_domain;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) gram_properties
