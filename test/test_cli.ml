(* Smoke tests of the command-line interface: each subcommand is executed as
   a subprocess against temporary files.  Skipped silently if the executable
   is not found (e.g. when tests run outside the dune sandbox). *)

let cli_path () =
  (* Tests run in _build/default/test; the CLI is built next door. *)
  let candidates =
    [
      Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/caffeine_cli.exe";
      "../bin/caffeine_cli.exe";
      "_build/default/bin/caffeine_cli.exe";
    ]
  in
  List.find_opt Sys.file_exists candidates

let run_cli arguments =
  match cli_path () with
  | None -> None
  | Some exe ->
      let command = Filename.quote_command exe arguments in
      let input = Unix.open_process_in (command ^ " 2>&1") in
      let buffer = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buffer input 1
         done
       with End_of_file -> ());
      let status = Unix.close_process_in input in
      Some (status, Buffer.contents buffer)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let expect_success msg arguments fragment =
  match run_cli arguments with
  | None -> () (* executable not found: skip *)
  | Some (status, output) ->
      Alcotest.(check bool) (msg ^ ": exits 0") true (status = Unix.WEXITED 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: output mentions %S" msg fragment)
        true (contains output fragment)

let test_cli_grammar () = expect_success "grammar" [ "grammar" ] "REPVC"

let test_cli_simulate () =
  expect_success "simulate" [ "simulate"; "--set"; "id1=1.2e-5" ] "PM"

let test_cli_gen_data_and_fit () =
  let csv = Filename.temp_file "caffeine_cli" ".csv" in
  expect_success "gen-data" [ "gen-data"; "--dx"; "0.05"; "--out"; csv ] "243 samples";
  if Sys.file_exists csv then begin
    let models = Filename.temp_file "caffeine_cli" ".txt" in
    expect_success "fit"
      [
        "fit"; "--train"; csv; "--target"; "PM"; "--pop"; "20"; "--gens"; "5"; "--seed"; "1";
        "--out"; models;
      ]
      "saved";
    if Sys.file_exists models then begin
      expect_success "predict" [ "predict"; "--models"; models; "--data"; csv; "--target"; "PM" ]
        "expression";
      expect_success "export" [ "export"; "--models"; models; "--language"; "c" ] "math.h";
      Sys.remove models
    end;
    Sys.remove csv
  end

let test_cli_unknown_flag_fails () =
  match run_cli [ "fit"; "--no-such-flag" ] with
  | None -> ()
  | Some (status, _) ->
      Alcotest.(check bool) "nonzero exit" true (status <> Unix.WEXITED 0)

(* Training data a fit cannot use exits 2 with "cannot read FILE", never an
   uncaught exception: a CSV whose only column is the target, the same
   data packed into a column store, and a target column of NaNs. *)
let expect_unreadable msg arguments path =
  match run_cli arguments with
  | None -> ()
  | Some (status, output) ->
      Alcotest.(check bool) (msg ^ ": exits 2") true (status = Unix.WEXITED 2);
      Alcotest.(check bool)
        (msg ^ ": names the file")
        true
        (contains output ("cannot read " ^ path));
      Alcotest.(check bool) (msg ^ ": no internal error") false (contains output "internal error")

let write_file path text =
  let channel = open_out path in
  output_string channel text;
  close_out channel

let test_cli_unusable_training_data () =
  let only = Filename.temp_file "caffeine_cli" ".csv" in
  let packed = Filename.temp_file "caffeine_cli" ".cafs" in
  let nans = Filename.temp_file "caffeine_cli" ".csv" in
  write_file only "PM\n1\n2\n3\n";
  write_file nans "x,PM\n1,nan\n2,nan\n3,nan\n";
  let fit path = [ "fit"; "--train"; path; "--target"; "PM"; "--pop"; "10"; "--gens"; "2" ] in
  expect_unreadable "target-only CSV" (fit only) only;
  (match run_cli [ "pack"; "--csv"; only; "--out"; packed ] with
  | Some (status, _) when status = Unix.WEXITED 0 ->
      expect_unreadable "target-only column store" (fit packed) packed
  | Some (_, output) -> Alcotest.failf "pack failed: %s" output
  | None -> ());
  expect_unreadable "all-NaN target" (fit nans) nans;
  List.iter Sys.remove [ only; packed; nans ]

(* Missing input files and option values out of range exit 2 with one
   line naming the file or the option, never an uncaught exception; so
   does scoring models on a target that is not finite, and resuming from
   another run's snapshot. *)
let expect_refused msg arguments fragment =
  match run_cli arguments with
  | None -> ()
  | Some (status, output) ->
      Alcotest.(check bool) (msg ^ ": exits 2") true (status = Unix.WEXITED 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: output mentions %S" msg fragment)
        true (contains output fragment);
      Alcotest.(check bool) (msg ^ ": no internal error") false (contains output "internal error");
      Alcotest.(check int) (msg ^ ": one line") 1
        (List.length (List.filter (( <> ) "") (String.split_on_char '\n' output)))

let test_cli_bad_inputs_and_options () =
  let train = Filename.temp_file "caffeine_cli" ".csv" in
  let scored = Filename.temp_file "caffeine_cli" ".csv" in
  let models = Filename.temp_file "caffeine_cli" ".txt" in
  let snapshot = Filename.temp_file "caffeine_cli" ".ckpt" in
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "caffeine_cli_missing_input" in
  write_file train "x,PM\n1,2\n2,3.5\n3,5\n4,4.5\n5,6\n";
  write_file scored "x,PM\n1,nan\n2,3.5\n";
  let fit extra = [ "fit"; "--train"; train; "--target"; "PM"; "--gens"; "2" ] @ extra in
  expect_refused "fit --grammar MISSING" (fit [ "--grammar"; missing ]) ("cannot read " ^ missing);
  expect_refused "trace MISSING" [ "trace"; missing ] ("cannot read " ^ missing);
  expect_refused "grammar --check MISSING" [ "grammar"; "--check"; missing ]
    ("cannot read " ^ missing);
  let directory = Filename.get_temp_dir_name () in
  expect_refused "fit --train DIRECTORY"
    [ "fit"; "--train"; directory; "--target"; "PM" ]
    ("cannot read " ^ directory);
  expect_refused "fit --pop 1" (fit [ "--pop=1" ]) "--pop 1";
  expect_refused "fit --max-bases 0" (fit [ "--max-bases=0" ]) "--max-bases 0";
  expect_refused "fit --checkpoint-every 0" (fit [ "--checkpoint-every=0" ]) "--checkpoint-every 0";
  expect_refused "pack --chunk-rows 0"
    [ "pack"; "--csv"; train; "--chunk-rows"; "0"; "--out"; missing ]
    "--chunk-rows 0";
  (match
     run_cli (fit [ "--pop"; "10"; "--seed"; "1"; "--checkpoint"; snapshot; "--out"; models ])
   with
  | Some (status, _) when status = Unix.WEXITED 0 ->
      expect_refused "predict on a NaN target"
        [ "predict"; "--models"; models; "--data"; scored; "--target"; "PM" ]
        ("cannot read " ^ scored ^ ": target PM at data row 1 is nan");
      expect_refused "export --index -1" [ "export"; "--models"; models; "--index=-1" ]
        "model index -1 out of range";
      expect_refused "insight --index -1" [ "insight"; "--models"; models; "--index=-1" ]
        "model index -1 out of range";
      (match run_cli (fit [ "--pop"; "10"; "--seed"; "2"; "--resume"; snapshot ]) with
      | None -> ()
      | Some (status, output) ->
          Alcotest.(check bool) "another seed's snapshot: exits 2" true (status = Unix.WEXITED 2);
          Alcotest.(check bool) "another seed's snapshot: says why" true
            (contains output
               ("cannot resume from " ^ snapshot ^ ": checkpoint was written with seed 1, not 2")))
  | Some (_, output) -> Alcotest.failf "fit failed: %s" output
  | None -> ());
  List.iter
    (fun path -> if Sys.file_exists path then Sys.remove path)
    [ train; scored; models; snapshot; missing ]

let suite =
  [
    Alcotest.test_case "cli: grammar" `Quick test_cli_grammar;
    Alcotest.test_case "cli: simulate" `Quick test_cli_simulate;
    Alcotest.test_case "cli: gen-data / fit / predict / export" `Slow test_cli_gen_data_and_fit;
    Alcotest.test_case "cli: unknown flag" `Quick test_cli_unknown_flag_fails;
    Alcotest.test_case "cli: unusable training data exits 2" `Quick test_cli_unusable_training_data;
    Alcotest.test_case "cli: bad input files and option values exit 2" `Quick
      test_cli_bad_inputs_and_options;
  ]
