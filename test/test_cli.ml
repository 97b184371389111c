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
  expect_refused "trace MISSING" [ "trace"; missing ] ("cannot read " ^ missing);
  List.iter
    (fun (operators, token) ->
      expect_refused ("fit --operators " ^ operators) (fit [ "--operators"; operators ])
        (Printf.sprintf "unknown operator %S" token))
    [ ("SINN", "SINN"); ("SIN,SINN,COSS", "SINN"); ("sin", "sin"); ("SIN,", ""); (",", "") ];
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

(* Every list of known operator names runs, the empty one as the
   rational-functions search. *)
let test_cli_fit_operators () =
  let train = Filename.temp_file "caffeine_cli" ".csv" in
  write_file train "x,PM\n1,2\n2,3.5\n3,5\n4,4.5\n5,6\n";
  let fit operators =
    [
      "fit"; "--train"; train; "--target"; "PM"; "--pop"; "10"; "--gens"; "2"; "--operators";
      operators;
    ]
  in
  List.iter
    (fun operators -> expect_success ("fit --operators " ^ operators) (fit operators) "train err")
    [ ""; "LTE"; "POW"; "SQRT,LOGE,SQRT" ];
  Sys.remove train

(* An output file the command cannot write exits 2 with one line naming
   it, before any work: a fit prints no front, and an existing --out file
   keeps its bytes when the run is refused. *)
let test_cli_unwritable_outputs () =
  let train = Filename.temp_file "caffeine_cli" ".csv" in
  let models = Filename.temp_file "caffeine_cli" ".txt" in
  let kept = Filename.temp_file "caffeine_cli" ".txt" in
  let nowhere = Filename.concat (Filename.get_temp_dir_name ()) "caffeine_cli_no_such_dir" in
  if Sys.file_exists nowhere then Alcotest.failf "%s exists" nowhere;
  let into name = Filename.concat nowhere name in
  let directory = Filename.get_temp_dir_name () in
  write_file train "x,PM\n1,2\n2,3.5\n3,5\n4,4.5\n5,6\n";
  write_file kept "keep\n";
  let fit extra =
    [ "fit"; "--train"; train; "--target"; "PM"; "--pop"; "10"; "--gens"; "2" ] @ extra
  in
  let refused msg arguments path = expect_refused msg arguments ("cannot write " ^ path) in
  refused "gen-data --out" [ "gen-data"; "--out"; into "x.csv" ] (into "x.csv");
  refused "fit --out" (fit [ "--out"; into "x.models" ]) (into "x.models");
  refused "fit --out DIRECTORY" (fit [ "--out"; directory ]) directory;
  refused "fit --trace" (fit [ "--trace"; into "x.jsonl" ]) (into "x.jsonl");
  refused "fit --checkpoint" (fit [ "--checkpoint"; into "x.ckpt" ]) (into "x.ckpt");
  refused "fit --trace with an existing --out"
    (fit [ "--trace"; into "x.jsonl"; "--out"; kept ])
    (into "x.jsonl");
  Alcotest.(check string) "a refused fit leaves --out as it was" "keep\n"
    (In_channel.with_open_bin kept In_channel.input_all);
  (match run_cli (fit [ "--seed"; "1"; "--out"; models ]) with
  | Some (status, _) when status = Unix.WEXITED 0 ->
      refused "predict --dump"
        [ "predict"; "--models"; models; "--data"; train; "--target"; "PM"; "--dump"; into "x.dump" ]
        (into "x.dump");
      refused "export -o" [ "export"; "--models"; models; "-o"; into "x.c" ] (into "x.c")
  | Some (_, output) -> Alcotest.failf "fit failed: %s" output
  | None -> ());
  List.iter (fun path -> if Sys.file_exists path then Sys.remove path) [ train; models; kept ]

(* [analyze] resolves the AC source and output node before any work: an
   unknown or ambiguous name, or the ground node, exits 2 with one line
   naming the option and listing the deck's names; a source matches
   case-insensitively, as nodes do.  A singular AC system ends the run with
   one line and exit 1, as a failed DC solve does. *)
let test_cli_analyze_ac_names () =
  let deck = "../examples/netlists/cs_amp.sp" in
  let analyze extra = [ "analyze"; "--netlist"; deck ] @ extra in
  expect_refused "analyze --ac-input nosuch"
    (analyze [ "--ac-input"; "nosuch"; "--ac-output"; "out" ])
    "--ac-input nosuch: no voltage source of that name (sources: VDD, VIN)";
  expect_refused "analyze --ac-output nosuch"
    (analyze [ "--ac-input"; "VIN"; "--ac-output"; "nosuch" ])
    "--ac-output nosuch: no node of that name (nodes: in, out, vdd)";
  expect_refused "analyze --ac-output gnd"
    (analyze [ "--ac-input"; "VIN"; "--ac-output"; "gnd" ])
    "--ac-output gnd: ground has no AC response";
  expect_refused "analyze --ac-input alone" (analyze [ "--ac-input"; "VIN" ])
    "--ac-input VIN: an AC sweep also needs --ac-output";
  expect_refused "analyze --ac-output alone" (analyze [ "--ac-output"; "out" ])
    "--ac-output out: an AC sweep also needs --ac-input";
  expect_success "analyze --ac-input vin"
    (analyze [ "--ac-input"; "vin"; "--ac-output"; "OUT" ])
    "AC (VIN -> OUT)";
  let ambiguous = Filename.temp_file "caffeine_cli" ".sp" in
  write_file ambiguous "Vin a 0 DC 1\nVIN b 0 DC 2\nR1 a b 1k\n.end\n";
  expect_refused "analyze, two sources of one name"
    [ "analyze"; "--netlist"; ambiguous; "--ac-input"; "vin"; "--ac-output"; "a" ]
    "--ac-input vin: names more than one voltage source (sources: Vin, VIN)";
  (* At 1 Hz, the sweep's first point, each capacitor's susceptance is
     exactly 1 S and the VCCS pair makes the a-b block [[j, 1], [-1, j]],
     which is singular; at DC it is [[0, 1], [-1, 0]]. *)
  let singular = Filename.temp_file "caffeine_cli" ".sp" in
  write_file singular
    "C1 a 0 0.15915494309189535\nC2 b 0 0.15915494309189535\nG1 a 0 b 0 1\nG2 b 0 a 0 -1\n\
     V1 in 0 DC 1 AC 1\nR1 in 0 1k\n.end\n";
  (match run_cli [ "analyze"; "--netlist"; singular; "--ac-input"; "V1"; "--ac-output"; "in" ] with
  | None -> ()
  | Some (status, output) ->
      Alcotest.(check bool) "singular AC: exits 1" true (status = Unix.WEXITED 1);
      Alcotest.(check bool) "singular AC: DC reported" true (contains output "DC operating point");
      Alcotest.(check bool) "singular AC: says why" true
        (contains output "AC solve failed: singular MNA system\n");
      Alcotest.(check bool) "singular AC: no internal error" false
        (contains output "internal error"));
  List.iter Sys.remove [ ambiguous; singular ]

(* --- The grammar [caffeine grammar] prints ------------------------------- *)

(* Its rule and continuation lines, comments and blank lines dropped. *)
let grammar_lines text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun line -> line <> "" && line.[0] <> '#')

(* The nonterminal a rule line [NAME => ...] defines; a continuation line
   starts with ['|'] and defines none. *)
let rule_name line =
  match String.split_on_char ' ' line with name :: "=>" :: _ -> Some name | _ -> None

(* Every quoted terminal, in order of appearance. *)
let quoted_terminals lines =
  let rec scan line i acc =
    match String.index_from_opt line i '\'' with
    | None -> acc
    | Some first -> (
        match String.index_from_opt line (first + 1) '\'' with
        | None -> acc
        | Some last -> scan line (last + 1) (String.sub line (first + 1) (last - first - 1) :: acc))
  in
  List.rev (List.fold_left (fun acc line -> scan line 0 acc) [] lines)

(* The operator terminals: the quoted names other than the variable combo
   'VC' and the weight 'W' (punctuation such as '*' or ',' is quoted too). *)
let operator_terminals lines =
  List.filter
    (fun t -> t <> "VC" && t <> "W" && match t.[0] with 'A' .. 'Z' -> true | _ -> false)
    (quoted_terminals lines)

let with_printed_grammar check =
  match run_cli [ "grammar" ] with
  | None -> () (* executable not found: skip *)
  | Some (status, output) ->
      Alcotest.(check bool) "grammar: exits 0" true (status = Unix.WEXITED 0);
      check (grammar_lines output)

(* The printed grammar starts at REPVC, defines the paper's nonterminals and
   spells every name [fit --operators] accepts as a terminal. *)
let test_grammar_structure () =
  with_printed_grammar (fun lines ->
      Alcotest.(check (option string)) "start symbol" (Some "REPVC")
        (match lines with first :: _ -> rule_name first | [] -> None);
      let defined = List.filter_map rule_name lines in
      List.iter
        (fun nt -> Alcotest.(check bool) (nt ^ " defined") true (List.mem nt defined))
        [ "REPVC"; "REPOP"; "REPADD"; "MAYBEW"; "2ARGS"; "1OP"; "2OP" ];
      let terminals = quoted_terminals lines in
      List.iter
        (fun t -> Alcotest.(check bool) (t ^ " present") true (List.mem t terminals))
        ("VC" :: "W" :: Caffeine.Opset.names))

let opset_of_terminals names =
  match Caffeine.Opset.of_names names with Ok opset -> opset | Error msg -> Alcotest.fail msg

(* The grammar's operator terminals, passed to [fit --operators], give the
   default search's operator set. *)
let test_opset_of_grammar () =
  with_printed_grammar (fun lines ->
      let opset = opset_of_terminals (operator_terminals lines) in
      Alcotest.(check int) "13 unary ops" 13 (Array.length opset.Caffeine.Opset.unops);
      Alcotest.(check int) "4 binary ops" 4 (Array.length opset.Caffeine.Opset.binops);
      Alcotest.(check bool) "lte enabled" true opset.Caffeine.Opset.allow_lte;
      Alcotest.(check bool) "the default set" true (opset = Caffeine.Opset.default))

(* Turning the LTE and SIN rules off leaves the rest of the grammar's set. *)
let test_opset_of_restricted_grammar () =
  with_printed_grammar (fun lines ->
      let names = List.filter (fun t -> t <> "LTE" && t <> "SIN") (operator_terminals lines) in
      let opset = opset_of_terminals names in
      Alcotest.(check bool) "lte disabled" false opset.Caffeine.Opset.allow_lte;
      Alcotest.(check int) "12 unary ops" 12 (Array.length opset.Caffeine.Opset.unops);
      Alcotest.(check bool) "sin dropped" false
        (Array.mem Caffeine_expr.Op.Sin opset.Caffeine.Opset.unops);
      Alcotest.(check int) "4 binary ops" 4 (Array.length opset.Caffeine.Opset.binops))

let grammar_suite =
  [
    Alcotest.test_case "caffeine grammar: structure" `Quick test_grammar_structure;
    Alcotest.test_case "opset from grammar" `Quick test_opset_of_grammar;
    Alcotest.test_case "opset from restricted grammar" `Quick test_opset_of_restricted_grammar;
  ]

let suite =
  [
    Alcotest.test_case "cli: grammar" `Quick test_cli_grammar;
    Alcotest.test_case "cli: simulate" `Quick test_cli_simulate;
    Alcotest.test_case "cli: gen-data / fit / predict / export" `Slow test_cli_gen_data_and_fit;
    Alcotest.test_case "cli: unknown flag" `Quick test_cli_unknown_flag_fails;
    Alcotest.test_case "cli: unusable training data exits 2" `Quick test_cli_unusable_training_data;
    Alcotest.test_case "cli: bad input files and option values exit 2" `Quick
      test_cli_bad_inputs_and_options;
    Alcotest.test_case "cli: unwritable output paths exit 2 before any work" `Quick
      test_cli_unwritable_outputs;
    Alcotest.test_case "cli: analyze refuses AC names it cannot resolve" `Quick
      test_cli_analyze_ac_names;
    Alcotest.test_case "cli: fit --operators lists run" `Quick test_cli_fit_operators;
  ]
