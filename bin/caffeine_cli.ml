(* caffeine — command-line front end.

   Subcommands:
     gen-data   sample the OTA testbench with the paper's DOE plan -> CSV
     simulate   evaluate the OTA performances at one design point
     fit        evolve symbolic models for one column of a CSV dataset
     predict    evaluate saved models against a CSV dataset
     grammar    print / validate canonical-form grammar files
     analyze    DC / AC analysis of a SPICE-format netlist
     export     render a saved model as C or Verilog-A
     insight    variable usage, sensitivities and Sobol indices of a model
     trace      summarize / project a JSONL run trace written by fit --trace
     serve      long-running model server over a line-oriented JSON protocol
*)

open Cmdliner

module Ota = Caffeine_ota.Ota
module Csv = Caffeine_io.Csv
module Colstore = Caffeine_io.Colstore
module Dataset = Caffeine_io.Dataset
module Grammar = Caffeine_grammar.Grammar
module Config = Caffeine.Config
module Model = Caffeine.Model
module Search = Caffeine.Search
module Opset = Caffeine.Opset
module Checkpoint = Caffeine.Checkpoint
module Eval_cache = Caffeine.Eval_cache
module Pool = Caffeine_par.Pool
module Executor = Caffeine_par.Executor
module Metrics = Caffeine_obs.Metrics
module Trace = Caffeine_obs.Trace

(* --- output files --------------------------------------------------------- *)

(* An output file the command could not write exits 2 naming it, before
   any work, rather than failing with the work done: its directory must
   exist and be writable, and a file already there must be a writable
   regular file.  Nothing is opened, so an existing file keeps its bytes
   until the command writes it. *)
let require_writable path =
  let dir = Filename.dirname path in
  let writable p =
    match Unix.access p [ Unix.W_OK ] with () -> true | exception Unix.Unix_error _ -> false
  in
  let problem =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Some (Printf.sprintf "no directory %s" dir)
    else if not (writable dir) then Some (Printf.sprintf "directory %s is not writable" dir)
    else if Sys.file_exists path && Sys.is_directory path then Some "it is a directory"
    else if Sys.file_exists path && not (writable path) then Some "permission denied"
    else None
  in
  Option.iter
    (fun why ->
      Printf.eprintf "cannot write %s: %s\n" path why;
      exit 2)
    problem

(* A write that fails all the same (the disk filled, the directory went
   away) exits 2 naming the file too. *)
let write_or_exit path write =
  match write () with
  | () -> ()
  | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 2

(* --- gen-data ---------------------------------------------------------- *)

let gen_data dx out =
  require_writable out;
  let dataset = Ota.doe_dataset ~dx in
  let performance_names =
    Array.of_list (List.map Ota.performance_name Ota.all_performances)
  in
  let header = Array.append Ota.var_names performance_names in
  let rows =
    Array.map2 (fun inputs outputs -> Array.append inputs outputs) dataset.Ota.inputs
      dataset.Ota.outputs
  in
  write_or_exit out (fun () -> Csv.write ~path:out { Csv.header; rows });
  Printf.printf "wrote %d samples (dx=%.3g) to %s\n" (Array.length rows) dx out;
  0

let dx_arg =
  let doc = "Relative perturbation per design variable (paper: 0.10 train, 0.03 test)." in
  Arg.(value & opt float 0.10 & info [ "dx" ] ~docv:"DX" ~doc)

let out_arg default =
  let doc = "Output file path." in
  Arg.(value & opt string default & info [ "out"; "o" ] ~docv:"PATH" ~doc)

let gen_data_cmd =
  let info =
    Cmd.info "gen-data"
      ~doc:"Sample the simulated OTA with the paper's orthogonal-hypercube DOE plan."
  in
  Cmd.v info Term.(const gen_data $ dx_arg $ out_arg "ota_data.csv")

(* --- simulate ---------------------------------------------------------- *)

let parse_override spec =
  match String.index_opt spec '=' with
  | None -> Error (`Msg (Printf.sprintf "expected name=value, got %S" spec))
  | Some i -> (
      let name = String.sub spec 0 i in
      let value = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt value with
      | None -> Error (`Msg (Printf.sprintf "bad number %S" value))
      | Some v -> Ok (name, v))

let override_conv = Arg.conv (parse_override, fun ppf (n, v) -> Format.fprintf ppf "%s=%g" n v)

let simulate overrides =
  let x = Array.copy Ota.nominal in
  let apply (name, value) =
    let rec find i =
      if i >= Array.length Ota.var_names then begin
        Printf.eprintf "unknown design variable %s (known: %s)\n" name
          (String.concat ", " (Array.to_list Ota.var_names));
        exit 2
      end
      else if Ota.var_names.(i) = name then x.(i) <- value
      else find (i + 1)
    in
    find 0
  in
  List.iter apply overrides;
  Printf.printf "design point:\n";
  Array.iteri (fun i name -> Printf.printf "  %-6s = %.6g\n" name x.(i)) Ota.var_names;
  match Ota.evaluate x with
  | Error msg ->
      Printf.printf "simulation failed: %s\n" msg;
      1
  | Ok values ->
      Printf.printf "performances:\n";
      List.iteri
        (fun i p -> Printf.printf "  %-8s = %.6g\n" (Ota.performance_name p) values.(i))
        Ota.all_performances;
      0

let overrides_arg =
  let doc = "Override a design variable, e.g. --set id1=1.2e-5 (repeatable)." in
  Arg.(value & opt_all override_conv [] & info [ "set" ] ~docv:"NAME=VALUE" ~doc)

let simulate_cmd =
  let info = Cmd.info "simulate" ~doc:"Evaluate the OTA performances at one design point." in
  Cmd.v info Term.(const simulate $ overrides_arg)

(* --- fit --------------------------------------------------------------- *)

let load_table path =
  match Csv.read ~path with
  | Ok table -> table
  | Error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit 2

(* Design variables: every column that is neither the target nor one of
   the known performance names; this lets gen-data output be used
   directly.  A file with none left cannot be fitted or scored. *)
let design_exclusions ~path ~target names =
  let excluded = target :: List.map Ota.performance_name Ota.all_performances in
  if Array.for_all (fun name -> List.mem name excluded) names then begin
    Printf.eprintf
      "cannot read %s: no design variable left after excluding the target %s and the \
       performance columns\n"
      path target;
    exit 2
  end;
  excluded

let split_target ~path table target =
  match Csv.column table target with
  | exception Not_found ->
      Printf.eprintf "no column named %s (available: %s)\n" target
        (String.concat ", " (Array.to_list table.Csv.header));
      exit 2
  | targets ->
      (* Loaded straight into a column-major dataset for the compiled
         batch-evaluation engine. *)
      let exclude = design_exclusions ~path ~target table.Csv.header in
      (Dataset.of_table ~exclude table, targets)

(* The targets a fit learns or a model is scored on, after the
   --log-target transform: every one must be a finite number, and the
   first that is not is named by its data row (counted from 1 after the
   header). *)
let fit_targets ~path ~target ~log_target raw =
  let targets = Array.map (fun v -> if log_target then log10 v else v) raw in
  (match Array.find_index (fun y -> not (Float.is_finite y)) targets with
  | None -> ()
  | Some i ->
      Printf.eprintf "cannot read %s: target %s%s at data row %d is %s, not a finite number\n" path
        target
        (if log_target then " (log10)" else "")
        (i + 1) (Float.to_string targets.(i));
      exit 2);
  targets

(* CSV -> column store, one row at a time: the whole point is never holding
   the table in memory, so the writer is created from the header callback
   and rows append as they parse. *)
let pack_csv ~csv_path ~out ~chunk_rows =
  let writer = ref None in
  let result =
    Csv.stream ~path:csv_path
      ~header:(fun names ->
        writer := Some (Colstore.Writer.create ~path:out ~var_names:names ~chunk_rows ());
        Ok ())
      ~row:(fun ~lineno:_ values ->
        Colstore.Writer.append_row (Option.get !writer) values;
        Ok ())
  in
  (match !writer with Some w -> Colstore.Writer.close w | None -> ());
  match result with
  | Ok () -> Ok ()
  | Error msg ->
      (try Sys.remove out with Sys_error _ -> ());
      Error msg

(* A .cafs column store is opened in place and read chunk by chunk; the
   target column is the only one materialized. *)
let load_store ~path ~target =
  let store =
    match Colstore.openfile path with
    | store -> store
    | exception Invalid_argument msg ->
        Printf.eprintf "cannot read %s: %s\n" path msg;
        exit 2
  in
  let names = Colstore.var_names store in
  let target_index =
    match Array.find_index (String.equal target) names with
    | Some index -> index
    | None ->
        Printf.eprintf "no column named %s (available: %s)\n" target
          (String.concat ", " (Array.to_list names));
        exit 2
  in
  let exclude = design_exclusions ~path ~target names in
  let targets = Colstore.column store target_index in
  (Dataset.of_colstore ~exclude store, targets)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> text
  | exception Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit 2

(* An option value below its floor exits 2 naming the option, as an
   unreadable input file does. *)
let require_at_least ~option ~min value =
  if value < min then begin
    Printf.eprintf "invalid --%s %d: must be at least %d\n" option value min;
    exit 2
  end

let fit train_path test_path target pop gens seed jobs backend shards log_target grammar_path
    max_bases no_sag trace_path metrics checkpoint_opt checkpoint_every resume_path kill_after
    eval_cache out =
  require_at_least ~option:"pop" ~min:2 pop;
  require_at_least ~option:"max-bases" ~min:1 max_bases;
  require_at_least ~option:"checkpoint-every" ~min:1 checkpoint_every;
  (* --resume keeps writing to the same snapshot file unless --checkpoint
     names a different one. *)
  let checkpoint_path =
    match checkpoint_opt with Some _ as given -> given | None -> resume_path
  in
  List.iter (Option.iter require_writable) [ out; trace_path; checkpoint_path ];
  let data, raw_targets =
    (* A .cafs store streams; a CSV loads resident ([pack] it to stream). *)
    if Filename.check_suffix train_path ".cafs" then load_store ~path:train_path ~target
    else split_target ~path:train_path (load_table train_path) target
  in
  let var_names = Dataset.var_names data in
  let targets = fit_targets ~path:train_path ~target ~log_target raw_targets in
  let opset =
    match grammar_path with
    | None -> Opset.default
    | Some path -> (
        match Grammar.parse (read_file path) with
        | Ok g -> Opset.of_grammar g
        | Error msg ->
            Printf.eprintf "cannot parse grammar %s: %s\n" path msg;
            exit 2)
  in
  (* Resolve the parallelism up front (0 = auto) so the banner reports
     what the run actually uses: worker domains for --backend domains
     (clamped to the core count), worker processes for --backend
     processes (not clamped — processes do not share the GC). *)
  let jobs = Pool.effective_jobs jobs in
  let shards = if shards >= 1 then shards else Pool.effective_jobs 0 in
  let config =
    {
      (Config.scaled ~pop_size:pop ~generations:gens ~jobs Config.paper) with
      Config.opset;
      max_bases;
    }
  in
  Printf.printf "fitting %s from %d samples x %d variables (pop %d, gens %d, seed %d, backend %s)\n%!"
    target (Array.length targets) (Array.length var_names) pop gens seed
    (match backend with
    | Executor.Seq -> "seq"
    | Executor.Domains -> Printf.sprintf "domains, jobs %d" jobs
    | Executor.Processes -> Printf.sprintf "processes, shards %d" shards);
  let trace_channel = Option.map open_out trace_path in
  let trace = match trace_channel with Some ch -> Trace.of_channel ch | None -> Trace.null in
  (* An invalid CAFFEINE_JOBS already warned on stderr inside
     [effective_jobs]; surface it in the trace too, where CI diffs see it. *)
  (match Pool.take_env_warning () with
  | Some message ->
      if not (Trace.is_null trace) then
        Trace.emit trace (Trace.Warning { context = "pool.effective_jobs"; message })
  | None -> ());
  let resume =
    Option.map
      (fun path ->
        match Checkpoint.load ~path with
        | Ok snapshot -> snapshot
        | Error msg ->
            Printf.eprintf "cannot resume from %s: %s\n" path msg;
            exit 2)
      resume_path
  in
  (* --kill-after: die right after generation N's record, before the next
     snapshot — the harness then resumes from the last multiple of
     --checkpoint-every and must reproduce the uninterrupted front. *)
  let on_generation =
    Option.map
      (fun limit (record : Trace.generation) ->
        if record.Trace.gen >= limit then begin
          Printf.eprintf "killed after generation %d (--kill-after)\n" record.Trace.gen;
          exit 3
        end)
      kill_after
  in
  (* One executor serves both the evolutionary run and SAG forward
     selection; under --backend domains with jobs = 1 no pool (and no
     extra domain) is created at all. *)
  let front =
    match
      Executor.with_executor ~jobs ~shards backend @@ fun executor ->
      Search.run_and_simplify ~seed ~executor ~trace ?on_generation ?checkpoint_path
        ~checkpoint_every ?resume ~eval_cache ~sag:(not no_sag) config ~data ~targets
    with
    | Ok front -> front
    | Error msg ->
        Printf.eprintf "cannot resume from %s: %s\n" (Option.get resume_path) msg;
        exit 2
  in
  (match trace_channel with
  | None -> ()
  | Some channel ->
      (* Cache effectiveness, last: informative but nondeterministic across
         jobs settings, so [trace --counts] projects it away. *)
      let s = Dataset.stats data in
      Trace.emit trace
        (Trace.Cache_stats
           {
             columns_cached = s.Dataset.columns_cached;
             column_hits = s.Dataset.column_hits;
             column_misses = s.Dataset.column_misses;
             column_evictions = s.Dataset.column_evictions;
             dots_cached = s.Dataset.dots_cached;
             dot_hits = s.Dataset.dot_hits;
             dot_misses = s.Dataset.dot_misses;
             dot_evictions = s.Dataset.dot_evictions;
           });
      (if eval_cache <> Eval_cache.Off then
         let g = Eval_cache.global_stats () in
         Trace.emit trace
           (Trace.Eval_cache_stats
              {
                eval_hits = g.Eval_cache.total_hits;
                eval_misses = g.Eval_cache.total_misses;
                eval_evictions = g.Eval_cache.total_evictions;
              }));
      close_out channel;
      Printf.printf "wrote run trace to %s\n" (Option.get trace_path));
  let test_data =
    match test_path with
    | None -> None
    | Some path ->
        let test = load_table path in
        let test_set, test_raw = split_target ~path test target in
        Some (test_set, fit_targets ~path ~target ~log_target test_raw)
  in
  Printf.printf "\n%-10s %-10s %-9s expression\n" "train err" "test err" "complexity";
  List.iter
    (fun (m : Model.t) ->
      let test_err =
        match test_data with
        | None -> "-"
        | Some (test_set, test_targets) ->
            Printf.sprintf "%8.2f%%" (100. *. Model.error_on m ~data:test_set ~targets:test_targets)
      in
      Printf.printf "%9.2f%% %10s %9.1f %s\n"
        (100. *. m.Model.train_error)
        test_err m.Model.complexity
        (Model.to_string ~var_names m))
    front;
  if metrics then begin
    Dataset.publish_metrics data;
    Printf.printf "\nmetrics (process-wide registry):\n";
    print_string (Metrics.render (Metrics.snapshot Metrics.default))
  end;
  (match out with
  | None -> ()
  | Some path ->
      write_or_exit path (fun () -> Caffeine.Model_io.save ~path ~var_names front);
      Printf.printf "\nsaved %d models to %s\n" (List.length front) path);
  0

let train_arg =
  let doc =
    "Training data: a CSV (header row; inputs + target columns), loaded in memory, or a \
     $(b,.cafs) column store written by $(b,pack), streamed from disk chunk by chunk."
  in
  Arg.(required & opt (some string) None & info [ "train" ] ~docv:"FILE" ~doc)

let test_arg =
  let doc = "Optional testing CSV with the same columns." in
  Arg.(value & opt (some string) None & info [ "test" ] ~docv:"CSV" ~doc)

let target_arg =
  let doc = "Name of the target column to model." in
  Arg.(required & opt (some string) None & info [ "target" ] ~docv:"NAME" ~doc)

let pop_arg = Arg.(value & opt int 120 & info [ "pop" ] ~docv:"N" ~doc:"Population size.")
let gens_arg = Arg.(value & opt int 150 & info [ "gens" ] ~docv:"N" ~doc:"Generations.")
let seed_arg = Arg.(value & opt int 17 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let jobs_arg =
  let doc =
    "Worker domains for parallel evaluation under $(b,--backend domains) (0 = auto: \
     \\$(b,CAFFEINE_JOBS) or all recommended cores; always clamped to the core count).  \
     Results are identical for any value."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let backend_arg =
  let parse s =
    match Executor.backend_of_string s with Ok b -> Ok b | Error msg -> Error (`Msg msg)
  in
  let print ppf b = Format.pp_print_string ppf (Executor.backend_name b) in
  let doc =
    "Execution backend: $(b,seq) runs everything on the calling domain; $(b,domains) fans \
     objective evaluation across worker domains sharing the heap (see $(b,--jobs)); \
     $(b,processes) starts worker processes and runs whole islands in them (see \
     $(b,--shard)), immune to the cross-domain GC coupling that makes domains lose on \
     small populations.  The final front is bit-identical under every backend."
  in
  Arg.(value & opt (conv (parse, print)) Executor.Domains & info [ "backend" ] ~docv:"BACKEND" ~doc)

let shard_arg =
  let doc =
    "Worker processes for $(b,--backend processes) (0 = auto: one per core).  Never more \
     workers than islands; unlike $(b,--jobs) the value is not clamped to the core count.  \
     Results are identical for any value."
  in
  Arg.(value & opt int 0 & info [ "shard" ] ~docv:"N" ~doc)

let log_target_arg =
  Arg.(value & flag & info [ "log-target" ] ~doc:"Model log10 of the target (the paper's fu scaling).")

let grammar_arg =
  Arg.(value & opt (some string) None & info [ "grammar" ] ~docv:"FILE" ~doc:"Grammar file restricting the operator set.")

let max_bases_arg =
  Arg.(value & opt int 15 & info [ "max-bases" ] ~docv:"N" ~doc:"Maximum basis functions (paper: 15).")

let no_sag_arg =
  Arg.(value & flag & info [ "no-sag" ] ~doc:"Skip PRESS-guided simplification after generation.")

let fit_out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Save the model front to a models file.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"JSONL"
        ~doc:
          "Write a structured run trace (one JSON record per line: run parameters, \
           per-generation statistics and operator tallies, SAG pruning rounds, cache \
           statistics).  Count fields are deterministic for a fixed seed at any --jobs; \
           inspect with the trace subcommand.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the process-wide metrics registry after the run (pool utilization, regression \
           engine counters, dataset cache gauges).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a resumable snapshot of the full run state to FILE every --checkpoint-every \
           generations, after the evolution finishes, and after each model is simplified (write \
           to a temporary file, then atomic rename).  Resume with --resume; the resumed run's \
           final front is identical to the uninterrupted run's, at any --jobs.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 10
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Generations between snapshot writes (default 10).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume an interrupted run from a snapshot written by --checkpoint.  The snapshot must \
           match this run's configuration, data, target and --seed (checked by fingerprint).  \
           Snapshot writes continue to the same file unless --checkpoint names another.")

let kill_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-after" ] ~docv:"N"
        ~doc:
          "Exit with status 3 right after generation N — a testing aid that simulates a mid-run \
           kill for checkpoint/resume verification.")

let eval_cache_arg =
  let parse s =
    match Eval_cache.mode_of_string s with Ok m -> Ok m | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Eval_cache.mode_to_string m) in
  let doc =
    "Evaluation cache in front of objective evaluation: $(b,off) (default) fits every \
     candidate; $(b,exact) memoizes objectives by the individual's structural hash — \
     bit-identical to recomputation, so the final front is unchanged at every backend.  \
     Each island keeps a private cache of at most 65536 entries; caches never enter \
     checkpoint snapshots."
  in
  Arg.(
    value
    & opt (conv (parse, print)) Eval_cache.Off
    & info [ "eval-cache" ] ~docv:"MODE" ~doc)

let chunk_rows_arg =
  Arg.(
    value & opt int 65536
    & info [ "chunk-rows" ] ~docv:"N"
        ~doc:
          "Rows per chunk of the store (default 65536).  Purely a memory/throughput \
           trade-off: a fit gives bit-identical results for every value.")

let fit_cmd =
  let info = Cmd.info "fit" ~doc:"Evolve template-free symbolic models for a CSV column." in
  Cmd.v info
    Term.(
      const fit $ train_arg $ test_arg $ target_arg $ pop_arg $ gens_arg $ seed_arg $ jobs_arg
      $ backend_arg $ shard_arg $ log_target_arg $ grammar_arg $ max_bases_arg $ no_sag_arg
      $ trace_out_arg $ metrics_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
      $ kill_after_arg $ eval_cache_arg $ fit_out_arg)

(* --- pack --------------------------------------------------------------- *)

let pack csv_path chunk_rows out =
  require_at_least ~option:"chunk-rows" ~min:1 chunk_rows;
  match pack_csv ~csv_path ~out ~chunk_rows with
  | Error msg ->
      Printf.eprintf "cannot pack %s: %s\n" csv_path msg;
      2
  | Ok () ->
      let store = Colstore.openfile out in
      Printf.printf "packed %d rows x %d columns into %s (%d rows per chunk)\n"
        (Colstore.n_rows store)
        (Array.length (Colstore.var_names store))
        out (Colstore.chunk_rows store);
      Colstore.close store;
      0

let pack_csv_arg =
  let doc = "Input CSV (header row; numeric cells)." in
  Arg.(required & opt (some string) None & info [ "csv" ] ~docv:"CSV" ~doc)

let pack_cmd =
  let info =
    Cmd.info "pack"
      ~doc:
        "Convert a CSV dataset into a chunked binary column store (.cafs), which $(b,fit \
         --train) streams from disk.  The CSV is parsed one line at a time, so files far \
         larger than memory pack fine."
  in
  Cmd.v info Term.(const pack $ pack_csv_arg $ chunk_rows_arg $ out_arg "data.cafs")

(* --- predict ------------------------------------------------------------ *)

(* Every saved model is scored with the complexity weights every fit
   uses. *)
let load_models path =
  Caffeine.Model_io.load ~path ~wb:Config.paper.Config.wb ~wvc:Config.paper.Config.wvc

let nth_model models index = if index < 0 then None else List.nth_opt models index

let predict models_path data_path target log_target dump =
  Option.iter require_writable dump;
  match load_models models_path with
  | Error msg ->
      Printf.eprintf "cannot load models: %s\n" msg;
      2
  | Ok (var_names, models) ->
      let table = load_table data_path in
      let data, raw_targets = split_target ~path:data_path table target in
      (* The models index design variables positionally: the data columns
         must be the variables the models were fitted on, in order. *)
      if Dataset.var_names data <> var_names then begin
        Printf.eprintf "data columns (%s) do not match the model variables (%s)\n"
          (String.concat ", " (Array.to_list (Dataset.var_names data)))
          (String.concat ", " (Array.to_list var_names));
        exit 2
      end;
      let targets = fit_targets ~path:data_path ~target ~log_target raw_targets in
      Printf.printf "%-10s %-9s expression\n" "error" "#bases";
      List.iter
        (fun (m : Model.t) ->
          let err = Model.error_on m ~data ~targets in
          Printf.printf "%9.2f%% %9d %s\n" (100. *. err) (Model.num_bases m)
            (Model.to_string ~var_names m))
        models;
      (match dump with
      | None -> ()
      | Some path ->
          (* Per-model predictions through direct [Model.predict], encoded
             exactly as the serve protocol encodes its "outputs" field —
             one [[...],...] line, models x rows — so the serving layer's
             bit-identity contract is a plain [diff] away. *)
          let b = Buffer.create 4096 in
          Buffer.add_char b '[';
          List.iteri
            (fun k m ->
              if k > 0 then Buffer.add_char b ',';
              Buffer.add_char b '[';
              Array.iteri
                (fun i y ->
                  if i > 0 then Buffer.add_char b ',';
                  Caffeine_obs.Json.add_float b y)
                (Model.predict m data);
              Buffer.add_char b ']')
            models;
          Buffer.add_string b "]\n";
          write_or_exit path (fun () ->
              Out_channel.with_open_text path (fun channel -> Buffer.output_buffer channel b));
          Printf.printf "dumped predictions for %d models to %s\n" (List.length models) path);
      0

let models_arg =
  Arg.(required & opt (some string) None & info [ "models" ] ~docv:"FILE" ~doc:"Models file written by fit --out.")

let data_arg =
  Arg.(required & opt (some string) None & info [ "data" ] ~docv:"CSV" ~doc:"Dataset to evaluate on.")

let dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump" ] ~docv:"FILE"
        ~doc:
          "Also write the raw per-model predictions as one JSON array line (models x rows, \
           the byte encoding the serve protocol uses for its \"outputs\" field).")

let predict_cmd =
  let info = Cmd.info "predict" ~doc:"Evaluate saved models against a CSV dataset." in
  Cmd.v info Term.(const predict $ models_arg $ data_arg $ target_arg $ log_target_arg $ dump_arg)

(* --- serve --------------------------------------------------------------- *)

let serve front_path socket_path reload =
  match
    Caffeine_serve.Registry.create ~path:front_path ~wb:Config.paper.Config.wb
      ~wvc:Config.paper.Config.wvc ()
  with
  | Error msg ->
      Printf.eprintf "cannot serve: %s\n" msg;
      2
  | Ok registry ->
      let config = Caffeine_serve.Server.config ~reload registry in
      Caffeine_serve.Server.install_sigterm config;
      (* A client hanging up mid-response must not kill the server. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let front = Caffeine_serve.Registry.current registry in
      Printf.eprintf "serving %d models over %d variables from %s%s\n%!"
        (Array.length front.Caffeine_serve.Registry.models)
        (Array.length front.Caffeine_serve.Registry.var_names)
        front_path
        (if reload then " (hot-reload on)" else "");
      (match socket_path with
      | Some path ->
          Printf.eprintf "listening on %s\n%!" path;
          Caffeine_serve.Server.serve_socket config ~path
      | None -> Caffeine_serve.Server.serve_fds config ~input:Unix.stdin ~output:Unix.stdout);
      0

let front_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "front" ] ~docv:"FILE" ~doc:"Pareto-front models file written by fit --out.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at PATH.  Without it the server reads requests \
           from stdin and writes responses to stdout (the startup banner goes to stderr).")

let reload_flag_arg =
  Arg.(
    value & flag
    & info [ "reload" ]
        ~doc:
          "Poll the front file before each request and atomically swap in a freshly compiled \
           front when its mtime or size changed; in-flight batches finish on the front they \
           started with, and a malformed rewrite keeps the previous front serving.")

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Serve a saved Pareto front over a line-oriented JSON protocol (one request object \
         per line: predict / front / explain / stats), compiled to one fused tape so served \
         predictions are bit-identical to direct model evaluation.  SIGTERM drains \
         gracefully: the in-flight request completes before exit."
  in
  Cmd.v info Term.(const serve $ front_arg $ socket_arg $ reload_flag_arg)

(* --- export -------------------------------------------------------------- *)

let export models_path language index out =
  Option.iter require_writable out;
  match load_models models_path with
  | Error msg ->
      Printf.eprintf "cannot load models: %s\n" msg;
      2
  | Ok (var_names, models) -> (
      let render_single model =
        match language with
        | `C -> Some (Caffeine.Export.to_c ~name:"caffeine_model" ~var_names model)
        | `Verilog_a -> Some (Caffeine.Export.to_verilog_a ~name:"caffeine_model" ~var_names model)
        | `C_front -> None
      in
      let source =
        match language with
        | `C_front ->
            (* Whole front in one function: shared subexpressions are
               hash-consed into single locals; --index is ignored. *)
            Some (Caffeine.Export.to_c_front ~name:"caffeine_front" ~var_names models)
        | `C | `Verilog_a -> (
            match nth_model models index with
            | None ->
                Printf.eprintf "model index %d out of range (file has %d models)\n" index
                  (List.length models);
                None
            | Some model -> render_single model)
      in
      match source with
      | None -> 2
      | Some source ->
          (match out with
          | None -> print_string source
          | Some path ->
              write_or_exit path (fun () ->
                  Out_channel.with_open_text path (fun channel -> output_string channel source));
              Printf.printf "wrote %s\n" path);
          0)

let language_arg =
  let parse = function
    | "c" -> Ok `C
    | "verilog-a" | "va" -> Ok `Verilog_a
    | "c-front" -> Ok `C_front
    | other -> Error (`Msg (Printf.sprintf "unknown language %S (use c, verilog-a or c-front)" other))
  in
  let print ppf l =
    Format.pp_print_string ppf
      (match l with `C -> "c" | `Verilog_a -> "verilog-a" | `C_front -> "c-front")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `C
    & info [ "language" ] ~docv:"LANG"
        ~doc:
          "c or verilog-a (one model, see --index), or c-front (the whole front as one C \
           function with hash-consed shared subexpressions, one output per model).")

let index_arg =
  Arg.(value & opt int 0 & info [ "index" ] ~docv:"N" ~doc:"Which model in the file (0-based; models are complexity-sorted).")

let export_out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to a file instead of stdout.")

let export_cmd =
  let info = Cmd.info "export" ~doc:"Render a saved model as C or Verilog-A source." in
  Cmd.v info Term.(const export $ models_arg $ language_arg $ index_arg $ export_out_arg)

(* --- insight ------------------------------------------------------------- *)

let insight models_path index =
  match load_models models_path with
  | Error msg ->
      Printf.eprintf "cannot load models: %s\n" msg;
      2
  | Ok (var_names, models) -> (
      match nth_model models index with
      | None ->
          Printf.eprintf "model index %d out of range (file has %d models)\n" index
            (List.length models);
          2
      | Some model ->
          (* When the variables are the OTA's, analyze at its nominal point
             and over its sampled box; otherwise use all-ones. *)
          let at, lo, hi =
            if var_names = Ota.var_names then
              ( Ota.nominal,
                Array.map (fun v -> v *. 0.9) Ota.nominal,
                Array.map (fun v -> v *. 1.1) Ota.nominal )
            else begin
              let dims = Array.length var_names in
              (Array.make dims 1., Array.make dims 0.9, Array.make dims 1.1)
            end
          in
          print_string (Caffeine.Insight.report ~var_names ~at model);
          let rng = Caffeine_util.Rng.create ~seed:1 () in
          let indices = Caffeine.Insight.sobol_first_order rng model ~lo ~hi in
          let ranked =
            List.sort
              (fun (_, a) (_, b) -> compare b a)
              (Array.to_list (Array.mapi (fun i s -> (i, s)) indices))
          in
          Printf.printf "first-order Sobol indices over +-10%% of the analysis point:\n";
          List.iter
            (fun (i, s) ->
              if s > 0.005 then Printf.printf "  %-8s %.3f\n" var_names.(i) s)
            ranked;
          0)

let insight_cmd =
  let info =
    Cmd.info "insight"
      ~doc:"Variable usage, local sensitivities and Sobol indices of a saved model."
  in
  Cmd.v info Term.(const insight $ models_arg $ index_arg)


(* --- analyze ------------------------------------------------------------ *)

let analyze netlist_path want_op ac_input ac_output =
  match Caffeine_spice.Netlist.parse_file netlist_path with
  | Error msg ->
      Printf.eprintf "cannot parse %s: %s\n" netlist_path msg;
      2
  | Ok deck -> (
      (match deck.Caffeine_spice.Netlist.title with
      | Some title -> Printf.printf "* %s\n" title
      | None -> ());
      match Caffeine_spice.Dc.solve deck.Caffeine_spice.Netlist.circuit with
      | Error msg ->
          Printf.printf "DC solve failed: %s\n" msg;
          1
      | Ok dc ->
          Printf.printf "DC operating point (%d Newton iterations):\n" dc.Caffeine_spice.Dc.iterations;
          List.iter
            (fun (name, index) -> Printf.printf "  v(%s) = %.6g V\n" name
                (Caffeine_spice.Dc.node_voltage dc index))
            deck.Caffeine_spice.Netlist.node_names;
          List.iter
            (fun (name, current) -> Printf.printf "  i(%s) = %.6g A\n" name current)
            dc.Caffeine_spice.Dc.branch_currents;
          if want_op then begin
            Printf.printf "device operating points:\n";
            List.iter
              (fun (bias : Caffeine_spice.Dc.mos_bias) ->
                Printf.printf "  %-8s ids=%.4g A gm=%.4g S gds=%.4g S (%s)\n" bias.Caffeine_spice.Dc.name
                  bias.Caffeine_spice.Dc.op.Caffeine_spice.Mos.ids
                  bias.Caffeine_spice.Dc.op.Caffeine_spice.Mos.gm
                  bias.Caffeine_spice.Dc.op.Caffeine_spice.Mos.gds
                  (match bias.Caffeine_spice.Dc.op.Caffeine_spice.Mos.region with
                  | `Cutoff -> "cutoff"
                  | `Triode -> "triode"
                  | `Saturation -> "saturation"))
              dc.Caffeine_spice.Dc.mos_biases
          end;
          (match (ac_input, ac_output) with
          | Some input, Some output_name -> (
              match Caffeine_spice.Netlist.node deck output_name with
              | exception Not_found ->
                  Printf.printf "unknown output node %s\n" output_name
              | output ->
                  let freqs =
                    Caffeine_spice.Ac.log_frequencies ~start_hz:1. ~stop_hz:1e10
                      ~points_per_decade:10
                  in
                  let sweep =
                    Caffeine_spice.Ac.transfer ~circuit:deck.Caffeine_spice.Netlist.circuit ~dc
                      ~input ~output ~freqs
                  in
                  Printf.printf "AC (%s -> %s):\n" input output_name;
                  Printf.printf "  low-frequency gain %.2f dB\n"
                    (Caffeine_spice.Ac.low_frequency_gain_db sweep);
                  (match Caffeine_spice.Ac.unity_gain_frequency sweep with
                  | Some fu -> Printf.printf "  unity-gain frequency %.4g Hz\n" fu
                  | None -> Printf.printf "  no unity-gain crossing in sweep\n");
                  match Caffeine_spice.Ac.phase_margin_deg sweep with
                  | Some pm -> Printf.printf "  phase margin %.1f deg\n" pm
                  | None -> ())
          | Some _, None | None, Some _ ->
              Printf.printf "(need both --ac-input and --ac-output for an AC sweep)\n"
          | None, None -> ());
          0)

let netlist_arg =
  Arg.(required & opt (some string) None & info [ "netlist" ] ~docv:"FILE" ~doc:"SPICE-format deck.")

let op_arg = Arg.(value & flag & info [ "op" ] ~doc:"Print per-device operating points.")

let ac_input_arg =
  Arg.(value & opt (some string) None & info [ "ac-input" ] ~docv:"VSRC" ~doc:"AC input source name.")

let ac_output_arg =
  Arg.(value & opt (some string) None & info [ "ac-output" ] ~docv:"NODE" ~doc:"AC output node name.")

let analyze_cmd =
  let info = Cmd.info "analyze" ~doc:"DC (and optionally AC) analysis of a SPICE-format netlist." in
  Cmd.v info Term.(const analyze $ netlist_arg $ op_arg $ ac_input_arg $ ac_output_arg)

(* --- trace -------------------------------------------------------------- *)

let read_trace path =
  String.split_on_char '\n' (read_file path)
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (line_number, line) ->
         if String.trim line = "" then None
         else
           match Trace.of_line line with
           | Ok record -> Some record
           | Error msg ->
               Printf.eprintf "%s:%d: %s\n" path line_number msg;
               exit 1)

let trace_command path counts =
  let records = read_trace path in
  if counts then begin
    (* The jobs-invariant projection: two traces of the same seeded run
       diff clean here whatever --jobs each used. *)
    List.iter
      (fun record ->
        match Trace.deterministic record with
        | Some projected -> print_endline (Trace.to_line projected)
        | None -> ())
      records;
    0
  end
  else begin
    (* Exhaustive so a new record variant is a compile error here, printed
       sorted by name so the summary (and diffs of it) are stable as kinds
       come and go. *)
    let kind = function
      | Trace.Run_start _ -> "run_start"
      | Trace.Generation _ -> "generation"
      | Trace.Op_stats _ -> "op_stats"
      | Trace.Sag_round _ -> "sag_round"
      | Trace.Sag_model _ -> "sag_model"
      | Trace.Cache_stats _ -> "cache_stats"
      | Trace.Eval_cache_stats _ -> "eval_cache_stats"
      | Trace.Fused_stats _ -> "fused_stats"
      | Trace.Checkpoint_written _ -> "checkpoint_written"
      | Trace.Run_resumed _ -> "run_resumed"
      | Trace.Warning _ -> "warning"
      | Trace.Migration _ -> "migration"
      | Trace.Run_end _ -> "run_end"
    in
    let tally = Hashtbl.create 16 in
    let last_generation = ref None in
    let final_front = ref None in
    List.iter
      (fun record ->
        let name = kind record in
        Hashtbl.replace tally name
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally name));
        match record with
        | Trace.Generation g -> last_generation := Some g
        | Trace.Run_end r -> final_front := Some r
        | _ -> ())
      records;
    Printf.printf "%s: %d records\n" path (List.length records);
    let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tally []) in
    let width = List.fold_left (fun w n -> max w (String.length n)) 0 names in
    List.iter (fun name -> Printf.printf "  %-*s %d\n" width name (Hashtbl.find tally name)) names;
    (match !last_generation with
    | Some g ->
        Printf.printf "last generation: gen %d, best train error %.4g, front size %d\n"
          g.Trace.gen g.Trace.best_nmse g.Trace.front_size
    | None -> ());
    (match !final_front with
    | Some r ->
        Printf.printf "final front: %d models, total wall %.3f s\n" (List.length r.Trace.front)
          r.Trace.total_wall_s
    | None -> ());
    0
  end

let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JSONL" ~doc:"Trace written by fit --trace.")

let counts_arg =
  Arg.(
    value & flag
    & info [ "counts" ]
        ~doc:
          "Print the deterministic projection of each record instead of a summary — \
           byte-identical for the same seeded run at any --jobs setting.  Wall times are \
           zeroed; the dataset cache_stats record and the eval_cache_stats record (the final \
           eval.cache_hits/misses/evictions counters of --eval-cache runs) are dropped, since \
           both depend on scheduling or cache state, and so are the per-generation fused_stats \
           records of traces written before the search stopped fused warming; per-generation \
           op_stats records are kept verbatim.")

let trace_cmd =
  let info =
    Cmd.info "trace" ~doc:"Summarize or project a JSONL run trace written by fit --trace."
  in
  Cmd.v info Term.(const trace_command $ trace_file_arg $ counts_arg)

(* --- grammar ----------------------------------------------------------- *)

let grammar_command check_path =
  match check_path with
  | None ->
      print_string Grammar.caffeine_text;
      0
  | Some path -> (
      match Grammar.parse (read_file path) with
      | Error msg ->
          Printf.printf "parse error: %s\n" msg;
          1
      | Ok g -> (
          match Grammar.validate g with
          | Ok () ->
              Printf.printf "%s: ok (%d nonterminals, %d terminals)\n" path
                (List.length (Grammar.nonterminals g))
                (List.length (Grammar.terminals g));
              0
          | Error msgs ->
              Printf.printf "%s: invalid\n" path;
              List.iter (fun m -> Printf.printf "  %s\n" m) msgs;
              1))

let check_arg =
  Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE" ~doc:"Validate a grammar file.")

let grammar_cmd =
  let info =
    Cmd.info "grammar" ~doc:"Print the built-in canonical-form grammar or validate a grammar file."
  in
  Cmd.v info Term.(const grammar_command $ check_arg)

(* --- main -------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "caffeine" ~version:Caffeine.Caffeine_version.version
      ~doc:"Template-free symbolic model generation of analog circuits (CAFFEINE, DATE'05)."
  in
  let group =
    Cmd.group info
      [ gen_data_cmd; simulate_cmd; fit_cmd; pack_cmd; predict_cmd; serve_cmd; grammar_cmd; analyze_cmd; export_cmd; insight_cmd; trace_cmd ]
  in
  exit (Cmd.eval' group)
