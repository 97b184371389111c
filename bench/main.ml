(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Figure 3, Table I, Table II, Figure 4) and the
   ablations called out in DESIGN.md, and runs the layer timing gates that
   have no other home: parallel scaling, telemetry overhead, eval-cache
   effectiveness, fused evaluation, serve throughput and the out-of-core
   memory gate.

     dune exec bench/main.exe -- [--experiment all|fig3|table1|table2|fig4|
                                   ablation-grammar|ablation-sag|ablation-moo|
                                   ablation-scalar|tran-slew|miller|parallel|
                                   trace|dedup|fuse|serve|stream]
                                  [--pop N] [--gens N] [--seed N] [--smoke]
                                  [--stream-only]

   [all] (the default) runs every experiment but miller and stream.  An
   unknown experiment or argument, a --seed that is not an integer, a
   --pop below 2 or a --gens below 1 exits 2 with one line before any
   work.  The search budget defaults to a few seconds per performance;
   pass --pop 200 --gens 5000 to match the paper's 12-hour runs. *)

module Ota = Caffeine_ota.Ota
module Posyn = Caffeine_posyn.Posyn
module Stats = Caffeine_util.Stats
module Config = Caffeine.Config
module Model = Caffeine.Model
module Model_io = Caffeine.Model_io
module Search = Caffeine.Search
module Sag = Caffeine.Sag
module Opset = Caffeine.Opset
module Dataset = Caffeine_io.Dataset
module Fused = Caffeine_expr.Fused
module Linfit = Caffeine_regress.Linfit
module Pool = Caffeine_par.Pool
module Executor = Caffeine_par.Executor
module Colstore = Caffeine_io.Colstore
module Circuit = Caffeine_spice.Circuit
module Tran = Caffeine_spice.Tran

(* The expression module under its reference-interpreter name: nothing
   here evaluates through it (everything runs on Fused/Dataset tapes); the
   stream experiment builds its basis records from it. *)
module Interp = Caffeine_expr.Expr

type options = {
  experiment : string;
  pop_size : int;
  generations : int;
  seed : int;
  smoke : bool;  (** shrink workloads for CI: same checks, smaller timings *)
  stream_only : bool;
      (** stream experiment: skip the in-memory comparison fit, so an
          external [/usr/bin/time -v] wrapper measures the out-of-core
          path's peak RSS alone (ci/stream-gate.sh) *)
}

(* What the harness cannot run it refuses: one line on stderr, exit 2. *)
let refuse fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let parse_options () =
  let experiment = ref "all" in
  let pop_size = ref 120 in
  let generations = ref 150 in
  let seed = ref 11 in
  let smoke = ref false in
  let stream_only = ref false in
  let integer ?min flag v =
    match (int_of_string_opt v, min) with
    | Some n, None -> n
    | Some n, Some floor when n >= floor -> n
    | _, None -> refuse "%s %s: expected an integer" flag v
    | _, Some floor -> refuse "%s %s: expected an integer of at least %d" flag v floor
  in
  let rec scan = function
    | [] -> ()
    | "--experiment" :: v :: rest ->
        experiment := v;
        scan rest
    | "--pop" :: v :: rest ->
        pop_size := integer ~min:2 "--pop" v;
        scan rest
    | "--gens" :: v :: rest ->
        generations := integer ~min:1 "--gens" v;
        scan rest
    | "--seed" :: v :: rest ->
        seed := integer "--seed" v;
        scan rest
    | "--smoke" :: rest ->
        smoke := true;
        scan rest
    | "--stream-only" :: rest ->
        stream_only := true;
        scan rest
    | flag :: _ -> refuse "unknown argument %s" flag
  in
  scan (List.tl (Array.to_list Sys.argv));
  {
    experiment = !experiment;
    pop_size = !pop_size;
    generations = !generations;
    seed = !seed;
    smoke = !smoke;
    stream_only = !stream_only;
  }

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let percent e = 100. *. e

(* --- benchmark artifacts -------------------------------------------------- *)

(* Every experiment records its numbers as BENCH_<name>.json through this
   one writer.  The envelope opens with a "host" object (core count, OCaml
   version, smoke flag) so artifacts collected from different CI runners
   are self-describing; the experiment's own fields follow in order.
   Values are preformatted JSON fragments — nested objects arrive as
   strings, multi-line fragments keep their own indentation. *)
let write_artifact ~options ~name fields =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host\": { \"cores\": %d, \"ocaml\": \"%s\", \"smoke\": %b },\n"
       (Domain.recommended_domain_count ())
       Sys.ocaml_version options.smoke);
  let count = List.length fields in
  List.iteri
    (fun i (key, value) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\": %s%s\n" key value (if i = count - 1 then "" else ",")))
    fields;
  Buffer.add_string buf "}\n";
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "(numbers recorded in %s)\n" path

(* --- shared data and per-performance runs ------------------------------- *)

type run = {
  performance : Ota.performance;
  train_targets : float array;
  test_targets : float array;
  front : Model.t list;  (** SAG-processed (train error, complexity) front *)
  scored : Sag.scored list;  (** (test error, complexity) tradeoff *)
  raw_front : Model.t list;  (** pre-SAG front, for the SAG ablation *)
}

type context = {
  options : options;
  train : Ota.dataset;  (** row-major source, for the posynomial baseline *)
  test : Ota.dataset;
  train_data : Dataset.t;  (** column-major view shared by every search/SAG pass *)
  test_data : Dataset.t;
  config : Config.t;
  mutable runs : (Ota.performance * run) list;
}

let make_context options =
  let train = Ota.doe_dataset ~dx:0.10 in
  let test = Ota.doe_dataset ~dx:0.03 in
  Printf.printf
    "workload: OTA orthogonal-hypercube DOE, %d train samples (dx=0.10), %d test samples (dx=0.03)\n"
    (Array.length train.Ota.inputs)
    (Array.length test.Ota.inputs);
  let config =
    Config.scaled ~pop_size:options.pop_size ~generations:options.generations Config.paper
  in
  Printf.printf "search budget: population %d, %d generations, seed %d\n" config.Config.pop_size
    config.Config.generations options.seed;
  let train_data = Dataset.of_rows ~var_names:Ota.var_names train.Ota.inputs in
  let test_data = Dataset.of_rows ~var_names:Ota.var_names test.Ota.inputs in
  { options; train; test; train_data; test_data; config; runs = [] }

let seed_for context p =
  context.options.seed
  +
  match p with
  | Ota.Alf -> 1
  | Ota.Fu -> 2
  | Ota.Pm -> 3
  | Ota.Voffset -> 4
  | Ota.Srp -> 5
  | Ota.Srn -> 6

let run_performance context p =
  match List.assoc_opt p context.runs with
  | Some run -> run
  | None ->
      let train_targets = Array.map (Ota.modeling_target p) (Ota.targets context.train p) in
      let test_targets = Array.map (Ota.modeling_target p) (Ota.targets context.test p) in
      let started = Sys.time () in
      let outcome =
        Search.run ~seed:(seed_for context p) context.config ~data:context.train_data
          ~targets:train_targets
      in
      let wb = context.config.Config.wb and wvc = context.config.Config.wvc in
      let front =
        Sag.process_front ~wb ~wvc outcome.Search.front ~data:context.train_data
          ~targets:train_targets
      in
      let scored = Sag.test_tradeoff front ~data:context.test_data ~targets:test_targets in
      Printf.printf "  [%s: evolved %d-model front in %.1f s]\n%!" (Ota.performance_name p)
        (List.length front)
        (Sys.time () -. started);
      let run =
        { performance = p; train_targets; test_targets; front; scored; raw_front = outcome.Search.front }
      in
      context.runs <- (p, run) :: context.runs;
      run

let model_test_error context run (m : Model.t) =
  Model.error_on m ~data:context.test_data ~targets:run.test_targets

(* --- Figure 3 ----------------------------------------------------------- *)

let experiment_fig3 context =
  section "Figure 3: error/complexity tradeoffs per performance";
  Printf.printf
    "(left columns: every model on the train-error front; right column: models on the test-error front)\n";
  let show_performance p =
    let run = run_performance context p in
    Printf.printf "\n-- %s --\n" (Ota.performance_name p);
    Printf.printf "%10s  %10s  %10s  %7s\n" "complexity" "train(%)" "test(%)" "#bases";
    List.iter
      (fun (m : Model.t) ->
        Printf.printf "%10.1f  %10.2f  %10.2f  %7d\n" m.Model.complexity
          (percent m.Model.train_error)
          (percent (model_test_error context run m))
          (Model.num_bases m))
      run.front;
    Printf.printf "test-error tradeoff (%d models):\n" (List.length run.scored);
    List.iter
      (fun (s : Sag.scored) ->
        Printf.printf "%10.1f  %10.2f  %10.2f  %7d\n" s.Sag.model.Model.complexity
          (percent s.Sag.model.Model.train_error)
          (percent s.Sag.test_error)
          (Model.num_bases s.Sag.model))
      run.scored
  in
  List.iter show_performance Ota.all_performances

(* --- Table I ------------------------------------------------------------ *)

let experiment_table1 context =
  section "Table I: symbolic models with <10% training and testing error";
  let show_performance p =
    let run = run_performance context p in
    (* Prefer a non-constant model when one also meets the caps — the paper's
       rows are informative expressions, not bare constants. *)
    let chosen =
      match Sag.best_within run.scored ~train_cap:0.10 ~test_cap:0.10 with
      | Some s when Model.num_bases s.Sag.model = 0 -> (
          match
            List.find_opt
              (fun (c : Sag.scored) ->
                Model.num_bases c.Sag.model > 0
                && c.Sag.model.Model.train_error <= 0.10
                && c.Sag.test_error <= 0.10)
              run.scored
          with
          | Some better -> Some better
          | None -> Some s)
      | other -> other
    in
    match chosen with
    | None -> Printf.printf "%-8s: no model met the 10%% / 10%% caps\n" (Ota.performance_name p)
    | Some s ->
        let expression = Model.to_string ~var_names:Ota.var_names s.Sag.model in
        let expression =
          match p with
          | Ota.Fu -> "10^( " ^ expression ^ " )"
          | Ota.Alf | Ota.Pm | Ota.Voffset | Ota.Srp | Ota.Srn -> expression
        in
        Printf.printf "%-8s (train %.1f%%, test %.1f%%):\n    %s\n" (Ota.performance_name p)
          (percent s.Sag.model.Model.train_error)
          (percent s.Sag.test_error) expression
  in
  List.iter show_performance Ota.all_performances

(* --- Table II ----------------------------------------------------------- *)

let experiment_table2 context =
  section "Table II: PM models in decreasing error, increasing complexity";
  let run = run_performance context Ota.Pm in
  Printf.printf "%9s  %10s  expression\n" "test(%)" "train(%)";
  List.iter
    (fun (s : Sag.scored) ->
      Printf.printf "%9.2f  %10.2f  %s\n" (percent s.Sag.test_error)
        (percent s.Sag.model.Model.train_error)
        (Model.to_string ~var_names:Ota.var_names s.Sag.model))
    run.scored

(* --- Figure 4 ----------------------------------------------------------- *)

let experiment_fig4 context =
  section "Figure 4: CAFFEINE vs posynomial (test error at matched train error)";
  Printf.printf "%-8s  %21s  %21s  %10s\n" "perf" "posyn train/test (%)" "caff train/test (%)"
    "test ratio";
  let show_performance p =
    let run = run_performance context p in
    let posyn_model = Posyn.fit ~inputs:context.train.Ota.inputs ~targets:run.train_targets () in
    let posyn_test =
      Posyn.error_on posyn_model ~inputs:context.test.Ota.inputs ~targets:run.test_targets
    in
    let all_scored =
      List.map
        (fun (m : Model.t) -> { Sag.model = m; test_error = model_test_error context run m })
        run.front
    in
    let usable = List.filter (fun s -> Float.is_finite s.Sag.test_error) all_scored in
    let sorted =
      List.sort (fun a b -> compare a.Sag.model.Model.complexity b.Sag.model.Model.complexity) usable
    in
    match Sag.at_train_error sorted ~train_cap:posyn_model.Posyn.train_error with
    | None -> Printf.printf "%-8s  no usable CAFFEINE model\n" (Ota.performance_name p)
    | Some s ->
        let ratio = if s.Sag.test_error > 0. then posyn_test /. s.Sag.test_error else Float.nan in
        Printf.printf "%-8s  %9.2f / %-9.2f  %9.2f / %-9.2f  %9.2fx\n" (Ota.performance_name p)
          (percent posyn_model.Posyn.train_error)
          (percent posyn_test)
          (percent s.Sag.model.Model.train_error)
          (percent s.Sag.test_error) ratio
  in
  List.iter show_performance Ota.all_performances;
  Printf.printf
    "(paper shape: CAFFEINE test < train; posynomial test > train; ratio 2x-5x except voffset)\n"

(* --- ablations ----------------------------------------------------------- *)

let best_by_train_error front =
  List.fold_left
    (fun acc (m : Model.t) ->
      match acc with
      | None -> Some m
      | Some b -> if m.Model.train_error < b.Model.train_error then Some m else acc)
    None front

let experiment_ablation_grammar context =
  section "Ablation: grammar restrictions (PM)";
  let run = run_performance context Ota.Pm in
  let variants =
    [
      ("full grammar", context.config.Config.opset);
      ("no trig", Opset.no_trig);
      ("rational only", Opset.rational);
      ("polynomial only", Opset.polynomial);
    ]
  in
  Printf.printf "%-16s  %10s  %10s\n" "grammar" "best train" "its test";
  List.iter
    (fun (label, opset) ->
      let config = { context.config with Config.opset } in
      let outcome =
        Search.run ~seed:(context.options.seed + 100) config ~data:context.train_data
          ~targets:run.train_targets
      in
      match best_by_train_error outcome.Search.front with
      | None -> Printf.printf "%-16s  (no valid model)\n" label
      | Some m ->
          Printf.printf "%-16s  %9.2f%%  %9.2f%%\n" label
            (percent m.Model.train_error)
            (percent (model_test_error context run m)))
    variants

let experiment_ablation_sag context =
  section "Ablation: simplification-after-generation (PRESS pruning)";
  let show_performance p =
    let run = run_performance context p in
    let mean_test front =
      let errors =
        List.filter_map
          (fun (m : Model.t) ->
            let e = model_test_error context run m in
            if Float.is_finite e then Some e else None)
          front
      in
      if errors = [] then Float.nan else Stats.mean (Array.of_list errors)
    in
    let mean_bases front =
      let counts = List.map (fun m -> float_of_int (Model.num_bases m)) front in
      if counts = [] then Float.nan else Stats.mean (Array.of_list counts)
    in
    Printf.printf
      "%-8s  raw: mean test %5.2f%%, mean #bases %4.1f   |   SAG: mean test %5.2f%%, mean #bases %4.1f\n"
      (Ota.performance_name p)
      (percent (mean_test run.raw_front))
      (mean_bases run.raw_front)
      (percent (mean_test run.front))
      (mean_bases run.front)
  in
  List.iter show_performance Ota.all_performances

let experiment_ablation_moo context =
  section "Ablation: multi-objective vs error-only selection (PM)";
  let run = run_performance context Ota.Pm in
  (* Error-only: zero the complexity weights so the second objective carries
     only tree size through nnodes; additionally strip it by replacing the
     complexity measure — achieved here by wb = wvc = 0 (nnodes remains, the
     closest error-only proxy that reuses the same machinery). *)
  let config = { context.config with Config.wb = 0.; wvc = 0. } in
  let outcome =
    Search.run ~seed:(context.options.seed + 200) config ~data:context.train_data
      ~targets:run.train_targets
  in
  let summarize label front =
    match best_by_train_error front with
    | None -> Printf.printf "%-24s  (no valid model)\n" label
    | Some m ->
        let nodes =
          Array.fold_left (fun acc b -> acc + Caffeine_expr.Expr.nnodes_basis b) 0 m.Model.bases
        in
        Printf.printf "%-24s  best train %.2f%%  test %.2f%%  #bases %d  #nodes %d\n" label
          (percent m.Model.train_error)
          (percent (model_test_error context run m))
          (Model.num_bases m) nodes
  in
  summarize "multi-objective (paper)" run.front;
  summarize "error-only (wb=wvc=0)" outcome.Search.front

let experiment_ablation_scalar context =
  section "Ablation: NSGA-II vs scalarized single-objective GA (PM)";
  let run = run_performance context Ota.Pm in
  let config = context.config in
  let dims = Ota.dims in
  let rng_seed = context.options.seed + 300 in
  Printf.printf "%-22s  %10s  %10s  %7s\n" "selection" "train" "test" "#bases";
  (* Scalarized: minimize train_error + lambda * complexity with a plain
     elitist GA reusing the same generation/variation operators. *)
  List.iter
    (fun lambda ->
      let fitness individual =
        match
          Model.fit ~wb:config.Config.wb ~wvc:config.Config.wvc individual
            ~data:context.train_data ~targets:run.train_targets
        with
        | None -> Float.infinity
        | Some m -> m.Model.train_error +. (lambda *. m.Model.complexity)
      in
      let population =
        Caffeine_evo.Ga.run
          ~rng:(Caffeine_util.Rng.create ~seed:rng_seed ())
          {
            Caffeine_evo.Ga.pop_size = config.Config.pop_size;
            generations = config.Config.generations;
            elite = 2;
            tournament = 3;
            init = (fun rng -> Caffeine.Gen.random_individual rng config ~dims);
            fitness;
            vary = (fun rng p1 p2 -> Caffeine.Vary.vary rng config ~dims p1 p2);
          }
      in
      let champion = Caffeine_evo.Ga.best population in
      match
        Model.fit ~wb:config.Config.wb ~wvc:config.Config.wvc champion.Caffeine_evo.Ga.genome
          ~data:context.train_data ~targets:run.train_targets
      with
      | None -> Printf.printf "GA lambda=%-8g  (invalid champion)\n" lambda
      | Some m ->
          Printf.printf "GA lambda=%-12g %9.2f%%  %9.2f%%  %7d\n" lambda
            (percent m.Model.train_error)
            (percent (model_test_error context run m))
            (Model.num_bases m))
    [ 0.; 1e-4; 1e-3 ];
  (* The NSGA-II front end-point for reference. *)
  match best_by_train_error run.front with
  | None -> ()
  | Some m ->
      Printf.printf "%-22s %9.2f%%  %9.2f%%  %7d\n" "NSGA-II (best train)"
        (percent m.Model.train_error)
        (percent (model_test_error context run m))
        (Model.num_bases m)

let experiment_tran_slew _options =
  section "Validation: analytic vs transient-measured slew rate";
  Printf.printf "%-28s  %12s  %12s  %12s  %12s\n" "design point" "SRp analytic" "SRp transient"
    "SRn analytic" "SRn transient";
  let points =
    [
      ("nominal", Ota.nominal);
      ( "id2 +20%",
        (let x = Array.copy Ota.nominal in
         x.(1) <- x.(1) *. 1.2;
         x) );
      ( "id1 -10%, vgs2 +5%",
        (let x = Array.copy Ota.nominal in
         x.(0) <- x.(0) *. 0.9;
         x.(4) <- x.(4) *. 1.05;
         x) );
    ]
  in
  List.iter
    (fun (label, x) ->
      match (Ota.evaluate x, Caffeine_ota.Testbench.transient_slew x) with
      | Ok values, Ok (rising, falling) ->
          Printf.printf "%-28s  %10.2f V/us %10.2f V/us %10.2f V/us %10.2f V/us\n" label
            (values.(4) *. 1e-6) (rising *. 1e-6) (values.(5) *. 1e-6) (falling *. 1e-6)
      | Error msg, _ | _, Error msg -> Printf.printf "%-28s  failed: %s\n" label msg)
    points;
  Printf.printf "(the analytic current-limit estimates feed the datasets; the transient\n";
  Printf.printf " measurement of the transistor-level netlist corroborates them)\n"

(* Opt-in extension (not part of --experiment all): the Miller two-stage
   op-amp as a second modeling target. *)
let experiment_miller options =
  section "Extension: Miller two-stage op-amp (second topology)";
  let module Miller = Caffeine_ota.Miller in
  let rng = Caffeine_util.Rng.create ~seed:options.seed () in
  let train_inputs, train_outputs = Miller.dataset rng ~samples:220 ~spread:0.15 in
  let test_inputs, test_outputs = Miller.dataset rng ~samples:220 ~spread:0.05 in
  Printf.printf "workload: %d train / %d test Latin-hypercube samples, %d variables\n"
    (Array.length train_inputs) (Array.length test_inputs) Miller.dims;
  let config =
    Config.scaled ~pop_size:options.pop_size ~generations:options.generations Config.paper
  in
  let column p rows =
    let rec index i = function
      | [] -> assert false
      | q :: rest -> if q = p then i else index (i + 1) rest
    in
    let j = index 0 Miller.all_performances in
    Array.map (fun (row : float array) -> row.(j)) rows
  in
  List.iter
    (fun p ->
      let transform =
        match p with Miller.Fu -> log10 | Miller.Alf | Miller.Pm | Miller.Power -> Fun.id
      in
      let targets = Array.map transform (column p train_outputs) in
      let test_targets = Array.map transform (column p test_outputs) in
      let train_data = Dataset.of_rows ~var_names:Miller.var_names train_inputs in
      let test_data = Dataset.of_rows ~var_names:Miller.var_names test_inputs in
      let outcome = Search.run ~seed:(options.seed + 7) config ~data:train_data ~targets in
      let front =
        Sag.process_front ~wb:config.Config.wb ~wvc:config.Config.wvc outcome.Search.front
          ~data:train_data ~targets
      in
      let scored = Sag.test_tradeoff front ~data:test_data ~targets:test_targets in
      match Sag.best_within scored ~train_cap:0.10 ~test_cap:0.10 with
      | None ->
          Printf.printf "%-6s: no model within 10%%/10%%\n" (Miller.performance_name p)
      | Some s ->
          Printf.printf "%-6s (train %.2f%%, test %.2f%%): %s\n" (Miller.performance_name p)
            (percent s.Sag.model.Model.train_error)
            (percent s.Sag.test_error)
            (Model.to_string ~var_names:Miller.var_names s.Sag.model))
    Miller.all_performances

(* --- layer gates: timing and the OTA PM set-up ----------------------------- *)

let time_per_run f =
  (* Calibrate repetitions so each measurement spans at least ~50 ms of CPU
     time, then report seconds per run. *)
  let rec calibrate reps =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Sys.time () -. t0 in
    if dt >= 0.05 then dt /. float_of_int reps else calibrate (reps * 4)
  in
  calibrate 1

(* The search budget of the trace, dedup and serve gates: half --pop and a
   fifth of --gens, floored at pop 24 and [min_gens] generations; under
   --smoke, exactly the floors. *)
let gate_config options ~min_gens =
  let size floor scaled = if options.smoke then floor else Stdlib.max floor scaled in
  Config.scaled
    ~pop_size:(size 24 (options.pop_size / 2))
    ~generations:(size min_gens (options.generations / 5))
    Config.paper

(* The problem every gate but stream runs on: the OTA training DOE
   (dx 0.10) and its PM modeling targets. *)
type pm_workload = { inputs : float array array; targets : float array }

let pm_workload ?(detail = "") options config =
  let train = Ota.doe_dataset ~dx:0.10 in
  Printf.printf "workload: OTA PM, %d samples x %d dims, pop %d, gens %d%s%s\n"
    (Array.length train.Ota.inputs) (Array.length Ota.var_names) config.Config.pop_size
    config.Config.generations detail
    (if options.smoke then " (smoke)" else "");
  {
    inputs = train.Ota.inputs;
    targets = Array.map (Ota.modeling_target Ota.Pm) (Ota.targets train Ota.Pm);
  }

(* A fresh dataset per measurement: no run starts on basis columns another
   left warm. *)
let pm_data w = Dataset.of_rows ~var_names:Ota.var_names w.inputs
(* --- parallel scaling ----------------------------------------------------- *)

let experiment_parallel options =
  section "parallel_scaling: executor backends, wall-clock speedup";
  let train = Ota.doe_dataset ~dx:0.10 in
  let n = Array.length train.Ota.inputs in
  let dims = Array.length Ota.var_names in
  let host_cores = Domain.recommended_domain_count () in
  let targets = Array.map (Ota.modeling_target Ota.Pm) (Ota.targets train Ota.Pm) in
  (* A fresh dataset per measurement: the basis-column cache must not carry
     warm columns from one workers setting into the next. *)
  let fresh_data () = Dataset.of_rows ~var_names:Ota.var_names train.Ota.inputs in
  let jobs_list = if options.smoke then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let shards_list = [ 1; 2; 4 ] in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Exact (%h) rendering of every numeric field: two fronts get the same
     signature iff they are bit-identical. *)
  let signature (outcome : Search.outcome) =
    String.concat ";"
      (List.map
         (fun (m : Model.t) ->
           Printf.sprintf "%h|%h|%h|%s" m.Model.train_error m.Model.complexity m.Model.intercept
             (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") m.Model.weights))))
         outcome.Search.front)
  in
  let config =
    Config.scaled
      ~pop_size:(Stdlib.max 24 (options.pop_size / 2))
      ~generations:(Stdlib.max 10 (options.generations / 5))
      Config.paper
  in
  let islands_config =
    Config.scaled ~generations:(Stdlib.max 5 (config.Config.generations / 3)) config
  in
  Printf.printf "workload: %d samples x %d dims, pop %d, gens %d; host reports %d core(s)\n" n
    dims config.Config.pop_size config.Config.generations host_cores;
  let search_case jobs =
    let data = fresh_data () in
    Executor.with_executor ~jobs Executor.Domains @@ fun executor ->
    wall (fun () -> signature (Search.run ~seed:options.seed ~executor config ~data ~targets))
  in
  let islands_case jobs =
    let data = fresh_data () in
    Executor.with_executor ~jobs Executor.Domains @@ fun executor ->
    wall (fun () ->
        signature
          (Search.run_multi ~seed:options.seed ~executor ~restarts:4 islands_config ~data
             ~targets))
  in
  let islands_processes_case shards =
    let data = fresh_data () in
    Executor.with_executor ~shards Executor.Processes @@ fun executor ->
    wall (fun () ->
        signature
          (Search.run_multi ~seed:options.seed ~executor ~restarts:4 islands_config ~data
             ~targets))
  in
  let forward_case jobs =
    (* Same seed every call: the candidate columns are identical across
       workers settings, so selections must match exactly. *)
    let rng = Caffeine_util.Rng.create ~seed:options.seed () in
    let data = fresh_data () in
    let columns =
      Array.init 150 (fun _ ->
          let basis =
            Caffeine.Gen.random_basis rng config.Config.opset ~dims ~depth:5 ~max_vc_vars:3
          in
          Dataset.basis_column data basis)
    in
    Executor.with_executor ~jobs Executor.Domains @@ fun executor ->
    wall (fun () ->
        String.concat ","
          (Array.to_list
             (Array.map string_of_int
                (Linfit.forward_select ~executor ~max_bases:12 ~basis_values:columns ~targets ()))))
  in
  (* Each group: (name, backend, workers label, effective-workers fn, case,
     workers list).  Domain counts are clamped to the cores; worker-process
     counts are not (processes do not share the GC) but never exceed the 4
     islands. *)
  let groups =
    [
      ("search", "domains", Pool.effective_jobs, search_case, jobs_list);
      ("islands", "domains", Pool.effective_jobs, islands_case, jobs_list);
      ("islands_processes", "processes", Stdlib.min 4, islands_processes_case, shards_list);
      ("forward_select", "domains", Pool.effective_jobs, forward_case, jobs_list);
    ]
  in
  let results =
    List.map
      (fun (name, backend, effective, case, workers_list) ->
        let measured = List.map (fun workers -> (workers, case workers)) workers_list in
        let _, (reference, t1) = List.hd measured in
        let identical = List.for_all (fun (_, (r, _)) -> r = reference) measured in
        Printf.printf "\n%-18s %8s %10s %12s %9s\n" name "workers" "effective" "seconds"
          "speedup";
        List.iter
          (fun (workers, (_, t)) ->
            Printf.printf "%-18s %8d %10d %12.3f %8.2fx\n" "" workers (effective workers) t
              (t1 /. t))
          measured;
        Printf.printf "%-18s results identical across workers: %b\n" "" identical;
        ( name,
          backend,
          identical,
          reference,
          List.map (fun (workers, (_, t)) -> (workers, effective workers, t, t1 /. t)) measured
        ))
      groups
  in
  let find_group name =
    List.find (fun (group, _, _, _, _) -> group = name) results
  in
  (* The two island groups run the identical seeded workload under
     different backends: their fronts must be bit-identical. *)
  let cross_backend_identical =
    let _, _, _, domains_front, _ = find_group "islands" in
    let _, _, _, processes_front, _ = find_group "islands_processes" in
    domains_front = processes_front
  in
  Printf.printf "\nislands front identical across domains/processes backends: %b\n"
    cross_backend_identical;
  (* Speedup gate: on a multi-core host, every workload must have at least
     one multi-worker configuration strictly faster than its sequential
     baseline (for islands, either backend may deliver it).  Single-core
     hosts skip with a loud warning — never a silent pass. *)
  let parallel_beats_baseline rows_list =
    match List.concat rows_list with
    | [] -> false
    | (_, _, t1, _) :: _ as rows ->
        List.exists (fun (workers, _, t, _) -> workers > 1 && t < t1) rows
  in
  let rows_of name = (fun (_, _, _, _, rows) -> rows) (find_group name) in
  let gated =
    [
      ("search", [ rows_of "search" ]);
      ("islands", [ rows_of "islands"; rows_of "islands_processes" ]);
      ("forward_select", [ rows_of "forward_select" ]);
    ]
  in
  let gate_failures =
    if host_cores <= 1 then []
    else List.filter (fun (_, rows) -> not (parallel_beats_baseline rows)) gated
  in
  let speedup_gate =
    if host_cores <= 1 then "skipped_single_core"
    else if gate_failures = [] then "passed"
    else "failed"
  in
  if host_cores <= 1 then
    Printf.eprintf
      "parallel_scaling: WARNING: host reports a single core; speedup gate SKIPPED (not \
       passed)\n%!";
  let groups =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (name, backend, identical, _, rows) ->
        Buffer.add_string buf (Printf.sprintf "    \"%s\": {\n" name);
        Buffer.add_string buf (Printf.sprintf "      \"backend\": \"%s\",\n" backend);
        Buffer.add_string buf (Printf.sprintf "      \"identical_results\": %b,\n" identical);
        Buffer.add_string buf "      \"runs\": [\n";
        List.iteri
          (fun j (workers, effective, t, speedup) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "        { \"workers\": %d, \"effective_workers\": %d, \"seconds\": %.4f, \
                  \"speedup\": %.3f }%s\n"
                 workers effective t speedup
                 (if j = List.length rows - 1 then "" else ",")))
          rows;
        Buffer.add_string buf "      ]\n";
        Buffer.add_string buf
          (Printf.sprintf "    }%s\n" (if i = List.length results - 1 then "" else ",")))
      results;
    Buffer.add_string buf "  }";
    Buffer.contents buf
  in
  print_newline ();
  write_artifact ~options ~name:"parallel"
    [
      ("samples", string_of_int n);
      ("dims", string_of_int dims);
      ("host_cores", string_of_int host_cores);
      ("speedup_gate", Printf.sprintf "\"%s\"" speedup_gate);
      ("cross_backend_identical", string_of_bool cross_backend_identical);
      ("groups", groups);
    ];
  if not (List.for_all (fun (_, _, identical, _, _) -> identical) results) then begin
    Printf.eprintf "parallel_scaling: results differ across workers settings\n";
    exit 1
  end;
  if not cross_backend_identical then begin
    Printf.eprintf "parallel_scaling: islands fronts differ between domains and processes\n";
    exit 1
  end;
  if gate_failures <> [] then begin
    List.iter
      (fun (name, _) ->
        Printf.eprintf
          "parallel_scaling: %s: no multi-worker configuration beat the sequential baseline \
           on a %d-core host\n"
          name host_cores)
      gate_failures;
    exit 1
  end

(* --- telemetry overhead ---------------------------------------------------- *)

(* The seeded search with the null sink, a no-op [on_generation] callback
   and a live memory sink: each observed run must stay within 2% of the
   null-sink run, plus a 0.05 s floor.  That the projected trace does not
   depend on the jobs setting or the cache mode is the obs case "trace:
   jobs-invariant projection" and ci/trace-determinism-jobs.sh. *)
let experiment_trace options =
  let module Trace = Caffeine_obs.Trace in
  section "trace: telemetry overhead";
  let config = gate_config options ~min_gens:10 in
  let reps = if options.smoke then 3 else 5 in
  let w = pm_workload options config ~detail:(Printf.sprintf ", min of %d runs" reps) in
  let targets = w.targets in
  (* Minimum over repetitions on both sides of the ratio: scheduler noise only
     ever adds time, so min-of-reps is the stable estimator behind a 2% gate. *)
  let best_of f =
    let best = ref Float.infinity in
    for _ = 1 to reps do
      let data = pm_data w in
      let t0 = Unix.gettimeofday () in
      f data;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let seed = options.seed in
  let t_null = best_of (fun data -> ignore (Search.run ~seed config ~data ~targets)) in
  let t_observed =
    best_of (fun data ->
        ignore
          (Search.run ~seed ~on_generation:(fun (_ : Trace.generation) -> ()) config ~data ~targets))
  in
  let record_count = ref 0 in
  let t_traced =
    best_of (fun data ->
        let sink = Trace.memory () in
        ignore (Search.run ~seed ~trace:sink config ~data ~targets);
        record_count := List.length (Trace.contents sink))
  in
  let overhead base t = (t -. base) /. base in
  let cap = 0.02 in
  (* A small absolute floor keeps the relative gate meaningful on sub-second
     smoke runs where 2% sits inside clock resolution. *)
  let within base t = t <= (base *. (1. +. cap)) +. 0.05 in
  Printf.printf "%-34s %10s %10s\n" "case" "seconds" "overhead";
  Printf.printf "%-34s %8.3f s %9s\n" "null sink (production default)" t_null "-";
  Printf.printf "%-34s %8.3f s %8.2f%%\n" "no-op on_generation callback" t_observed
    (100. *. overhead t_null t_observed);
  Printf.printf "%-34s %8.3f s %8.2f%% (%d records)\n" "memory sink, full trace" t_traced
    (100. *. overhead t_null t_traced)
    !record_count;
  let overhead_ok = within t_null t_observed && within t_null t_traced in
  write_artifact ~options ~name:"trace"
    [
      ("samples", string_of_int (Array.length w.inputs));
      ("dims", string_of_int (Array.length Ota.var_names));
      ("pop", string_of_int config.Config.pop_size);
      ("gens", string_of_int config.Config.generations);
      ("reps", string_of_int reps);
      ("host_cores", string_of_int (Domain.recommended_domain_count ()));
      ("null_sink_s", Printf.sprintf "%.4f" t_null);
      ("noop_callback_s", Printf.sprintf "%.4f" t_observed);
      ("memory_sink_s", Printf.sprintf "%.4f" t_traced);
      ("noop_callback_overhead", Printf.sprintf "%.4f" (overhead t_null t_observed));
      ("memory_sink_overhead", Printf.sprintf "%.4f" (overhead t_null t_traced));
      ("overhead_cap", Printf.sprintf "%.2f" cap);
      ("overhead_ok", string_of_bool overhead_ok);
      ("trace_records", string_of_int !record_count);
    ];
  if not overhead_ok then begin
    Printf.eprintf "trace: telemetry overhead exceeded the %.0f%% cap\n" (100. *. cap);
    exit 1
  end

(* --- evaluation-cache effectiveness ---------------------------------------- *)

(* The exact cache must serve more than 10% of one seeded sequential run's
   lookups, and the cached search must take no longer than the uncached
   one, plus a 0.05 s floor.  That the cache moves no front and no
   projected trace is the core case "eval cache never changes the front
   (any backend)" and the obs case "trace: jobs-invariant projection". *)
let experiment_dedup options =
  let module Eval_cache = Caffeine.Eval_cache in
  let module Trace = Caffeine_obs.Trace in
  section "dedup: evaluation-cache effectiveness";
  let config = gate_config options ~min_gens:12 in
  let reps = if options.smoke then 3 else 5 in
  let w = pm_workload options config ~detail:(Printf.sprintf ", min of %d runs" reps) in
  let search mode data =
    ignore (Search.run ~seed:options.seed ~eval_cache:mode config ~data ~targets:w.targets)
  in
  (* --- effectiveness: hit rate of one seeded sequential run --------------- *)
  (* Process-wide counter deltas around an in-process run isolate this run's
     cache traffic. *)
  let before = Eval_cache.global_stats () in
  search Eval_cache.Exact (pm_data w);
  let after = Eval_cache.global_stats () in
  let exact_hits = after.Trace.eval_hits - before.Trace.eval_hits in
  let exact_misses = after.Trace.eval_misses - before.Trace.eval_misses in
  let exact_rate =
    float_of_int exact_hits /. float_of_int (Stdlib.max 1 (exact_hits + exact_misses))
  in
  Printf.printf "exact: %5d hits / %5d lookups (%.1f%% served from cache)\n" exact_hits
    (exact_hits + exact_misses) (100. *. exact_rate);
  (* --- throughput: cached runs must not be slower ------------------------- *)
  (* Minimum over repetitions on both sides: scheduler noise only ever adds
     time, so min-of-reps is the stable estimator; a small absolute floor
     keeps the gate meaningful on sub-second smoke runs. *)
  let best_of mode =
    let best = ref Float.infinity in
    for _ = 1 to reps do
      let data = pm_data w in
      let t0 = Unix.gettimeofday () in
      search mode data;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t_off = best_of Eval_cache.Off in
  let t_exact = best_of Eval_cache.Exact in
  Printf.printf "%-28s %8.3f s\n" "cache off" t_off;
  Printf.printf "%-28s %8.3f s (%.2fx)\n" "cache exact" t_exact (t_off /. t_exact);
  (* --- record and gate ----------------------------------------------------- *)
  let hit_rate_floor = 0.10 in
  let hit_rate_ok = exact_rate > hit_rate_floor in
  let throughput_ok = t_exact <= t_off +. 0.05 in
  write_artifact ~options ~name:"dedup"
    [
      ("samples", string_of_int (Array.length w.inputs));
      ("dims", string_of_int (Array.length Ota.var_names));
      ("pop", string_of_int config.Config.pop_size);
      ("gens", string_of_int config.Config.generations);
      ("reps", string_of_int reps);
      ("exact_hits", string_of_int exact_hits);
      ("exact_misses", string_of_int exact_misses);
      ("exact_hit_rate", Printf.sprintf "%.4f" exact_rate);
      ("hit_rate_floor", Printf.sprintf "%.2f" hit_rate_floor);
      ("off_s", Printf.sprintf "%.4f" t_off);
      ("exact_s", Printf.sprintf "%.4f" t_exact);
      ("hit_rate_ok", string_of_bool hit_rate_ok);
      ("throughput_ok", string_of_bool throughput_ok);
    ];
  if not hit_rate_ok then begin
    Printf.eprintf "dedup: exact hit rate %.1f%% below the %.0f%% floor\n" (100. *. exact_rate)
      (100. *. hit_rate_floor);
    exit 1
  end;
  if not throughput_ok then begin
    Printf.eprintf "dedup: cached run slower than the uncached baseline (off %.3fs, exact %.3fs)\n"
      t_off t_exact;
    exit 1
  end

(* --- fused multi-expression evaluation ------------------------------------ *)

(* One fused tape of evolved fronts' basis instances must evaluate at least
   1.3x as fast as one one-root tape per instance.  That fused rows equal
   one-root rows word for word is the fused cases "random sets are
   bit-identical" and "fused set evaluation matches per-expression tapes";
   fronts across backends and cache modes, and traces across jobs, are the
   tier-1 cases named at dedup and trace. *)
let experiment_fuse options =
  let module Tbl = Caffeine_expr.Expr.Tbl in
  section "fuse: cross-tree CSE and tiled batch kernels";
  (* --- the front workload: every basis instance of evolved fronts ---------- *)
  (* Evaluating a whole Pareto front per model — what export, insight and
     serving do — recomputes every basis the models share, and front
     neighbors share almost all of them (they differ by a basis or two).
     The workload is the concatenation of the front models' bases with
     that duplication kept: fused evaluation hash-conses the repeats (and
     any subtrees distinct bases still share) into single DAG nodes,
     while the per-expression baseline evaluates each instance on its own
     one-root tape.  The workload search runs its own budget (independent of
     --smoke); fronts accumulate across seeds until 40 distinct bases are
     represented. *)
  let workload_target = 40 in
  let config = Config.scaled ~pop_size:60 ~generations:60 Config.paper in
  let w = pm_workload options config in
  let n = Array.length w.inputs and dims = Array.length Ota.var_names in
  let seed = options.seed in
  let front_instances, distinct_bases =
    let seen = Tbl.create 64 in
    let acc = ref [] in
    let distinct = ref 0 in
    let next_seed = ref seed in
    while !distinct < workload_target && !next_seed < seed + 6 do
      let outcome = Search.run ~seed:!next_seed config ~data:(pm_data w) ~targets:w.targets in
      List.iter
        (fun (m : Model.t) ->
          if !distinct < workload_target then
            Array.iter
              (fun b ->
                acc := b :: !acc;
                if not (Tbl.mem seen b) then begin
                  Tbl.add seen b ();
                  incr distinct
                end)
              m.Model.bases)
        outcome.Search.front;
      incr next_seed
    done;
    (Array.of_list (List.rev !acc), !distinct)
  in
  let columns = Array.init dims (fun v -> Array.init n (fun i -> w.inputs.(i).(v))) in
  let fused = Fused.compile front_instances in
  let nodes_in = Fused.nodes_in fused and nodes_out = Fused.nodes_out fused in
  let cse_ratio = float_of_int nodes_in /. float_of_int (Stdlib.max 1 nodes_out) in
  Printf.printf
    "front workload: %d basis instances (%d distinct), %d DAG nodes before sharing, %d after \
     (CSE %.2fx)\n"
    (Array.length front_instances) distinct_bases nodes_in nodes_out cse_ratio;
  (* --- throughput: the fused tape must clear the speedup floor ------------- *)
  let one_root = Array.map (fun b -> Fused.compile [| b |]) front_instances in
  let fscratch = Fused.scratch () in
  let per_expr_run () =
    Array.iter (fun tape -> ignore (Fused.eval_columns tape ~scratch:fscratch ~columns ~n)) one_root
  in
  let fused_run () = ignore (Fused.eval_columns fused ~scratch:fscratch ~columns ~n) in
  let t_per_expr = time_per_run per_expr_run in
  let t_fused = time_per_run fused_run in
  let speedup = t_per_expr /. t_fused in
  let speedup_floor = 1.3 in
  let us t = 1e6 *. t in
  Printf.printf "%-34s %10.1f us\n" "per-expression one-root tapes" (us t_per_expr);
  Printf.printf "%-34s %10.1f us  (%.2fx, floor %.1fx)\n" "fused tape" (us t_fused) speedup
    speedup_floor;
  let speedup_ok = speedup >= speedup_floor in
  write_artifact ~options ~name:"fuse"
    [
      ("samples", string_of_int n);
      ("dims", string_of_int dims);
      ("pop", string_of_int config.Config.pop_size);
      ("gens", string_of_int config.Config.generations);
      ("front_instances", string_of_int (Array.length front_instances));
      ("distinct_bases", string_of_int distinct_bases);
      ("nodes_in", string_of_int nodes_in);
      ("nodes_out", string_of_int nodes_out);
      ("cse_ratio", Printf.sprintf "%.3f" cse_ratio);
      ("per_expr_us", Printf.sprintf "%.2f" (us t_per_expr));
      ("fused_us", Printf.sprintf "%.2f" (us t_fused));
      ("speedup", Printf.sprintf "%.3f" speedup);
      ("speedup_floor", Printf.sprintf "%.2f" speedup_floor);
      ("speedup_ok", string_of_bool speedup_ok);
    ];
  if not speedup_ok then begin
    Printf.eprintf "fuse: fused speedup %.2fx below the %.1fx floor\n" speedup speedup_floor;
    exit 1
  end

(* --- serve: protocol throughput -------------------------------------------- *)

(* One predict request carrying the whole DOE batch, through the entry
   point the socket loop calls per line (JSON parse, fused tape, float
   encode), must clear 250k predictions/s.  That served rows equal
   [Model.predict] of the re-loaded front word for word, and that malformed
   requests come back as typed errors, are the serve cases "predict:
   bit-identical to Model.predict" and "protocol: typed errors". *)
let experiment_serve options =
  let module Registry = Caffeine_serve.Registry in
  let module Server = Caffeine_serve.Server in
  let module Json = Caffeine_obs.Json in
  let module Metrics = Caffeine_obs.Metrics in
  section "serve: batched-predict throughput";
  let config = gate_config options ~min_gens:12 in
  let w = pm_workload options config in
  let n = Array.length w.inputs and dims = Array.length Ota.var_names in
  let outcome = Search.run ~seed:options.seed config ~data:(pm_data w) ~targets:w.targets in
  let front_path = Filename.temp_file "caffeine_bench_serve" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove front_path with Sys_error _ -> ())
    (fun () ->
      Model_io.save ~path:front_path ~var_names:Ota.var_names outcome.Search.front;
      let metrics = Metrics.create () in
      let registry =
        match
          Registry.create ~metrics ~path:front_path ~wb:config.Config.wb ~wvc:config.Config.wvc
            ()
        with
        | Ok registry -> registry
        | Error msg ->
            Printf.eprintf "serve: cannot load registry: %s\n" msg;
            exit 1
      in
      let server = Server.config ~metrics registry in
      let request =
        let b = Buffer.create (n * dims * 8) in
        Buffer.add_string b "{\"op\":\"predict\",\"rows\":[";
        Array.iteri
          (fun i row ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '[';
            Array.iteri
              (fun v x ->
                if v > 0 then Buffer.add_char b ',';
                Json.add_float b x)
              row;
            Buffer.add_char b ']')
          w.inputs;
        Buffer.add_string b "]}";
        Buffer.contents b
      in
      (* The timed request must be served, not answered with an error. *)
      let response = Server.handle_line server request in
      let models_count =
        match Json.parse response with
        | Ok json when Json.member (Json.obj json) "ok" = Json.Bool true ->
            List.length (Json.arr_of (Json.obj json) "outputs")
        | Ok _ | Error _ ->
            Printf.eprintf "serve: predict failed: %s\n" response;
            exit 1
      in
      Printf.printf "served %d models x %d rows\n" models_count n;
      (* --- throughput: full protocol path (parse + fused eval + encode) ------ *)
      let t_request = time_per_run (fun () -> ignore (Server.handle_line server request)) in
      let throughput = float_of_int (models_count * n) /. t_request in
      let throughput_floor = 250_000. in
      Printf.printf "%-34s %10.2f ms/request\n" "batched predict" (1e3 *. t_request);
      Printf.printf "%-34s %10.0f predictions/s  (floor %.0f)\n" "throughput"
        throughput throughput_floor;
      let throughput_ok = throughput >= throughput_floor in
      write_artifact ~options ~name:"serve"
        [
          ("samples", string_of_int n);
          ("dims", string_of_int dims);
          ("models", string_of_int models_count);
          ("request_bytes", string_of_int (String.length request));
          ("response_bytes", string_of_int (String.length response));
          ("request_ms", Printf.sprintf "%.4f" (1e3 *. t_request));
          ("predictions_per_s", Printf.sprintf "%.0f" throughput);
          ("throughput_floor", Printf.sprintf "%.0f" throughput_floor);
          ("throughput_ok", string_of_bool throughput_ok);
        ];
      if not throughput_ok then begin
        Printf.eprintf "serve: throughput %.0f predictions/s below the %.0f floor\n" throughput
          throughput_floor;
        exit 1
      end)
(* --- stream: out-of-core million-sample regression ----------------------- *)

(* Peak resident set of this process so far (VmHWM), in bytes.  Linux-only;
   [None] elsewhere, in which case the in-process RSS assertion is skipped
   (ci/stream-gate.sh still asserts via /usr/bin/time -v). *)
let vm_hwm_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let found = ref None in
      (try
         while !found = None do
           let line = input_line ic in
           if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
             found := Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                 (fun kb -> Some (kb * 1024))
         done
       with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
      close_in ic;
      !found

(* The native large-N producer: a transient simulation streamed row by row
   into an on-disk column store, then regressed out of core.  An RC lowpass
   driven by deterministic wideband noise gives a target (vout at step k)
   that is exactly linear in a few lagged waveform features, so the fit is
   well-conditioned at any N and the streamed coefficients can be checked
   against the in-memory path.

   The RSS assertion is the point of the experiment: the streamed fit over
   >= 2^20 samples must peak below half of what the dense feature matrix
   alone would occupy (dims x n x 8 bytes).  The budget is checked in
   process via VmHWM, and externally by ci/stream-gate.sh running this
   experiment with --stream-only under /usr/bin/time -v. *)
let experiment_stream options =
  section "Streaming out-of-core regression (million-sample waveform fit)";
  (* The transient solver and the chunk loop are allocation-churny; a
     tighter space overhead keeps the major heap near the live set so the
     high-water mark measures the algorithm, not GC slack. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  let step = 1e-6 in
  let lag_max = 512 in
  let rows_wanted = 1 lsl 20 in
  let num_steps = rows_wanted + lag_max - 1 in
  (* ceil(duration/step) must give exactly [num_steps] despite float
     division noise, hence the half-step backoff. *)
  let duration = (float_of_int num_steps -. 0.5) *. step in
  let chunk_rows = 32768 in
  (* Deterministic wideband stimulus: hash noise decorrelates adjacent
     vin lags (keeping the Gram well-conditioned); the slow sine adds a
     smooth large-signal component. *)
  let vin_at k =
    let x = (sin ((float_of_int k *. 12.9898) +. 78.233)) *. 43758.5453 in
    let noise = (2. *. (x -. Float.floor x)) -. 1. in
    (0.6 *. noise) +. (0.3 *. sin (2. *. Float.pi *. 3125. *. (float_of_int k *. step)))
  in
  let stimulus name time =
    if name = "vin" then Some (vin_at (int_of_float (Float.round (time /. step)))) else None
  in
  (* vin -- 1k -- vout -- 20n -- gnd: tau = 20 us = 20 steps, so vout at
     lag 512 is decorrelated from vout at lag 1. *)
  let circuit =
    Circuit.make
      [
        Circuit.Vsource { name = "vin"; pos = 1; neg = 0; dc = 0.; ac = 0. };
        Circuit.Resistor { name = "r1"; n1 = 1; n2 = 2; ohms = 1000. };
        Circuit.Capacitor { name = "c1"; n1 = 2; n2 = 0; farads = 20e-9 };
      ]
  in
  let feature_names =
    Array.append
      (Array.init 10 (fun l -> Printf.sprintf "vin_l%d" l))
      [| "vout_l1"; Printf.sprintf "vout_l%d" lag_max |]
  in
  let dims = Array.length feature_names in
  let names = Array.append feature_names [| "vout" |] in
  let path = Filename.temp_file "caffeine_stream_bench" ".cafs" in
  (match vm_hwm_bytes () with
  | Some b -> Printf.printf "[rss] baseline: %.1f MB\n%!" (float_of_int b /. 1048576.)
  | None -> ());
  let writer = Colstore.Writer.create ~path ~var_names:names ~chunk_rows () in
  let ring = lag_max + 1 in
  let vin_hist = Array.make ring 0. and vout_hist = Array.make ring 0. in
  let row = Array.make (Array.length names) 0. in
  let t0 = Unix.gettimeofday () in
  (match
     Tran.simulate_stream ~circuit ~step ~duration ~stimulus
       ~on_step:(fun ~k ~time:_ voltages ->
         let slot = k mod ring in
         vin_hist.(slot) <- voltages.(1);
         vout_hist.(slot) <- voltages.(2);
         if k >= lag_max then begin
           for l = 0 to 9 do
             row.(l) <- vin_hist.((k - l) mod ring)
           done;
           row.(10) <- vout_hist.((k - 1) mod ring);
           row.(11) <- vout_hist.((k - lag_max) mod ring);
           row.(12) <- vout_hist.(slot);
           Colstore.Writer.append_row writer row
         end)
       ()
   with
  | Error msg ->
      Printf.eprintf "stream: transient failed: %s\n" msg;
      exit 1
  | Ok (_ : int) -> ());
  Colstore.Writer.close writer;
  let t_sim = Unix.gettimeofday () -. t0 in
  let store = Colstore.openfile path in
  let n = Colstore.n_rows store in
  Printf.printf "simulated + packed %d samples x %d features in %.1f s (%s, %d-row chunks)\n%!"
    n dims t_sim (Filename.basename path) chunk_rows;
  (match vm_hwm_bytes () with
  | Some b -> Printf.printf "[rss] after simulation: %.1f MB\n%!" (float_of_int b /. 1048576.)
  | None -> ());
  let targets = Colstore.column store dims in
  let data = Dataset.of_colstore ~exclude:[ "vout" ] store in
  (* 12 plain variable bases plus one squared term: the linear recurrence
     vout_k = a*vout_{k-1} + b*vin_k + c*vin_{k-1} is inside the span, so
     train error collapses to Newton-tolerance noise. *)
  let bases =
    Array.init (dims + 1) (fun j ->
        let exponents =
          Array.init dims (fun d -> if j < dims then (if d = j then 1 else 0)
                                    else if d = 0 then 2 else 0)
        in
        { Interp.vc = Some exponents; factors = [] })
  in
  let wb = Config.paper.Config.wb and wvc = Config.paper.Config.wvc in
  let t1 = Unix.gettimeofday () in
  let streamed =
    match Model.fit ~wb ~wvc bases ~data ~targets with
    | Some m -> m
    | None ->
        Printf.eprintf "stream: out-of-core fit was rejected\n";
        exit 1
  in
  let t_fit = Unix.gettimeofday () -. t1 in
  let fallbacks =
    Caffeine_obs.Metrics.counter_value
      (Caffeine_obs.Metrics.counter Caffeine_obs.Metrics.default "linfit.gram_fallbacks")
  in
  Printf.printf "streamed fit: %d bases in %.1f s, train error %.3e (gram fallbacks: %d)\n%!"
    (Model.num_bases streamed) t_fit streamed.Model.train_error fallbacks;
  (* Snapshot the high-water mark BEFORE anything dense is materialized:
     this is the number the 50%% budget judges. *)
  let peak = vm_hwm_bytes () in
  let dense_bytes = dims * n * 8 in
  let budget_bytes = dense_bytes / 2 in
  let rss_ok, peak_str, ratio_str =
    match peak with
    | None -> (true, "null", "null")
    | Some bytes ->
        ( bytes < budget_bytes,
          string_of_int bytes,
          Printf.sprintf "%.3f" (float_of_int bytes /. float_of_int dense_bytes) )
  in
  (match peak with
  | None -> Printf.printf "peak RSS: unavailable (not Linux?); budget %d bytes\n" budget_bytes
  | Some bytes ->
      Printf.printf "peak RSS %.1f MB vs dense feature matrix %.1f MB (budget 50%% = %.1f MB): %s\n"
        (float_of_int bytes /. 1048576.)
        (float_of_int dense_bytes /. 1048576.)
        (float_of_int budget_bytes /. 1048576.)
        (if rss_ok then "OK" else "OVER BUDGET"));
  (* In-memory comparison fit: identical bases and targets over resident
     columns.  Skipped under --stream-only so the external time(1) wrapper
     sees the out-of-core path's footprint alone. *)
  let agreement =
    if options.stream_only then None
    else begin
      let columns = Array.init dims (fun d -> Colstore.column store d) in
      let dense_data = Dataset.of_columns ~var_names:feature_names columns in
      match Model.fit ~wb ~wvc bases ~data:dense_data ~targets with
      | None ->
          Printf.eprintf "stream: in-memory comparison fit was rejected\n";
          exit 1
      | Some dense ->
          let delta = ref (Float.abs (dense.Model.intercept -. streamed.Model.intercept)) in
          Array.iteri
            (fun j w -> delta := Float.max !delta (Float.abs (w -. streamed.Model.weights.(j))))
            dense.Model.weights;
          let err_delta = Float.abs (dense.Model.train_error -. streamed.Model.train_error) in
          Printf.printf
            "in-memory comparison: max coefficient delta %.3e, train-error delta %.3e\n%!"
            !delta err_delta;
          Some (Float.max !delta err_delta)
    end
  in
  let agreement_ok = match agreement with None -> true | Some d -> d <= 1e-8 in
  Colstore.close store;
  Sys.remove path;
  write_artifact ~options ~name:"stream"
    [
      ("n_samples", string_of_int n);
      ("dims", string_of_int dims);
      ("bases", string_of_int (Array.length bases));
      ("chunk_rows", string_of_int chunk_rows);
      ("sim_seconds", Printf.sprintf "%.2f" t_sim);
      ("fit_seconds", Printf.sprintf "%.2f" t_fit);
      ("train_error", Printf.sprintf "%.6e" streamed.Model.train_error);
      ("gram_fallbacks", string_of_int fallbacks);
      ("peak_rss_bytes", peak_str);
      ("dense_bytes", string_of_int dense_bytes);
      ("budget_bytes", string_of_int budget_bytes);
      ("rss_ratio", ratio_str);
      ("rss_ok", string_of_bool rss_ok);
      ("stream_only", string_of_bool options.stream_only);
      ( "max_delta_vs_dense",
        match agreement with None -> "null" | Some d -> Printf.sprintf "%.3e" d );
      ("agreement_ok", string_of_bool agreement_ok);
    ];
  if not rss_ok then begin
    Printf.eprintf "stream: peak RSS exceeded 50%% of the dense feature-matrix footprint\n";
    exit 1
  end;
  if not agreement_ok then begin
    Printf.eprintf "stream: streamed fit disagrees with the in-memory path beyond 1e-8\n";
    exit 1
  end

(* --- main ---------------------------------------------------------------- *)

let () =
  let options = parse_options () in
  let context = lazy (make_context options) in
  let with_context f () = f (Lazy.force context) in
  let with_options f () = f options in
  (* In run order; [true] marks the experiments [all] runs.  miller and
     stream are opt-in: stream's RSS gate judges the process high-water
     mark, so it must not share a process with experiments that allocate
     dense workloads first. *)
  let experiments =
    [
      ("fig3", true, with_context experiment_fig3);
      ("table1", true, with_context experiment_table1);
      ("table2", true, with_context experiment_table2);
      ("fig4", true, with_context experiment_fig4);
      ("ablation-grammar", true, with_context experiment_ablation_grammar);
      ("ablation-sag", true, with_context experiment_ablation_sag);
      ("ablation-moo", true, with_context experiment_ablation_moo);
      ("ablation-scalar", true, with_context experiment_ablation_scalar);
      ("tran-slew", true, with_options experiment_tran_slew);
      ("miller", false, with_options experiment_miller);
      ("stream", false, with_options experiment_stream);
      ("parallel", true, with_options experiment_parallel);
      ("trace", true, with_options experiment_trace);
      ("dedup", true, with_options experiment_dedup);
      ("fuse", true, with_options experiment_fuse);
      ("serve", true, with_options experiment_serve);
    ]
  in
  let names = "all" :: List.map (fun (name, _, _) -> name) experiments in
  if not (List.mem options.experiment names) then
    refuse "unknown experiment %s (experiments: %s)" options.experiment (String.concat ", " names);
  List.iter
    (fun (name, in_all, run) ->
      if name = options.experiment || (in_all && options.experiment = "all") then run ())
    experiments
