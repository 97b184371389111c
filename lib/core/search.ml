module Rng = Caffeine_util.Rng
module Stats = Caffeine_util.Stats
module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset
module Linfit = Caffeine_regress.Linfit
module Nsga2 = Caffeine_evo.Nsga2
module Executor = Caffeine_par.Executor
module Metrics = Caffeine_obs.Metrics
module Trace = Caffeine_obs.Trace
module Json = Caffeine_obs.Json
module Colstore = Caffeine_io.Colstore
module Op = Caffeine_expr.Op

type outcome = {
  front : Model.t list;
  population_size : int;
  generations_run : int;
}

let log_src = Logs.Src.create "caffeine.search" ~doc:"CAFFEINE evolutionary search"

module Log = (val Logs.src_log log_src : Logs.LOG)

let validate_data ~data ~targets =
  let n = Dataset.n_samples data in
  if n < 2 then invalid_arg "Search.run: need at least 2 samples";
  if Array.length targets <> n then invalid_arg "Search.run: data/targets length mismatch";
  Dataset.dims data

(* Exact nondominated filter over (train error, complexity), deduplicated
   on identical objective pairs (keep the first), sorted by (complexity,
   train error) — a total order on the deduplicated front, so merged
   parallel-island fronts serialize identically however they arrive. *)
let dedup_and_sort models =
  let dominated (a : Model.t) (b : Model.t) =
    (* b dominates a *)
    b.Model.train_error <= a.Model.train_error
    && b.Model.complexity <= a.Model.complexity
    && (b.Model.train_error < a.Model.train_error || b.Model.complexity < a.Model.complexity)
  in
  let nondominated =
    List.filter (fun m -> not (List.exists (fun other -> dominated m other) models)) models
  in
  let deduped =
    List.fold_left
      (fun acc (m : Model.t) ->
        if
          List.exists
            (fun (kept : Model.t) ->
              kept.Model.train_error = m.Model.train_error
              && kept.Model.complexity = m.Model.complexity)
            acc
        then acc
        else m :: acc)
      [] nondominated
    |> List.rev
  in
  List.sort
    (fun (a : Model.t) b ->
      compare
        (a.Model.complexity, a.Model.train_error)
        (b.Model.complexity, b.Model.train_error))
    deduped

(* Run [f] with the executor the caller supplied, or a fresh domain-pool
   executor of [config.jobs] domains (which degrades to sequential when
   the effective jobs count is 1). *)
let with_search_executor ?executor config f =
  match executor with
  | Some executor -> f executor
  | None -> Executor.with_executor ~jobs:config.Config.jobs Executor.Domains f

let run_with_rng ~rng ?(executor = Executor.sequential) ?(trace = Trace.null) ?on_generation
    ?start ?on_checkpoint ?(eval_cache = Eval_cache.Off) config ~data ~targets =
  let dims = validate_data ~data ~targets in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  (* The dataset memoizes what its storage makes costly, keyed by the full
     structural hash — weights included: a mutated weight is a different
     column.  Resident data memoizes per-basis columns, so a basis shared
     between individuals (the common case under set crossover) is compiled
     and evaluated once, on its own one-root tape, by the first fit that
     reads it, and each Gram is formed from held columns; chunked
     data memoizes Gram products and finiteness instead.  The dataset
     caches and scratch buffers are domain-safe, so the same closure
     serves the parallel evaluation paths unchanged. *)
  let objectives individual =
    match Model.fit ~wb ~wvc individual ~data ~targets with
    | Some model -> [| model.Model.train_error; model.Model.complexity |]
    | None -> [| Float.infinity; Model.complexity_of ~wb ~wvc individual |]
  in
  (* One cache per run_with_rng call, so every island — and, under the
     process backend, every worker process — owns a private instance.  The
     cache is rebuildable derived state: it never enters checkpoint
     snapshots, and resumed runs simply start cold. *)
  let eval_cache =
    match eval_cache with
    | Eval_cache.Off -> None
    | mode -> Some (Eval_cache.create ~mode ~wb ~wvc ~data ())
  in
  let nsga_cache =
    Option.map
      (fun c -> { Nsga2.lookup = Eval_cache.lookup c; store = Eval_cache.store c })
      eval_cache
  in
  (* Record construction (objective sorts, variation tallies) happens only
     when someone listens — with the null sink and no callback a traced
     build costs one branch per generation. *)
  let observing = (not (Trace.is_null trace)) || Option.is_some on_generation in
  let vary_stats = Vary.fresh_stats () in
  let last_ns = ref (Metrics.now_ns ()) in
  let notify gen population =
    let best_error =
      Array.fold_left
        (fun acc (ind : Vary.individual Nsga2.individual) -> Float.min acc ind.Nsga2.objectives.(0))
        Float.infinity population
    in
    let front_size = Array.length (Nsga2.pareto_front population) in
    Log.debug (fun m ->
        m "generation %d: best train error %.4f, front size %d" gen best_error front_size);
    if observing then begin
      let stop_ns = Metrics.now_ns () in
      let wall_s = Int64.to_float (Int64.sub stop_ns !last_ns) /. 1e9 in
      last_ns := stop_ns;
      let errors =
        Array.map (fun (ind : Vary.individual Nsga2.individual) -> ind.Nsga2.objectives.(0)) population
      in
      let complexities =
        Array.map (fun (ind : Vary.individual Nsga2.individual) -> ind.Nsga2.objectives.(1)) population
      in
      let record =
        {
          Trace.gen;
          evals = config.Config.pop_size;
          front_size;
          best_nmse = best_error;
          median_nmse = Stats.median errors;
          complexity_min = Stats.min_value complexities;
          complexity_median = Stats.median complexities;
          complexity_max = Stats.max_value complexities;
          crossovers = vary_stats.Vary.crossovers;
          op_counts = Array.copy vary_stats.Vary.op_counts;
          depth_rejects = vary_stats.Vary.depth_rejects;
          wall_s;
        }
      in
      let op_record : Trace.op_stats =
        {
          gen;
          applied = Array.copy vary_stats.Vary.op_counts;
          changed = Array.copy vary_stats.Vary.op_changed;
        }
      in
      Vary.reset_stats vary_stats;
      if not (Trace.is_null trace) then begin
        Trace.emit trace (Trace.Generation record);
        Trace.emit trace (Trace.Op_stats op_record)
      end;
      match on_generation with None -> () | Some f -> f record
    end;
    (* Checkpoint capture runs after the generation record so a traced,
       checkpointed run interleaves them in (Generation, Checkpoint_written)
       order.  Capturing here — right after environmental selection, before
       the next tournament draw — consumes no randomness, so the generator
       state the callback snapshots is exactly what generation [gen + 1]
       needs. *)
    match on_checkpoint with None -> () | Some f -> f gen population
  in
  let population =
    Nsga2.run ~on_generation:notify ~executor ?start ?cache:nsga_cache ~rng
      {
        Nsga2.pop_size = config.Config.pop_size;
        generations = config.Config.generations;
        init = (fun rng -> Gen.random_individual rng config ~dims);
        objectives;
        vary = (fun rng p1 p2 -> Vary.vary ~stats:vary_stats rng config ~dims p1 p2);
      }
  in
  (* Refit the rank-0 genomes into models, always include the constant
     model, and keep an exact nondominated set sorted by complexity. *)
  let front_genomes = Nsga2.pareto_front population in
  let candidate_models =
    Array.to_list front_genomes
    |> List.filter_map (fun (ind : Vary.individual Nsga2.individual) ->
           Model.fit ~wb ~wvc ind.Nsga2.genome ~data ~targets)
  in
  let constant =
    let fitted = Linfit.fit_constant ~targets in
    {
      Model.bases = [||];
      intercept = fitted.Linfit.intercept;
      weights = [||];
      train_error = fitted.Linfit.train_error;
      complexity = 0.;
    }
  in
  {
    front = dedup_and_sort (constant :: candidate_models);
    population_size = config.Config.pop_size;
    generations_run = config.Config.generations;
  }

let emit_run_start trace ~seed config ~data =
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Run_start
         {
           seed;
           pop_size = config.Config.pop_size;
           generations = config.Config.generations;
           max_bases = config.Config.max_bases;
           samples = Dataset.n_samples data;
           dims = Dataset.dims data;
         })

let emit_run_end trace ~start_ns outcome =
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Run_end
         {
           front =
             List.map (fun (m : Model.t) -> (m.Model.complexity, m.Model.train_error)) outcome.front;
           total_wall_s =
             Int64.to_float (Int64.sub (Metrics.now_ns ()) start_ns) /. 1e9;
         })

let merge_fronts fronts = dedup_and_sort (List.concat fronts)

(* {2 Checkpointing}

   Every entry point drives the same island loop over a mutable
   [Checkpoint.island array]: each slot advances Pending -> In_progress ->
   Done, and every write serializes the whole array — so a snapshot always
   carries the finished fronts of earlier islands alongside the live one.
   [run_and_simplify] then writes the simplifying phase through the same
   writer. *)

type checkpoint_ctx = {
  ckpt_path : string;
  ckpt_every : int;
  ckpt_fingerprint : string;
  ckpt_seed : int;
  ckpt_restarts : int;
}

let m_resumed = Metrics.counter Metrics.default "checkpoint.resumed"

(* One writer for both phases.  The file write and its trace mark are
   separate on purpose: the process backend writes snapshots eagerly as
   worker progress arrives but emits the marks through the island-ordered
   delivery queue, so the trace stays deterministic while the file on
   disk is always current. *)
let write_snapshot ctx phase =
  Checkpoint.save ~path:ctx.ckpt_path
    {
      Checkpoint.fingerprint = ctx.ckpt_fingerprint;
      seed = ctx.ckpt_seed;
      restarts = ctx.ckpt_restarts;
      phase;
    }

let written_mark ctx phase ~island ~gen =
  Trace.Checkpoint_written
    { path = ctx.ckpt_path; phase = Checkpoint.phase_name phase; island; gen }

let save_snapshot ~trace ctx phase ~island ~gen =
  write_snapshot ctx phase;
  if not (Trace.is_null trace) then Trace.emit trace (written_mark ctx phase ~island ~gen)

(* Initial island states: fresh generator snapshots, or the islands of a
   snapshot already validated against this run. *)
let start_islands ?resume ~trace ~entry fresh_states =
  match resume with
  | None -> Array.map (fun state -> Checkpoint.Pending state) fresh_states
  | Some { Checkpoint.phase = Checkpoint.Simplifying _; _ } ->
      invalid_arg
        (entry ^ ": cannot resume: checkpoint is in the simplifying phase, not the search")
  | Some { Checkpoint.phase = Checkpoint.Evolving islands; _ } ->
      Metrics.incr m_resumed;
      if not (Trace.is_null trace) then begin
        (* Report the first island with work left: its index and last
           completed generation (-1 when it never started, and for both
           fields when every island already finished). *)
        let island = ref (-1) and gen = ref (-1) in
        (try
           Array.iteri
             (fun k (state : Checkpoint.island) ->
               match state with
               | Checkpoint.Done _ -> ()
               | Checkpoint.Pending _ ->
                   island := k;
                   raise Exit
               | Checkpoint.In_progress { gen = g; _ } ->
                   island := k;
                   gen := g;
                   raise Exit)
             islands
         with Exit -> ());
        Trace.emit trace (Trace.Run_resumed { phase = "evolving"; island = !island; gen = !gen })
      end;
      Array.copy islands

(* {3 Island state decoding, shared by every backend} *)

let island_start = function
  | Checkpoint.Pending state -> (Rng.of_state state, None)
  | Checkpoint.In_progress { gen; rng; population } -> (Rng.of_state rng, Some (gen, population))
  | Checkpoint.Done _ -> assert false

(* {3 The multi-process island backend}

   Islands fan out across worker processes (Shard).  A worker is this
   executable started afresh, so in place of a closure it receives a job:
   one JSON line with the config, the eval-cache mode, whether the run is
   observed and the checkpoint interval, naming a scratch column store
   that holds the data and the targets.  The worker loads the store
   resident or streamed, as the coordinator holds the data, and runs what
   the in-process path runs — same generator state, sequential inner
   execution — streaming generation records and checkpoint progress back;
   Shard releases those to [deliver] in island order, so the emitted
   trace is the sequential trace (plus one Migration record per
   island). *)

(* The data and then the targets, as one column store.  The names are
   synthetic: a worker needs only the words, and a caller's names could
   be empty or collide with the targets column. *)
let store_names dims =
  Array.init (dims + 1) (fun v -> if v < dims then "x" ^ string_of_int v else "y")

let pack_store ~path data ~targets =
  let dims = Dataset.dims data in
  (* One chunk per chunk of the source, and resident data as one chunk:
     a reader allocates its buffers at the store's chunk length. *)
  let writer =
    Colstore.Writer.create ~path ~var_names:(store_names dims)
      ~chunk_rows:(Dataset.chunk_rows data) ()
  in
  let row = Array.make (dims + 1) 0. in
  Dataset.iter_variable_chunks data ~f:(fun ~row0 ~len columns ->
      for i = 0 to len - 1 do
        for v = 0 to dims - 1 do
          row.(v) <- columns.(v).(i)
        done;
        row.(dims) <- targets.(row0 + i);
        Colstore.Writer.append_row writer row
      done);
  Colstore.Writer.close writer

let load_store ~path ~streamed =
  let store = Colstore.openfile path in
  let dims = Array.length (Colstore.var_names store) - 1 in
  if streamed then
    ( Dataset.of_colstore ~exclude:[ (store_names dims).(dims) ] store,
      Colstore.column store dims )
  else begin
    let n = Colstore.n_rows store in
    let columns = Array.init (dims + 1) (fun _ -> Array.make n 0.) in
    Colstore.iter_chunks store ~f:(fun ~row0 ~len chunk ->
        Array.iteri (fun v column -> Array.blit chunk.(v) 0 column row0 len) columns);
    Colstore.close store;
    (Dataset.of_columns (Array.sub columns 0 dims), columns.(dims))
  end

let job_line ~store ~streamed ~observing ~checkpoint_every ~eval_cache (config : Config.t) =
  let b = Buffer.create 512 in
  let obj members () =
    Buffer.add_char b '{';
    List.iteri
      (fun i (name, add) ->
        if i > 0 then Buffer.add_char b ',';
        Json.add_string b name;
        Buffer.add_char b ':';
        add ())
      members;
    Buffer.add_char b '}'
  in
  let raw text () = Buffer.add_string b text in
  let int n = raw (string_of_int n) and bool x = raw (string_of_bool x) in
  let float x () = Json.add_float b x and str text () = Json.add_string b text in
  let names name_of ops () =
    Buffer.add_char b '[';
    Array.iteri
      (fun i op ->
        if i > 0 then Buffer.add_char b ',';
        Json.add_string b (name_of op))
      ops;
    Buffer.add_char b ']'
  in
  let every = match checkpoint_every with Some every -> int every | None -> raw "null" in
  let opset = config.opset in
  obj
    [
      ("store", str store);
      ("streamed", bool streamed);
      ("observed", bool observing);
      ("checkpoint_every", every);
      ("eval_cache", str (Eval_cache.mode_to_string eval_cache));
      ( "config",
        obj
          [
            ("pop_size", int config.pop_size);
            ("generations", int config.generations);
            ("max_bases", int config.max_bases);
            ("max_depth", int config.max_depth);
            ("wb", float config.wb);
            ("wvc", float config.wvc);
            ( "opset",
              obj
                [
                  ("unops", names Op.unary_name opset.Opset.unops);
                  ("binops", names Op.binary_name opset.Opset.binops);
                  ("allow_lte", bool opset.Opset.allow_lte);
                  ("allow_vc", bool opset.Opset.allow_vc);
                  ("allow_nonlinear", bool opset.Opset.allow_nonlinear);
                  ("max_exponent", int opset.Opset.max_exponent);
                  ("min_exponent", int opset.Opset.min_exponent);
                ] );
            ("param_mutation_weight", float config.param_mutation_weight);
            ("crossover_probability", float config.crossover_probability);
            ("max_vc_vars", int config.max_vc_vars);
            ("jobs", int config.jobs);
          ] );
    ]
    ();
  Buffer.contents b

let bool_of fields name =
  match Json.member fields name with
  | Json.Bool b -> b
  | _ -> raise (Json.Parse_error (Printf.sprintf "field %S: expected a boolean" name))

let ops_of fields name of_name =
  Array.of_list
    (List.map
       (fun json ->
         let op = Json.to_str name json in
         match of_name op with
         | Some op -> op
         | None ->
             raise (Json.Parse_error (Printf.sprintf "field %S: unknown operator %S" name op)))
       (Json.arr_of fields name))

let config_of fields : Config.t =
  let opset = Json.obj (Json.member fields "opset") in
  {
    pop_size = Json.int_of fields "pop_size";
    generations = Json.int_of fields "generations";
    max_bases = Json.int_of fields "max_bases";
    max_depth = Json.int_of fields "max_depth";
    wb = Json.float_of fields "wb";
    wvc = Json.float_of fields "wvc";
    opset =
      {
        Opset.unops = ops_of opset "unops" Op.unary_of_name;
        binops = ops_of opset "binops" Op.binary_of_name;
        allow_lte = bool_of opset "allow_lte";
        allow_vc = bool_of opset "allow_vc";
        allow_nonlinear = bool_of opset "allow_nonlinear";
        max_exponent = Json.int_of opset "max_exponent";
        min_exponent = Json.int_of opset "min_exponent";
      };
    param_mutation_weight = Json.float_of fields "param_mutation_weight";
    crossover_probability = Json.float_of fields "crossover_probability";
    max_vc_vars = Json.int_of fields "max_vc_vars";
    jobs = Json.int_of fields "jobs";
  }

(* Worker-process side: [emit]/[progress] write to the worker's socket;
   everything else is the plain sequential search. *)
let load_job line : Shard.run_island =
  let fields = Json.obj (Json.parse_exn line) in
  let config = config_of (Json.obj (Json.member fields "config")) in
  let eval_cache =
    match Eval_cache.mode_of_string (Json.str_of fields "eval_cache") with
    | Ok mode -> mode
    | Error message -> raise (Json.Parse_error message)
  in
  let observing = bool_of fields "observed" in
  let checkpoint_every =
    match Json.member fields "checkpoint_every" with
    | Json.Null -> None
    | every -> Some (Json.to_int "checkpoint_every" every)
  in
  let data, targets =
    load_store ~path:(Json.str_of fields "store") ~streamed:(bool_of fields "streamed")
  in
  let generations = config.generations in
  fun ~emit ~progress ~island:_ state ->
    match state with
    | Checkpoint.Done front -> front
    | Checkpoint.Pending _ | Checkpoint.In_progress _ ->
        let rng, start = island_start state in
        let trace = if observing then Trace.of_fn emit else Trace.null in
        let on_checkpoint =
          Option.map
            (fun every gen population ->
              if gen > 0 && gen mod every = 0 && gen < generations then
                progress ~gen ~rng:(Rng.to_state rng) ~population)
            checkpoint_every
        in
        (run_with_rng ~rng ~trace ?start ?on_checkpoint ~eval_cache config ~data ~targets).front

let island_worker = Shard.worker "search.island" load_job

let run_islands_processes ~shards ~trace ?on_generation ?checkpoint ~eval_cache islands config
    ~data ~targets =
  let generations = config.Config.generations in
  let observing = (not (Trace.is_null trace)) || Option.is_some on_generation in
  let phase = Checkpoint.Evolving islands in
  let snapshot = Option.map (fun ctx () -> write_snapshot ctx phase) checkpoint in
  let on_progress = Option.map (fun write ~island:_ ~gen:_ -> write ()) snapshot in
  let on_done = Option.map (fun write ~island:_ -> write ()) snapshot in
  let mark ~island ~gen =
    match checkpoint with
    | Some ctx ->
        if not (Trace.is_null trace) then Trace.emit trace (written_mark ctx phase ~island ~gen)
    | None -> ()
  in
  let deliver ~island event =
    match event with
    | Shard.Record (Trace.Generation record) ->
        if not (Trace.is_null trace) then Trace.emit trace (Trace.Generation record);
        (match on_generation with None -> () | Some f -> f ~island record)
    | Shard.Record record -> if not (Trace.is_null trace) then Trace.emit trace record
    | Shard.Progress_saved gen -> mark ~island ~gen
    | Shard.Done_saved -> mark ~island ~gen:generations
  in
  Shard.with_scratch_file ~suffix:".cafs" @@ fun store ->
  pack_store ~path:store data ~targets;
  let job =
    job_line ~store ~streamed:(Dataset.is_chunked data) ~observing
      ~checkpoint_every:(Option.map (fun ctx -> ctx.ckpt_every) checkpoint)
      ~eval_cache config
  in
  Shard.run_islands ~shards ?on_progress ?on_done ~deliver ~worker:island_worker ~job islands

(* {3 The in-process backends (sequential and domain pool)} *)

let run_islands_in_process ~executor ~trace ?on_generation ?checkpoint ~eval_cache islands
    config ~data ~targets =
  let generations = config.Config.generations in
  let run_island k =
    match islands.(k) with
    | Checkpoint.Done front -> front
    | Checkpoint.Pending _ | Checkpoint.In_progress _ ->
        let rng, start = island_start islands.(k) in
        let on_checkpoint =
          Option.map
            (fun ctx gen population ->
              if gen > 0 && gen mod ctx.ckpt_every = 0 && gen < generations then begin
                islands.(k) <-
                  Checkpoint.In_progress { gen; rng = Rng.to_state rng; population };
                save_snapshot ~trace ctx (Checkpoint.Evolving islands) ~island:k ~gen
              end)
            checkpoint
        in
        let on_generation = Option.map (fun f record -> f ~island:k record) on_generation in
        let outcome =
          (* Each island reuses the shared executor for its inner
             evaluation loop; when the islands themselves are fanned out
             below, those nested calls fall back to sequential evaluation
             inside the island. *)
          run_with_rng ~rng ~executor ~trace ?on_generation ?start ?on_checkpoint ~eval_cache
            config ~data ~targets
        in
        (match checkpoint with
        | Some ctx ->
            islands.(k) <- Checkpoint.Done outcome.front;
            save_snapshot ~trace ctx (Checkpoint.Evolving islands) ~island:k ~gen:generations
        | None -> ());
        outcome.front
  in
  let indices = Array.init (Array.length islands) (fun k -> k) in
  (* A live trace, a generation callback or a checkpoint file pins the
     islands to the calling domain, so records arrive in island order and
     snapshot writes never race — the same sequence at every jobs setting
     (the executor still parallelizes each island's inner evaluation
     loop).  Only the unobserved path fans whole islands out. *)
  if
    Array.length islands > 1 && Trace.is_null trace && Option.is_none on_generation
    && Option.is_none checkpoint
  then Executor.map executor run_island indices
  else Array.map run_island indices

let run_islands ~executor ~trace ?on_generation ?checkpoint ~eval_cache islands config ~data
    ~targets =
  match Executor.backend executor with
  | Executor.Processes ->
      run_islands_processes ~shards:(Executor.shards executor) ~trace ?on_generation
        ?checkpoint ~eval_cache islands config ~data ~targets
  | Executor.Seq | Executor.Domains ->
      run_islands_in_process ~executor ~trace ?on_generation ?checkpoint ~eval_cache islands
        config ~data ~targets

(* A run's checkpoint writer, and whether [resume] is a snapshot of this
   run: the fingerprint is computed once, and only when a snapshot is
   written or read. *)
let checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed ~restarts ~entry config
    ~data ~targets =
  if checkpoint_every < 1 then invalid_arg (entry ^ ": checkpoint_every must be at least 1");
  let fingerprint =
    if Option.is_some checkpoint_path || Option.is_some resume then
      Checkpoint.fingerprint config ~data ~targets
    else ""
  in
  let checkpoint =
    Option.map
      (fun path ->
        {
          ckpt_path = path;
          ckpt_every = checkpoint_every;
          ckpt_fingerprint = fingerprint;
          ckpt_seed = seed;
          ckpt_restarts = restarts;
        })
      checkpoint_path
  in
  match resume with
  | None -> Ok checkpoint
  | Some snapshot ->
      Result.map
        (fun () -> checkpoint)
        (Checkpoint.validate snapshot ~fingerprint ~seed ~restarts)

let checkpoint_or_raise ~entry = function
  | Ok checkpoint -> checkpoint
  | Error message -> invalid_arg (entry ^ ": cannot resume: " ^ message)

(* One island, its inputs already checked. *)
let evolve ~seed ?executor ~trace ?on_generation ?checkpoint ?resume ~eval_cache config ~data
    ~targets =
  emit_run_start trace ~seed config ~data;
  let start_ns = Metrics.now_ns () in
  let fresh = [| Rng.to_state (Rng.create ~seed ()) |] in
  let islands = start_islands ?resume ~trace ~entry:"Search.run" fresh in
  let outcome =
    with_search_executor ?executor config @@ fun executor ->
    let on_generation = Option.map (fun f ~island:_ record -> f record) on_generation in
    let fronts =
      run_islands ~executor ~trace ?on_generation ?checkpoint ~eval_cache islands config ~data
        ~targets
    in
    {
      front = fronts.(0);
      population_size = config.Config.pop_size;
      generations_run = config.Config.generations;
    }
  in
  emit_run_end trace ~start_ns outcome;
  outcome

let run ?(seed = 17) ?executor ?(trace = Trace.null) ?on_generation ?checkpoint_path
    ?(checkpoint_every = 10) ?resume ?(eval_cache = Eval_cache.Off) config ~data ~targets =
  ignore (validate_data ~data ~targets);
  let checkpoint =
    checkpoint_or_raise ~entry:"Search.run"
      (checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed ~restarts:1
         ~entry:"Search.run" config ~data ~targets)
  in
  evolve ~seed ?executor ~trace ?on_generation ?checkpoint ?resume ~eval_cache config ~data
    ~targets

let run_and_simplify ?(seed = 17) ?executor ?(trace = Trace.null) ?on_generation ?checkpoint_path
    ?(checkpoint_every = 10) ?resume ?(eval_cache = Eval_cache.Off) ?(sag = true) config ~data
    ~targets =
  ignore (validate_data ~data ~targets);
  match
    checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed ~restarts:1
      ~entry:"Search.run_and_simplify" config ~data ~targets
  with
  | Error message -> Error message
  | Ok checkpoint ->
      with_search_executor ?executor config @@ fun executor ->
      (* The simplifying phase snapshots the evolved front once before SAG
         starts and again after each model, with the prefix done so far. *)
      let save front processed ~gen =
        Option.iter
          (fun ctx ->
            save_snapshot ~trace ctx (Checkpoint.Simplifying { front; processed }) ~island:(-1)
              ~gen)
          checkpoint
      in
      let simplify ~already front =
        if not sag then front
        else begin
          if already = [] then save front [] ~gen:(-1);
          let processed = ref (List.rev already) in
          let on_model index model =
            processed := model :: !processed;
            save front (List.rev !processed) ~gen:index
          in
          Sag.process_front ~executor ~trace ~already ~on_model ~wb:config.Config.wb
            ~wvc:config.Config.wvc front ~data ~targets
        end
      in
      Ok
        (match resume with
        | Some { Checkpoint.phase = Checkpoint.Simplifying { front; processed }; _ } ->
            Metrics.incr m_resumed;
            if not (Trace.is_null trace) then
              Trace.emit trace
                (Trace.Run_resumed
                   { phase = "simplifying"; island = -1; gen = List.length processed });
            simplify ~already:processed front
        | Some { Checkpoint.phase = Checkpoint.Evolving _; _ } | None ->
            let outcome =
              evolve ~seed ~executor ~trace ?on_generation ?checkpoint ?resume ~eval_cache config
                ~data ~targets
            in
            simplify ~already:[] outcome.front)

let run_multi ?(seed = 17) ?executor ?(trace = Trace.null) ?on_generation ?checkpoint_path
    ?(checkpoint_every = 10) ?resume ?(eval_cache = Eval_cache.Off) ~restarts config ~data
    ~targets =
  if restarts < 1 then invalid_arg "Search.run_multi: need at least 1 restart";
  ignore (validate_data ~data ~targets);
  let checkpoint =
    checkpoint_or_raise ~entry:"Search.run_multi"
      (checkpoint_inputs ?checkpoint_path ?resume ~checkpoint_every ~seed ~restarts
         ~entry:"Search.run_multi" config ~data ~targets)
  in
  emit_run_start trace ~seed config ~data;
  let start_ns = Metrics.now_ns () in
  (* Island RNGs are split off the master sequentially before any parallel
     work, so island k sees the same stream whether the islands run
     back-to-back or fanned out across domains — and a [restarts = r] run
     shares its first r islands with any larger run of the same seed. *)
  let master = Rng.create ~seed () in
  let fresh = Array.make restarts (Rng.to_state master) in
  for k = 0 to restarts - 1 do
    fresh.(k) <- Rng.to_state (Rng.split master)
  done;
  let islands = start_islands ?resume ~trace ~entry:"Search.run_multi" fresh in
  with_search_executor ?executor config @@ fun executor ->
  let fronts =
    run_islands ~executor ~trace ?on_generation ?checkpoint ~eval_cache islands config ~data
      ~targets
  in
  let outcome =
    {
      front = merge_fronts (Array.to_list fronts);
      population_size = config.Config.pop_size;
      generations_run = config.Config.generations * restarts;
    }
  in
  emit_run_end trace ~start_ns outcome;
  outcome
