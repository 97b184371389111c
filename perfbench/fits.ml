(* What the two fit workloads share: one performance fit as the CLI runs it
   (search, SAG, test scoring), a traced copy of the same composition, the
   front file, and the checks on what was written.

   The untraced path calls [Search.run].  The traced path drives
   [Nsga2.run] with the closures [Search.run] builds (initialisation,
   variation, regression, fused warming, the exact eval cache), each
   wrapped in a span, and finishes with [Search.dedup_and_sort]; the
   workloads check that it writes the same bytes. *)

module Config = Caffeine.Config
module Dataset = Caffeine_io.Dataset
module Eval_cache = Caffeine.Eval_cache
module Executor = Caffeine_par.Executor
module Expr = Caffeine_expr.Expr
module Gen = Caffeine.Gen
module Linfit = Caffeine_regress.Linfit
module Metrics = Caffeine_obs.Metrics
module Model = Caffeine.Model
module Model_io = Caffeine.Model_io
module Nsga2 = Caffeine_evo.Nsga2
module Rng = Caffeine_util.Rng
module Sag = Caffeine.Sag
module Search = Caffeine.Search
module Vary = Caffeine.Vary

let k_nsga2 = Spans.kind "nsga2.run"
let k_init = Spans.kind "gen.init"
let k_vary = Spans.kind "vary"
let k_lookup = Spans.kind "eval_cache.lookup"
let k_store = Spans.kind "eval_cache.store"
let k_warm = Spans.kind "fused.warm"
let k_gram = Spans.kind "dataset.gram"
let k_fit = Spans.kind "model.fit"
let k_finish = Spans.kind "search.finish"
let k_sag = Spans.kind "sag.process_front"
let k_score = Spans.kind "sag.test_tradeoff"
let k_dataset = Spans.kind "dataset.build"
let k_save = Spans.kind "model_io.save"
let k_load = Spans.kind "model_io.load"

(* One operation: fit one target and keep its (test error, complexity)
   tradeoff. *)
type task = {
  seed : int;
  data : Dataset.t;
  targets : float array;
  test_data : Dataset.t;
  test_targets : float array;
}

type settings = {
  config : Config.t;  (** its [jobs] sizes the domain pool *)
  eval_cache : Eval_cache.mode;
}

(* Layer tallies of the traced composition, summed over a pass. *)
type tallies = {
  vary_stats : Vary.op_stats;
  mutable warm_calls : int;
  mutable fit_calls : int;
  mutable invalid_fits : int;
  mutable sag_bases_in : int;
  mutable sag_bases_out : int;
  mutable nsga2_batch_ns : int;  (** pool batch time inside [Nsga2.run] *)
}

let fresh_tallies () =
  {
    vary_stats = Vary.fresh_stats ();
    warm_calls = 0;
    fit_calls = 0;
    invalid_fits = 0;
    sag_bases_in = 0;
    sag_bases_out = 0;
    nsga2_batch_ns = 0;
  }

let batch_timer = Metrics.timer Metrics.default "pool.batch"

let search_untraced s executor task =
  (Search.run ~seed:task.seed ~executor ~eval_cache:s.eval_cache s.config ~data:task.data
     ~targets:task.targets)
    .Search.front

(* [Search.run]'s island loop, rebuilt from the public closures. *)
let search_traced s executor tallies task =
  let config = s.config and data = task.data and targets = task.targets in
  let dims = Dataset.dims data in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let chunked = Dataset.is_chunked data in
  (* Fit counters are atomics: objectives run on pool domains. *)
  let fit_calls = Atomic.make 0 and invalid = Atomic.make 0 and warm_calls = Atomic.make 0 in
  let fit bases =
    (* On chunked data the Gram pass is split from the prediction pass:
       [Model.fit] then finds every product in the dot cache. *)
    if chunked && Array.length bases > 0 then
      Spans.span k_gram (fun () -> ignore (Dataset.gram data bases ~targets : Dataset.gram));
    Atomic.incr fit_calls;
    let fitted = Spans.span k_fit (fun () -> Model.fit ~wb ~wvc bases ~data ~targets) in
    if Option.is_none fitted then Atomic.incr invalid;
    fitted
  in
  let objectives individual =
    match fit individual with
    | Some model -> [| model.Model.train_error; model.Model.complexity |]
    | None -> [| Float.infinity; Model.complexity_of ~wb ~wvc individual |]
  in
  let cache =
    match s.eval_cache with
    | Eval_cache.Off -> None
    | mode ->
        let c = Eval_cache.create ~mode ~wb ~wvc ~data () in
        Some
          {
            Nsga2.lookup = (fun g -> Spans.span k_lookup (fun () -> Eval_cache.lookup c g));
            store = (fun g v -> Spans.span k_store (fun () -> Eval_cache.store c g v));
          }
  in
  let prepare (chunk : Vary.individual array) =
    Atomic.incr warm_calls;
    Spans.span k_warm (fun () ->
        let bases = Array.concat (Array.to_list chunk) in
        ignore (Dataset.warm_columns data bases : Dataset.fuse_stats))
  in
  let batch_ns0 = Metrics.timer_total_ns batch_timer in
  let population =
    Spans.span k_nsga2 (fun () ->
        Nsga2.run ~executor ?cache ~prepare
          ~rng:(Rng.create ~seed:task.seed ())
          {
            Nsga2.pop_size = config.Config.pop_size;
            generations = config.Config.generations;
            init =
              (fun rng -> Spans.span k_init (fun () -> Gen.random_individual rng config ~dims));
            objectives;
            vary =
              (fun rng p1 p2 ->
                Spans.span k_vary (fun () ->
                    Vary.vary ~stats:tallies.vary_stats rng config ~dims p1 p2));
          })
  in
  tallies.nsga2_batch_ns <-
    tallies.nsga2_batch_ns + (Metrics.timer_total_ns batch_timer - batch_ns0);
  let front =
    Spans.span k_finish (fun () ->
        let candidates =
          Array.to_list (Nsga2.pareto_front population)
          |> List.filter_map (fun (ind : Vary.individual Nsga2.individual) ->
                 fit ind.Nsga2.genome)
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
        Search.dedup_and_sort (constant :: candidates))
  in
  tallies.fit_calls <- tallies.fit_calls + Atomic.get fit_calls;
  tallies.invalid_fits <- tallies.invalid_fits + Atomic.get invalid;
  tallies.warm_calls <- tallies.warm_calls + Atomic.get warm_calls;
  front

(* One operation as the CLI runs it: the search and SAG on the run's
   executor, then test scoring.  Returns the tradeoff models. *)
let run_task ?tallies s executor task =
  let wb = s.config.Config.wb and wvc = s.config.Config.wvc in
  let front =
    match tallies with
    | None -> search_untraced s executor task
    | Some t -> search_traced s executor t task
  in
  let simplified =
    Spans.span k_sag (fun () ->
        Sag.process_front ~executor ~wb ~wvc front ~data:task.data ~targets:task.targets)
  in
  Option.iter
    (fun t ->
      let bases ms = List.fold_left (fun acc m -> acc + Model.num_bases m) 0 ms in
      t.sag_bases_in <- t.sag_bases_in + bases front;
      t.sag_bases_out <- t.sag_bases_out + bases simplified)
    tallies;
  Spans.span k_score (fun () ->
      Sag.test_tradeoff simplified ~data:task.test_data ~targets:task.test_targets)

(* A domain pool (the CLI default backend), kept for the whole run. *)
let with_executor s f =
  let jobs = s.config.Config.jobs in
  Executor.with_executor ~jobs ~shards:jobs Executor.Domains f

let save ~path ~var_names models =
  Spans.span k_save (fun () -> Model_io.save ~path ~var_names models)

(* --- quality ----------------------------------------------------------------- *)

(* The hypervolume reference point: the paper's "under 10% error" query,
   up to complexity 200. *)
let ref_error = 0.1
let ref_complexity = 200.

(* Hypervolume of a (test error, complexity) front against the reference
   point, as a share of the reference box.  Points outside the box add
   nothing. *)
let hypervolume (scored : Sag.scored list) =
  let points =
    List.filter_map
      (fun (s : Sag.scored) ->
        let e = s.Sag.test_error and c = s.Sag.model.Model.complexity in
        if Float.is_finite e && e < ref_error && c < ref_complexity then Some (c, e) else None)
      scored
    |> List.sort compare
  in
  (* Sweep by increasing complexity; each point adds the slab between its
     complexity and the reference, below the best error seen so far. *)
  let area, _ =
    List.fold_left
      (fun (area, best) (c, e) ->
        if e < best then (area +. ((ref_complexity -. c) *. (best -. e)), e) else (area, best))
      (0., ref_error) points
  in
  area /. (ref_error *. ref_complexity)

(* --- checks ------------------------------------------------------------------ *)

(* Train error of a model recomputed row by row with the tree interpreter
   ([Expr.eval_basis]), independent of the compiled and fused paths:
   root-mean-square residual over the mean target magnitude.  Also returns
   the model's term scale: the mean over rows of the summed magnitudes of
   its terms (intercept included), over the same target magnitude. *)
let reference_train_error (m : Model.t) ~rows ~targets =
  let n = Array.length rows in
  let sq = ref 0. and mag = ref 0. and terms = ref 0. in
  for i = 0 to n - 1 do
    let x = rows.(i) in
    let y = ref m.Model.intercept and t = ref (Float.abs m.Model.intercept) in
    Array.iteri
      (fun j b ->
        let v = m.Model.weights.(j) *. Expr.eval_basis b x in
        y := !y +. v;
        t := !t +. Float.abs v)
      m.Model.bases;
    let r = targets.(i) -. !y in
    sq := !sq +. (r *. r);
    mag := !mag +. Float.abs targets.(i);
    terms := !terms +. !t
  done;
  let rms = sqrt (!sq /. float_of_int n) and scale = !mag /. float_of_int n in
  let term_scale = !terms /. float_of_int n in
  if scale > 0. then (rms /. scale, term_scale /. scale) else (rms, term_scale)

(* The recomputed train error must match the stored one to a relative
   tolerance, plus a tiny absolute floor for exact fits, plus what rounding
   alone can move it by.  The two evaluations round the same terms in
   other orders, so their predictions may differ by a few ulps of the
   terms' magnitude; that dominates when large terms cancel to a near-exact
   fit (an OTA model whose terms are 6e6 times its targets stored 5.5e-11
   and recomputed 3.7e-10, a quarter of an ulp of its term scale). *)
let train_error_rel_tol = 1e-6
let train_error_abs_tol = 1e-12
let rounding_ulps = 64.

let train_error_ok ~var_names (m : Model.t) ~rows ~targets =
  let r, term_scale = reference_train_error m ~rows ~targets in
  let s = m.Model.train_error in
  let tol =
    (train_error_rel_tol *. Float.abs s)
    +. train_error_abs_tol
    +. (rounding_ulps *. epsilon_float *. term_scale)
  in
  let ok = Float.abs (r -. s) <= tol in
  if not ok then
    Printf.printf "mismatch train error: stored %.17g, recomputed %.17g, tolerance %.3g: %s\n" s r
      tol (Model.to_string ~var_names m);
  ok

(* The front file must reload through [Model_io.load] to as many models,
   in the same order, with the same train error and complexity.  (Weights
   are written at the paper's four significant digits, so the reloaded
   models are what a server evaluates, not bit copies of the fitted ones.) *)
let reloads ~path ~wb ~wvc models =
  match Spans.span k_load (fun () -> Model_io.load ~path ~wb ~wvc) with
  | Error _ -> false
  | Ok (_, loaded) ->
      List.length loaded = List.length models
      && List.for_all2
           (fun (a : Model.t) (b : Model.t) ->
             Int64.equal
               (Int64.bits_of_float a.Model.train_error)
               (Int64.bits_of_float b.Model.train_error)
             && Float.equal a.Model.complexity b.Model.complexity)
           loaded models

(* --- passes ------------------------------------------------------------------ *)

(* One pass: every task in order, then one front file of all their
   tradeoffs.  The tasks' datasets are built fresh by [make_tasks] before
   the clock starts, so no pass inherits another's caches.  Each task and
   the save are timed twice: wall clock, and CPU time of the process (all
   domains), which leaves out the time the hypervisor stole. *)
type pass = {
  seeds : int list;  (** the tasks' search seeds *)
  wall_s : float;  (** the tasks and the save, without the collections between tasks *)
  cpu_s : float;  (** the same span of work in CPU time *)
  op_s : float array;  (** per task, wall clock *)
  op_cpu_s : float array;  (** per task, CPU time *)
  rss_mb : float;  (** peak resident set during the pass *)
  steal : int;  (** the machine's CPU steal over the pass, jiffies *)
  fronts : Sag.scored list array;
  targets : float array array;  (** per task, for the checks *)
  bytes : string;  (** the front file as written *)
  t0 : int;
  t1 : int;
  tallies : tallies option;
  dataset_stats : Dataset.cache_stats list;  (** training datasets *)
  counters : (string * int) list;  (** deltas of the program's own counters *)
  batch_s : float;
  minor_mb : float;
  major_collections : int;
  top_heap_mb : float;
}

let counter name = Metrics.counter_value (Metrics.counter Metrics.default name)

let program_counters =
  [
    "linfit.gram_fits";
    "linfit.gram_fallbacks";
    "linfit.forward_rounds";
    "fused.nodes_in";
    "fused.nodes_out";
    "pool.batches";
    "eval.cache_hits";
    "eval.cache_misses";
  ]

let models_of fronts =
  List.concat_map (List.map (fun (s : Sag.scored) -> s.Sag.model)) (Array.to_list fronts)

(* [f ()] with its wall-clock and CPU seconds. *)
let timed f =
  let c0 = Util.cpu_s () in
  let result, dt = Util.time f in
  (result, dt, Util.cpu_s () -. c0)

let run_pass ?(traced = false) s executor ~(make_tasks : unit -> task array) ~path ~var_names =
  let tasks = Spans.span k_dataset make_tasks in
  let tallies = if traced then Some (fresh_tallies ()) else None in
  let c0 = List.map counter program_counters in
  let batch0 = Metrics.timer_total_ns batch_timer in
  let gc0 = Gc.quick_stat () in
  let steal0 = Util.steal_jiffies () in
  Util.reset_peak_rss ();
  let t0 = Util.now_ns () in
  let n = Array.length tasks in
  let op_s = Array.make n 0. and op_cpu_s = Array.make n 0. in
  let fronts =
    Array.mapi
      (fun i task ->
        (* Each task starts from a collected heap, as a fresh CLI process
           would; the collection is not timed. *)
        if i > 0 then Gc.full_major ();
        let front, dt, cpu = timed (fun () -> run_task ?tallies s executor task) in
        op_s.(i) <- dt;
        op_cpu_s.(i) <- cpu;
        front)
      tasks
  in
  let (), save_s, save_cpu_s = timed (fun () -> save ~path ~var_names (models_of fronts)) in
  let t1 = Util.now_ns () in
  let rss_mb = Util.peak_rss_mb () in
  let steal1 = Util.steal_jiffies () in
  let gc1 = Gc.quick_stat () in
  let total = Array.fold_left ( +. ) in
  {
    seeds = Array.to_list (Array.map (fun (t : task) -> t.seed) tasks);
    wall_s = total save_s op_s;
    cpu_s = total save_cpu_s op_cpu_s;
    op_s;
    op_cpu_s;
    rss_mb;
    steal = steal1 - steal0;
    fronts;
    targets = Array.map (fun (t : task) -> t.targets) tasks;
    bytes = Util.read_file path;
    t0;
    t1;
    tallies;
    dataset_stats = Array.to_list (Array.map (fun (t : task) -> Dataset.stats t.data) tasks);
    counters = List.map2 (fun name c -> (name, counter name - c)) program_counters c0;
    batch_s = float_of_int (Metrics.timer_total_ns batch_timer - batch0) *. 1e-9;
    minor_mb = (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. 8. /. 1e6;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_mb = float_of_int (gc1.Gc.top_heap_words * 8) /. 1e6;
  }

(* Per-layer figures of one traced pass, by metric name.  Times from the
   calling domain are self times; spans that ran on pool domains add their
   busy time.  The calling domain's share of each pool batch that it did
   not spend on its own tasks is [pool.wait_s], taken out of
   [Nsga2.run]'s self time. *)
let layer_figures ~caller (p : pass) =
  let t = Spans.totals ~caller ~t0:p.t0 ~t1:p.t1 in
  let tl = Option.get p.tallies in
  let self k = t.Spans.self_s.(k) and all k = t.Spans.self_s.(k) +. t.Spans.busy_s.(k) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let in_batch =
    List.fold_left
      (fun acc child -> acc +. Spans.direct_child t ~parent:k_nsga2 ~child)
      0. [ k_warm; k_fit; k_gram ]
  in
  let nsga2_batch_s = float_of_int tl.nsga2_batch_ns *. 1e-9 in
  let wait = if tl.nsga2_batch_ns = 0 then 0. else Float.max 0. (nsga2_batch_s -. in_batch) in
  let sum_stats f = List.fold_left (fun acc st -> acc + f st) 0 p.dataset_stats in
  let c name = float_of_int (List.assoc name p.counters) in
  let vs = tl.vary_stats in
  let applied = Array.fold_left ( + ) 0 vs.Vary.op_counts
  and changed = Array.fold_left ( + ) 0 vs.Vary.op_changed in
  [
    ("gen.init_s", self k_init);
    ("vary.s", self k_vary);
    ("vary.calls", float_of_int t.Spans.calls.(k_vary));
    ("vary.changed_ratio", ratio changed applied);
    ("eval_cache.s", self k_lookup +. self k_store);
    ("eval_cache.lookups", c "eval.cache_hits" +. c "eval.cache_misses");
    ( "eval_cache.hit_ratio",
      let hits = List.assoc "eval.cache_hits" p.counters in
      ratio hits (hits + List.assoc "eval.cache_misses" p.counters) );
    ("fused.warm_s", all k_warm);
    ("fused.warm_calls", float_of_int tl.warm_calls);
    ("fused.nodes_in", c "fused.nodes_in");
    ("fused.nodes_out", c "fused.nodes_out");
    ("dataset.column_hits", float_of_int (sum_stats (fun st -> st.Dataset.column_hits)));
    ("dataset.column_misses", float_of_int (sum_stats (fun st -> st.Dataset.column_misses)));
    ("dataset.dot_hits", float_of_int (sum_stats (fun st -> st.Dataset.dot_hits)));
    ("dataset.dot_misses", float_of_int (sum_stats (fun st -> st.Dataset.dot_misses)));
    ("dataset.gram_s", all k_gram);
    ("model.fit_s", all k_fit);
    ("model.fit_calls", float_of_int tl.fit_calls);
    ("model.invalid_ratio", ratio tl.invalid_fits tl.fit_calls);
    ("linfit.gram_fits", c "linfit.gram_fits");
    ("linfit.gram_fallbacks", c "linfit.gram_fallbacks");
    ("nsga2.self_s", self k_nsga2 -. wait);
    ("search.finish_s", self k_finish);
    ("pool.batches", c "pool.batches");
    ("pool.batch_s", p.batch_s);
    ("pool.wait_s", wait);
    ("process.cpu_s", p.cpu_s);
    ("sag.s", self k_sag);
    ("sag.forward_rounds", c "linfit.forward_rounds");
    ("sag.pruned_ratio", 1. -. ratio tl.sag_bases_out tl.sag_bases_in);
    ("sag.score_s", self k_score);
    ("model_io.save_s", self k_save);
    ("gc.minor_mb", p.minor_mb);
    ("gc.major_collections", float_of_int p.major_collections);
    ("gc.top_heap_mb", p.top_heap_mb);
    ("trace.attributed_ratio", t.Spans.top_s /. p.wall_s);
  ]

(* --- the driver of both fit workloads ------------------------------------------ *)

type 'inputs spec = {
  label : string;
  settings : settings;
  setup_every : int;  (** passes per set-up in an untraced run *)
  lead_passes : int;
      (** the prefix of passes every run makes: [front_hv] averages over
          its fronts and [peak_rss_mb] is its peak *)
  setup : unit -> 'inputs;
  make_tasks : 'inputs -> pass:int -> task array;
      (** fresh datasets; the search seeds depend on the pass index *)
  var_names : string array;
  train_rows : 'inputs -> float array array;  (** row-major, for the reference check *)
  setup_layers : 'inputs -> Spans.totals -> (string * float) list;
}

let k_check = Spans.kind "bench.check"

(* Operations that failed: a task fails when one of its written models
   misses the reference train error, when its pass's front file does not
   reload to the written models, or when its pass wrote other bytes than
   the pass it is paired with in [passes]. *)
let failures spec inputs ~path (passes : (pass * string) list) =
  let rows = Spans.span k_check (fun () -> spec.train_rows inputs) in
  let wb = spec.settings.config.Config.wb and wvc = spec.settings.config.Config.wvc in
  let load_times = ref [] in
  (* Passes that wrote the same bytes wrote the same models: check those
     once. *)
  let verdicts = Hashtbl.create 8 in
  let tasks_ok (p : pass) =
    match Hashtbl.find_opt verdicts p.bytes with
    | Some ok -> ok
    | None ->
        let ok =
          Array.mapi
            (fun i front ->
              List.for_all
                (fun (s : Sag.scored) ->
                  train_error_ok ~var_names:spec.var_names s.Sag.model ~rows
                    ~targets:p.targets.(i))
                front)
            p.fronts
        in
        Hashtbl.replace verdicts p.bytes ok;
        ok
  in
  let failed_in ((p : pass), reference) =
    Out_channel.with_open_bin path (fun oc -> output_string oc p.bytes);
    let reload_ok, load_s = Util.time (fun () -> reloads ~path ~wb ~wvc (models_of p.fronts)) in
    load_times := load_s :: !load_times;
    let same = String.equal p.bytes reference in
    Array.fold_left
      (fun acc ok -> if ok && reload_ok && same then acc else acc + 1)
      0 (tasks_ok p)
  in
  let failed = List.fold_left (fun acc p -> acc + failed_in p) 0 passes in
  (failed, Util.median (Array.of_list !load_times))

let lead spec passes = List.filteri (fun k _ -> k < spec.lead_passes) passes

(* [front_hv] is the mean over the fronts of the leading passes, so it is
   a function of the seed alone. *)
let front_hv spec passes =
  let hv (p : pass) = Util.mean (Array.map hypervolume p.fronts) in
  Util.mean (Array.of_list (List.map hv (lead spec passes)))

let path spec = Util.out_path (spec.label ^ ".models")

let samples f passes = Array.of_list (List.map f passes)

(* End-to-end run: passes until [seconds] have gone by and the leading
   passes are done, with a set-up (replacing the inputs by an identical
   copy) before every [setup_every]-th pass.  Every timing is the median
   of its samples over the run, in CPU time of the process: on a shared
   host the wall clock of a fit also counts the CPU the hypervisor steals,
   which comes in waves longer than a run (see README.md).

   Passes with the same search seeds must write the same bytes; when no
   pass repeated pass 0's seeds, one more pass does, checked but not
   timed.  The peak RSS is that of the leading passes, a prefix every run
   makes, because resident memory grows with the number of datasets a
   process has built. *)
let run_untraced spec ~seconds =
  let setups = ref [] and inputs = ref None in
  let set_up () =
    (* Drop the previous set-up's products first, so every set-up starts
       from the same heap. *)
    inputs := None;
    Gc.full_major ();
    let v, dt, cpu = timed spec.setup in
    setups := (dt, cpu) :: !setups;
    inputs := Some v
  in
  let path = path spec in
  with_executor spec.settings @@ fun executor ->
  let pass k =
    Gc.full_major ();
    run_pass spec.settings executor
      ~make_tasks:(fun () -> spec.make_tasks (Option.get !inputs) ~pass:k)
      ~path ~var_names:spec.var_names
  in
  let start = Util.now_ns () in
  let passes = ref [] in
  while
    Util.seconds_between start (Util.now_ns ()) < seconds
    || List.length !passes < spec.lead_passes
  do
    let k = List.length !passes in
    if k mod spec.setup_every = 0 then set_up ();
    passes := pass k :: !passes
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  let checked =
    if List.exists (fun (p : pass) -> p != first && p.seeds = first.seeds) passes then passes
    else passes @ [ pass 0 ]
  in
  let reference (p : pass) = (List.find (fun (q : pass) -> q.seeds = p.seeds) passes).bytes in
  let failed, _ =
    failures spec (Option.get !inputs) ~path (List.map (fun p -> (p, reference p)) checked)
  in
  let setups = List.rev !setups in
  let setup_cpu = Array.of_list (List.map snd setups) in
  let cpu = samples (fun p -> p.cpu_s) passes in
  let op_cpu = Array.concat (List.map (fun (p : pass) -> p.op_cpu_s) passes) in
  let rss = samples (fun p -> p.rss_mb) passes in
  let lead_rss = Array.sub rss 0 spec.lead_passes in
  Util.print_samples "setup_s" setup_cpu;
  Util.print_samples "setup_wall_s" (Array.of_list (List.map fst setups));
  Util.print_samples "pass_s" cpu;
  Util.print_samples "pass_wall_s" (samples (fun p -> p.wall_s) passes);
  Util.print_samples "op_s" op_cpu;
  Util.print_samples "pass_rss_mb" rss;
  Util.print_samples "pass_steal" (samples (fun p -> float_of_int p.steal) passes);
  {
    Report.attempted =
      List.fold_left (fun acc (p : pass) -> acc + Array.length p.op_s) 0 checked;
    failed;
    checks = [];
    metrics =
      [
        ("setup_s", Util.median setup_cpu);
        ("pass_s", Util.median cpu);
        ("op_p50_ms", 1e3 *. Util.median op_cpu);
        ("front_hv", front_hv spec passes);
        ("peak_rss_mb", Array.fold_left Float.max 0. lead_rss);
      ];
  }

let is_count name =
  not
    (List.exists
       (fun suffix -> String.ends_with ~suffix name)
       [ "_s"; ".s"; "_ratio"; "_mb"; "_imbalance" ])

(* Counts that repeat exactly across the traced passes are labelled exact
   at this seed; the others race across domains. *)
let label_counts figures_by_pass =
  let first = List.hd figures_by_pass in
  List.filter_map
    (fun (name, v) ->
      if is_count name then
        let same =
          List.for_all (fun figs -> Float.equal (List.assoc name figs) v) figures_by_pass
        in
        Some (name, v, if same then "exact" else "racy")
      else None)
    first

(* Traced run: the set-up once under spans, then pairs of an untraced and
   a traced pass, in alternating order, until [seconds] have been
   measured.  Every pass repeats pass 0's seeds, so the traced fronts must
   equal the untraced one byte for byte, and a count that differs between
   traced passes is racy.  Layer figures are medians over the traced
   passes. *)
let run_traced spec ~seconds =
  let caller = (Domain.self () :> int) in
  Spans.set_recording true;
  let t0 = Util.now_ns () in
  let inputs = spec.setup () in
  let setup_totals = Spans.totals ~caller ~t0 ~t1:(Util.now_ns ()) in
  Spans.set_recording false;
  let path = path spec in
  let plain = ref [] and traced = ref [] and measured = ref 0. in
  with_executor spec.settings @@ fun executor ->
  let run ~traced:on =
    Gc.full_major ();
    Spans.set_recording on;
    let p =
      run_pass ~traced:on spec.settings executor
        ~make_tasks:(fun () -> spec.make_tasks inputs ~pass:0)
        ~path ~var_names:spec.var_names
    in
    Spans.set_recording false;
    measured := !measured +. p.wall_s;
    if on then traced := p :: !traced else plain := p :: !plain
  in
  let pair = ref 0 in
  while !measured < seconds || !pair < 2 do
    if !pair mod 2 = 0 then (run ~traced:false; run ~traced:true)
    else (run ~traced:true; run ~traced:false);
    incr pair
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let reference = (List.hd plain).bytes in
  let failed, load_s =
    failures spec inputs ~path (List.map (fun p -> (p, reference)) (plain @ traced))
  in
  let fidelity = List.for_all (fun (p : pass) -> String.equal p.bytes reference) traced in
  let figures = List.map (layer_figures ~caller) traced in
  let median_of name =
    Util.median (Array.of_list (List.map (fun figs -> List.assoc name figs) figures))
  in
  let walls ps = Array.of_list (List.map (fun (p : pass) -> p.wall_s) ps) in
  List.iter
    (fun (name, v, label) -> Printf.printf "count %-28s %14.0f  %s\n" name v label)
    (label_counts figures);
  (* Each layer's share of the calling domain's timeline. *)
  let shares =
    List.map
      (fun (p : pass) ->
        let t = Spans.totals ~caller ~t0:p.t0 ~t1:p.t1 in
        Array.map (fun self -> self /. p.wall_s) t.Spans.self_s)
      traced
  in
  Array.iteri
    (fun k name ->
      let share = Util.median (Array.of_list (List.map (fun a -> a.(k)) shares)) in
      if share > 0. then Printf.printf "share %-28s %6.3f\n" name share)
    !Spans.names;
  Spans.write (Util.out_path (spec.label ^ ".spans"));
  let layer_names = List.map fst (List.hd figures) in
  {
    Report.attempted =
      List.fold_left (fun acc (p : pass) -> acc + Array.length p.op_s) 0 (plain @ traced);
    failed;
    checks =
      [
        ("traced front identical to Search.run", fidelity);
        ("layer spans cover 95% of traced wall time", median_of "trace.attributed_ratio" >= 0.95);
      ];
    metrics =
      spec.setup_layers inputs setup_totals
      @ List.map (fun name -> (name, median_of name)) layer_names
      @ [
          ("model_io.load_s", load_s);
          ( "pool.task_imbalance",
            Metrics.gauge_value (Metrics.gauge Metrics.default "pool.task_imbalance") );
          ("pass.wall_s", Util.median (walls plain));
          ("trace.overhead_ratio", Util.median (walls traced) /. Util.median (walls plain));
        ];
  }
