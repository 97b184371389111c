(* Tests for the multi-process island backend: Shard mechanics (event
   ordering, worker death) and the Search-level contract — fronts, traces
   and resumed runs bit-identical to the sequential backend at every
   shard count. *)

module Rng = Caffeine_util.Rng
module Dataset = Caffeine_io.Dataset
module Trace = Caffeine_obs.Trace
module Metrics = Caffeine_obs.Metrics
module Config = Caffeine.Config
module Model = Caffeine.Model
module Search = Caffeine.Search
module Shard = Caffeine.Shard
module Checkpoint = Caffeine.Checkpoint
module Opset = Caffeine.Opset
module Executor = Caffeine_par.Executor

let toy_problem seed =
  let rng = Rng.create ~seed () in
  let inputs = Array.init 40 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.)) in
  let targets =
    Array.map (fun x -> (x.(0) *. x.(0)) +. (1. /. x.(1)) +. (0.3 *. x.(2))) inputs
  in
  (inputs, targets)

let front_signature front =
  List.map
    (fun (m : Model.t) ->
      (m.Model.train_error, m.Model.complexity, m.Model.intercept, Array.to_list m.Model.weights))
    front

(* [compare]-based: bit-exact even if a weight ever goes NaN. *)
let equal_fronts a b = compare (front_signature a) (front_signature b) = 0

let string_contains ~affix s =
  let n = String.length affix and len = String.length s in
  let rec scan i = i + n <= len && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0

(* --- Shard mechanics, independent of the search ------------------------- *)

let pending seed = Checkpoint.Pending (Rng.to_state (Rng.create ~seed ()))

(* Island bodies run in worker processes, which start this test binary
   afresh and cannot receive a closure: each body is an entry registered
   here at module toplevel, which is where Shard's workers look for it. *)

let events_worker =
  Shard.worker "test_shard.events" (fun _job ~emit ~progress:_ ~island _state ->
      (* Two records per island; wall-clock interleaving across the three
         workers is arbitrary, delivery order must not be. *)
      emit (Trace.Warning { Trace.context = "test"; message = Printf.sprintf "%d/a" island });
      emit (Trace.Warning { Trace.context = "test"; message = Printf.sprintf "%d/b" island });
      [])

let report_island_worker =
  Shard.worker "test_shard.report_island" (fun _job ~emit ~progress:_ ~island _state ->
      (* The body executes in the worker process, so report which island
         it saw over the wire, not through shared state. *)
      emit (Trace.Warning { Trace.context = "test"; message = string_of_int island });
      [])

let death_worker =
  Shard.worker "test_shard.death" (fun _job ~emit:_ ~progress:_ ~island _state ->
      if island = 1 then Unix._exit 9 else [])

let exception_worker =
  Shard.worker "test_shard.exception" (fun _job ~emit:_ ~progress:_ ~island:_ _state ->
      failwith "island blew up")

let job_worker =
  Shard.worker "test_shard.job" (fun job ->
      if job <> "known" then failwith ("no such job: " ^ job);
      fun ~emit:_ ~progress:_ ~island:_ _state -> [])

let test_events_delivered_in_island_order () =
  let islands = Array.init 3 (fun k -> pending (k + 1)) in
  let seen = ref [] in
  let deliver ~island event =
    let tag =
      match event with
      | Shard.Record (Trace.Warning w) -> w.Trace.message
      | Shard.Record (Trace.Migration m) ->
          Alcotest.(check int) "migration matches delivery island" island m.Trace.island;
          Printf.sprintf "%d/migration" m.Trace.island
      | _ -> Alcotest.fail "unexpected event"
    in
    seen := tag :: !seen
  in
  let before = Metrics.counter_value (Metrics.counter Metrics.default "shard.migrations") in
  let fronts = Shard.run_islands ~shards:3 ~deliver ~worker:events_worker ~job:"" islands in
  Alcotest.(check int) "three fronts" 3 (Array.length fronts);
  Array.iter (fun front -> Alcotest.(check bool) "empty fronts" true (front = [])) fronts;
  Alcotest.(check (list string)) "events released in island order"
    [ "0/a"; "0/b"; "0/migration"; "1/a"; "1/b"; "1/migration"; "2/a"; "2/b"; "2/migration" ]
    (List.rev !seen);
  Alcotest.(check int) "one migration counted per island" (before + 3)
    (Metrics.counter_value (Metrics.counter Metrics.default "shard.migrations"))

let test_done_islands_pass_through () =
  let islands = [| Checkpoint.Done []; pending 5 |] in
  let visited = ref [] in
  let deliver ~island:_ = function
    | Shard.Record (Trace.Warning w) -> visited := w.Trace.message :: !visited
    | _ -> ()
  in
  let workers = Metrics.counter Metrics.default "shard.workers_spawned" in
  let before = Metrics.counter_value workers in
  let fronts =
    Shard.run_islands ~shards:4 ~deliver ~worker:report_island_worker ~job:"" islands
  in
  Alcotest.(check int) "both fronts returned" 2 (Array.length fronts);
  (* Only the pending island reached a worker — and since shards are
     clamped to the unfinished count, only one process was started. *)
  Alcotest.(check (list string)) "only the pending island ran" [ "1" ] (List.rev !visited);
  Alcotest.(check int) "one worker forked" (before + 1) (Metrics.counter_value workers)

let test_worker_death_raises_cleanly () =
  let islands = [| pending 3; pending 4 |] in
  match Shard.run_islands ~shards:2 ~worker:death_worker ~job:"" islands with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Shard.Worker_failed message ->
      Alcotest.(check bool) "message names the exit code" true
        (string_contains ~affix:"exited with code 9" message);
      Alcotest.(check bool) "message names the unfinished island" true
        (string_contains ~affix:"island(s) 1 unfinished" message)

let test_worker_exception_surfaces () =
  let islands = [| pending 6 |] in
  match Shard.run_islands ~shards:1 ~worker:exception_worker ~job:"" islands with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Shard.Worker_failed message ->
      Alcotest.(check bool) "worker exception text travels back" true
        (string_contains ~affix:"island blew up" message)

let test_job_load_failure_surfaces () =
  let islands = [| pending 2 |] in
  Alcotest.(check int) "a loadable job runs" 1
    (Array.length (Shard.run_islands ~shards:1 ~worker:job_worker ~job:"known" islands));
  match Shard.run_islands ~shards:1 ~worker:job_worker ~job:"lost" [| pending 2 |] with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Shard.Worker_failed message ->
      Alcotest.(check bool) "message says the job did not load" true
        (string_contains ~affix:"cannot load its job" message);
      Alcotest.(check bool) "message carries the loader's error" true
        (string_contains ~affix:"no such job: lost" message);
      Alcotest.(check bool) "message names the worker" true
        (string_contains ~affix:"worker 0 (pid" message)

let test_unreached_entry_fails_cleanly () =
  (* Registered at run time, not at module toplevel, so the worker process
     never reaches this registration: the test runner's own [main] gets
     the worker flag, rejects it and exits, and the run must fail rather
     than hang. *)
  let worker =
    Shard.worker "test_shard.unreached" (fun _job ~emit:_ ~progress:_ ~island:_ _state -> [])
  in
  match Shard.run_islands ~shards:1 ~worker ~job:"" [| pending 1 |] with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Shard.Worker_failed message ->
      Alcotest.(check bool) "message names the unfinished island" true
        (string_contains ~affix:"island(s) 0 unfinished" message)

(* --- Search under the process backend ----------------------------------- *)

let test_run_multi_fronts_identical () =
  let inputs, targets = toy_problem 5 in
  let config = Config.scaled ~pop_size:12 ~generations:5 ~jobs:1 Config.default in
  let sequential =
    let data = Dataset.of_rows inputs in
    Search.run_multi ~seed:11 ~restarts:3 config ~data ~targets
  in
  List.iter
    (fun shards ->
      let data = Dataset.of_rows inputs in
      let sharded =
        Executor.with_executor ~shards Executor.Processes @@ fun executor ->
        Search.run_multi ~seed:11 ~executor ~restarts:3 config ~data ~targets
      in
      Alcotest.(check bool)
        (Printf.sprintf "front at %d shard(s) identical to sequential" shards)
        true
        (equal_fronts sequential.Search.front sharded.Search.front))
    [ 1; 2; 5 ]

let test_run_front_identical () =
  let inputs, targets = toy_problem 8 in
  let config = Config.scaled ~pop_size:12 ~generations:5 ~jobs:1 Config.default in
  let sequential =
    let data = Dataset.of_rows inputs in
    Search.run ~seed:29 config ~data ~targets
  in
  let data = Dataset.of_rows inputs in
  let sharded =
    Executor.with_executor Executor.Processes @@ fun executor ->
    Search.run ~seed:29 ~executor config ~data ~targets
  in
  Alcotest.(check bool) "single-island processes run identical to sequential" true
    (equal_fronts sequential.Search.front sharded.Search.front)

let test_trace_identical_across_shards () =
  let inputs, targets = toy_problem 6 in
  let config = Config.scaled ~pop_size:12 ~generations:5 ~jobs:1 Config.default in
  let capture executor =
    let data = Dataset.of_rows inputs in
    let sink = Trace.memory () in
    ignore (Search.run_multi ~seed:13 ?executor ~trace:sink ~restarts:3 config ~data ~targets);
    Trace.contents sink
  in
  let sequential = capture None in
  let with_shards shards =
    Executor.with_executor ~shards Executor.Processes @@ fun executor ->
    capture (Some executor)
  in
  let shard1 = with_shards 1 in
  let shard3 = with_shards 3 in
  let project records = List.filter_map Trace.deterministic records in
  let non_migration records =
    List.filter (function Trace.Migration _ -> false | _ -> true) records
  in
  Alcotest.(check bool) "minus migrations, the process trace is the sequential trace" true
    (compare (project (non_migration shard3)) (project sequential) = 0);
  Alcotest.(check bool) "shard 1 and shard 3 projections byte-identical" true
    (compare
       (List.map Trace.to_line (project shard1))
       (List.map Trace.to_line (project shard3))
    = 0);
  let migrations =
    List.filter_map (function Trace.Migration m -> Some m | _ -> None) shard3
  in
  Alcotest.(check (list int)) "one migration per island, in island order" [ 0; 1; 2 ]
    (List.map (fun (m : Trace.migration) -> m.Trace.island) migrations);
  List.iter
    (fun (m : Trace.migration) ->
      Alcotest.(check bool) "migration carries the front" true (m.Trace.models > 0);
      Alcotest.(check bool) "migration counts wire bytes" true (m.Trace.bytes > 0))
    migrations

let test_on_generation_replayed_in_island_order () =
  let inputs, targets = toy_problem 9 in
  let config = Config.scaled ~pop_size:12 ~generations:4 ~jobs:1 Config.default in
  let capture executor =
    let data = Dataset.of_rows inputs in
    let seen = ref [] in
    ignore
      (Search.run_multi ~seed:17 ?executor
         ~on_generation:(fun ~island record -> seen := (island, record.Trace.gen) :: !seen)
         ~restarts:3 config ~data ~targets);
    List.rev !seen
  in
  let sequential = capture None in
  let sharded =
    Executor.with_executor ~shards:3 Executor.Processes @@ fun executor ->
    capture (Some executor)
  in
  Alcotest.(check bool) "generation callbacks replay in sequential order" true
    (sequential = sharded)

let test_job_carries_config_and_streamed_data () =
  (* Every config field away from its default, and streamed data: a
     worker rebuilds both from its job, so a field lost on the way, or a
     word changed by the scratch store, moves the front. *)
  let inputs, targets = toy_problem 10 in
  let base = Config.scaled ~pop_size:12 ~generations:5 ~jobs:1 Config.default in
  let config =
    {
      base with
      Config.max_bases = 6;
      max_depth = 5;
      wb = 7.5;
      wvc = 0.4;
      opset =
        {
          Opset.no_trig with
          Opset.binops = Array.sub Opset.default.Opset.binops 0 2;
          allow_lte = false;
          max_exponent = 3;
          min_exponent = 1;
        };
      param_mutation_weight = 2.;
      crossover_probability = 0.7;
      max_vc_vars = 2;
    }
  in
  let sequential =
    Search.run_multi ~seed:21 ~restarts:2 config ~data:(Dataset.of_rows inputs) ~targets
  in
  let columns = Array.init 3 (fun v -> Array.map (fun row -> row.(v)) inputs) in
  let data = Dataset.chunked_of_columns ~chunk_rows:7 columns in
  let sharded =
    Executor.with_executor ~shards:2 Executor.Processes @@ fun executor ->
    Search.run_multi ~seed:21 ~executor ~restarts:2 config ~data ~targets
  in
  Alcotest.(check bool) "streamed process-backend front identical to sequential" true
    (equal_fronts sequential.Search.front sharded.Search.front)

exception Killed

let with_temp_file f =
  let path = Filename.temp_file "caffeine_shard" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_kill_resume_identical () =
  (* Kill the coordinator mid-run (island 1's generation stream), resume
     from the snapshot under the process backend: the final front must be
     the uninterrupted sequential run's, bit for bit. *)
  let inputs, targets = toy_problem 7 in
  let config = Config.scaled ~pop_size:10 ~generations:6 ~jobs:1 Config.default in
  let full =
    let data = Dataset.of_rows inputs in
    Search.run_multi ~seed:9 ~restarts:3 config ~data ~targets
  in
  with_temp_file @@ fun path ->
  let data = Dataset.of_rows inputs in
  (match
     Executor.with_executor ~shards:3 Executor.Processes (fun executor ->
         Search.run_multi ~seed:9 ~executor ~restarts:3
           ~on_generation:(fun ~island record ->
             if island = 1 && record.Trace.gen >= 4 then raise Killed)
           ~checkpoint_path:path ~checkpoint_every:2 config ~data ~targets)
   with
  | _ -> Alcotest.fail "expected the kill to escape Search.run_multi"
  | exception Killed -> ());
  let snapshot =
    match Checkpoint.load ~path with
    | Ok snapshot -> snapshot
    | Error message -> Alcotest.failf "load failed: %s" message
  in
  let data = Dataset.of_rows inputs in
  let resumed =
    Executor.with_executor ~shards:2 Executor.Processes @@ fun executor ->
    Search.run_multi ~seed:9 ~executor ~restarts:3 ~resume:snapshot ~checkpoint_path:path
      config ~data ~targets
  in
  Alcotest.(check bool) "resumed process-backend front identical to uninterrupted" true
    (equal_fronts full.Search.front resumed.Search.front);
  match Checkpoint.load ~path with
  | Ok { Checkpoint.phase = Checkpoint.Evolving islands; _ } ->
      Alcotest.(check bool) "final snapshot holds every island finished" true
        (Array.for_all (function Checkpoint.Done _ -> true | _ -> false) islands)
  | Ok _ -> Alcotest.fail "expected an evolving snapshot"
  | Error message -> Alcotest.failf "reload failed: %s" message

let suite =
  [
    Alcotest.test_case "shard: events in island order" `Quick test_events_delivered_in_island_order;
    Alcotest.test_case "shard: done islands pass through" `Quick test_done_islands_pass_through;
    Alcotest.test_case "shard: worker death raises cleanly" `Quick test_worker_death_raises_cleanly;
    Alcotest.test_case "shard: worker exception surfaces" `Quick test_worker_exception_surfaces;
    Alcotest.test_case "search: run_multi fronts identical" `Quick test_run_multi_fronts_identical;
    Alcotest.test_case "search: run front identical" `Quick test_run_front_identical;
    Alcotest.test_case "search: trace identical across shards" `Quick
      test_trace_identical_across_shards;
    Alcotest.test_case "search: on_generation island order" `Quick
      test_on_generation_replayed_in_island_order;
    Alcotest.test_case "search: kill/resume identical" `Quick test_kill_resume_identical;
    Alcotest.test_case "shard: job load failure surfaces" `Quick test_job_load_failure_surfaces;
    Alcotest.test_case "shard: unreached entry fails cleanly" `Quick
      test_unreached_entry_fails_cleanly;
    Alcotest.test_case "search: job carries config and streamed data" `Quick
      test_job_carries_config_and_streamed_data;
  ]
