(* Tests for the observability layer: the domain-safe metrics registry
   (counters, gauges, timers, fixed-bucket histograms) and the JSONL trace
   codec, including the jobs-invariant deterministic projection that CI
   diffs across --jobs settings. *)

module Metrics = Caffeine_obs.Metrics
module Trace = Caffeine_obs.Trace
module Pool = Caffeine_par.Pool
module Executor = Caffeine_par.Executor
module Rng = Caffeine_util.Rng
module Config = Caffeine.Config
module Search = Caffeine.Search
module Sag = Caffeine.Sag
module Dataset = Caffeine_io.Dataset

(* --- metrics registry --- *)

let test_counter_and_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  Alcotest.(check int) "fresh counter is zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.counter_value c);
  let c' = Metrics.counter reg "c" in
  Metrics.incr c';
  Alcotest.(check int) "re-registration returns the same handle" 43 (Metrics.counter_value c);
  let g = Metrics.gauge reg "g" in
  Alcotest.(check (float 0.)) "fresh gauge is zero" 0. (Metrics.gauge_value g);
  Metrics.set_gauge g 2.5;
  Metrics.set_gauge g (-1.5);
  Alcotest.(check (float 0.)) "last write wins" (-1.5) (Metrics.gauge_value g);
  (match Metrics.gauge reg "c" with
  | _ -> Alcotest.fail "kind mismatch should be rejected"
  | exception Invalid_argument _ -> ());
  (match Metrics.timer reg "g" with
  | _ -> Alcotest.fail "kind mismatch should be rejected"
  | exception Invalid_argument _ -> ())

let test_timer () =
  let reg = Metrics.create () in
  let t = Metrics.timer reg "t" in
  Metrics.record_span t ~start_ns:100L ~stop_ns:350L;
  Alcotest.(check int) "span count" 1 (Metrics.timer_count t);
  Alcotest.(check int) "span total" 250 (Metrics.timer_total_ns t);
  (* A backwards span (clock glitch) is clamped at zero, never negative. *)
  Metrics.record_span t ~start_ns:500L ~stop_ns:400L;
  Alcotest.(check int) "backwards span counted" 2 (Metrics.timer_count t);
  Alcotest.(check int) "backwards span clamped" 250 (Metrics.timer_total_ns t);
  Alcotest.(check int) "time returns the thunk's value" 7 (Metrics.time t (fun () -> 7));
  Alcotest.(check int) "time records a span" 3 (Metrics.timer_count t);
  (match Metrics.time t (fun () -> raise Exit) with
  | _ -> Alcotest.fail "expected Exit to escape"
  | exception Exit -> ());
  Alcotest.(check int) "span recorded even on exception" 4 (Metrics.timer_count t)

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 1.; 2.; 5. |] "h" in
  (* Buckets are upper-inclusive: the exact bound lands in its own bucket,
     the next float above it in the following one.  NaN and anything above
     the last bound go to the overflow bucket. *)
  List.iter (Metrics.observe h)
    [
      0.5;
      1.0;
      Float.neg_infinity;
      Float.succ 1.0;
      2.0;
      5.0;
      Float.succ 5.0;
      Float.nan;
      Float.infinity;
    ];
  Alcotest.(check (array int)) "bucket counts" [| 3; 2; 1; 3 |] (Metrics.bucket_counts h);
  Alcotest.(check (array (float 0.))) "bounds preserved" [| 1.; 2.; 5. |] (Metrics.bucket_bounds h);
  let h' = Metrics.histogram reg ~buckets:[| 1.; 2.; 5. |] "h" in
  Metrics.observe h' 0.;
  Alcotest.(check (array int)) "same bounds share counts" [| 4; 2; 1; 3 |]
    (Metrics.bucket_counts h);
  (match Metrics.histogram reg ~buckets:[| 1.; 2. |] "h" with
  | _ -> Alcotest.fail "different bounds should be rejected"
  | exception Invalid_argument _ -> ());
  (match Metrics.histogram reg ~buckets:[||] "empty" with
  | _ -> Alcotest.fail "empty bounds should be rejected"
  | exception Invalid_argument _ -> ());
  (match Metrics.histogram reg ~buckets:[| 2.; 2. |] "flat" with
  | _ -> Alcotest.fail "non-increasing bounds should be rejected"
  | exception Invalid_argument _ -> ())

let test_snapshot_and_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "z.counter" in
  let g = Metrics.gauge reg "a.gauge" in
  let t = Metrics.timer reg "m.timer" in
  Metrics.add c 5;
  Metrics.set_gauge g 1.25;
  Metrics.record_span t ~start_ns:0L ~stop_ns:1000L;
  let snap = Metrics.snapshot reg in
  Alcotest.(check (list string)) "sorted by name" [ "a.gauge"; "m.timer"; "z.counter" ]
    (List.map fst snap);
  (match List.assoc "z.counter" snap with
  | Metrics.Counter 5 -> ()
  | _ -> Alcotest.fail "counter snapshot value");
  (match List.assoc "m.timer" snap with
  | Metrics.Timer { count = 1; total_ns = 1000 } -> ()
  | _ -> Alcotest.fail "timer snapshot value");
  Alcotest.(check bool) "render mentions every metric" true
    (List.for_all
       (fun (name, _) ->
         let rendered = Metrics.render snap in
         let len = String.length name in
         let rec occurs i =
           i + len <= String.length rendered && (String.sub rendered i len = name || occurs (i + 1))
         in
         occurs 0)
       snap);
  (* A gauge holding a count keeps every digit; a ratio keeps %g. *)
  Metrics.set_gauge g 1329381.;
  let line = List.nth (String.split_on_char '\n' (Metrics.render (Metrics.snapshot reg))) 0 in
  Alcotest.(check string) "integral gauge in full" (Printf.sprintf "%-36s 1329381" "a.gauge") line;
  Metrics.set_gauge g 1.38763123;
  let line = List.nth (String.split_on_char '\n' (Metrics.render (Metrics.snapshot reg))) 0 in
  Alcotest.(check string) "fractional gauge as %g" (Printf.sprintf "%-36s 1.38763" "a.gauge") line;
  Metrics.reset reg;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "reset zeroes gauges" 0. (Metrics.gauge_value g);
  Alcotest.(check int) "reset keeps handles valid" 0 (Metrics.timer_count t);
  Metrics.incr c;
  Alcotest.(check int) "handles usable after reset" 1 (Metrics.counter_value c)

let test_concurrent_counters_exact () =
  (* The registry's core claim: increments from pool worker domains are
     atomic read-modify-write, so no count is ever lost to a race. *)
  let reg = Metrics.create () in
  let c = Metrics.counter reg "hits" in
  let h = Metrics.histogram reg ~buckets:[| 10.; 100. |] "obs" in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let n = 2000 in
  ignore
    (Pool.parallel_init pool n (fun i ->
         Metrics.incr c;
         Metrics.observe h (float_of_int (i mod 200));
         i));
  Alcotest.(check int) "exact count across domains" n (Metrics.counter_value c);
  Alcotest.(check int) "exact histogram total across domains" n
    (Array.fold_left ( + ) 0 (Metrics.bucket_counts h))

(* --- trace codec --- *)

let float_gen : float QCheck.Gen.t =
  QCheck.Gen.frequency
    [
      (6, QCheck.Gen.float);
      (2, QCheck.Gen.float_range (-1e6) 1e6);
      ( 1,
        QCheck.Gen.oneofl
          [
            Float.nan;
            Float.infinity;
            Float.neg_infinity;
            0.;
            -0.;
            Float.min_float;
            Float.max_float;
            4e-324;
          ] );
    ]

(* qcheck-1 generators are plain [Random.State.t -> 'a] functions, which
   keeps building a sum-of-records generator direct. *)
let record_gen : Trace.record QCheck.Gen.t =
 fun st ->
  let nat st =
    QCheck.Gen.frequency [ (8, QCheck.Gen.int_bound 1000); (1, QCheck.Gen.oneofl [ 0; 1; max_int ]) ] st
  in
  let text st =
    QCheck.Gen.frequency
      [
        (4, QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z') (QCheck.Gen.int_bound 12));
        (1, QCheck.Gen.oneofl [ ""; "with \"quotes\" and \\slash"; "line\nbreak\ttab" ]);
      ]
      st
  in
  match QCheck.Gen.int_bound 11 st with
  | 0 ->
      Trace.Run_start
        {
          Trace.seed = nat st;
          pop_size = nat st;
          generations = nat st;
          max_bases = nat st;
          samples = nat st;
          dims = nat st;
        }
  | 1 ->
      let ops = QCheck.Gen.int_bound 12 st in
      Trace.Generation
        {
          Trace.gen = nat st;
          evals = nat st;
          front_size = nat st;
          best_nmse = float_gen st;
          median_nmse = float_gen st;
          complexity_min = float_gen st;
          complexity_median = float_gen st;
          complexity_max = float_gen st;
          crossovers = nat st;
          op_counts = Array.init ops (fun _ -> nat st);
          depth_rejects = nat st;
          wall_s = float_gen st;
        }
  | 2 ->
      Trace.Sag_round
        {
          Trace.model_index = nat st;
          round = nat st;
          chosen = nat st;
          press_before = float_gen st;
          press_after = float_gen st;
        }
  | 3 -> Trace.Sag_model { Trace.model_index = nat st; bases_before = nat st; bases_after = nat st }
  | 4 ->
      Trace.Cache_stats
        {
          Trace.columns_cached = nat st;
          column_hits = nat st;
          column_misses = nat st;
          column_evictions = nat st;
          dots_cached = nat st;
          dot_hits = nat st;
          dot_misses = nat st;
          dot_evictions = nat st;
        }
  | 5 ->
      let k = QCheck.Gen.int_bound 6 st in
      Trace.Run_end
        { Trace.front = List.init k (fun _ -> (float_gen st, float_gen st)); total_wall_s = float_gen st }
  | 6 ->
      Trace.Checkpoint_written
        {
          Trace.path = text st;
          phase = QCheck.Gen.oneofl [ "evolving"; "simplifying" ] st;
          island = nat st - 1;
          gen = nat st - 1;
        }
  | 7 ->
      Trace.Run_resumed
        {
          Trace.phase = QCheck.Gen.oneofl [ "evolving"; "simplifying" ] st;
          island = nat st - 1;
          gen = nat st - 1;
        }
  | 8 ->
      Trace.Migration { Trace.island = nat st; shard = nat st; models = nat st; bytes = nat st }
  | 9 ->
      let ops = QCheck.Gen.int_bound 12 st in
      Trace.Op_stats
        {
          Trace.gen = nat st;
          applied = Array.init ops (fun _ -> nat st);
          changed = Array.init ops (fun _ -> nat st);
        }
  | 10 ->
      Trace.Eval_cache_stats
        { Trace.eval_hits = nat st; eval_misses = nat st; eval_evictions = nat st }
  | _ -> Trace.Warning { Trace.context = text st; message = text st }

let record_arbitrary = QCheck.make ~print:Trace.to_line record_gen

(* Structural equality through [compare]: polymorphic [=] is false on any
   record containing NaN, which the codec must nevertheless round-trip. *)
let record_equal a b = compare a b = 0

let roundtrip_test =
  QCheck.Test.make ~name:"every record round-trips through the JSONL codec" ~count:500
    record_arbitrary (fun r ->
      match Trace.of_line (Trace.to_line r) with
      | Ok r' -> record_equal r r'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let single_line_test =
  QCheck.Test.make ~name:"encoded records are single JSONL lines" ~count:200 record_arbitrary
    (fun r -> not (String.contains (Trace.to_line r) '\n'))

let deterministic_projection_test =
  QCheck.Test.make ~name:"deterministic projection is idempotent and round-trips" ~count:300
    record_arbitrary (fun r ->
      match Trace.deterministic r with
      | None -> (
          match r with Trace.Cache_stats _ | Trace.Eval_cache_stats _ -> true | _ -> false)
      | Some d -> (
          (match r with Trace.Cache_stats _ | Trace.Eval_cache_stats _ -> false | _ -> true)
          && (match Trace.deterministic d with
             | Some d' -> record_equal d d'
             | None -> false)
          &&
          match Trace.of_line (Trace.to_line d) with
          | Ok d' -> record_equal d d'
          | Error _ -> false))

let test_deterministic_zeroes_wall () =
  let g =
    Trace.Generation
      {
        Trace.gen = 3;
        evals = 60;
        front_size = 9;
        best_nmse = 0.05;
        median_nmse = 0.2;
        complexity_min = 1.;
        complexity_median = 4.;
        complexity_max = 11.;
        crossovers = 17;
        op_counts = [| 1; 2; 3 |];
        depth_rejects = 2;
        wall_s = 0.123;
      }
  in
  (match Trace.deterministic g with
  | Some (Trace.Generation p) ->
      Alcotest.(check (float 0.)) "wall_s zeroed" 0. p.Trace.wall_s;
      Alcotest.(check int) "count fields kept" 17 p.Trace.crossovers
  | _ -> Alcotest.fail "generation should project to a generation");
  match Trace.deterministic (Trace.Run_end { Trace.front = [ (3., 0.1) ]; total_wall_s = 9. }) with
  | Some (Trace.Run_end p) ->
      Alcotest.(check (float 0.)) "total_wall_s zeroed" 0. p.Trace.total_wall_s;
      Alcotest.(check int) "front kept" 1 (List.length p.Trace.front)
  | _ -> Alcotest.fail "run_end should project to a run_end"

(* Generation lines written before the behavioral cache level was removed
   carry a "behavioral_diversity" field (-1 outside that mode).  They must
   still decode, and project to the line the current writer gives. *)
let test_older_generation_line_decodes () =
  let current =
    {|{"type":"generation","gen":1,"evals":8,"front_size":3,"best_nmse":0.28151096680412818,|}
    ^ {|"median_nmse":"NaN","complexity_min":34,"complexity_median":75.5,"complexity_max":96.5,|}
    ^ {|"crossovers":2,"op_counts":[4,0,0,1,0,0,1,0,2],"depth_rejects":0,|}
  in
  let older = current ^ {|"behavioral_diversity":-1,"wall_s":0.0030387320000000002}|} in
  let current = current ^ {|"wall_s":0.0030387320000000002}|} in
  let projected line =
    match Trace.of_line line with
    | Ok record -> (
        match Trace.deterministic record with
        | Some p -> Trace.to_line p
        | None -> Alcotest.fail "generation should survive the projection")
    | Error message -> Alcotest.failf "line rejected: %s" message
  in
  (match Trace.of_line current with
  | Ok record -> Alcotest.(check string) "current line round-trips" current (Trace.to_line record)
  | Error message -> Alcotest.failf "line rejected: %s" message);
  Alcotest.(check string) "same projection" (projected current) (projected older)

let test_deterministic_keeps_checkpoint_records () =
  (* Checkpointed runs serialize their islands, so these records arrive in
     the same order at every jobs setting — the projection must keep them
     verbatim for the CI cross-jobs diff to cover them. *)
  let records =
    [
      Trace.Checkpoint_written { Trace.path = "run.ckpt"; phase = "evolving"; island = 2; gen = 40 };
      Trace.Run_resumed { Trace.phase = "simplifying"; island = -1; gen = 3 };
      Trace.Warning { Trace.context = "sag.test_tradeoff"; message = "fallback" };
    ]
  in
  List.iter
    (fun r ->
      match Trace.deterministic r with
      | Some r' -> Alcotest.(check bool) "kept verbatim" true (record_equal r r')
      | None -> Alcotest.fail "checkpoint/resume/warning records must survive the projection")
    records

let test_migration_codec_and_projection () =
  let m = Trace.Migration { Trace.island = 3; shard = 2; models = 7; bytes = 4096 } in
  (match Trace.of_line (Trace.to_line m) with
  | Ok m' -> Alcotest.(check bool) "migration round-trips" true (record_equal m m')
  | Error e -> Alcotest.fail e);
  (* Which worker served an island depends on --shard, so the projection
     zeroes the shard field; the rest — which island, how many models, the
     wire size of the front — is shard-invariant and must survive for the
     cross-shard CI diff. *)
  match Trace.deterministic m with
  | Some (Trace.Migration p) ->
      Alcotest.(check int) "shard zeroed" 0 p.Trace.shard;
      Alcotest.(check int) "island kept" 3 p.Trace.island;
      Alcotest.(check int) "models kept" 7 p.Trace.models;
      Alcotest.(check int) "bytes kept" 4096 p.Trace.bytes
  | _ -> Alcotest.fail "migration should project to a migration"

let test_fn_sink () =
  let seen = ref [] in
  let sink = Trace.of_fn (fun r -> seen := r :: !seen) in
  Alcotest.(check bool) "fn sink is live" false (Trace.is_null sink);
  let records =
    [
      Trace.Migration { Trace.island = 0; shard = 1; models = 2; bytes = 64 };
      Trace.Warning { Trace.context = "t"; message = "m" };
    ]
  in
  List.iter (Trace.emit sink) records;
  Alcotest.(check bool) "fn sink sees every record in order" true
    (record_equal records (List.rev !seen));
  Alcotest.(check int) "fn sink retains nothing itself" 0 (List.length (Trace.contents sink))

let test_of_line_rejects_garbage () =
  let rejected line =
    match Trace.of_line line with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not json" true (rejected "not json at all");
  Alcotest.(check bool) "unknown type" true (rejected {|{"type":"bogus"}|});
  Alcotest.(check bool) "missing fields" true (rejected {|{"type":"sag_model","model_index":1}|});
  Alcotest.(check bool) "no type tag" true (rejected {|{"gen":1}|});
  Alcotest.(check bool) "truncated" true (rejected {|{"type":"run_end","front":[[1.0,|})

let test_sinks () =
  Alcotest.(check bool) "null is null" true (Trace.is_null Trace.null);
  Trace.emit Trace.null (Trace.Sag_model { Trace.model_index = 0; bases_before = 3; bases_after = 2 });
  Alcotest.(check int) "null collects nothing" 0 (List.length (Trace.contents Trace.null));
  let sink = Trace.memory () in
  Alcotest.(check bool) "memory sink is live" false (Trace.is_null sink);
  let records =
    [
      Trace.Sag_model { Trace.model_index = 0; bases_before = 3; bases_after = 2 };
      Trace.Sag_round
        { Trace.model_index = 0; round = 0; chosen = 4; press_before = 2.0; press_after = 1.5 };
      Trace.Run_end { Trace.front = [ (1., 0.5) ]; total_wall_s = 0.1 };
    ]
  in
  List.iter (Trace.emit sink) records;
  Alcotest.(check bool) "memory preserves emission order" true
    (record_equal records (Trace.contents sink))

let test_channel_sink () =
  let path = Filename.temp_file "caffeine_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let records =
        [
          Trace.Run_start
            { Trace.seed = 9; pop_size = 20; generations = 5; max_bases = 13; samples = 40; dims = 3 };
          Trace.Run_end { Trace.front = [ (2., 0.25); (5., 0.1) ]; total_wall_s = 1.5 };
        ]
      in
      let oc = open_out path in
      let sink = Trace.of_channel oc in
      List.iter (Trace.emit sink) records;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let decoded =
        List.rev_map (fun line -> Result.get_ok (Trace.of_line line)) !lines
      in
      Alcotest.(check bool) "channel sink writes decodable JSONL" true
        (record_equal records decoded))

(* --- trace determinism under the parallel contract --- *)

let toy_problem seed =
  let rng = Rng.create ~seed () in
  let inputs = Array.init 40 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.)) in
  let targets =
    Array.map (fun x -> (x.(0) *. x.(0)) +. (1. /. x.(1)) +. (0.3 *. x.(2))) inputs
  in
  (inputs, targets)

let test_trace_jobs_invariant () =
  let inputs, targets = toy_problem 31 in
  let config = Config.scaled ~pop_size:14 ~generations:6 ~jobs:1 Config.default in
  let capture use_pool =
    let data = Dataset.of_rows inputs in
    let sink = Trace.memory () in
    let run executor =
      let outcome = Search.run ~seed:21 ~executor ~trace:sink config ~data ~targets in
      ignore
        (Sag.process_front ~executor ~trace:sink ~wb:config.Config.wb ~wvc:config.Config.wvc
           outcome.Search.front ~data ~targets)
    in
    if use_pool then Executor.with_executor ~jobs:4 Executor.Domains run
    else run Executor.sequential;
    Trace.contents sink
  in
  let sequential = capture false in
  let parallel = capture true in
  let project records = List.filter_map Trace.deterministic records in
  Alcotest.(check bool) "deterministic projections identical across jobs" true
    (record_equal (project sequential) (project parallel));
  (match sequential with
  | Trace.Run_start s :: _ -> Alcotest.(check int) "run_start carries the seed" 21 s.Trace.seed
  | _ -> Alcotest.fail "first record is not run_start");
  let generations =
    List.length
      (List.filter (function Trace.Generation _ -> true | _ -> false) sequential)
  in
  Alcotest.(check int) "one generation record per generation plus init" 7 generations;
  Alcotest.(check int) "exactly one run_end" 1
    (List.length (List.filter (function Trace.Run_end _ -> true | _ -> false) sequential))

(* --- pool exception path feeds the abandoned-tasks counter --- *)

exception Boom

let test_pool_abandoned_counter () =
  let c = Metrics.counter Metrics.default "pool.tasks_abandoned" in
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let before = Metrics.counter_value c in
      let n = 64 in
      (match
         Pool.parallel_map pool (fun i -> if i = 13 then raise Boom else i) (Array.init n Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom to escape parallel_map"
      | exception Boom -> ());
      let delta = Metrics.counter_value c - before in
      if Pool.jobs pool > 1 then begin
        (* The failing task itself never completes, so at least one task is
           always abandoned; at most the whole batch is. *)
        Alcotest.(check bool) "at least the failing task abandoned" true (delta >= 1);
        Alcotest.(check bool) "no more than the batch abandoned" true (delta <= n)
      end
      else
        (* Single-core host: the batch stays on the sequential path, which
           abandons nothing; CI's multi-core matrix exercises the real one. *)
        Alcotest.(check int) "sequential path leaves the counter alone" 0 delta)

let suite =
  [
    Alcotest.test_case "metrics: counter and gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "metrics: timer" `Quick test_timer;
    Alcotest.test_case "metrics: histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "metrics: snapshot and reset" `Quick test_snapshot_and_reset;
    Alcotest.test_case "metrics: concurrent counts exact" `Quick test_concurrent_counters_exact;
    Alcotest.test_case "trace: deterministic zeroes wall" `Quick test_deterministic_zeroes_wall;
    Alcotest.test_case "trace: of_line rejects garbage" `Quick test_of_line_rejects_garbage;
    Alcotest.test_case "trace: older generation lines still decode" `Quick
      test_older_generation_line_decodes;
    Alcotest.test_case "trace: projection keeps checkpoint records" `Quick
      test_deterministic_keeps_checkpoint_records;
    Alcotest.test_case "trace: sinks" `Quick test_sinks;
    Alcotest.test_case "trace: fn sink" `Quick test_fn_sink;
    Alcotest.test_case "trace: migration codec and projection" `Quick
      test_migration_codec_and_projection;
    Alcotest.test_case "trace: channel sink" `Quick test_channel_sink;
    Alcotest.test_case "trace: jobs-invariant projection" `Quick test_trace_jobs_invariant;
    Alcotest.test_case "pool: abandoned tasks counted" `Quick test_pool_abandoned_counter;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ roundtrip_test; single_line_test; deterministic_projection_test ]

(* --- Float_text: exact %.17g ----------------------------------------------- *)

module Float_text = Caffeine_obs.Float_text

let printf_g17 v = Printf.sprintf "%.17g" v
let power_of_ten j = float_of_string (Printf.sprintf "1e%d" j)
let ulps_from v d = Int64.float_of_bits (Int64.add (Int64.bits_of_float v) (Int64.of_int d))

(* Exact ties at 17 digits: m·2^-j with m odd and m·5^j of 18 digits ends
   in 5, so the dropped digit is exactly half. *)
let tie_gen =
  let open QCheck.Gen in
  let rec pow5 j = if j = 0 then 1 else 5 * pow5 (j - 1) in
  int_range 2 25 >>= fun j ->
  let p = pow5 j in
  let lo = (100_000_000_000_000_000 + p - 1) / p
  and hi = min ((1_000_000_000_000_000_000 - 1) / p) ((1 lsl 53) - 1) in
  map
    (fun m -> Float.ldexp (float_of_int (if m land 1 = 1 then m else m - 1)) (-j))
    (int_range (lo + 1) hi)

let g17_gen =
  let open QCheck.Gen in
  let signed g = map2 (fun v negative -> if negative then -.v else v) g bool in
  frequency
    [
      (* Both signs, NaN and subnormals; zeros and infinities explicitly. *)
      (3, map Int64.float_of_bits int64);
      (1, signed (oneofl [ 0.; Float.infinity; Float.nan; Float.min_float; 4.9e-324 ]));
      (3, signed (map (fun e -> 10. ** e) (float_range (-10.) 17.)));
      ( 2,
        signed
          (map2 ulps_from
             (map power_of_ten (int_range (-12) 18))
             (int_range (-2000) 2000)) );
      (1, signed (map2 ulps_from (oneofl [ 1e-10; 1e17 ]) (int_range (-2000) 2000)));
      (2, signed tie_gen);
    ]

let g17_test =
  QCheck.Test.make ~name:"Float_text.g17 is Printf %.17g" ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%h") g17_gen)
    (fun v -> Float_text.g17 v = printf_g17 v)

let test_g17_ties_to_even () =
  List.iter
    (fun (v, expected) ->
      Alcotest.(check string) expected expected (Float_text.g17 v);
      Alcotest.(check string) ("printf " ^ expected) expected (printf_g17 v))
    [
      (1000000000000000.25, "1000000000000000.2");
      (1000000000000000.75, "1000000000000000.8");
      (-1000000000000000.25, "-1000000000000000.2");
    ]

(* Every ulp within 2000 of each power of ten 1e-12 .. 1e18, where the
   decimal exponent estimate and its correction are decided. *)
let test_g17_near_powers_of_ten () =
  for j = -12 to 18 do
    for d = -2000 to 2000 do
      let v = ulps_from (power_of_ten j) d in
      List.iter
        (fun v ->
          let ours = Float_text.g17 v in
          if ours <> printf_g17 v then
            Alcotest.failf "%h: g17 %s, printf %s" v ours (printf_g17 v))
        [ v; -.v ]
    done
  done

(* Two domains encoding the same array at once must each write the bytes
   of a sequential pass: any scratch shared between calls would mix them. *)
let test_g17_concurrent_domains () =
  let rng = Random.State.make [| 14 |] in
  let values =
    Array.init 100_000 (fun i ->
        if i mod 10 = 0 then Int64.float_of_bits (Random.State.int64 rng Int64.max_int)
        else (10. ** Random.State.float rng 8.) *. if Random.State.bool rng then 1. else -1.)
  in
  let encode () =
    let buffer = Buffer.create (25 * Array.length values) in
    Array.iter
      (fun v ->
        Float_text.add_g17 buffer v;
        Buffer.add_char buffer ',')
      values;
    Buffer.contents buffer
  in
  let sequential = encode () in
  let domains = List.init 2 (fun _ -> Domain.spawn encode) in
  List.iteri
    (fun i domain ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d matches the sequential pass" i)
        true
        (String.equal sequential (Domain.join domain)))
    domains

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest ~long:false g17_test;
      Alcotest.test_case "float_text: ties round half to even" `Quick test_g17_ties_to_even;
      Alcotest.test_case "float_text: ulps near powers of ten" `Quick test_g17_near_powers_of_ten;
      Alcotest.test_case "float_text: concurrent domains" `Quick test_g17_concurrent_domains;
    ]
