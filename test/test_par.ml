(* Tests for the domain pool, the executor seam and the determinism
   contract of the parallel search paths: for a fixed seed, every entry
   point must produce results bit-identical to its sequential
   counterpart, whatever the backend or worker count. *)

module Pool = Caffeine_par.Pool
module Executor = Caffeine_par.Executor
module Memo = Caffeine_par.Memo
module Metrics = Caffeine_obs.Metrics
module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset
module Linfit = Caffeine_regress.Linfit
module Config = Caffeine.Config
module Model = Caffeine.Model
module Search = Caffeine.Search
module Sag = Caffeine.Sag

(* --- pool mechanics --- *)

let test_map_matches_sequential () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> i) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        (Printf.sprintf "map of %d elements" n)
        (Array.map f input) (Pool.parallel_map pool f input))
    [ 0; 1; 2; 3; 7; 64; 1000 ]

let test_init_matches_sequential () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let f i = float_of_int i *. 1.5 in
  Alcotest.(check (array (float 0.))) "init 100" (Array.init 100 f) (Pool.parallel_init pool 100 f);
  Alcotest.(check (array (float 0.))) "init 0" [||] (Pool.parallel_init pool 0 f)

let test_pool_reuse () =
  (* One pool across many batches — the whole point of keeping domains
     alive between generations. *)
  Pool.with_pool ~jobs:4 @@ fun pool ->
  for round = 1 to 50 do
    let expected = Array.init 37 (fun i -> i * round) in
    let got = Pool.parallel_map pool (fun i -> i * round) (Array.init 37 Fun.id) in
    Alcotest.(check (array int)) (Printf.sprintf "round %d" round) expected got
  done

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  (match Pool.parallel_map pool (fun i -> if i = 13 then raise (Boom i) else i) (Array.init 64 Fun.id) with
  | _ -> Alcotest.fail "expected Boom to escape parallel_map"
  | exception Boom 13 -> ());
  (* The pool survives a failed batch. *)
  Alcotest.(check (array int)) "usable after failure" (Array.init 8 succ)
    (Pool.parallel_map pool succ (Array.init 8 Fun.id))

let test_nested_map_degrades () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let inner i = Pool.parallel_map pool (fun j -> (10 * i) + j) (Array.init 5 Fun.id) in
  let got = Pool.parallel_map pool inner (Array.init 6 Fun.id) in
  let expected = Array.init 6 (fun i -> Array.init 5 (fun j -> (10 * i) + j)) in
  Alcotest.(check bool) "nested results correct" true (got = expected)

let test_sequential_pool () =
  let pool = Pool.create ~jobs:1 () in
  Alcotest.(check int) "jobs clamp" 1 (Pool.jobs pool);
  Alcotest.(check (array int)) "sequential map" [| 2; 3; 4 |]
    (Pool.parallel_map pool succ [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_shutdown_degrades () =
  let pool = Pool.create ~jobs:4 () in
  Pool.shutdown pool;
  Alcotest.(check (array int)) "map after shutdown" [| 1; 2 |]
    (Pool.parallel_map pool succ [| 0; 1 |])

let test_with_optional_pool () =
  Pool.with_optional_pool ~jobs:1 (fun pool ->
      Alcotest.(check bool) "jobs 1 creates no pool" true (pool = None));
  let cores = Domain.recommended_domain_count () in
  Pool.with_optional_pool ~jobs:2 (fun pool ->
      match pool with
      | None ->
          (* On a single-core host every request clamps to sequential. *)
          Alcotest.(check bool) "no pool only when the host has one core" true (cores <= 1)
      | Some p -> Alcotest.(check int) "pool size" (Stdlib.min 2 cores) (Pool.jobs p))

let test_jobs_clamped_to_cores () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "auto detects cores" cores (Pool.effective_jobs 0);
  Alcotest.(check int) "negative means auto" cores (Pool.effective_jobs (-3));
  Alcotest.(check int) "requests never exceed cores" cores (Pool.effective_jobs (cores + 7));
  Alcotest.(check int) "small requests honored" 1 (Pool.effective_jobs 1);
  (* A pool never spawns more domains than the machine has cores. *)
  let pool = Pool.create ~jobs:(cores + 16) () in
  Alcotest.(check int) "pool size clamped" cores (Pool.jobs pool);
  Pool.shutdown pool;
  let auto = Pool.create ~jobs:0 () in
  Alcotest.(check int) "jobs 0 is auto" (Pool.effective_jobs 0) (Pool.jobs auto);
  Pool.shutdown auto

(* --- env-driven job selection --- *)

let string_contains ~affix s =
  let n = String.length affix and len = String.length s in
  let rec scan i = i + n <= len && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0

let with_env_jobs value f =
  (* [Unix.putenv] cannot unset, so restore to the core count: for the
     auto paths below that is indistinguishable from an unset variable. *)
  let restore = string_of_int (Domain.recommended_domain_count ()) in
  Fun.protect ~finally:(fun () -> Unix.putenv "CAFFEINE_JOBS" restore) (fun () ->
      Unix.putenv "CAFFEINE_JOBS" value;
      f ())

let test_invalid_env_jobs_warns () =
  let cores = Domain.recommended_domain_count () in
  let invalid = Metrics.counter Metrics.default "pool.env_jobs_invalid" in
  ignore (Pool.take_env_warning ());
  List.iter
    (fun value ->
      with_env_jobs value @@ fun () ->
      let before = Metrics.counter_value invalid in
      Alcotest.(check int)
        (Printf.sprintf "%S falls back to all cores" value)
        cores (Pool.effective_jobs 0);
      Alcotest.(check int)
        (Printf.sprintf "%S bumps pool.env_jobs_invalid" value)
        (before + 1) (Metrics.counter_value invalid);
      (match Pool.take_env_warning () with
      | None -> Alcotest.fail (Printf.sprintf "%S left no warning to take" value)
      | Some message ->
          Alcotest.(check bool)
            (Printf.sprintf "%S quoted in the warning" value)
            true
            (string_contains ~affix:(Printf.sprintf "%S" value) message));
      Alcotest.(check bool)
        "warning taken exactly once" true
        (Pool.take_env_warning () = None);
      (* Deduplicated per value: a second clamp of the same setting stays
         silent. *)
      let before = Metrics.counter_value invalid in
      Alcotest.(check int) "same value again" cores (Pool.effective_jobs 0);
      Alcotest.(check int) "no second bump" before (Metrics.counter_value invalid);
      Alcotest.(check bool) "no second warning" true (Pool.take_env_warning () = None))
    [ "abc"; "-2" ];
  (* A valid setting is honored without any warning. *)
  with_env_jobs "1" @@ fun () ->
  Alcotest.(check int) "valid value honored" 1 (Pool.effective_jobs 0);
  Alcotest.(check bool) "no warning for valid value" true (Pool.take_env_warning () = None)

(* --- executor seam --- *)

let test_backend_names () =
  List.iter
    (fun backend ->
      match Executor.backend_of_string (Executor.backend_name backend) with
      | Ok roundtripped ->
          Alcotest.(check bool)
            (Executor.backend_name backend ^ " round-trips")
            true (backend = roundtripped)
      | Error msg -> Alcotest.fail msg)
    [ Executor.Seq; Executor.Domains; Executor.Processes ];
  match Executor.backend_of_string "threads" with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error msg -> Alcotest.(check bool) "error lists spellings" true (msg <> "")

let test_executor_map_all_backends () =
  let input = Array.init 200 Fun.id in
  let expected = Array.map succ input in
  Alcotest.(check (array int)) "seq map" expected (Executor.map Executor.sequential succ input);
  Alcotest.(check (array int)) "seq init" input (Executor.init Executor.sequential 200 Fun.id);
  Executor.with_executor ~jobs:4 Executor.Domains (fun executor ->
      Alcotest.(check (array int)) "domains map" expected (Executor.map executor succ input));
  (* A Processes executor maps sequentially on the calling side: its
     parallelism lives at the island level, not in [map]. *)
  Executor.with_executor ~shards:4 Executor.Processes (fun executor ->
      Alcotest.(check bool) "processes carries shard count" true (Executor.shards executor >= 1);
      Alcotest.(check bool) "processes owns no pool" true (Executor.pool executor = None);
      Alcotest.(check (array int)) "processes map" expected (Executor.map executor succ input))

let test_executor_nested_falls_back () =
  Executor.with_executor ~jobs:4 Executor.Domains @@ fun executor ->
  let inner i = Executor.map executor (fun j -> (10 * i) + j) (Array.init 5 Fun.id) in
  let got = Executor.map executor inner (Array.init 6 Fun.id) in
  let expected = Array.init 6 (fun i -> Array.init 5 (fun j -> (10 * i) + j)) in
  Alcotest.(check bool) "nested executor maps degrade sequentially" true (got = expected)

let test_executor_of_pool_borrows () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let executor = Executor.of_pool pool in
  Alcotest.(check bool) "borrowed executor is Domains" true
    (Executor.backend executor = Executor.Domains);
  Alcotest.(check (array int)) "borrowed map" [| 1; 2; 3 |]
    (Executor.map executor succ [| 0; 1; 2 |]);
  Executor.shutdown executor;
  (* Shutdown of a borrowed pool is a no-op: the owner keeps using it. *)
  Alcotest.(check (array int)) "pool survives borrowed shutdown" [| 1 |]
    (Pool.parallel_map pool succ [| 0 |])

(* --- dataset cache under the parallel contract --- *)

let square_basis k = Expr.{ vc = Some [| k |]; factors = [] }

let test_dataset_clear_cache () =
  let data = Dataset.of_rows [| [| 2. |]; [| 3. |] |] in
  ignore (Dataset.basis_column data (square_basis 2));
  ignore (Dataset.basis_column data (square_basis 3));
  Alcotest.(check int) "two cached" 2 (Dataset.cached_columns data);
  Dataset.clear_cache data;
  Alcotest.(check int) "cleared" 0 (Dataset.cached_columns data);
  Alcotest.(check bool) "recomputes after clear" true
    (Dataset.basis_column data (square_basis 2) = [| 4.; 9. |])

let test_dataset_concurrent_reads () =
  let rows = Array.init 64 (fun i -> [| 1.0 +. (float_of_int i /. 10.) |]) in
  let data = Dataset.of_rows rows in
  let expected = Array.init 6 (fun k -> Dataset.basis_column data (square_basis (k + 1))) in
  Dataset.clear_cache data;
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let got =
    Pool.parallel_init pool 48 (fun i -> Dataset.basis_column data (square_basis ((i mod 6) + 1)))
  in
  Array.iteri
    (fun i col ->
      Alcotest.(check bool) (Printf.sprintf "column %d" i) true (col = expected.(i mod 6)))
    got

(* --- the bounded memo behind every cache --- *)

module Int_memo = Memo.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let value_of k = (k * 3) + 1

(* Look a key up and add it on a miss, the way every cache uses a memo. *)
let memoized memo k =
  match Int_memo.find memo k with
  | Some v -> v
  | None ->
      ignore (Int_memo.add memo k (value_of k) : int);
      value_of k

let test_memo_entries_bounded () =
  let memo = Int_memo.create ~limit:16 in
  for k = 1 to 200 do
    if memoized memo (k mod 7) <> value_of (k mod 7) then Alcotest.failf "key %d" (k mod 7);
    if (Int_memo.stats memo).Memo.entries > 16 then Alcotest.failf "over the limit at add %d" k
  done;
  for k = 1 to 200 do
    ignore (Int_memo.add memo k (value_of k) : int);
    if (Int_memo.stats memo).Memo.entries > 16 then Alcotest.failf "over the limit at key %d" k
  done;
  (* Values survive eviction churn: always recomputed or cached, same answer. *)
  Alcotest.(check int) "value unchanged" (value_of 2) (memoized memo 2)

let test_memo_eviction_accounting () =
  let memo = Int_memo.create ~limit:32 in
  let dropped = ref 0 in
  for k = 1 to 200 do
    dropped := !dropped + Int_memo.add memo k (value_of k)
  done;
  let s = Int_memo.stats memo in
  Alcotest.(check bool) "entries bounded by the limit" true (s.Memo.entries <= 32);
  Alcotest.(check bool) "evictions counted" true (s.Memo.evictions > 0);
  Alcotest.(check int) "adds report the evictions" s.Memo.evictions !dropped;
  Alcotest.(check int) "stores + survivors = 200" 200 (s.Memo.evictions + s.Memo.entries)

let test_memo_first_value_wins () =
  let memo = Int_memo.create ~limit:64 in
  ignore (Int_memo.add memo 5 10 : int);
  ignore (Int_memo.add memo 5 20 : int);
  Alcotest.(check (option int)) "first stored value" (Some 10) (Int_memo.find memo 5);
  Alcotest.(check int) "one entry" 1 (Int_memo.stats memo).Memo.entries

let test_memo_counters () =
  let memo = Int_memo.create ~limit:64 in
  ignore (Int_memo.find memo 1 : int option);
  Alcotest.(check bool) "mem of an absent key" false (Int_memo.mem memo 2);
  ignore (Int_memo.add memo 1 1 : int);
  ignore (Int_memo.find memo 1 : int option);
  Alcotest.(check bool) "mem of a held key" true (Int_memo.mem memo 1);
  let s = Int_memo.stats memo in
  (* [mem] counts a miss for an absent key and no hit for a held one. *)
  Alcotest.(check int) "hits" 1 s.Memo.hits;
  Alcotest.(check int) "misses" 2 s.Memo.misses;
  Int_memo.clear memo;
  let cleared = Int_memo.stats memo in
  Alcotest.(check int) "clear drops the entries" 0 cleared.Memo.entries;
  Alcotest.(check bool) "clear keeps the counters" true
    (cleared = { s with Memo.entries = 0 });
  Alcotest.(check (option int)) "cleared key misses" None (Int_memo.find memo 1)

let test_memo_limit_validation () =
  List.iter
    (fun limit ->
      match Int_memo.create ~limit with
      | (_ : int Int_memo.t) -> Alcotest.failf "limit %d accepted" limit
      | exception Invalid_argument _ -> ())
    [ 0; -1; Memo.shard_count - 1 ];
  ignore (Int_memo.create ~limit:Memo.shard_count : int Int_memo.t)

let memo_properties =
  [
    QCheck.Test.make ~name:"memo: 4 domains share one 64-entry memo" ~count:20
      QCheck.(pair small_nat (int_range 1 300))
      (fun (seed, keys) ->
        let memo = Int_memo.create ~limit:64 in
        let finds = Atomic.make 0 and wrong = Atomic.make 0 in
        let hammer d () =
          let rng = Rng.create ~seed:((seed * 4) + d) () in
          for _ = 1 to 2000 do
            let k = Rng.int rng keys in
            if Rng.int rng 2 = 0 then ignore (Int_memo.add memo k (value_of k) : int)
            else begin
              Atomic.incr finds;
              match Int_memo.find memo k with
              | Some v when v <> value_of k -> Atomic.incr wrong
              | Some _ | None -> ()
            end
          done
        in
        List.iter Domain.join (List.init 4 (fun d -> Domain.spawn (hammer d)));
        let s = Int_memo.stats memo in
        Atomic.get wrong = 0
        && s.Memo.hits + s.Memo.misses = Atomic.get finds
        && s.Memo.entries <= 64);
  ]

(* --- determinism: parallel == sequential, bit for bit --- *)

let front_signature var_names front =
  List.map
    (fun (m : Model.t) ->
      ( m.Model.train_error,
        m.Model.complexity,
        m.Model.intercept,
        Array.to_list m.Model.weights,
        Model.to_string ~var_names m ))
    front

let toy_problem seed =
  let rng = Rng.create ~seed () in
  let inputs = Array.init 40 (fun _ -> Array.init 3 (fun _ -> Rng.range rng 0.5 2.)) in
  let targets =
    Array.map (fun x -> (x.(0) *. x.(0)) +. (1. /. x.(1)) +. (0.3 *. x.(2))) inputs
  in
  (inputs, targets)

let test_run_deterministic () =
  let inputs, targets = toy_problem 5 in
  let config = Config.scaled ~pop_size:16 ~generations:8 ~jobs:1 Config.default in
  List.iter
    (fun seed ->
      let sequential =
        let data = Dataset.of_rows inputs in
        Search.run ~seed config ~data ~targets
      in
      let parallel =
        let data = Dataset.of_rows inputs in
        Executor.with_executor ~jobs:4 Executor.Domains @@ fun executor ->
        Search.run ~seed ~executor config ~data ~targets
      in
      let names = Dataset.var_names (Dataset.of_rows inputs) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: identical fronts" seed)
        true
        (front_signature names sequential.Search.front
        = front_signature names parallel.Search.front))
    [ 3; 17; 41 ]

let test_run_multi_deterministic () =
  let inputs, targets = toy_problem 6 in
  let config = Config.scaled ~pop_size:14 ~generations:6 ~jobs:1 Config.default in
  let names = Dataset.var_names (Dataset.of_rows inputs) in
  List.iter
    (fun seed ->
      let sequential =
        let data = Dataset.of_rows inputs in
        Search.run_multi ~seed ~restarts:3 config ~data ~targets
      in
      let parallel =
        let data = Dataset.of_rows inputs in
        Executor.with_executor ~jobs:4 Executor.Domains @@ fun executor ->
        Search.run_multi ~seed ~executor ~restarts:3 config ~data ~targets
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: identical merged fronts" seed)
        true
        (front_signature names sequential.Search.front
        = front_signature names parallel.Search.front))
    [ 9; 23 ]

let test_run_multi_prefix_property () =
  let inputs, targets = toy_problem 7 in
  let config = Config.scaled ~pop_size:14 ~generations:6 ~jobs:1 Config.default in
  let names = Dataset.var_names (Dataset.of_rows inputs) in
  let front restarts =
    let data = Dataset.of_rows inputs in
    (Search.run_multi ~seed:12 ~restarts config ~data ~targets).Search.front
  in
  let one = front_signature names (front 1) in
  let three = front_signature names (front 3) in
  (* Island 0 of the 3-restart run is exactly the 1-restart run, so every
     model of the merged 3-front either appears in the 1-front or dominates
     part of it; at minimum the merge is deterministic and reproducible. *)
  Alcotest.(check bool) "three-restart front reproducible" true
    (three = front_signature names (front 3));
  Alcotest.(check bool) "one-restart front reproducible" true
    (one = front_signature names (front 1))

let test_sag_deterministic () =
  let inputs, targets = toy_problem 8 in
  let config = Config.scaled ~pop_size:16 ~generations:8 ~jobs:1 Config.default in
  let wb = config.Config.wb and wvc = config.Config.wvc in
  let names = Dataset.var_names (Dataset.of_rows inputs) in
  let data = Dataset.of_rows inputs in
  let outcome = Search.run ~seed:19 config ~data ~targets in
  let sequential = Sag.process_front ~wb ~wvc outcome.Search.front ~data ~targets in
  let parallel =
    Executor.with_executor ~jobs:4 Executor.Domains @@ fun executor ->
    Sag.process_front ~executor ~wb ~wvc outcome.Search.front ~data ~targets
  in
  Alcotest.(check bool) "identical simplified fronts" true
    (front_signature names sequential = front_signature names parallel)

let test_forward_select_deterministic () =
  let rng = Rng.create ~seed:44 () in
  let n = 60 in
  let columns = Array.init 25 (fun _ -> Array.init n (fun _ -> Rng.range rng (-1.) 1.)) in
  (* Make a few columns degenerate/unusable on purpose. *)
  columns.(3) <- Array.make n 0.;
  columns.(7) <- Array.map (fun c -> c *. Float.nan) columns.(7);
  let targets =
    Array.init n (fun i -> (2. *. columns.(0).(i)) -. columns.(5).(i) +. (0.1 *. columns.(12).(i)))
  in
  let sequential = Linfit.forward_select ~max_bases:6 ~basis_values:columns ~targets () in
  let parallel =
    Executor.with_executor ~jobs:4 Executor.Domains @@ fun executor ->
    Linfit.forward_select ~executor ~max_bases:6 ~basis_values:columns ~targets ()
  in
  Alcotest.(check (array int)) "identical selection" sequential parallel;
  Alcotest.(check bool) "selected something" true (Array.length sequential > 0)

let test_config_jobs_path () =
  (* config.jobs > 1 without an explicit pool must also match jobs = 1. *)
  let inputs, targets = toy_problem 9 in
  let names = Dataset.var_names (Dataset.of_rows inputs) in
  let front jobs =
    let data = Dataset.of_rows inputs in
    let config = Config.scaled ~pop_size:12 ~generations:5 ~jobs Config.default in
    (Search.run ~seed:27 config ~data ~targets).Search.front
  in
  Alcotest.(check bool) "jobs=3 == jobs=1" true
    (front_signature names (front 1) = front_signature names (front 3))

let suite =
  [
    Alcotest.test_case "pool: map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "pool: init matches sequential" `Quick test_init_matches_sequential;
    Alcotest.test_case "pool: reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "pool: exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "pool: nested map degrades" `Quick test_nested_map_degrades;
    Alcotest.test_case "pool: sequential pool" `Quick test_sequential_pool;
    Alcotest.test_case "pool: shutdown degrades" `Quick test_shutdown_degrades;
    Alcotest.test_case "pool: with_optional_pool" `Quick test_with_optional_pool;
    Alcotest.test_case "pool: jobs clamped to cores" `Quick test_jobs_clamped_to_cores;
    Alcotest.test_case "pool: invalid CAFFEINE_JOBS warns" `Quick test_invalid_env_jobs_warns;
    Alcotest.test_case "executor: backend names" `Quick test_backend_names;
    Alcotest.test_case "executor: map on every backend" `Quick test_executor_map_all_backends;
    Alcotest.test_case "executor: nested maps fall back" `Quick test_executor_nested_falls_back;
    Alcotest.test_case "executor: of_pool borrows" `Quick test_executor_of_pool_borrows;
    Alcotest.test_case "dataset: clear cache" `Quick test_dataset_clear_cache;
    Alcotest.test_case "dataset: concurrent reads" `Quick test_dataset_concurrent_reads;
    Alcotest.test_case "memo: entries never exceed the limit" `Quick test_memo_entries_bounded;
    Alcotest.test_case "memo: evictions + entries = adds" `Quick test_memo_eviction_accounting;
    Alcotest.test_case "memo: first stored value wins" `Quick test_memo_first_value_wins;
    Alcotest.test_case "memo: counters; clear keeps them" `Quick test_memo_counters;
    Alcotest.test_case "memo: limit below 16 rejected" `Quick test_memo_limit_validation;
    Alcotest.test_case "determinism: run" `Quick test_run_deterministic;
    Alcotest.test_case "determinism: run_multi" `Quick test_run_multi_deterministic;
    Alcotest.test_case "determinism: run_multi prefix" `Quick test_run_multi_prefix_property;
    Alcotest.test_case "determinism: sag" `Quick test_sag_deterministic;
    Alcotest.test_case "determinism: forward_select" `Quick test_forward_select_deterministic;
    Alcotest.test_case "determinism: config jobs path" `Quick test_config_jobs_path;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) memo_properties
