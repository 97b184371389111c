(* Tests for the checkpoint/resume subsystem: generator state round-trips,
   the snapshot codec, validation against the resuming run, and the core
   contract — a run killed at any generation and resumed from its snapshot
   produces a bit-identical final front. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Nsga2 = Caffeine_evo.Nsga2
module Pool = Caffeine_par.Pool
module Trace = Caffeine_obs.Trace
module Config = Caffeine.Config
module Gen = Caffeine.Gen
module Model = Caffeine.Model
module Search = Caffeine.Search
module Sag = Caffeine.Sag
module Checkpoint = Caffeine.Checkpoint
module Dataset = Caffeine_io.Dataset

(* Structural equality through [compare]: snapshots can legitimately hold
   non-finite objectives, on which polymorphic [=] is false. *)
let equal a b = compare a b = 0

let with_temp_file f =
  let path = Filename.temp_file "caffeine_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

let slurp path =
  let channel = open_in_bin path in
  let text = really_input_string channel (in_channel_length channel) in
  close_in channel;
  text

let spit path text =
  let channel = open_out_bin path in
  output_string channel text;
  close_out channel

(* --- generator state ----------------------------------------------------- *)

let test_rng_state_roundtrip () =
  let rng = Rng.create ~seed:5 () in
  for _ = 1 to 13 do
    ignore (Rng.bits64 rng)
  done;
  let copy = Rng.of_state (Rng.to_state rng) in
  for _ = 1 to 50 do
    Alcotest.(check int64) "restored generator replays the stream" (Rng.bits64 rng)
      (Rng.bits64 copy)
  done;
  Alcotest.(check bool) "all-zero state rejected" true
    (match Rng.of_state { Rng.w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L } with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- snapshot codec ------------------------------------------------------ *)

let toy_config = Config.scaled ~pop_size:12 ~generations:8 ~jobs:1 Config.default

let toy_problem seed =
  let rng = Rng.create ~seed () in
  let inputs = Array.init 30 (fun _ -> Array.init 2 (fun _ -> Rng.range rng 0.5 2.)) in
  let targets = Array.map (fun x -> (x.(0) *. x.(0)) +. (0.7 /. x.(1))) inputs in
  (Dataset.of_rows inputs, targets)

let random_population rng config ~dims n =
  Array.init n (fun i ->
      {
        Nsga2.genome = Gen.random_individual rng config ~dims;
        objectives =
          [| (if i = 0 then Float.infinity else Rng.uniform rng); float_of_int (Rng.int rng 40) |];
        rank = i mod 3;
        crowding = (if i = 1 then Float.infinity else Rng.uniform rng);
      })

let random_models rng config ~data ~targets n =
  List.init n (fun _ ->
      let bases = Gen.random_individual rng config ~dims:(Dataset.dims data) in
      match Model.fit ~wb:config.Config.wb ~wvc:config.Config.wvc bases ~data ~targets with
      | Some model -> model
      | None ->
          (* An unlucky draw can be invalid on the data; the constant model
             exercises the codec just as well. *)
          Option.get (Model.fit ~wb:config.Config.wb ~wvc:config.Config.wvc [||] ~data ~targets))

let test_snapshot_roundtrip_evolving () =
  let rng = Rng.create ~seed:11 () in
  let data, targets = toy_problem 11 in
  let islands =
    [|
      Checkpoint.Pending (Rng.to_state rng);
      Checkpoint.In_progress
        {
          gen = 7;
          rng = Rng.to_state (Rng.split rng);
          population = random_population rng toy_config ~dims:(Dataset.dims data) 8;
        };
      Checkpoint.Done (random_models rng toy_config ~data ~targets 3);
    |]
  in
  let snapshot =
    {
      Checkpoint.fingerprint = Checkpoint.fingerprint toy_config ~data ~targets;
      seed = 3;
      restarts = 3;
      phase = Checkpoint.Evolving islands;
    }
  in
  with_temp_file (fun path ->
      Checkpoint.save ~path snapshot;
      Alcotest.(check bool) "no stale temp file" false (Sys.file_exists (path ^ ".tmp"));
      match Checkpoint.load ~path with
      | Error message -> Alcotest.failf "load failed: %s" message
      | Ok loaded -> Alcotest.(check bool) "evolving snapshot round-trips" true (equal snapshot loaded))

let test_snapshot_roundtrip_simplifying () =
  let rng = Rng.create ~seed:12 () in
  let data, targets = toy_problem 12 in
  let front = random_models rng toy_config ~data ~targets 4 in
  let processed = random_models rng toy_config ~data ~targets 2 in
  let snapshot =
    {
      Checkpoint.fingerprint = Checkpoint.fingerprint toy_config ~data ~targets;
      seed = 17;
      restarts = 1;
      phase = Checkpoint.Simplifying { front; processed };
    }
  in
  with_temp_file (fun path ->
      Checkpoint.save ~path snapshot;
      match Checkpoint.load ~path with
      | Error message -> Alcotest.failf "load failed: %s" message
      | Ok loaded ->
          Alcotest.(check bool) "simplifying snapshot round-trips" true (equal snapshot loaded))

let test_load_rejects_bad_input () =
  let rejected path = match Checkpoint.load ~path with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "missing file" true (rejected "/nonexistent/caffeine.ckpt");
  with_temp_file (fun path ->
      spit path "not json at all\n";
      Alcotest.(check bool) "garbage" true (rejected path);
      spit path "{\"type\":\"something_else\"}\n";
      Alcotest.(check bool) "wrong type tag" true (rejected path);
      spit path "";
      Alcotest.(check bool) "empty file" true (rejected path);
      (* A valid snapshot whose version field is bumped must be refused, not
         misread. *)
      let rng = Rng.create ~seed:13 () in
      let snapshot =
        {
          Checkpoint.fingerprint = "fp";
          seed = 1;
          restarts = 1;
          phase = Checkpoint.Evolving [| Checkpoint.Pending (Rng.to_state rng) |];
        }
      in
      Checkpoint.save ~path snapshot;
      let version_field = Printf.sprintf "\"version\":%d" Checkpoint.version in
      let text = slurp path in
      let index =
        let len = String.length version_field in
        let rec find i =
          if i + len > String.length text then Alcotest.fail "version field not found"
          else if String.sub text i len = version_field then i
          else find (i + 1)
        in
        find 0
      in
      spit path
        (String.sub text 0 index ^ "\"version\":999"
        ^ String.sub text (index + String.length version_field)
            (String.length text - index - String.length version_field));
      match Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "future version accepted"
      | Error message ->
          Alcotest.(check bool) "version mentioned" true
            (let fragment = "version" in
             let len = String.length fragment in
             let rec occurs i =
               i + len <= String.length message
               && (String.sub message i len = fragment || occurs (i + 1))
             in
             occurs 0))

let test_load_errors_name_file_and_line () =
  (* A damaged snapshot must come back as one [file:line: message] string —
     the CLI prints it verbatim — never a raw exception. *)
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  let error_of path =
    match Checkpoint.load ~path with
    | Ok _ -> Alcotest.fail "damaged snapshot accepted"
    | Error message -> message
  in
  with_temp_file (fun path ->
      (* Garbage on the very first line. *)
      spit path "not json at all\n";
      Alcotest.(check bool) "garbage names line 1" true (starts_with (path ^ ":1:") (error_of path));
      (* A real snapshot with one island line replaced by garbage: the
         report must point at that line, not the header. *)
      let rng = Rng.create ~seed:23 () in
      let snapshot =
        {
          Checkpoint.fingerprint = "fp";
          seed = 1;
          restarts = 2;
          phase =
            Checkpoint.Evolving
              [| Checkpoint.Pending (Rng.to_state rng); Checkpoint.Pending (Rng.to_state rng) |];
        }
      in
      Checkpoint.save ~path snapshot;
      let lines = String.split_on_char '\n' (slurp path) in
      let damaged =
        List.mapi (fun i line -> if i = 2 then "{\"type\":\"island\",truncated" else line) lines
      in
      spit path (String.concat "\n" damaged);
      Alcotest.(check bool) "damaged island names line 3" true
        (starts_with (path ^ ":3:") (error_of path));
      (* Truncation that drops a whole island line has no single offending
         line: the report still names the file. *)
      Checkpoint.save ~path snapshot;
      let lines = String.split_on_char '\n' (slurp path) in
      spit path (String.concat "\n" (List.filteri (fun i _ -> i <> 2) lines));
      Alcotest.(check bool) "missing island names file" true
        (starts_with (path ^ ":") (error_of path)))

let test_validate () =
  let rng = Rng.create ~seed:14 () in
  let snapshot =
    {
      Checkpoint.fingerprint = "fp";
      seed = 3;
      restarts = 2;
      phase =
        Checkpoint.Evolving
          [| Checkpoint.Pending (Rng.to_state rng); Checkpoint.Pending (Rng.to_state rng) |];
    }
  in
  Alcotest.(check bool) "matching run accepted" true
    (Checkpoint.validate snapshot ~fingerprint:"fp" ~seed:3 ~restarts:2 = Ok ());
  let rejected = function Ok () -> false | Error _ -> true in
  Alcotest.(check bool) "fingerprint mismatch" true
    (rejected (Checkpoint.validate snapshot ~fingerprint:"other" ~seed:3 ~restarts:2));
  Alcotest.(check bool) "seed mismatch" true
    (rejected (Checkpoint.validate snapshot ~fingerprint:"fp" ~seed:4 ~restarts:2));
  Alcotest.(check bool) "restarts mismatch" true
    (rejected (Checkpoint.validate snapshot ~fingerprint:"fp" ~seed:3 ~restarts:3))

let test_fingerprint_sensitivity () =
  let data, targets = toy_problem 15 in
  let fingerprint = Checkpoint.fingerprint toy_config ~data ~targets in
  Alcotest.(check string) "deterministic" fingerprint
    (Checkpoint.fingerprint toy_config ~data ~targets);
  Alcotest.(check string) "jobs never change results, so never the fingerprint" fingerprint
    (Checkpoint.fingerprint { toy_config with Config.jobs = 8 } ~data ~targets);
  Alcotest.(check bool) "config changes show" true
    (fingerprint
    <> Checkpoint.fingerprint
         { toy_config with Config.generations = toy_config.Config.generations + 1 }
         ~data ~targets);
  let perturbed = Array.copy targets in
  perturbed.(0) <- perturbed.(0) +. 1e-9;
  Alcotest.(check bool) "target changes show" true
    (fingerprint <> Checkpoint.fingerprint toy_config ~data ~targets:perturbed)

(* --- kill/resume bit-identity -------------------------------------------- *)

exception Killed

let test_run_kill_resume_bit_identical () =
  let data, targets = toy_problem 43 in
  let full = Search.run ~seed:23 toy_config ~data ~targets in
  with_temp_file (fun path ->
      (match
         Search.run ~seed:23
           ~on_generation:(fun record -> if record.Trace.gen >= 5 then raise Killed)
           ~checkpoint_path:path ~checkpoint_every:3 toy_config ~data ~targets
       with
      | _ -> Alcotest.fail "expected the kill to escape Search.run"
      | exception Killed -> ());
      let snapshot =
        match Checkpoint.load ~path with
        | Ok snapshot -> snapshot
        | Error message -> Alcotest.failf "load failed: %s" message
      in
      (match snapshot.Checkpoint.phase with
      | Checkpoint.Evolving [| Checkpoint.In_progress { gen; _ } |] ->
          Alcotest.(check int) "snapshot holds the last checkpointed generation" 3 gen
      | _ -> Alcotest.fail "expected a single in-progress island");
      let resumed = Search.run ~seed:23 ~resume:snapshot ~checkpoint_path:path toy_config ~data ~targets in
      Alcotest.(check bool) "resumed front bit-identical to the uninterrupted run" true
        (equal full.Search.front resumed.Search.front);
      (* Resuming under a domain pool must not change the front either. *)
      let pooled =
        Caffeine_par.Executor.with_executor ~jobs:4 Caffeine_par.Executor.Domains
          (fun executor -> Search.run ~seed:23 ~executor ~resume:snapshot toy_config ~data ~targets)
      in
      Alcotest.(check bool) "pooled resume identical" true (equal full.Search.front pooled.Search.front);
      (* The completed resume left a finished snapshot behind. *)
      (match Checkpoint.load ~path with
      | Ok { Checkpoint.phase = Checkpoint.Evolving [| Checkpoint.Done front |]; _ } ->
          Alcotest.(check bool) "final snapshot holds the front" true
            (equal front resumed.Search.front)
      | Ok _ -> Alcotest.fail "expected a finished island"
      | Error message -> Alcotest.failf "reload failed: %s" message);
      (* A snapshot from a different run must be refused. *)
      match Search.run ~seed:24 ~resume:snapshot toy_config ~data ~targets with
      | _ -> Alcotest.fail "seed mismatch accepted"
      | exception Invalid_argument _ -> ())

let test_run_multi_kill_resume_bit_identical () =
  let data, targets = toy_problem 7 in
  let config = Config.scaled ~pop_size:10 ~generations:6 ~jobs:1 Config.default in
  let full = Search.run_multi ~seed:9 ~restarts:3 config ~data ~targets in
  with_temp_file (fun path ->
      (match
         Search.run_multi ~seed:9 ~restarts:3
           ~on_generation:(fun ~island record ->
             if island = 1 && record.Trace.gen >= 4 then raise Killed)
           ~checkpoint_path:path ~checkpoint_every:2 config ~data ~targets
       with
      | _ -> Alcotest.fail "expected the kill to escape Search.run_multi"
      | exception Killed -> ());
      let snapshot =
        match Checkpoint.load ~path with
        | Ok snapshot -> snapshot
        | Error message -> Alcotest.failf "load failed: %s" message
      in
      (match snapshot.Checkpoint.phase with
      | Checkpoint.Evolving [| island0; island1; island2 |] ->
          Alcotest.(check bool) "island 0 finished" true
            (match island0 with Checkpoint.Done _ -> true | _ -> false);
          (match island1 with
          | Checkpoint.In_progress { gen; _ } ->
              Alcotest.(check int) "island 1 checkpointed mid-run" 2 gen
          | _ -> Alcotest.fail "island 1 should be in progress");
          Alcotest.(check bool) "island 2 untouched" true
            (match island2 with Checkpoint.Pending _ -> true | _ -> false)
      | _ -> Alcotest.fail "expected three islands");
      let resumed = Search.run_multi ~seed:9 ~restarts:3 ~resume:snapshot config ~data ~targets in
      Alcotest.(check bool) "resumed merged front bit-identical" true
        (equal full.Search.front resumed.Search.front);
      Alcotest.(check int) "generation accounting unchanged" full.Search.generations_run
        resumed.Search.generations_run)

(* --- SAG resume plumbing ------------------------------------------------- *)

let test_process_front_already_prefix () =
  let data, targets = toy_problem 29 in
  let outcome = Search.run ~seed:31 toy_config ~data ~targets in
  let front = outcome.Search.front in
  Alcotest.(check bool) "front has several models" true (List.length front >= 2);
  let wb = toy_config.Config.wb and wvc = toy_config.Config.wvc in
  let seen = ref [] in
  let on_model index model = seen := (index, model) :: !seen in
  let full = Sag.process_front ~on_model ~wb ~wvc front ~data ~targets in
  let in_order = List.rev !seen in
  Alcotest.(check bool) "on_model sees every index in order" true
    (List.mapi (fun i _ -> i) front = List.map fst in_order);
  (* Resume from a checkpointed prefix: the already-simplified models are
     reused verbatim and only the rest is recomputed. *)
  let already = List.filteri (fun i _ -> i < 2) (List.map snd in_order) in
  let fresh = ref 0 in
  let resumed =
    Sag.process_front
      ~already
      ~on_model:(fun index _ ->
        incr fresh;
        Alcotest.(check bool) "prefix not recomputed" true (index >= 2))
      ~wb ~wvc front ~data ~targets
  in
  Alcotest.(check int) "only the suffix was simplified" (List.length front - 2) !fresh;
  Alcotest.(check bool) "resumed SAG output identical" true (equal full resumed)

(* --- the whole fit: search, then SAG ---------------------------------------- *)

let fit_ok = function
  | Ok front -> front
  | Error message -> Alcotest.failf "run_and_simplify refused: %s" message

let load_ok path =
  match Checkpoint.load ~path with
  | Ok snapshot -> snapshot
  | Error message -> Alcotest.failf "load failed: %s" message

(* The snapshot marks of a trace, in order: what a resumed run must repeat. *)
let marks sink =
  List.filter
    (function Trace.Checkpoint_written _ | Trace.Run_resumed _ -> true | _ -> false)
    (Trace.contents sink)

let is_sag_mark = function
  | Trace.Checkpoint_written { phase = "simplifying"; _ } -> true
  | _ -> false

let sag_problem () = toy_problem 29

let fit_sag ?trace ?resume ?(sag = true) path =
  let data, targets = sag_problem () in
  Search.run_and_simplify ~seed:31 ?trace ?resume ~sag ~checkpoint_path:path ~checkpoint_every:3
    toy_config ~data ~targets

let test_fit_resumes_sag_prefix () =
  with_temp_file (fun path ->
      let full_trace = Trace.memory () in
      let full = fit_ok (fit_sag ~trace:full_trace path) in
      let final_bytes = slurp path in
      let snapshot = load_ok path in
      let front, processed =
        match snapshot.Checkpoint.phase with
        | Checkpoint.Simplifying { front; processed } -> (front, processed)
        | Checkpoint.Evolving _ -> Alcotest.fail "a finished fit leaves a simplifying snapshot"
      in
      let n = List.length front in
      Alcotest.(check bool) "front has several models" true (n >= 2);
      Alcotest.(check int) "every model simplified" n (List.length processed);
      let sag_marks = List.filter is_sag_mark (marks full_trace) in
      Alcotest.(check int) "one mark before SAG and one per model" (n + 1) (List.length sag_marks);
      (* Resume from every strict prefix of the uninterrupted run's SAG. *)
      for k = 0 to n - 1 do
        Checkpoint.save ~path
          {
            snapshot with
            phase =
              Checkpoint.Simplifying
                { front; processed = List.filteri (fun i _ -> i < k) processed };
          };
        let trace = Trace.memory () in
        let resumed = fit_ok (fit_sag ~trace ~resume:(load_ok path) path) in
        Alcotest.(check bool)
          (Printf.sprintf "prefix %d: front identical to the uninterrupted run's" k)
          true (equal full resumed);
        Alcotest.(check string)
          (Printf.sprintf "prefix %d: final snapshot byte-identical" k)
          final_bytes (slurp path);
        let expected =
          Trace.Run_resumed { phase = "simplifying"; island = -1; gen = k }
          :: List.filter
               (function
                 | Trace.Checkpoint_written { gen; _ } -> k = 0 || gen >= k
                 | _ -> false)
               sag_marks
        in
        Alcotest.(check bool)
          (Printf.sprintf "prefix %d: the uninterrupted run's marks from model %d on" k k)
          true
          (equal expected (marks trace))
      done)

let test_fit_resumes_search () =
  with_temp_file (fun path ->
      let full_trace = Trace.memory () in
      let full = fit_ok (fit_sag ~trace:full_trace path) in
      let final_bytes = slurp path in
      Sys.remove path;
      let data, targets = sag_problem () in
      (match
         Search.run_and_simplify ~seed:31
           ~on_generation:(fun record -> if record.Trace.gen >= 5 then raise Killed)
           ~checkpoint_path:path ~checkpoint_every:3 toy_config ~data ~targets
       with
      | _ -> Alcotest.fail "expected the kill to escape run_and_simplify"
      | exception Killed -> ());
      let trace = Trace.memory () in
      let resumed = fit_ok (fit_sag ~trace ~resume:(load_ok path) path) in
      Alcotest.(check bool) "front identical to the uninterrupted run's" true (equal full resumed);
      Alcotest.(check string) "final snapshot byte-identical" final_bytes (slurp path);
      let expected =
        Trace.Run_resumed { phase = "evolving"; island = 0; gen = 3 }
        :: List.filter
             (function
               | Trace.Checkpoint_written { phase = "evolving"; gen; _ } -> gen > 3
               | _ -> true)
             (marks full_trace)
      in
      Alcotest.(check bool) "the uninterrupted run's marks after generation 3" true
        (equal expected (marks trace)))

let test_fit_refuses_foreign_snapshots () =
  with_temp_file (fun path ->
      ignore (fit_ok (fit_sag path));
      let simplifying = load_ok path in
      let evolving =
        {
          simplifying with
          phase =
            Checkpoint.Evolving [| Checkpoint.Pending (Rng.to_state (Rng.create ~seed:31 ())) |];
        }
      in
      let written = slurp path in
      List.iter
        (fun (snapshot : Checkpoint.t) ->
          let phase = Checkpoint.phase_name snapshot.Checkpoint.phase in
          List.iter
            (fun (what, foreign, message) ->
              let trace = Trace.memory () in
              match fit_sag ~trace ~resume:foreign path with
              | Ok _ -> Alcotest.failf "%s snapshot with another %s accepted" phase what
              | Error got ->
                  Alcotest.(check string) (phase ^ ", " ^ what ^ ": the message") message got;
                  Alcotest.(check int) (phase ^ ", " ^ what ^ ": no record") 0
                    (List.length (Trace.contents trace));
                  Alcotest.(check string) (phase ^ ", " ^ what ^ ": no write") written (slurp path))
            [
              ( "fingerprint",
                { snapshot with fingerprint = "0123" },
                "checkpoint fingerprint does not match this run's config, data or targets" );
              ("seed", { snapshot with seed = 32 }, "checkpoint was written with seed 32, not 31");
              ( "island count",
                { snapshot with restarts = 2 },
                "checkpoint was written with 2 island(s), not 1" );
            ])
        [ evolving; simplifying ])

let test_fit_without_sag_keeps_snapshot_front () =
  with_temp_file (fun path ->
      ignore (fit_ok (fit_sag path));
      let snapshot = load_ok path in
      let front, processed =
        match snapshot.Checkpoint.phase with
        | Checkpoint.Simplifying { front; processed } -> (front, processed)
        | Checkpoint.Evolving _ -> Alcotest.fail "expected a simplifying snapshot"
      in
      Checkpoint.save ~path
        {
          snapshot with
          phase = Checkpoint.Simplifying { front; processed = [ List.hd processed ] };
        };
      let written = slurp path in
      let resumed = fit_ok (fit_sag ~sag:false ~resume:(load_ok path) path) in
      Alcotest.(check bool) "the snapshot's evolved front, unchanged" true (equal front resumed);
      Alcotest.(check string) "no snapshot written" written (slurp path))

let suite =
  [
    Alcotest.test_case "rng state round-trip" `Quick test_rng_state_roundtrip;
    Alcotest.test_case "snapshot round-trip: evolving" `Quick test_snapshot_roundtrip_evolving;
    Alcotest.test_case "snapshot round-trip: simplifying" `Quick test_snapshot_roundtrip_simplifying;
    Alcotest.test_case "load rejects bad input" `Quick test_load_rejects_bad_input;
    Alcotest.test_case "load errors name file and line" `Quick
      test_load_errors_name_file_and_line;
    Alcotest.test_case "validate matches run inputs" `Quick test_validate;
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
    Alcotest.test_case "run: kill/resume bit-identical" `Quick test_run_kill_resume_bit_identical;
    Alcotest.test_case "run_multi: kill/resume bit-identical" `Quick
      test_run_multi_kill_resume_bit_identical;
    Alcotest.test_case "sag: process_front resumes from prefix" `Quick
      test_process_front_already_prefix;
    Alcotest.test_case "fit: resumes SAG from every prefix" `Quick test_fit_resumes_sag_prefix;
    Alcotest.test_case "fit: resumes the search, then SAG" `Quick test_fit_resumes_search;
    Alcotest.test_case "fit: foreign snapshots are errors" `Quick
      test_fit_refuses_foreign_snapshots;
    Alcotest.test_case "fit: SAG off keeps a snapshot's front" `Quick
      test_fit_without_sag_keeps_snapshot_front;
  ]
