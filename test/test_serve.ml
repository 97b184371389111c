(* Tests for the serving layer: protocol behavior, served bit-identity,
   registry hot-reload, and the graceful drain contract. *)

module Model = Caffeine.Model
module Model_io = Caffeine.Model_io
module Export = Caffeine.Export
module Dataset = Caffeine_io.Dataset
module Json = Caffeine_obs.Json
module Metrics = Caffeine_obs.Metrics
module Registry = Caffeine_serve.Registry
module Server = Caffeine_serve.Server

let with_temp_file f =
  let path = Filename.temp_file "caffeine_serve" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let spit path text =
  let channel = open_out path in
  output_string channel text;
  close_out channel

let front_v1 = "vars: x y\n#: train_error=0.5\n1.5 + 2 * x\n"

let front_v2 =
  "vars: x y\n#: train_error=0.5\n1.5 + 2 * x\n#: train_error=nan\n3 + 0.5 * x * y\n"

(* Fresh metrics per server so counter assertions never see another test's
   increments. *)
let server_on ?reload path =
  let metrics = Metrics.create () in
  let registry =
    match Registry.create ~metrics ~path ~wb:10. ~wvc:0.25 () with
    | Ok registry -> registry
    | Error msg -> Alcotest.failf "registry: %s" msg
  in
  (Server.config ~metrics ?reload registry, registry)

let response_fields response =
  match Json.parse response with
  | Error msg -> Alcotest.failf "response not JSON (%s): %s" msg response
  | Ok json -> Json.obj json

let check_error expected response =
  let fields = response_fields response in
  (match Json.member fields "ok" with
  | Json.Bool false -> ()
  | _ -> Alcotest.failf "expected an error response, got %s" response);
  Alcotest.(check string) ("error type for " ^ response) expected (Json.str_of fields "error")

(* Touch the front file's mtime into the future: reloads key on
   (mtime, size) and a same-second rewrite would otherwise be missed. *)
let bump_mtime path =
  let future = Unix.time () +. 10. in
  Unix.utimes path future future

(* --- protocol ------------------------------------------------------------ *)

let test_typed_errors () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      let answer line = Server.handle_line server line in
      check_error "parse_error" (answer "{broken");
      check_error "bad_request" (answer "[1,2]");
      check_error "bad_request" (answer "{\"no_op\":1}");
      check_error "bad_request" (answer "{\"op\":\"frobnicate\"}");
      check_error "bad_request" (answer "{\"op\":3}");
      check_error "bad_request" (answer "{\"op\":\"predict\"}");
      check_error "bad_request" (answer "{\"op\":\"predict\",\"rows\":[[1,2],[1]]}");
      check_error "bad_request" (answer "{\"op\":\"predict\",\"rows\":[[1,\"x\"]]}");
      check_error "non_finite_input" (answer "{\"op\":\"predict\",\"rows\":[[1,\"NaN\"]]}");
      check_error "non_finite_input" (answer "{\"op\":\"predict\",\"rows\":[[\"Infinity\",2]]}");
      check_error "bad_request" (answer "{\"op\":\"explain\"}");
      check_error "out_of_range" (answer "{\"op\":\"explain\",\"index\":9}");
      check_error "out_of_range" (answer "{\"op\":\"explain\",\"index\":-1}");
      check_error "bad_request" (answer "{\"op\":\"explain\",\"index\":0,\"language\":\"rust\"}"))

let test_predict_bit_identical () =
  with_temp_file (fun path ->
      spit path front_v2;
      let var_names, models =
        match Model_io.load ~path ~wb:10. ~wvc:0.25 with
        | Ok (var_names, models) -> (var_names, models)
        | Error msg -> Alcotest.failf "load: %s" msg
      in
      let rows = [| [| 1.25; 2.5 |]; [| 0.5; 3. |]; [| 7.; 0.125 |]; [| 1e-3; 42. |] |] in
      let server, _ = server_on path in
      let request =
        let b = Buffer.create 128 in
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
          rows;
        Buffer.add_string b "]}";
        Buffer.contents b
      in
      let fields = response_fields (Server.handle_line server request) in
      Alcotest.(check int) "models" (List.length models) (Json.int_of fields "models");
      Alcotest.(check int) "rows" (Array.length rows) (Json.int_of fields "rows");
      let served =
        Json.arr_of fields "outputs"
        |> List.map (fun row ->
               Array.of_list (List.map (Json.to_float "outputs") (Json.to_arr "outputs" row)))
      in
      let data = Dataset.of_rows ~var_names rows in
      List.iter2
        (fun served_row m ->
          let direct = Model.predict m data in
          Alcotest.(check int) "row length" (Array.length direct) (Array.length served_row);
          Array.iteri
            (fun i y ->
              Alcotest.(check bool)
                (Printf.sprintf "sample %d bit-identical" i)
                true
                (Int64.bits_of_float y = Int64.bits_of_float direct.(i)))
            served_row)
        served models)

let test_front_listing () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      let fields = response_fields (Server.handle_line server "{\"op\":\"front\"}") in
      Alcotest.(check string) "path" path (Json.str_of fields "path");
      Alcotest.(check int) "generation" 0 (Json.int_of fields "generation");
      let listed = Json.arr_of fields "front" in
      Alcotest.(check int) "two models" 2 (List.length listed);
      let second = Json.obj (List.nth listed 1) in
      Alcotest.(check int) "index" 1 (Json.int_of second "index");
      (* The second model's stored error is nan: it must travel as the
         non-finite string encoding, not poison the JSON. *)
      Alcotest.(check bool) "nan train_error" true
        (Float.is_nan (Json.float_of second "train_error"));
      Alcotest.(check string) "expression" "3 + 0.5 * (x*y)" (Json.str_of second "expression"))

let test_explain_matches_export () =
  with_temp_file (fun path ->
      spit path front_v2;
      let var_names, models =
        match Model_io.load ~path ~wb:10. ~wvc:0.25 with
        | Ok ok -> ok
        | Error msg -> Alcotest.failf "load: %s" msg
      in
      let model = List.nth models 1 in
      let server, _ = server_on path in
      let code language =
        let request =
          Printf.sprintf "{\"op\":\"explain\",\"index\":1,\"language\":\"%s\"}" language
        in
        Json.str_of (response_fields (Server.handle_line server request)) "code"
      in
      Alcotest.(check string) "text" (Model.to_string ~var_names model) (code "text");
      Alcotest.(check string) "c" (Export.to_c ~name:"model_1" ~var_names model) (code "c");
      Alcotest.(check string) "verilog-a"
        (Export.to_verilog_a ~name:"model_1" ~var_names model)
        (code "verilog-a"))

let test_stats_counters () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      ignore (Server.handle_line server "{\"op\":\"predict\",\"rows\":[[1,2]]}");
      ignore (Server.handle_line server "{\"op\":\"front\"}");
      ignore (Server.handle_line server "nonsense");
      let fields = response_fields (Server.handle_line server "{\"op\":\"stats\"}") in
      let counters = Json.obj (Json.member fields "counters") in
      Alcotest.(check int) "requests" 4 (Json.int_of counters "requests");
      Alcotest.(check int) "errors" 1 (Json.int_of counters "errors");
      Alcotest.(check int) "predictions" 2 (Json.int_of counters "predictions");
      Alcotest.(check int) "reloads" 0 (Json.int_of counters "reloads");
      let latency = Json.obj (Json.member fields "latency") in
      let observations endpoint =
        let h = Json.obj (Json.member latency endpoint) in
        List.fold_left
          (fun acc count -> acc + Json.to_int endpoint count)
          0 (Json.arr_of h "counts")
      in
      Alcotest.(check int) "predict observed" 1 (observations "predict");
      Alcotest.(check int) "front observed" 1 (observations "front");
      Alcotest.(check int) "explain observed" 0 (observations "explain"))

(* --- hot reload ---------------------------------------------------------- *)

let test_reload_swaps_atomically () =
  with_temp_file (fun path ->
      spit path front_v1;
      let _, registry = server_on path in
      let before = Registry.current registry in
      Alcotest.(check int) "one model at start" 1 (Array.length before.Registry.models);
      (match Registry.check_reload registry with
      | `Unchanged -> ()
      | _ -> Alcotest.fail "untouched file reported changed");
      spit path front_v2;
      bump_mtime path;
      (match Registry.check_reload registry with
      | `Reloaded -> ()
      | `Unchanged -> Alcotest.fail "rewrite not noticed"
      | `Failed msg -> Alcotest.failf "reload failed: %s" msg);
      let after = Registry.current registry in
      Alcotest.(check int) "two models after reload" 2 (Array.length after.Registry.models);
      Alcotest.(check int) "generation bumped" 1 after.Registry.generation;
      Alcotest.(check int) "reload counted" 1 (Registry.reloads registry);
      (* The front captured before the swap is immutable: a batch running on
         it is unaffected by the reload. *)
      Alcotest.(check int) "old front value unchanged" 1 (Array.length before.Registry.models);
      Alcotest.(check int) "old generation unchanged" 0 before.Registry.generation)

let test_reload_failure_keeps_old_front () =
  with_temp_file (fun path ->
      spit path front_v2;
      let _, registry = server_on path in
      spit path "vars: x y\n1 + +\n";
      bump_mtime path;
      (match Registry.check_reload registry with
      | `Failed msg ->
          let prefix = path ^ ":2:" in
          Alcotest.(check bool) "failure names file and line" true
            (String.length msg >= String.length prefix
            && String.sub msg 0 (String.length prefix) = prefix)
      | `Unchanged -> Alcotest.fail "rewrite not noticed"
      | `Reloaded -> Alcotest.fail "malformed front accepted");
      (* Never a half-loaded state: the previous compiled front keeps
         serving, and the failure is counted. *)
      let still = Registry.current registry in
      Alcotest.(check int) "old front still serving" 2 (Array.length still.Registry.models);
      Alcotest.(check int) "no reload counted" 0 (Registry.reloads registry);
      Alcotest.(check int) "failure counted" 1 (Registry.reload_failures registry))

let test_reload_through_requests () =
  with_temp_file (fun path ->
      spit path front_v1;
      let server, _ = server_on ~reload:true path in
      let models_listed () =
        Json.int_of (response_fields (Server.handle_line server "{\"op\":\"front\"}")) "models"
      in
      Alcotest.(check int) "serving v1" 1 (models_listed ());
      spit path front_v2;
      bump_mtime path;
      Alcotest.(check int) "serving v2 after rewrite" 2 (models_listed ()))

(* --- serving loop: EOF, buffering, drain --------------------------------- *)

let read_all fd =
  let b = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ()

(* Run [serve_fds] over pipes: [input_text] is the whole client script
   (write side closed before serving starts, so the loop sees EOF after the
   last request).  Returns the response lines. *)
let serve_script ?on_line server input_text =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let bytes = Bytes.of_string input_text in
  let written = Unix.write in_w bytes 0 (Bytes.length bytes) in
  Alcotest.(check int) "script fits the pipe buffer" (Bytes.length bytes) written;
  Unix.close in_w;
  Server.serve_fds ?on_line server ~input:in_r ~output:out_w;
  Unix.close in_r;
  Unix.close out_w;
  let output = read_all out_r in
  Unix.close out_r;
  String.split_on_char '\n' output |> List.filter (fun line -> String.trim line <> "")

let test_serve_fds_session () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      let responses =
        serve_script server
          "{\"op\":\"front\"}\n\n{\"op\":\"predict\",\"rows\":[[1,2]]}\nbroken\n"
      in
      (* Three responses: the blank line is skipped, the garbage line gets a
         typed error, and the loop exits cleanly at EOF. *)
      Alcotest.(check int) "three responses" 3 (List.length responses);
      check_error "parse_error" (List.nth responses 2))

let test_serve_fds_trailing_line_without_newline () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      let responses = serve_script server "{\"op\":\"front\"}" in
      Alcotest.(check int) "unterminated final request answered" 1 (List.length responses))

let test_drain_finishes_in_flight_only () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      (* Both requests are buffered before the first is handled; draining
         mid-request must still answer that request, then stop without
         touching the second. *)
      let seen = ref 0 in
      let on_line _ =
        incr seen;
        Server.drain server
      in
      let responses =
        serve_script ~on_line server
          "{\"op\":\"predict\",\"rows\":[[1,2]]}\n{\"op\":\"front\"}\n"
      in
      Alcotest.(check int) "only the in-flight request was handled" 1 !seen;
      Alcotest.(check int) "its response was written" 1 (List.length responses);
      let fields = response_fields (List.hd responses) in
      (match Json.member fields "ok" with
      | Json.Bool true -> ()
      | _ -> Alcotest.failf "in-flight response not ok: %s" (List.hd responses));
      Alcotest.(check bool) "still draining" true (Server.draining server))

(* Run [serve_fds] over pipes with a writer and a reader domain, so input
   and output may exceed the pipe buffers.  The writer sends [pieces] in
   order and pauses after each, so the server's read ends where a piece
   does.  Returns everything the server wrote. *)
let serve_streamed server pieces =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let writer =
    Domain.spawn (fun () ->
        List.iter
          (fun piece ->
            let bytes = Bytes.of_string piece in
            ignore (Unix.write in_w bytes 0 (Bytes.length bytes));
            Unix.sleepf 0.02)
          pieces;
        Unix.close in_w)
  in
  let reader = Domain.spawn (fun () -> read_all out_r) in
  Server.serve_fds server ~input:in_r ~output:out_w;
  Unix.close out_w;
  Domain.join writer;
  let output = Domain.join reader in
  Unix.close in_r;
  Unix.close out_r;
  output

let predict_line rows =
  "{\"op\":\"predict\",\"rows\":["
  ^ String.concat "," (List.map (fun (x, y) -> Printf.sprintf "[%d,%g]" x y) rows)
  ^ "]}"

let test_serve_fds_long_line () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      (* Over three 64 KiB reads, with its CRLF split between two reads. *)
      let line = predict_line (List.init 16_000 (fun i -> (i, float_of_int i *. 0.25))) in
      Alcotest.(check bool)
        "line spans more than three reads" true
        (String.length line > 3 * 65536);
      let front = "{\"op\":\"front\"}" in
      let cut k = String.sub line (k * 70_000) 70_000 in
      let tail = String.sub line 140_000 (String.length line - 140_000) in
      let pieces = [ cut 0; cut 1; tail ^ "\r"; "\n" ^ front ^ "\n" ] in
      let expected =
        Server.handle_line server line ^ "\n" ^ Server.handle_line server front ^ "\n"
      in
      Alcotest.(check bool) "responses byte-equal handle_line" true
        (String.equal expected (serve_streamed server pieces)))

let test_serve_fds_pipelined () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      (* Every seventh request ends in CRLF; the last has no newline. *)
      let lines = List.init 5000 (fun i -> predict_line [ (i, float_of_int i /. 7.) ]) in
      let script =
        String.concat ""
          (List.mapi
             (fun i line ->
               if i = 4999 then line else if i mod 7 = 0 then line ^ "\r\n" else line ^ "\n")
             lines)
      in
      let expected =
        String.concat "" (List.map (fun line -> Server.handle_line server line ^ "\n") lines)
      in
      let output = serve_streamed server [ script ] in
      Alcotest.(check int) "one response per request" 5000
        (List.length (String.split_on_char '\n' output) - 1);
      Alcotest.(check bool) "answered in order, byte-equal handle_line" true
        (String.equal expected output))

let test_sigterm_sets_drain () =
  with_temp_file (fun path ->
      spit path front_v2;
      let server, _ = server_on path in
      let previous = Sys.signal Sys.sigterm Sys.Signal_ignore in
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
        (fun () ->
          Server.install_sigterm server;
          Alcotest.(check bool) "not draining yet" false (Server.draining server);
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          (* Signal delivery happens at a safe point; give the runtime a
             few of them. *)
          let deadline = Unix.gettimeofday () +. 5. in
          while (not (Server.draining server)) && Unix.gettimeofday () < deadline do
            ignore (Sys.opaque_identity (ref 0));
            (try Unix.sleepf 0.01 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
          done;
          Alcotest.(check bool) "draining after SIGTERM" true (Server.draining server)))

let suite =
  [
    Alcotest.test_case "protocol: typed errors" `Quick test_typed_errors;
    Alcotest.test_case "predict: bit-identical to Model.predict" `Quick
      test_predict_bit_identical;
    Alcotest.test_case "front: listing with non-finite errors" `Quick test_front_listing;
    Alcotest.test_case "explain: matches Export printers" `Quick test_explain_matches_export;
    Alcotest.test_case "stats: counters and histograms" `Quick test_stats_counters;
    Alcotest.test_case "reload: atomic swap" `Quick test_reload_swaps_atomically;
    Alcotest.test_case "reload: failure keeps old front" `Quick
      test_reload_failure_keeps_old_front;
    Alcotest.test_case "reload: through requests" `Quick test_reload_through_requests;
    Alcotest.test_case "serve_fds: session over pipes" `Quick test_serve_fds_session;
    Alcotest.test_case "serve_fds: trailing line without newline" `Quick
      test_serve_fds_trailing_line_without_newline;
    Alcotest.test_case "drain: finishes in-flight only" `Quick test_drain_finishes_in_flight_only;
    Alcotest.test_case "sigterm: sets drain" `Quick test_sigterm_sets_drain;
    Alcotest.test_case "serve_fds: line over many reads" `Quick test_serve_fds_long_line;
    Alcotest.test_case "serve_fds: 5000 pipelined requests" `Quick test_serve_fds_pipelined;
  ]
