(* serve_mix: the served half of the product.  One client holds one Unix
   socket connection to a `caffeine_cli serve --reload` process serving the
   six OTA fronts, in a closed loop of single-row and 243-row predicts
   (exactly one batch in ten, at seeded positions).  Every 1000 requests
   the client swaps the front file between two versions, so reloads run
   beside reads.

   The fronts come from one fixed six-performance fit at set-up, so every
   run serves the same models; the seed draws the request rows (inside
   the test DOE's box) and the order of the mix. *)

module Config = Caffeine.Config
module Dataset = Caffeine_io.Dataset
module Fused = Caffeine_expr.Fused
module Json = Caffeine_obs.Json
module Metrics = Caffeine_obs.Metrics
module Model = Caffeine.Model
module Model_io = Caffeine.Model_io
module Ota = Caffeine_ota.Ota
module Registry = Caffeine_serve.Registry
module Rng = Caffeine_util.Rng
module Sag = Caffeine.Sag
module Server = Caffeine_serve.Server

let k_rtt = Spans.kind "client.rtt"
let k_swap = Spans.kind "bench.swap"

(* --- the served fronts ------------------------------------------------------ *)

let front_seed = 4243
let front_generations = 10
let wb = Config.paper.Config.wb
let wvc = Config.paper.Config.wvc

type fronts = {
  scored : Sag.scored list array;  (** the six tradeoffs, for [front_hv] *)
  versions : string array;  (** the two front files the client swaps between *)
  models : Model.t array array;  (** each version as [Model_io.load] reads it *)
}

let make_fronts ~jobs =
  let settings =
    {
      Fits.config =
        Config.scaled ~pop_size:200 ~generations:front_generations ~jobs Config.paper;
      eval_cache = Caffeine.Eval_cache.Exact;
    }
  in
  let tasks = Ota_fit.make_tasks ~seed:front_seed (Ota_fit.setup ()) ~pass:0 in
  let scored =
    Fits.with_executor settings (fun executor ->
        Array.map (Fits.run_task settings executor) tasks)
  in
  let all = Fits.models_of scored in
  (* Version b drops the last model: a different size, so the server's
     (mtime, size) check always sees the swap. *)
  let b = List.filteri (fun i _ -> i < List.length all - 1) all in
  let versions = [| Util.out_path "serve_a.models"; Util.out_path "serve_b.models" |] in
  Array.iteri
    (fun v models -> Model_io.save ~path:versions.(v) ~var_names:Ota.var_names models)
    [| all; b |];
  let load path =
    match Model_io.load ~path ~wb ~wvc with
    | Ok (_, models) -> Array.of_list models
    | Error msg -> failwith msg
  in
  { scored; versions; models = Array.map load versions }

(* --- requests --------------------------------------------------------------- *)

let batch_rows = 243
let point_pool = 512
let batch_pool = 16
let pass_len = 100
let batches_per_pass = 10
let swap_every = 1000

type request = {
  line : string;  (** with its newline *)
  batch : bool;
  first : int;  (** its first row in the pool *)
  rows : int;
}

type pool = {
  requests : request array;  (** [point_pool] points, then [batch_pool] batches *)
  expected : float array array array;  (** version -> model -> pool row *)
  columns : float array array;  (** pool rows, variable-major *)
}

(* Rows drawn uniformly inside the test DOE's box (nominal +- 3%). *)
let make_pool rng (fronts : fronts) =
  let row () = Array.map (fun v -> Rng.range rng (0.97 *. v) (1.03 *. v)) Ota.nominal in
  let points = Array.init point_pool (fun _ -> [| row () |]) in
  let batches = Array.init batch_pool (fun _ -> Array.init batch_rows (fun _ -> row ())) in
  let groups = Array.append points batches in
  let rows = Array.concat (Array.to_list groups) in
  let encode group =
    let b = Buffer.create 64 in
    Buffer.add_string b "{\"op\":\"predict\",\"rows\":[";
    Array.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '[';
        Array.iteri
          (fun j x ->
            if j > 0 then Buffer.add_char b ',';
            Printf.bprintf b "%.17g" x)
          r;
        Buffer.add_char b ']')
      group;
    Buffer.add_string b "]}\n";
    Buffer.contents b
  in
  let first = ref 0 in
  let requests =
    Array.map
      (fun group ->
        let r =
          {
            line = encode group;
            batch = Array.length group > 1;
            first = !first;
            rows = Array.length group;
          }
        in
        first := !first + Array.length group;
        r)
      groups
  in
  let data = Dataset.of_rows ~var_names:Ota.var_names rows in
  {
    requests;
    expected = Array.map (Array.map (fun m -> Model.predict m data)) fronts.models;
    columns = Array.init (Array.length Ota.var_names) (Dataset.column data);
  }

(* The k-th pass of 100 requests: ten batches at seeded positions. *)
let pass_requests rng pool =
  let batch_at = Array.make pass_len false in
  Array.iter
    (fun i -> batch_at.(i) <- true)
    (Rng.sample_without_replacement rng batches_per_pass pass_len);
  Array.map
    (fun batch ->
      if batch then pool.requests.(point_pool + Rng.int rng batch_pool)
      else pool.requests.(Rng.int rng point_pool))
    batch_at

(* --- checking a response -------------------------------------------------------- *)

exception Mismatch

(* A response must be {"ok":true,"models":M,"rows":N,"outputs":[...]} with
   every output bit-identical to [Model.predict] of the loaded models.
   Parsed here by hand, apart from the server's JSON code. *)
let response_ok ~(expected : float array array) (r : request) resp =
  let len = String.length resp and pos = ref 0 in
  let expect s =
    let n = String.length s in
    if !pos + n <= len && String.sub resp !pos n = s then pos := !pos + n else raise Mismatch
  in
  let token () =
    let start = !pos in
    while !pos < len && resp.[!pos] <> ',' && resp.[!pos] <> ']' do
      incr pos
    done;
    String.sub resp start (!pos - start)
  in
  let number () =
    match token () with
    | "\"NaN\"" -> Float.nan
    | "\"Infinity\"" -> Float.infinity
    | "\"-Infinity\"" -> Float.neg_infinity
    | t -> ( match float_of_string_opt t with Some v -> v | None -> raise Mismatch)
  in
  let int_field () =
    let start = !pos in
    while !pos < len && resp.[!pos] >= '0' && resp.[!pos] <= '9' do
      incr pos
    done;
    match int_of_string_opt (String.sub resp start (!pos - start)) with
    | Some v -> v
    | None -> raise Mismatch
  in
  let same a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    || (Float.is_nan a && Float.is_nan b)
  in
  try
    expect "{\"ok\":true,\"models\":";
    let models = int_field () in
    expect ",\"rows\":";
    let rows = int_field () in
    expect ",\"outputs\":[";
    if models <> Array.length expected || rows <> r.rows then raise Mismatch;
    for k = 0 to models - 1 do
      if k > 0 then expect ",";
      expect "[";
      for i = 0 to rows - 1 do
        if i > 0 then expect ",";
        if not (same (number ()) expected.(k).(r.first + i)) then raise Mismatch
      done;
      expect "]"
    done;
    expect "]}";
    !pos = len
  with Mismatch -> false

(* --- the server process ---------------------------------------------------------- *)

let cli () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "caffeine_cli.exe" ]

(* Relative to the working directory the server inherits, which keeps the
   address short. *)
let socket_path name = Filename.concat Util.out_dir name

type server = {
  pid : int;
  fd : Unix.file_descr;
  input : in_channel;
}

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len

let round_trip server line =
  write_all server.fd line 0 (String.length line);
  input_line server.input

(* Servers still running; killed at exit if the run stops early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn a server and connect to it, polling until it listens. *)
let spawn ~front ~name =
  let sock = socket_path name in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Util.out_path "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let exe = cli () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--front"; front; "--socket"; sock; "--reload" |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { pid; fd; input = Unix.in_channel_of_descr fd }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        let exited = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> false | _ -> true in
        if exited || tries = 0 then
          failwith ("serve_mix: server did not come up; see " ^ Util.out_path "server.log");
        Unix.sleepf 1e-4;
        connect (tries - 1)
  in
  connect 100_000

let shutdown server =
  close_in server.input;
  Unix.kill server.pid Sys.sigterm;
  ignore (Unix.waitpid [] server.pid);
  live := List.filter (( <> ) server.pid) !live

(* Spawn to first response: process start, registry load, fused compile,
   socket accept, one point predict. *)
let timed_spawn ~front ~name ~(first : request) =
  let t0 = Util.now_ns () in
  let server = spawn ~front ~name in
  let resp = round_trip server first.line in
  (server, resp, Util.seconds_between t0 (Util.now_ns ()))

(* CPU seconds (user + system) of a process so far: fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name. *)
let process_cpu_s pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.
  | stat -> (
      let from = String.rindex stat ')' + 2 in
      match String.split_on_char ' ' (String.sub stat from (String.length stat - from)) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
          float_of_int (int_of_string utime + int_of_string stime) /. 100.
      | _ -> 0.)

let stats_reloads server =
  let resp = round_trip server "{\"op\":\"stats\"}\n" in
  match Json.parse resp with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "counters" fields with
      | Some (Json.Obj counters) -> (
          match List.assoc_opt "reloads" counters with
          | Some (Json.Num n) -> int_of_string n
          | _ -> -1)
      | _ -> -1)
  | _ -> -1

(* --- the closed loop --------------------------------------------------------------- *)

type sample = {
  req : request;
  version : int;  (** the front version the request was checked against *)
  rtt_s : float;
  ok : bool;
}

(* One pass: 100 requests, with the client's wall time and the part of it
   the benchmark spent outside round trips (checks and front swaps). *)
type pass = {
  samples : sample array;
  wall_s : float;
  bench_s : float;
}

type client = {
  server : server;
  prepared : prepared;
  mutable sent : int;
  mutable version : int;
}

and prepared = {
  fronts : fronts;
  pool : pool;
  rng : Rng.t;
  served : string;
}

let swap c =
  Spans.span k_swap (fun () ->
      c.version <- 1 - c.version;
      Util.replace_file ~src:c.prepared.fronts.versions.(c.version) c.prepared.served)

let run_pass c =
  let t0 = Util.now_ns () and bench = ref 0. in
  let one req =
    if c.sent > 0 && c.sent mod swap_every = 0 then begin
      let (), dt = Util.time (fun () -> swap c) in
      bench := !bench +. dt
    end;
    let a = Util.now_ns () in
    let resp = Spans.span k_rtt (fun () -> round_trip c.server req.line) in
    let b = Util.now_ns () in
    let ok, dt =
      Util.time (fun () ->
          Spans.span Fits.k_check (fun () ->
              response_ok ~expected:c.prepared.pool.expected.(c.version) req resp))
    in
    bench := !bench +. dt;
    c.sent <- c.sent + 1;
    { req; version = c.version; rtt_s = Util.seconds_between a b; ok }
  in
  let samples = Array.map one (pass_requests c.prepared.rng c.prepared.pool) in
  { samples; wall_s = Util.seconds_between t0 (Util.now_ns ()); bench_s = !bench }

let rtts (p : pass) = Array.map (fun s -> s.rtt_s) p.samples
let sum = Array.fold_left ( +. ) 0.

(* --- the workload ------------------------------------------------------------------- *)

let setup_reps = 12

let prepare ~seed ~jobs =
  let fronts = make_fronts ~jobs in
  let rng = Rng.create ~seed () in
  let pool = make_pool rng fronts in
  let served = Util.out_path "served.models" in
  Util.replace_file ~src:fronts.versions.(0) served;
  { fronts; pool; rng; served }

let front_hv (f : fronts) =
  Util.mean (Array.map Fits.hypervolume f.scored)

(* Passes until [seconds] of client time have passed.  The set-up time
   samples are the main server's own start and [setup_reps - 1]
   short-lived servers of version a started between passes, spread over
   the run. *)
let serve_passes ~seconds ?(spanned = fun _ -> false) (p : prepared) =
  let first = p.pool.requests.(0) in
  let check resp = response_ok ~expected:p.pool.expected.(0) first resp in
  let server, resp, setup0 = timed_spawn ~front:p.served ~name:"serve.sock" ~first in
  let c = { server; prepared = p; sent = 0; version = 0 } in
  let setups = ref [ (setup0, check resp) ] in
  let passes = ref [] in
  let start = Util.now_ns () in
  let elapsed () = Util.seconds_between start (Util.now_ns ()) in
  while elapsed () < seconds || List.length !passes < 3 do
    let reps = List.length !setups in
    if reps < setup_reps && elapsed () >= float_of_int reps *. seconds /. float_of_int setup_reps
    then begin
      let extra, resp, dt = timed_spawn ~front:p.fronts.versions.(0) ~name:"setup.sock" ~first in
      shutdown extra;
      setups := (dt, check resp) :: !setups
    end;
    Spans.set_recording (spanned (List.length !passes));
    let pass = run_pass c in
    Spans.set_recording false;
    passes := pass :: !passes
  done;
  (c, List.rev !setups, Array.of_list (List.rev !passes))

let failures setups passes =
  List.length (List.filter (fun (_, ok) -> not ok) setups)
  + Array.fold_left
      (fun acc (p : pass) ->
        Array.fold_left (fun acc s -> if s.ok then acc else acc + 1) acc p.samples)
      0 passes

let attempted setups passes = List.length setups + (pass_len * Array.length passes)
let all_samples passes =
  Array.concat (Array.to_list (Array.map (fun (p : pass) -> p.samples) passes))

(* Every timing is the median of its samples over the run: [pass_s] of
   the passes' summed round trips (100 requests of the mix), [op_p50_ms]
   of every round trip, [setup_s] of the server starts. *)
let run_untraced ~seed ~seconds ~jobs =
  let p = prepare ~seed ~jobs in
  let c, setups, passes = serve_passes ~seconds p in
  let peak_rss_mb = Util.peak_rss_mb ~pid:(string_of_int c.server.pid) () in
  shutdown c.server;
  let setup_times = Array.of_list (List.map fst setups) in
  let pass_times = Array.map (fun p -> sum (rtts p)) passes in
  Util.print_samples "setup_s" setup_times;
  Util.print_samples "pass_s" pass_times;
  {
    Report.attempted = attempted setups passes;
    failed = failures setups passes;
    checks = [];
    metrics =
      [
        ("setup_s", Util.median setup_times);
        ("pass_s", Util.median pass_times);
        ("op_p50_ms", 1e3 *. Util.median (Array.map (fun s -> s.rtt_s) (all_samples passes)));
        ("front_hv", front_hv p.fronts);
        ("peak_rss_mb", peak_rss_mb);
      ];
  }

(* --- the traced run ---------------------------------------------------------------- *)

let k_handle = Spans.kind "server.handle_line"
let k_decode = Spans.kind "json.parse"
let k_eval = Spans.kind "fused.eval_columns"
let k_encode = Spans.kind "json.add_float"
let k_registry = Spans.kind "registry.create"
let k_reload = Spans.kind "registry.check_reload"

let timed_reps n f = Util.median (Array.init n (fun _ -> snd (Util.time f)))

(* The request's rows, variable-major, as the server builds them. *)
let request_columns pool (r : request) =
  Array.map (fun col -> Array.sub col r.first r.rows) pool.columns

type replayed = {
  handle_s : float;
  decode_s : float;
  eval_s : float;
  encode_s : float;
}

(* The client's request sequence replayed in process through
   [Server.handle_line], swapping the front file at the same points; each
   request is then repeated through the three calls the server makes —
   [Json.parse] of the line, [Fused.eval_columns] on the current tape and
   [Json.add_float] over the outputs — each timed on its own. *)
let replay (p : prepared) (samples : sample array) =
  let path = Util.out_path "replay.models" in
  let install v = Util.replace_file ~src:p.fronts.versions.(v) path in
  install 0;
  let create () =
    match Registry.create ~path ~wb ~wvc () with Ok r -> r | Error msg -> failwith msg
  in
  let load_ms = 1e3 *. timed_reps 5 (fun () -> ignore (Spans.span k_registry create)) in
  let model_io_s = timed_reps 5 (fun () -> ignore (Model_io.load ~path ~wb ~wvc)) in
  let registry = create () in
  let config = Server.config ~reload:true registry in
  let scratch = Fused.scratch () in
  let reloads = ref [] and version = ref 0 in
  let swap () =
    version := 1 - !version;
    install !version;
    let outcome, dt =
      Util.time (fun () -> Spans.span k_reload (fun () -> Registry.check_reload registry))
    in
    (match outcome with
    | `Reloaded -> ()
    | `Unchanged | `Failed _ -> failwith "replay: reload missed");
    reloads := dt :: !reloads
  in
  let one i (s : sample) =
    if i > 0 && i mod swap_every = 0 then swap ();
    let line = String.sub s.req.line 0 (String.length s.req.line - 1) in
    let timed kind f = snd (Util.time (fun () -> ignore (Spans.span kind f))) in
    let handle_s = timed k_handle (fun () -> Server.handle_line config line) in
    let decode_s = timed k_decode (fun () -> Json.parse line) in
    let columns = request_columns p.pool s.req in
    let fused = (Registry.current registry).Registry.fused in
    let outputs, eval_s =
      Util.time (fun () ->
          Spans.span k_eval (fun () -> Fused.eval_columns fused ~scratch ~columns ~n:s.req.rows))
    in
    let b = Buffer.create (16 * s.req.rows * Array.length outputs) in
    let encode_s =
      timed k_encode (fun () ->
          Array.iter
            (Array.iter (fun y ->
                 Json.add_float b y;
                 Buffer.add_char b ','))
            outputs)
    in
    { handle_s; decode_s; eval_s; encode_s }
  in
  let replayed = Array.mapi one samples in
  (* One more swap, so a short run still times a reload. *)
  swap ();
  let fused = (Registry.current registry).Registry.fused in
  ( replayed,
    [
      ("registry.load_ms", load_ms);
      ("registry.nodes_out", float_of_int (Fused.nodes_out fused));
      ("registry.reload_ms", 1e3 *. Util.median (Array.of_list !reloads));
      ("model_io.load_s", model_io_s);
    ] )

let run_traced ~seed ~seconds ~jobs =
  let p = prepare ~seed ~jobs in
  let c, setups, passes =
    serve_passes ~seconds:(seconds /. 2.) ~spanned:(fun k -> k mod 2 = 1) p
  in
  let reloads = stats_reloads c.server in
  let server_cpu = process_cpu_s c.server.pid in
  shutdown c.server;
  let samples = all_samples passes in
  let replayed, registry = replay p samples in
  let us v = 1e6 *. v in
  let of_class batch f =
    let picked = ref [] in
    Array.iteri (fun i s -> if s.req.batch = batch then picked := f i s :: !picked) samples;
    Array.of_list !picked
  in
  let rtt_of batch = of_class batch (fun _ s -> s.rtt_s) in
  let handle_of batch = of_class batch (fun i _ -> replayed.(i).handle_s) in
  let mean_of f = Util.mean (Array.map f replayed) in
  let spanned = List.filteri (fun k _ -> k mod 2 = 1) (Array.to_list passes) in
  let plain = List.filteri (fun k _ -> k mod 2 = 0) (Array.to_list passes) in
  let pass_sum ps = Array.of_list (List.map (fun q -> sum (rtts q)) ps) in
  let attributed =
    sum (pass_sum spanned)
    /. List.fold_left (fun acc (q : pass) -> acc +. q.wall_s -. q.bench_s) 0. spanned
  in
  let predictions = Metrics.counter_value (Metrics.counter Metrics.default "serve.predictions") in
  let expected_predictions =
    Array.fold_left
      (fun acc s -> acc + (s.req.rows * Array.length p.fronts.models.(s.version)))
      0 samples
  in
  Printf.printf "count %-28s %14d  %s\n" "serve.predictions" predictions
    (if predictions = expected_predictions then "exact" else "racy");
  Printf.printf "count %-28s %14d  %s\n" "registry.reloads" reloads
    (if reloads = (Array.length samples - 1) / swap_every then "exact" else "racy");
  (* Each layer's share of the client's round trips. *)
  let rtt = Util.mean (Array.map (fun s -> s.rtt_s) samples) in
  let transport = Util.mean (Array.mapi (fun i s -> s.rtt_s -. replayed.(i).handle_s) samples) in
  let decode = mean_of (fun r -> r.decode_s)
  and eval = mean_of (fun r -> r.eval_s)
  and encode = mean_of (fun r -> r.encode_s)
  and handle = mean_of (fun r -> r.handle_s) in
  List.iter
    (fun (name, v) -> Printf.printf "share %-28s %6.3f\n" name (v /. rtt))
    [
      ("transport", transport);
      ("server.handle_line (self)", handle -. decode -. eval -. encode);
      ("json.parse", decode);
      ("fused.eval_columns", eval);
      ("json.add_float", encode);
    ];
  Spans.write (Util.out_path "serve_mix.spans");
  {
    Report.attempted = attempted setups passes;
    failed = failures setups passes;
    checks = [ ("layer spans cover 95% of traced wall time", attributed >= 0.95) ];
    metrics =
      [
        ("client.point_p50_us", us (Util.median (rtt_of false)));
        ("client.point_p99_us", us (Util.quantile 0.99 (rtt_of false)));
        ("client.batch_p50_ms", 1e3 *. Util.median (rtt_of true));
        ("client.batch_p90_ms", 1e3 *. Util.quantile 0.9 (rtt_of true));
        ("client.rps", 1. /. rtt);
        ("server.handle_us.point", us (Util.median (handle_of false)));
        ("server.handle_us.batch", us (Util.median (handle_of true)));
        ("json.decode_us", us decode);
        ("fused.eval_us", us eval);
        ("json.encode_us", us encode);
        ("transport_us", us transport);
        ("registry.reloads", float_of_int reloads);
        ("process.cpu_s", server_cpu);
        ("trace.attributed_ratio", attributed);
        ("trace.overhead_ratio", Util.median (pass_sum spanned) /. Util.median (pass_sum plain));
      ]
      @ registry;
  }
