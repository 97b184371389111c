module Model = Caffeine.Model
module Export = Caffeine.Export
module Fused = Caffeine_expr.Fused
module Json = Caffeine_obs.Json
module Metrics = Caffeine_obs.Metrics

type config = {
  registry : Registry.t;
  reload : bool;
  drain : bool Atomic.t;
  scratch : Fused.scratch;
  m_requests : Metrics.counter;
  m_errors : Metrics.counter;
  m_predictions : Metrics.counter;
  h_predict : Metrics.histogram;
  h_front : Metrics.histogram;
  h_explain : Metrics.histogram;
  h_stats : Metrics.histogram;
}

(* Second-scale buckets: a stdio predict on a small front lands around
   1e-5..1e-3 s, so the low buckets resolve the fast path and the top ones
   catch stalls. *)
let latency_buckets = [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1. |]

let config ?(metrics = Metrics.default) ?(reload = false) registry =
  let histogram name = Metrics.histogram metrics ~buckets:(Array.copy latency_buckets) name in
  {
    registry;
    reload;
    drain = Atomic.make false;
    scratch = Fused.scratch ();
    m_requests = Metrics.counter metrics "serve.requests";
    m_errors = Metrics.counter metrics "serve.errors";
    m_predictions = Metrics.counter metrics "serve.predictions";
    h_predict = histogram "serve.latency.predict";
    h_front = histogram "serve.latency.front";
    h_explain = histogram "serve.latency.explain";
    h_stats = histogram "serve.latency.stats";
  }

let drain config = Atomic.set config.drain true
let draining config = Atomic.get config.drain

let install_sigterm config =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set config.drain true))

(* A typed protocol rejection: [kind] is the wire-visible error type. *)
exception Reject of string * string

let reject kind fmt = Printf.ksprintf (fun msg -> raise (Reject (kind, msg))) fmt

let error_response kind msg =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"ok\":false,\"error\":";
  Json.add_string b kind;
  Buffer.add_string b ",\"message\":";
  Json.add_string b msg;
  Buffer.add_char b '}';
  Buffer.contents b

let timed hist f =
  let start = Metrics.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Metrics.now_ns () in
      Metrics.observe hist (Int64.to_float (Int64.sub stop start) *. 1e-9))
    f

let op_predict config (front : Registry.front) fields =
  let rows = Json.arr_of fields "rows" in
  let dims = Array.length front.var_names in
  let n = List.length rows in
  let columns = Array.init dims (fun _ -> Array.make n 0.) in
  List.iteri
    (fun i row ->
      let cells = Json.to_arr "rows" row in
      let width = List.length cells in
      if width <> dims then
        reject "bad_request" "row %d has %d values, expected %d (one per design variable)" i
          width dims;
      List.iteri
        (fun v cell ->
          let x = Json.to_float "rows" cell in
          if not (Float.is_finite x) then
            reject "non_finite_input" "row %d, column %d (%s) is not finite" i v
              front.var_names.(v);
          columns.(v).(i) <- x)
        cells)
    rows;
  let outputs = Fused.eval_columns front.fused ~scratch:config.scratch ~columns ~n in
  let models = Array.length front.models in
  Metrics.add config.m_predictions (models * n);
  (* Room for the widest float (24 bytes) and a separator per output, so
     the buffer never regrows. *)
  let b = Buffer.create (64 + (models * ((n * 25) + 2))) in
  Printf.bprintf b "{\"ok\":true,\"models\":%d,\"rows\":%d,\"outputs\":[" models n;
  Array.iteri
    (fun k out ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      Array.iteri
        (fun i y ->
          if i > 0 then Buffer.add_char b ',';
          Json.add_float b y)
        out;
      Buffer.add_char b ']')
    outputs;
  Buffer.add_string b "]}";
  Buffer.contents b

let op_front (front : Registry.front) =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"ok\":true,\"path\":";
  Json.add_string b front.path;
  Printf.bprintf b ",\"generation\":%d,\"models\":%d,\"front\":[" front.generation
    (Array.length front.models);
  Array.iteri
    (fun k (m : Model.t) ->
      if k > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"index\":%d,\"complexity\":" k;
      Json.add_float b m.Model.complexity;
      Buffer.add_string b ",\"train_error\":";
      Json.add_float b m.Model.train_error;
      Printf.bprintf b ",\"bases\":%d,\"expression\":" (Model.num_bases m);
      Json.add_string b (Model.to_string ~var_names:front.var_names m);
      Buffer.add_char b '}')
    front.models;
  Buffer.add_string b "]}";
  Buffer.contents b

let op_explain (front : Registry.front) fields =
  let index =
    match List.assoc_opt "index" fields with
    | None -> reject "bad_request" "missing field \"index\""
    | Some v -> Json.to_int "index" v
  in
  let language =
    match List.assoc_opt "language" fields with
    | None -> "text"
    | Some v -> Json.to_str "language" v
  in
  let models = front.models in
  if index < 0 || index >= Array.length models then
    reject "out_of_range" "index %d outside the front (%d models)" index (Array.length models);
  let m = models.(index) in
  let var_names = front.var_names in
  let code =
    match language with
    | "text" -> Model.to_string ~var_names m
    | "c" -> Export.to_c ~name:(Printf.sprintf "model_%d" index) ~var_names m
    | "verilog-a" -> Export.to_verilog_a ~name:(Printf.sprintf "model_%d" index) ~var_names m
    | lang ->
        reject "bad_request" "unknown language %S (expected \"text\", \"c\" or \"verilog-a\")"
          lang
  in
  let b = Buffer.create (64 + String.length code) in
  Printf.bprintf b "{\"ok\":true,\"index\":%d,\"language\":" index;
  Json.add_string b language;
  Buffer.add_string b ",\"code\":";
  Json.add_string b code;
  Buffer.add_char b '}';
  Buffer.contents b

let op_stats config (front : Registry.front) =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"ok\":true,\"front\":{\"path\":";
  Json.add_string b front.path;
  Printf.bprintf b ",\"generation\":%d,\"models\":%d},\"counters\":{" front.generation
    (Array.length front.models);
  Printf.bprintf b "\"requests\":%d,\"errors\":%d,\"predictions\":%d,"
    (Metrics.counter_value config.m_requests)
    (Metrics.counter_value config.m_errors)
    (Metrics.counter_value config.m_predictions);
  Printf.bprintf b "\"reloads\":%d,\"reload_failures\":%d}"
    (Registry.reloads config.registry)
    (Registry.reload_failures config.registry);
  Buffer.add_string b ",\"latency\":{";
  List.iteri
    (fun i (name, hist) ->
      if i > 0 then Buffer.add_char b ',';
      Json.add_string b name;
      Buffer.add_string b ":{\"bounds\":[";
      Array.iteri
        (fun j bound ->
          if j > 0 then Buffer.add_char b ',';
          Json.add_float b bound)
        (Metrics.bucket_bounds hist);
      Buffer.add_string b "],\"counts\":[";
      Array.iteri
        (fun j count ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "%d" count)
        (Metrics.bucket_counts hist);
      Buffer.add_string b "]}")
    [
      ("predict", config.h_predict);
      ("front", config.h_front);
      ("explain", config.h_explain);
      ("stats", config.h_stats);
    ];
  Buffer.add_string b "}}";
  Buffer.contents b

let handle_line config line =
  Metrics.incr config.m_requests;
  (if config.reload then
     match Registry.check_reload config.registry with
     | `Unchanged | `Reloaded | `Failed _ -> ());
  try
    let fields =
      match Json.parse line with
      | Error msg -> reject "parse_error" "%s" msg
      | Ok (Json.Obj fields) -> fields
      | Ok _ -> reject "bad_request" "request must be a JSON object"
    in
    let op =
      match List.assoc_opt "op" fields with
      | Some (Json.Str op) -> op
      | Some _ -> reject "bad_request" "field \"op\" must be a string"
      | None -> reject "bad_request" "missing field \"op\""
    in
    let front = Registry.current config.registry in
    match op with
    | "predict" -> timed config.h_predict (fun () -> op_predict config front fields)
    | "front" -> timed config.h_front (fun () -> op_front front)
    | "explain" -> timed config.h_explain (fun () -> op_explain front fields)
    | "stats" -> timed config.h_stats (fun () -> op_stats config front)
    | op -> reject "bad_request" "unknown op %S" op
  with
  | Reject (kind, msg) ->
      Metrics.incr config.m_errors;
      error_response kind msg
  | Json.Parse_error msg ->
      Metrics.incr config.m_errors;
      error_response "bad_request" msg

let rec read_retry fd buf pos len =
  match Unix.read fd buf pos len with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf pos len
  | n -> n

let rec write_all fd bytes pos len =
  if len > 0 then
    match Unix.write fd bytes pos len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes pos len
    | n -> write_all fd bytes (pos + n) (len - n)

(* Index of the first newline in [bytes.[from .. until - 1]];
   [Bytes.index_from_opt] would also scan the stale bytes past [until]. *)
let rec newline_from bytes from until =
  if from >= until then None
  else if Bytes.unsafe_get bytes from = '\n' then Some from
  else newline_from bytes (from + 1) until

let serve_fds ?(on_line = ignore) config ~input ~output =
  let chunk_len = 65536 in
  (* Unconsumed input is [buf.[start .. fill - 1]], and [buf.[start ..
     scanned - 1]] holds no newline, so each byte is read once and scanned
     once however many reads a line spans or lines a read carries. *)
  let buf = ref (Bytes.create chunk_len) in
  let start = ref 0 and scanned = ref 0 and fill = ref 0 in
  let stop = ref false in
  let respond first last =
    let last = if last > first && Bytes.get !buf (last - 1) = '\r' then last - 1 else last in
    let line = Bytes.sub_string !buf first (last - first) in
    (if String.trim line <> "" then begin
       on_line line;
       let response = handle_line config line ^ "\n" in
       write_all output (Bytes.unsafe_of_string response) 0 (String.length response)
     end);
    (* Graceful drain: the response just written completes, buffered
       requests behind it do not start. *)
    if draining config then stop := true
  in
  let rec consume_lines () =
    if not !stop then
      match newline_from !buf !scanned !fill with
      | None -> scanned := !fill
      | Some nl ->
          let first = !start in
          start := nl + 1;
          scanned := nl + 1;
          respond first nl;
          consume_lines ()
  in
  (* Room for one more chunk: drop the consumed prefix once it is all of
     the input or passes half the buffer, and double the buffer when still
     short. *)
  let make_room () =
    if !start = !fill || !start > Bytes.length !buf / 2 then begin
      Bytes.blit !buf !start !buf 0 (!fill - !start);
      scanned := !scanned - !start;
      fill := !fill - !start;
      start := 0
    end;
    if Bytes.length !buf - !fill < chunk_len then begin
      let grown = Bytes.create (max (2 * Bytes.length !buf) (!fill + chunk_len)) in
      Bytes.blit !buf 0 grown 0 !fill;
      buf := grown
    end
  in
  let eof = ref false in
  while (not !stop) && not !eof do
    match Unix.select [ input ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> if draining config then stop := true
    | _ ->
        make_room ();
        let n = read_retry input !buf !fill chunk_len in
        if n = 0 then eof := true
        else begin
          fill := !fill + n;
          consume_lines ()
        end
  done;
  if !eof && not !stop then respond !start !fill

let serve_socket ?(on_ready = ignore) config ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      on_ready ();
      while not (draining config) do
        match Unix.select [ sock ] [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Unix.accept sock with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | conn, _ ->
                Fun.protect
                  ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
                  (fun () -> serve_fds config ~input:conn ~output:conn))
      done)
