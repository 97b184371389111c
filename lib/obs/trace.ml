type run_start = {
  seed : int;
  pop_size : int;
  generations : int;
  max_bases : int;
  samples : int;
  dims : int;
}

type generation = {
  gen : int;
  evals : int;
  front_size : int;
  best_nmse : float;
  median_nmse : float;
  complexity_min : float;
  complexity_median : float;
  complexity_max : float;
  crossovers : int;
  op_counts : int array;
  depth_rejects : int;
  wall_s : float;
}

type op_stats = {
  gen : int;
  applied : int array;
  changed : int array;
}

type sag_round = {
  model_index : int;
  round : int;
  chosen : int;
  press_before : float;
  press_after : float;
}

type sag_model = {
  model_index : int;
  bases_before : int;
  bases_after : int;
}

type cache_stats = {
  columns_cached : int;
  column_hits : int;
  column_misses : int;
  column_evictions : int;
  dots_cached : int;
  dot_hits : int;
  dot_misses : int;
  dot_evictions : int;
}

type eval_cache_stats = {
  eval_hits : int;
  eval_misses : int;
  eval_evictions : int;
}

type fused_stats = {
  gen : int;
  batches : int;
  nodes_in : int;
  nodes_out : int;
}

type run_end = {
  front : (float * float) list;
  total_wall_s : float;
}

type checkpoint_written = {
  path : string;
  phase : string;
  island : int;
  gen : int;
}

type run_resumed = {
  phase : string;
  island : int;
  gen : int;
}

type warning = {
  context : string;
  message : string;
}

type migration = {
  island : int;
  shard : int;
  models : int;
  bytes : int;
}

type record =
  | Run_start of run_start
  | Generation of generation
  | Op_stats of op_stats
  | Sag_round of sag_round
  | Sag_model of sag_model
  | Cache_stats of cache_stats
  | Eval_cache_stats of eval_cache_stats
  | Fused_stats of fused_stats
  | Run_end of run_end
  | Checkpoint_written of checkpoint_written
  | Run_resumed of run_resumed
  | Warning of warning
  | Migration of migration

(* --- encoding ----------------------------------------------------------- *)

let to_line record =
  let ints values = Json.Arr (List.map Json.int (Array.to_list values)) in
  let kind, members =
    match record with
    | Run_start r ->
        ( "run_start",
          [
            ("seed", Json.int r.seed);
            ("pop_size", Json.int r.pop_size);
            ("generations", Json.int r.generations);
            ("max_bases", Json.int r.max_bases);
            ("samples", Json.int r.samples);
            ("dims", Json.int r.dims);
          ] )
    | Generation g ->
        ( "generation",
          [
            ("gen", Json.int g.gen);
            ("evals", Json.int g.evals);
            ("front_size", Json.int g.front_size);
            ("best_nmse", Json.float g.best_nmse);
            ("median_nmse", Json.float g.median_nmse);
            ("complexity_min", Json.float g.complexity_min);
            ("complexity_median", Json.float g.complexity_median);
            ("complexity_max", Json.float g.complexity_max);
            ("crossovers", Json.int g.crossovers);
            ("op_counts", ints g.op_counts);
            ("depth_rejects", Json.int g.depth_rejects);
            ("wall_s", Json.float g.wall_s);
          ] )
    | Op_stats s ->
        ( "op_stats",
          [ ("gen", Json.int s.gen); ("applied", ints s.applied); ("changed", ints s.changed) ] )
    | Sag_round r ->
        ( "sag_round",
          [
            ("model_index", Json.int r.model_index);
            ("round", Json.int r.round);
            ("chosen", Json.int r.chosen);
            ("press_before", Json.float r.press_before);
            ("press_after", Json.float r.press_after);
          ] )
    | Sag_model m ->
        ( "sag_model",
          [
            ("model_index", Json.int m.model_index);
            ("bases_before", Json.int m.bases_before);
            ("bases_after", Json.int m.bases_after);
          ] )
    | Cache_stats c ->
        ( "cache_stats",
          [
            ("columns_cached", Json.int c.columns_cached);
            ("column_hits", Json.int c.column_hits);
            ("column_misses", Json.int c.column_misses);
            ("column_evictions", Json.int c.column_evictions);
            ("dots_cached", Json.int c.dots_cached);
            ("dot_hits", Json.int c.dot_hits);
            ("dot_misses", Json.int c.dot_misses);
            ("dot_evictions", Json.int c.dot_evictions);
          ] )
    | Eval_cache_stats e ->
        ( "eval_cache_stats",
          [
            ("eval_hits", Json.int e.eval_hits);
            ("eval_misses", Json.int e.eval_misses);
            ("eval_evictions", Json.int e.eval_evictions);
          ] )
    | Fused_stats f ->
        ( "fused_stats",
          [
            ("gen", Json.int f.gen);
            ("batches", Json.int f.batches);
            ("nodes_in", Json.int f.nodes_in);
            ("nodes_out", Json.int f.nodes_out);
          ] )
    | Run_end r ->
        let pair (a, b) = Json.Arr [ Json.float a; Json.float b ] in
        ( "run_end",
          [
            ("front", Json.Arr (List.map pair r.front));
            ("total_wall_s", Json.float r.total_wall_s);
          ] )
    | Checkpoint_written c ->
        ( "checkpoint_written",
          [
            ("path", Json.Str c.path);
            ("phase", Json.Str c.phase);
            ("island", Json.int c.island);
            ("gen", Json.int c.gen);
          ] )
    | Run_resumed r ->
        ( "run_resumed",
          [ ("phase", Json.Str r.phase); ("island", Json.int r.island); ("gen", Json.int r.gen) ] )
    | Warning w -> ("warning", [ ("context", Json.Str w.context); ("message", Json.Str w.message) ])
    | Migration m ->
        ( "migration",
          [
            ("island", Json.int m.island);
            ("shard", Json.int m.shard);
            ("models", Json.int m.models);
            ("bytes", Json.int m.bytes);
          ] )
  in
  Json.to_string (Json.Obj (("type", Json.Str kind) :: members))

(* --- decoding ----------------------------------------------------------- *)

let pair_list_of fields name =
  List.map
    (function
      | Json.Arr [ a; b ] -> (Json.to_float name a, Json.to_float name b)
      | _ -> raise (Json.Parse_error (Printf.sprintf "field %S is not a list of pairs" name)))
    (Json.arr_of fields name)

let of_line line =
  match Json.parse_exn line with
  | exception Json.Parse_error message -> Error message
  | json -> (
      match
        let fields = Json.obj json in
        match Json.member fields "type" with
        | Json.Str "run_start" ->
            Run_start
              {
                seed = Json.int_of fields "seed";
                pop_size = Json.int_of fields "pop_size";
                generations = Json.int_of fields "generations";
                max_bases = Json.int_of fields "max_bases";
                samples = Json.int_of fields "samples";
                dims = Json.int_of fields "dims";
              }
        | Json.Str "generation" ->
            Generation
              {
                gen = Json.int_of fields "gen";
                evals = Json.int_of fields "evals";
                front_size = Json.int_of fields "front_size";
                best_nmse = Json.float_of fields "best_nmse";
                median_nmse = Json.float_of fields "median_nmse";
                complexity_min = Json.float_of fields "complexity_min";
                complexity_median = Json.float_of fields "complexity_median";
                complexity_max = Json.float_of fields "complexity_max";
                crossovers = Json.int_of fields "crossovers";
                op_counts = Json.int_array_of fields "op_counts";
                depth_rejects = Json.int_of fields "depth_rejects";
                wall_s = Json.float_of fields "wall_s";
              }
        | Json.Str "op_stats" ->
            Op_stats
              {
                gen = Json.int_of fields "gen";
                applied = Json.int_array_of fields "applied";
                changed = Json.int_array_of fields "changed";
              }
        | Json.Str "sag_round" ->
            Sag_round
              {
                model_index = Json.int_of fields "model_index";
                round = Json.int_of fields "round";
                chosen = Json.int_of fields "chosen";
                press_before = Json.float_of fields "press_before";
                press_after = Json.float_of fields "press_after";
              }
        | Json.Str "sag_model" ->
            Sag_model
              {
                model_index = Json.int_of fields "model_index";
                bases_before = Json.int_of fields "bases_before";
                bases_after = Json.int_of fields "bases_after";
              }
        | Json.Str "cache_stats" ->
            Cache_stats
              {
                columns_cached = Json.int_of fields "columns_cached";
                column_hits = Json.int_of fields "column_hits";
                column_misses = Json.int_of fields "column_misses";
                column_evictions = Json.int_of fields "column_evictions";
                dots_cached = Json.int_of fields "dots_cached";
                dot_hits = Json.int_of fields "dot_hits";
                dot_misses = Json.int_of fields "dot_misses";
                dot_evictions = Json.int_of fields "dot_evictions";
              }
        | Json.Str "eval_cache_stats" ->
            Eval_cache_stats
              {
                eval_hits = Json.int_of fields "eval_hits";
                eval_misses = Json.int_of fields "eval_misses";
                eval_evictions = Json.int_of fields "eval_evictions";
              }
        | Json.Str "fused_stats" ->
            Fused_stats
              {
                gen = Json.int_of fields "gen";
                batches = Json.int_of fields "batches";
                nodes_in = Json.int_of fields "nodes_in";
                nodes_out = Json.int_of fields "nodes_out";
              }
        | Json.Str "run_end" ->
            Run_end
              {
                front = pair_list_of fields "front";
                total_wall_s = Json.float_of fields "total_wall_s";
              }
        | Json.Str "checkpoint_written" ->
            Checkpoint_written
              {
                path = Json.str_of fields "path";
                phase = Json.str_of fields "phase";
                island = Json.int_of fields "island";
                gen = Json.int_of fields "gen";
              }
        | Json.Str "run_resumed" ->
            Run_resumed
              {
                phase = Json.str_of fields "phase";
                island = Json.int_of fields "island";
                gen = Json.int_of fields "gen";
              }
        | Json.Str "warning" ->
            Warning
              { context = Json.str_of fields "context"; message = Json.str_of fields "message" }
        | Json.Str "migration" ->
            Migration
              {
                island = Json.int_of fields "island";
                shard = Json.int_of fields "shard";
                models = Json.int_of fields "models";
                bytes = Json.int_of fields "bytes";
              }
        | Json.Str other -> raise (Json.Parse_error (Printf.sprintf "unknown record type %S" other))
        | _ -> raise (Json.Parse_error "missing record type")
      with
      | record -> Ok record
      | exception Json.Parse_error message -> Error message)

let deterministic = function
  | Run_start _ as record -> Some record
  | Generation g -> Some (Generation { g with wall_s = 0. })
  | Op_stats _ as record -> Some record
  | Sag_round _ as record -> Some record
  | Sag_model _ as record -> Some record
  | Cache_stats _ -> None
  | Eval_cache_stats _ -> None
  (* Chunk boundaries (hence batch count and per-batch node totals) vary
     with the jobs setting, and which bases are already cached varies with
     evaluation-order races — reporting data, not part of the contract. *)
  | Fused_stats _ -> None
  | Run_end r -> Some (Run_end { r with total_wall_s = 0. })
  | Checkpoint_written _ as record -> Some record
  | Run_resumed _ as record -> Some record
  | Warning _ as record -> Some record
  (* Which worker process served an island depends on the --shard setting,
     so the shard field is zeroed; the migrated front (and hence its model
     count and wire size) is shard-invariant. *)
  | Migration m -> Some (Migration { m with shard = 0 })

(* --- sinks -------------------------------------------------------------- *)

type sink =
  | Null
  | Channel of { channel : out_channel; mutex : Mutex.t }
  | Memory of { mutable records : record list; mutex : Mutex.t }
  | Fn of (record -> unit)

let null = Null
let is_null = function Null -> true | Channel _ | Memory _ | Fn _ -> false
let of_channel channel = Channel { channel; mutex = Mutex.create () }
let memory () = Memory { records = []; mutex = Mutex.create () }
let of_fn f = Fn f

let contents = function
  | Null | Channel _ | Fn _ -> []
  | Memory m ->
      Mutex.lock m.mutex;
      let records = List.rev m.records in
      Mutex.unlock m.mutex;
      records

let emit sink record =
  match sink with
  | Null -> ()
  | Channel c ->
      let line = to_line record in
      Mutex.lock c.mutex;
      output_string c.channel line;
      output_char c.channel '\n';
      Mutex.unlock c.mutex
  | Memory m ->
      Mutex.lock m.mutex;
      m.records <- record :: m.records;
      Mutex.unlock m.mutex
  | Fn f -> f record
