module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op
module Nsga2 = Caffeine_evo.Nsga2
module Dataset = Caffeine_io.Dataset
module Float_text = Caffeine_obs.Float_text
module Json = Caffeine_obs.Json
module Metrics = Caffeine_obs.Metrics

type population = Vary.individual Nsga2.individual array

type island =
  | Pending of Rng.state
  | In_progress of { gen : int; rng : Rng.state; population : population }
  | Done of Model.t list

type phase =
  | Evolving of island array
  | Simplifying of { front : Model.t list; processed : Model.t list }

type t = { fingerprint : string; seed : int; restarts : int; phase : phase }

let version = 1

let phase_name = function Evolving _ -> "evolving" | Simplifying _ -> "simplifying"

(* The fingerprint covers every input that determines the search result:
   all config fields except [jobs] (parallelism never changes results, and
   resuming at a different --jobs is a supported use), the operator set,
   and the full data and targets rendered with 17 significant digits so the
   digest changes iff some bit of some input changes. *)
let fingerprint (config : Config.t) ~data ~targets =
  let buffer = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let g17 = Float_text.g17 in
  add "v%d;pop=%d;gens=%d;max_bases=%d;max_depth=%d;" version config.pop_size config.generations
    config.max_bases config.max_depth;
  add "wb=%s;wvc=%s;pmw=%s;cx=%s;max_vc_vars=%d;" (g17 config.wb) (g17 config.wvc)
    (g17 config.param_mutation_weight) (g17 config.crossover_probability) config.max_vc_vars;
  let opset = config.opset in
  add "unops=%s;"
    (String.concat "," (List.map Op.unary_name (Array.to_list opset.Opset.unops)));
  add "binops=%s;"
    (String.concat "," (List.map Op.binary_name (Array.to_list opset.Opset.binops)));
  add "lte=%b;vc=%b;nonlinear=%b;max_exp=%d;min_exp=%d;" opset.Opset.allow_lte
    opset.Opset.allow_vc opset.Opset.allow_nonlinear opset.Opset.max_exponent
    opset.Opset.min_exponent;
  add "n=%d;dims=%d;vars=%s;" (Dataset.n_samples data) (Dataset.dims data)
    (String.concat "," (Array.to_list (Dataset.var_names data)));
  let add_floats =
    Array.iter (fun x ->
        Float_text.add_g17 buffer x;
        Buffer.add_char buffer ',')
  in
  add_floats targets;
  for v = 0 to Dataset.dims data - 1 do
    add_floats (Dataset.column data v)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let validate t ~fingerprint ~seed ~restarts =
  if t.fingerprint <> fingerprint then
    Error "checkpoint fingerprint does not match this run's config, data or targets"
  else if t.seed <> seed then
    Error (Printf.sprintf "checkpoint was written with seed %d, not %d" t.seed seed)
  else if t.restarts <> restarts then
    Error (Printf.sprintf "checkpoint was written with %d island(s), not %d" t.restarts restarts)
  else Ok ()

(* {2 Expression encoding}

   A direct tree encoding with exact floats — models must survive a
   round-trip bit-identically, which rules out the pretty-printed infix of
   Model_io (it rounds weights for human eyes). *)

let rec add_basis buffer (basis : Expr.basis) =
  Buffer.add_string buffer "{\"vc\":";
  (match basis.Expr.vc with
  | None -> Buffer.add_string buffer "null"
  | Some vc ->
      Buffer.add_char buffer '[';
      Array.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buffer ',';
          Buffer.add_string buffer (string_of_int e))
        vc;
      Buffer.add_char buffer ']');
  Buffer.add_string buffer ",\"f\":[";
  List.iteri
    (fun i factor ->
      if i > 0 then Buffer.add_char buffer ',';
      add_factor buffer factor)
    basis.Expr.factors;
  Buffer.add_string buffer "]}"

and add_factor buffer = function
  | Expr.Unary (op, w) ->
      Buffer.add_string buffer "[\"u\",";
      Json.add_string buffer (Op.unary_name op);
      Buffer.add_char buffer ',';
      add_wsum buffer w;
      Buffer.add_char buffer ']'
  | Expr.Binary (op, a1, a2) ->
      Buffer.add_string buffer "[\"b\",";
      Json.add_string buffer (Op.binary_name op);
      Buffer.add_char buffer ',';
      add_arg buffer a1;
      Buffer.add_char buffer ',';
      add_arg buffer a2;
      Buffer.add_char buffer ']'
  | Expr.Lte { test; threshold; less; otherwise } ->
      Buffer.add_string buffer "[\"lte\",";
      add_wsum buffer test;
      Buffer.add_char buffer ',';
      add_arg buffer threshold;
      Buffer.add_char buffer ',';
      add_arg buffer less;
      Buffer.add_char buffer ',';
      add_arg buffer otherwise;
      Buffer.add_char buffer ']'

and add_arg buffer = function
  | Expr.Const c ->
      Buffer.add_string buffer "[\"c\",";
      Json.add_float buffer c;
      Buffer.add_char buffer ']'
  | Expr.Sum w ->
      Buffer.add_string buffer "[\"s\",";
      add_wsum buffer w;
      Buffer.add_char buffer ']'

and add_wsum buffer (w : Expr.wsum) =
  Buffer.add_string buffer "{\"bias\":";
  Json.add_float buffer w.Expr.bias;
  Buffer.add_string buffer ",\"t\":[";
  List.iteri
    (fun i (weight, basis) ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_char buffer '[';
      Json.add_float buffer weight;
      Buffer.add_char buffer ',';
      add_basis buffer basis;
      Buffer.add_char buffer ']')
    w.Expr.terms;
  Buffer.add_string buffer "]}"

let rec basis_of json : Expr.basis =
  let fields = Json.obj json in
  let vc =
    match Json.member fields "vc" with
    | Json.Null -> None
    | Json.Arr elements -> Some (Array.of_list (List.map (Json.to_int "vc") elements))
    | _ -> raise (Json.Parse_error "field \"vc\" must be an array or null")
  in
  { Expr.vc; factors = List.map factor_of (Json.arr_of fields "f") }

and factor_of = function
  | Json.Arr [ Json.Str "u"; name; w ] -> (
      let name = Json.to_str "unary operator" name in
      match Op.unary_of_name name with
      | Some op -> Expr.Unary (op, wsum_of w)
      | None -> raise (Json.Parse_error (Printf.sprintf "unknown unary operator %S" name)))
  | Json.Arr [ Json.Str "b"; name; a1; a2 ] -> (
      let name = Json.to_str "binary operator" name in
      match Op.binary_of_name name with
      | Some op -> Expr.Binary (op, arg_of a1, arg_of a2)
      | None -> raise (Json.Parse_error (Printf.sprintf "unknown binary operator %S" name)))
  | Json.Arr [ Json.Str "lte"; test; threshold; less; otherwise ] ->
      Expr.Lte
        {
          test = wsum_of test;
          threshold = arg_of threshold;
          less = arg_of less;
          otherwise = arg_of otherwise;
        }
  | _ -> raise (Json.Parse_error "malformed factor")

and arg_of = function
  | Json.Arr [ Json.Str "c"; v ] -> Expr.Const (Json.to_float "constant" v)
  | Json.Arr [ Json.Str "s"; w ] -> Expr.Sum (wsum_of w)
  | _ -> raise (Json.Parse_error "malformed operator argument")

and wsum_of json : Expr.wsum =
  let fields = Json.obj json in
  {
    Expr.bias = Json.float_of fields "bias";
    terms =
      List.map
        (function
          | Json.Arr [ w; basis ] -> (Json.to_float "term weight" w, basis_of basis)
          | _ -> raise (Json.Parse_error "malformed weighted term"))
        (Json.arr_of fields "t");
  }

(* {2 Model / individual / rng-state encoding} *)

let add_float_array buffer values =
  Buffer.add_char buffer '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buffer ',';
      Json.add_float buffer v)
    values;
  Buffer.add_char buffer ']'

let float_array_of fields name =
  Array.of_list (List.map (Json.to_float name) (Json.arr_of fields name))

let add_model buffer (model : Model.t) =
  Buffer.add_string buffer "{\"bases\":[";
  Array.iteri
    (fun i basis ->
      if i > 0 then Buffer.add_char buffer ',';
      add_basis buffer basis)
    model.Model.bases;
  Buffer.add_string buffer "],\"intercept\":";
  Json.add_float buffer model.Model.intercept;
  Buffer.add_string buffer ",\"weights\":";
  add_float_array buffer model.Model.weights;
  Buffer.add_string buffer ",\"train_error\":";
  Json.add_float buffer model.Model.train_error;
  Buffer.add_string buffer ",\"complexity\":";
  Json.add_float buffer model.Model.complexity;
  Buffer.add_char buffer '}'

let model_of json : Model.t =
  let fields = Json.obj json in
  {
    Model.bases = Array.of_list (List.map basis_of (Json.arr_of fields "bases"));
    intercept = Json.float_of fields "intercept";
    weights = float_array_of fields "weights";
    train_error = Json.float_of fields "train_error";
    complexity = Json.float_of fields "complexity";
  }

let add_models buffer models =
  Buffer.add_char buffer '[';
  List.iteri
    (fun i model ->
      if i > 0 then Buffer.add_char buffer ',';
      add_model buffer model)
    models;
  Buffer.add_char buffer ']'

let models_of fields name = List.map model_of (Json.arr_of fields name)

let add_individual buffer (ind : Vary.individual Nsga2.individual) =
  Buffer.add_string buffer "{\"genome\":[";
  Array.iteri
    (fun i basis ->
      if i > 0 then Buffer.add_char buffer ',';
      add_basis buffer basis)
    ind.Nsga2.genome;
  Buffer.add_string buffer "],\"obj\":";
  add_float_array buffer ind.Nsga2.objectives;
  Buffer.add_string buffer ",\"rank\":";
  Buffer.add_string buffer (string_of_int ind.Nsga2.rank);
  Buffer.add_string buffer ",\"crowding\":";
  Json.add_float buffer ind.Nsga2.crowding;
  Buffer.add_char buffer '}'

let individual_of json : Vary.individual Nsga2.individual =
  let fields = Json.obj json in
  {
    Nsga2.genome = Array.of_list (List.map basis_of (Json.arr_of fields "genome"));
    objectives = float_array_of fields "obj";
    rank = Json.int_of fields "rank";
    crowding = Json.float_of fields "crowding";
  }

(* Generator words travel as decimal int64 strings: they use all 64 bits,
   which neither a JSON number nor an OCaml float can carry exactly. *)
let add_rng_state buffer (state : Rng.state) =
  let word w = Json.add_string buffer (Int64.to_string w) in
  Buffer.add_char buffer '[';
  word state.Rng.w0;
  Buffer.add_char buffer ',';
  word state.Rng.w1;
  Buffer.add_char buffer ',';
  word state.Rng.w2;
  Buffer.add_char buffer ',';
  word state.Rng.w3;
  Buffer.add_char buffer ']'

let rng_state_of fields name : Rng.state =
  let word = function
    | Json.Str s -> (
        match Int64.of_string_opt s with
        | Some w -> w
        | None -> raise (Json.Parse_error (Printf.sprintf "field %S: bad generator word" name)))
    | _ -> raise (Json.Parse_error (Printf.sprintf "field %S: generator word must be a string" name))
  in
  match Json.arr_of fields name with
  | [ a; b; c; d ] -> { Rng.w0 = word a; w1 = word b; w2 = word c; w3 = word d }
  | _ -> raise (Json.Parse_error (Printf.sprintf "field %S: expected 4 generator words" name))

(* {2 Snapshot lines} *)

let header_line t =
  let buffer = Buffer.create 160 in
  Buffer.add_string buffer "{\"type\":\"caffeine_checkpoint\",\"version\":";
  Buffer.add_string buffer (string_of_int version);
  Buffer.add_string buffer ",\"fingerprint\":";
  Json.add_string buffer t.fingerprint;
  Buffer.add_string buffer ",\"seed\":";
  Buffer.add_string buffer (string_of_int t.seed);
  Buffer.add_string buffer ",\"restarts\":";
  Buffer.add_string buffer (string_of_int t.restarts);
  Buffer.add_string buffer ",\"phase\":";
  Json.add_string buffer (phase_name t.phase);
  Buffer.add_char buffer '}';
  Buffer.contents buffer

let island_line index island =
  let buffer = Buffer.create 4096 in
  let open_line status =
    Buffer.add_string buffer "{\"type\":\"island\",\"index\":";
    Buffer.add_string buffer (string_of_int index);
    Buffer.add_string buffer ",\"status\":";
    Json.add_string buffer status
  in
  (match island with
  | Pending rng ->
      open_line "pending";
      Buffer.add_string buffer ",\"rng\":";
      add_rng_state buffer rng
  | In_progress { gen; rng; population } ->
      open_line "in_progress";
      Buffer.add_string buffer ",\"gen\":";
      Buffer.add_string buffer (string_of_int gen);
      Buffer.add_string buffer ",\"rng\":";
      add_rng_state buffer rng;
      Buffer.add_string buffer ",\"population\":[";
      Array.iteri
        (fun i ind ->
          if i > 0 then Buffer.add_char buffer ',';
          add_individual buffer ind)
        population;
      Buffer.add_char buffer ']'
  | Done front ->
      open_line "done";
      Buffer.add_string buffer ",\"front\":";
      add_models buffer front);
  Buffer.add_char buffer '}';
  Buffer.contents buffer

let sag_line front processed =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "{\"type\":\"sag\",\"front\":";
  add_models buffer front;
  Buffer.add_string buffer ",\"processed\":";
  add_models buffer processed;
  Buffer.add_char buffer '}';
  Buffer.contents buffer

(* The island line doubles as the wire format of the multi-process island
   backend (Shard): the coordinator sends each worker its assignments as
   island lines, and workers send progress and final fronts back as
   island lines, so a migrated front is byte-for-byte what the snapshot
   file would hold. *)
let island_to_line ~index island = island_line index island

let island_of fields =
  match Json.str_of fields "status" with
  | "pending" -> Pending (rng_state_of fields "rng")
  | "in_progress" ->
      In_progress
        {
          gen = Json.int_of fields "gen";
          rng = rng_state_of fields "rng";
          population = Array.of_list (List.map individual_of (Json.arr_of fields "population"));
        }
  | "done" -> Done (models_of fields "front")
  | status -> raise (Json.Parse_error (Printf.sprintf "unknown island status %S" status))

let island_of_json json =
  let fields = Json.obj json in
  if Json.str_of fields "type" <> "island" then raise (Json.Parse_error "not an island line");
  (Json.int_of fields "index", island_of fields)

(* {2 Save / load} *)

let m_written = Metrics.counter Metrics.default "checkpoint.written"

let save ~path t =
  let tmp = path ^ ".tmp" in
  let channel = open_out tmp in
  (try
     output_string channel (header_line t);
     output_char channel '\n';
     (match t.phase with
     | Evolving islands ->
         Array.iteri
           (fun index island ->
             output_string channel (island_line index island);
             output_char channel '\n')
           islands
     | Simplifying { front; processed } ->
         output_string channel (sag_line front processed);
         output_char channel '\n');
     close_out channel
   with exn ->
     close_out_noerr channel;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  (* The rename is atomic on POSIX: a crash leaves either the previous
     snapshot or the new one, never a torn file. *)
  Sys.rename tmp path;
  Metrics.incr m_written

let load ~path =
  match open_in path with
  | exception Sys_error message -> Error message
  | channel -> (
      let lines = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line channel in
           incr lineno;
           if String.trim line <> "" then lines := (!lineno, line) :: !lines
         done
       with
      | End_of_file -> close_in_noerr channel
      | exn ->
          close_in_noerr channel;
          raise exn);
      (* Errors carry the 1-based line they were detected on, so a truncated
         or hand-damaged snapshot reports [file:line: message] instead of a
         bare exception.  Defects with no single offending line (a missing
         island, a wrong line count) fall back to [file: message]. *)
      let exception Located of int * string in
      let at lineno f =
        try f () with Json.Parse_error message -> raise (Located (lineno, message))
      in
      match
        List.rev_map (fun (lineno, line) -> (lineno, at lineno (fun () -> Json.parse_exn line)))
          !lines
      with
      | exception Located (lineno, message) ->
          Error (Printf.sprintf "%s:%d: %s" path lineno message)
      | [] -> Error (path ^ ": empty checkpoint file")
      | (header_line, header) :: rest -> (
          try
            let fingerprint, seed, restarts, phase_name =
              at header_line (fun () ->
                  let fields = Json.obj header in
                  if Json.str_of fields "type" <> "caffeine_checkpoint" then
                    raise (Json.Parse_error "not a checkpoint file");
                  let file_version = Json.int_of fields "version" in
                  if file_version <> version then
                    raise
                      (Json.Parse_error
                         (Printf.sprintf
                            "unsupported snapshot version %d (this build reads version %d)"
                            file_version version));
                  let restarts = Json.int_of fields "restarts" in
                  if restarts < 0 then
                    raise
                      (Json.Parse_error (Printf.sprintf "invalid restarts count %d" restarts));
                  ( Json.str_of fields "fingerprint",
                    Json.int_of fields "seed",
                    restarts,
                    Json.str_of fields "phase" ))
            in
            let phase =
              match phase_name with
              | "evolving" ->
                  let islands = Array.make restarts None in
                  List.iter
                    (fun (lineno, line) ->
                      at lineno (fun () ->
                          let fields = Json.obj line in
                          if Json.str_of fields "type" <> "island" then
                            raise (Json.Parse_error "expected an island line");
                          let index = Json.int_of fields "index" in
                          if index < 0 || index >= restarts then
                            raise
                              (Json.Parse_error
                                 (Printf.sprintf "island index %d out of range" index));
                          islands.(index) <- Some (island_of fields)))
                    rest;
                  Evolving
                    (Array.mapi
                       (fun index island ->
                         match island with
                         | Some island -> island
                         | None ->
                             raise
                               (Json.Parse_error (Printf.sprintf "missing island %d" index)))
                       islands)
              | "simplifying" -> (
                  match rest with
                  | [ (lineno, line) ] ->
                      at lineno (fun () ->
                          let fields = Json.obj line in
                          if Json.str_of fields "type" <> "sag" then
                            raise (Json.Parse_error "expected a sag line");
                          Simplifying
                            {
                              front = models_of fields "front";
                              processed = models_of fields "processed";
                            })
                  | _ -> raise (Json.Parse_error "expected exactly one sag line"))
              | name ->
                  raise (Located (header_line, Printf.sprintf "unknown phase %S" name))
            in
            Ok { fingerprint; seed; restarts; phase }
          with
          | Located (lineno, message) -> Error (Printf.sprintf "%s:%d: %s" path lineno message)
          | Json.Parse_error message -> Error (path ^ ": " ^ message)))
