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
  (* [vc=true] is constant now that every operator set has VCs; it stays in
     the digested text so snapshots written when it was a setting still
     match. *)
  add "lte=%b;vc=true;nonlinear=%b;max_exp=%d;min_exp=%d;" opset.Opset.allow_lte
    (Opset.allow_nonlinear opset) opset.Opset.max_exponent opset.Opset.min_exponent;
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

let array_json element values = Json.Arr (List.map element (Array.to_list values))

let rec basis_json (basis : Expr.basis) =
  Json.Obj
    [
      ("vc", match basis.Expr.vc with None -> Json.Null | Some vc -> array_json Json.int vc);
      ("f", Json.Arr (List.map factor_json basis.Expr.factors));
    ]

and factor_json = function
  | Expr.Unary (op, w) -> Json.Arr [ Json.Str "u"; Json.Str (Op.unary_name op); wsum_json w ]
  | Expr.Binary (op, a1, a2) ->
      Json.Arr [ Json.Str "b"; Json.Str (Op.binary_name op); arg_json a1; arg_json a2 ]
  | Expr.Lte { test; threshold; less; otherwise } ->
      Json.Arr
        [ Json.Str "lte"; wsum_json test; arg_json threshold; arg_json less; arg_json otherwise ]

and arg_json = function
  | Expr.Const c -> Json.Arr [ Json.Str "c"; Json.float c ]
  | Expr.Sum w -> Json.Arr [ Json.Str "s"; wsum_json w ]

and wsum_json (w : Expr.wsum) =
  Json.Obj
    [
      ("bias", Json.float w.Expr.bias);
      ( "t",
        Json.Arr
          (List.map
             (fun (weight, basis) -> Json.Arr [ Json.float weight; basis_json basis ])
             w.Expr.terms) );
    ]

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

let float_array_of fields name =
  Array.of_list (List.map (Json.to_float name) (Json.arr_of fields name))

let model_json (model : Model.t) =
  Json.Obj
    [
      ("bases", array_json basis_json model.Model.bases);
      ("intercept", Json.float model.Model.intercept);
      ("weights", array_json Json.float model.Model.weights);
      ("train_error", Json.float model.Model.train_error);
      ("complexity", Json.float model.Model.complexity);
    ]

let model_of json : Model.t =
  let fields = Json.obj json in
  {
    Model.bases = Array.of_list (List.map basis_of (Json.arr_of fields "bases"));
    intercept = Json.float_of fields "intercept";
    weights = float_array_of fields "weights";
    train_error = Json.float_of fields "train_error";
    complexity = Json.float_of fields "complexity";
  }

let models_json models = Json.Arr (List.map model_json models)
let models_of fields name = List.map model_of (Json.arr_of fields name)

let individual_json (ind : Vary.individual Nsga2.individual) =
  Json.Obj
    [
      ("genome", array_json basis_json ind.Nsga2.genome);
      ("obj", array_json Json.float ind.Nsga2.objectives);
      ("rank", Json.int ind.Nsga2.rank);
      ("crowding", Json.float ind.Nsga2.crowding);
    ]

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
let rng_state_json (state : Rng.state) =
  Json.Arr
    (List.map
       (fun w -> Json.Str (Int64.to_string w))
       [ state.Rng.w0; state.Rng.w1; state.Rng.w2; state.Rng.w3 ])

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
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "caffeine_checkpoint");
         ("version", Json.int version);
         ("fingerprint", Json.Str t.fingerprint);
         ("seed", Json.int t.seed);
         ("restarts", Json.int t.restarts);
         ("phase", Json.Str (phase_name t.phase));
       ])

(* The island line doubles as the wire format of the multi-process island
   backend (Shard): the coordinator sends each worker its assignments as
   island lines, and workers send progress and final fronts back as
   island lines, so a migrated front is byte-for-byte what the snapshot
   file would hold. *)
let island_to_line ~index island =
  let status, members =
    match island with
    | Pending rng -> ("pending", [ ("rng", rng_state_json rng) ])
    | In_progress { gen; rng; population } ->
        ( "in_progress",
          [
            ("gen", Json.int gen);
            ("rng", rng_state_json rng);
            ("population", array_json individual_json population);
          ] )
    | Done front -> ("done", [ ("front", models_json front) ])
  in
  Json.to_string
    (Json.Obj
       (("type", Json.Str "island") :: ("index", Json.int index) :: ("status", Json.Str status)
       :: members))

let sag_line front processed =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "sag");
         ("front", models_json front);
         ("processed", models_json processed);
       ])

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
             output_string channel (island_to_line ~index island);
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
