module Expr = Caffeine_expr.Expr
module Infix = Caffeine_expr.Infix

let parse_model ~var_names ~wb ~wvc source =
  match Infix.parse_wsum ~var_names source with
  | Error msg -> Error msg
  | Ok ws ->
      let bases = Array.of_list (List.map snd ws.Expr.terms) in
      let weights = Array.of_list (List.map fst ws.Expr.terms) in
      Ok
        {
          Model.bases;
          intercept = ws.Expr.bias;
          weights;
          train_error = Float.nan;
          complexity = Model.complexity_of ~wb ~wvc bases;
        }

(* The three non-finite values use the lowercase spellings
   [float_of_string] accepts natively. *)
let encode_float v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "infinity"
  else if v = Float.neg_infinity then "-infinity"
  else Caffeine_obs.Float_text.g17 v

let save ~path ~var_names models =
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      output_string channel "# caffeine models (one expression per line)\n";
      output_string channel
        ("vars: " ^ String.concat " " (Array.to_list var_names) ^ "\n");
      List.iter
        (fun model ->
          output_string channel
            (Printf.sprintf "#: train_error=%s\n" (encode_float model.Model.train_error));
          output_string channel (Model.to_string ~var_names model);
          output_char channel '\n')
        models)

let parse_directive trimmed =
  (* "#: key=value"; unknown keys are ignored for forward compatibility. *)
  let body = String.trim (String.sub trimmed 2 (String.length trimmed - 2)) in
  match String.index_opt body '=' with
  | None -> Error (Printf.sprintf "malformed metadata directive %S (expected key=value)" body)
  | Some eq -> (
      let key = String.trim (String.sub body 0 eq) in
      let value = String.trim (String.sub body (eq + 1) (String.length body - eq - 1)) in
      match key with
      | "train_error" -> (
          match float_of_string_opt value with
          | Some v -> Ok (Some v)
          | None -> Error (Printf.sprintf "invalid train_error value %S" value))
      | _ -> Ok None)

let load ~path ~wb ~wvc =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | channel ->
      Fun.protect
        ~finally:(fun () -> close_in channel)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line channel :: !lines
             done
           with End_of_file -> ());
          let lines = List.rev !lines in
          let var_names = ref [||] in
          let models = ref [] in
          let pending_error = ref Float.nan in
          let error = ref None in
          let fail lineno msg =
            error := Some (Printf.sprintf "%s:%d: %s" path (lineno + 1) msg)
          in
          List.iteri
            (fun lineno line ->
              if !error = None then begin
                let trimmed = String.trim line in
                if String.length trimmed >= 2 && String.sub trimmed 0 2 = "#:" then (
                  match parse_directive trimmed with
                  | Ok (Some train_error) -> pending_error := train_error
                  | Ok None -> ()
                  | Error msg -> fail lineno msg)
                else if trimmed = "" || trimmed.[0] = '#' then ()
                else if String.length trimmed > 5 && String.sub trimmed 0 5 = "vars:" then
                  var_names :=
                    Array.of_list
                      (List.filter
                         (fun s -> s <> "")
                         (String.split_on_char ' '
                            (String.sub trimmed 5 (String.length trimmed - 5))))
                else
                  match parse_model ~var_names:!var_names ~wb ~wvc trimmed with
                  | Ok model ->
                      models := { model with Model.train_error = !pending_error } :: !models;
                      pending_error := Float.nan
                  | Error msg -> fail lineno msg
              end)
            lines;
          match !error with
          | Some msg -> Error msg
          | None -> Ok (!var_names, List.rev !models))
