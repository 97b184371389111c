module Expr = Caffeine_expr.Expr
module Linfit = Caffeine_regress.Linfit
module Trace = Caffeine_obs.Trace

let log_src = Logs.Src.create "caffeine.sag" ~doc:"CAFFEINE post-run simplification"

module Log = (val Logs.src_log log_src : Logs.LOG)

type scored = {
  model : Model.t;
  test_error : float;
}

let simplify_model ?executor ?(trace = Trace.null) ?(model_index = 0) ~wb ~wvc
    (model : Model.t) ~data ~targets =
  if Array.length model.Model.bases = 0 then model
  else
    match Model.basis_columns model.Model.bases data with
    | None -> model
    | Some columns ->
        let on_round =
          if Trace.is_null trace then None
          else
            Some
              (fun ~round ~chosen ~press_before ~press_after ->
                Trace.emit trace
                  (Trace.Sag_round { model_index; round; chosen; press_before; press_after }))
        in
        let chosen = Linfit.forward_select ?executor ?on_round ~basis_values:columns ~targets () in
        let bases = Array.map (fun i -> model.Model.bases.(i)) chosen in
        (* Both refits reuse the columns held for selection rather than
           evaluating the bases again (a whole pass over streamed data
           each); held columns give the same fit bit for bit. *)
        let refit =
          Model.fit_columns ~wb ~wvc bases
            ~columns:(Array.map (fun i -> columns.(i)) chosen)
            ~data ~targets
        in
        let pruned = match refit with Some m -> m | None -> model in
        let cleaned = Model.simplify ~wb ~wvc pruned in
        let held basis =
          Option.map
            (fun i -> columns.(i))
            (Array.find_index (Expr.equal_basis basis) model.Model.bases)
        in
        let cleaned_columns = Array.map held cleaned.Model.bases in
        let refitted =
          if Array.for_all Option.is_some cleaned_columns then
            Model.fit_columns ~wb ~wvc cleaned.Model.bases
              ~columns:(Array.map Option.get cleaned_columns)
              ~data ~targets
          else Model.fit ~wb ~wvc cleaned.Model.bases ~data ~targets
        in
        (* Keep the cleanup only if it did not break the fit. *)
        let result = match refitted with Some m -> m | None -> pruned in
        if not (Trace.is_null trace) then
          Trace.emit trace
            (Trace.Sag_model
               {
                 model_index;
                 bases_before = Array.length model.Model.bases;
                 bases_after = Array.length result.Model.bases;
               });
        result

let nondominated_by key models =
  List.filter
    (fun m ->
      let err_m, cx_m = key m in
      not
        (List.exists
           (fun other ->
             let err_o, cx_o = key other in
             err_o <= err_m && cx_o <= cx_m && (err_o < err_m || cx_o < cx_m))
           models))
    models

let dedup_by_key key models =
  List.rev
    (List.fold_left
       (fun acc m -> if List.exists (fun kept -> key kept = key m) acc then acc else m :: acc)
       [] models)

let process_front ?executor ?trace ?(already = []) ?on_model ~wb ~wvc front ~data ~targets =
  (* [already] is the prefix of results a resumed run restored from its
     checkpoint: those members are not re-simplified (fronts are small, so
     the List.nth walk is irrelevant). *)
  let skip = List.length already in
  let simplified =
    List.mapi
      (fun model_index m ->
        if model_index < skip then List.nth already model_index
        else begin
          let result = simplify_model ?executor ?trace ~model_index ~wb ~wvc m ~data ~targets in
          (match on_model with None -> () | Some f -> f model_index result);
          result
        end)
      front
  in
  let key (m : Model.t) = (m.Model.train_error, m.Model.complexity) in
  simplified
  |> nondominated_by key
  |> dedup_by_key key
  |> List.sort (fun a b -> compare a.Model.complexity b.Model.complexity)

let test_tradeoff ?(trace = Trace.null) front ~data ~targets =
  let scored =
    List.map (fun m -> { model = m; test_error = Model.error_on m ~data ~targets }) front
  in
  let usable = List.filter (fun s -> Float.is_finite s.test_error) scored in
  match (usable, scored) with
  | [], _ :: _ ->
      (* Every model blew up on the testing data (out-of-range samples can
         do this to the whole front at once).  Returning [] here silently
         discards the entire run, so fall back to the train-error tradeoff
         and say so. *)
      let message =
        "every model has non-finite test error; falling back to the train-error tradeoff"
      in
      Log.warn (fun m -> m "%s" message);
      if not (Trace.is_null trace) then
        Trace.emit trace (Trace.Warning { context = "sag.test_tradeoff"; message });
      let key s = (s.model.Model.train_error, s.model.Model.complexity) in
      scored |> dedup_by_key key |> List.sort (fun a b -> compare (key a) (key b))
  | _ ->
      let key s = (s.test_error, s.model.Model.complexity) in
      usable
      |> nondominated_by key
      |> dedup_by_key key
      |> List.sort (fun a b -> compare a.model.Model.complexity b.model.Model.complexity)

let best_within scored ~train_cap ~test_cap =
  List.find_opt
    (fun s -> s.model.Model.train_error <= train_cap && s.test_error <= test_cap)
    scored

let at_train_error scored ~train_cap =
  let within = List.filter (fun s -> s.model.Model.train_error <= train_cap) scored in
  match within with
  | first :: _ -> Some first
  | [] ->
      (* Nothing meets the cap: fall back to the closest training error. *)
      List.fold_left
        (fun best s ->
          match best with
          | None -> Some s
          | Some b ->
              if
                Float.abs (s.model.Model.train_error -. train_cap)
                < Float.abs (b.model.Model.train_error -. train_cap)
              then Some s
              else best)
        None scored
