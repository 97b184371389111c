module Expr = Caffeine_expr.Expr

let variables_used (model : Model.t) =
  let used = Hashtbl.create 16 in
  Array.iter
    (fun basis -> List.iter (fun i -> Hashtbl.replace used i ()) (Expr.variables_of_basis basis))
    model.Model.bases;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) used [])

let unused_variables ~dims model =
  let used = variables_used model in
  List.filter (fun i -> not (List.mem i used)) (List.init dims (fun i -> i))

let sensitivities (model : Model.t) ~at =
  let dims = Array.length at in
  let f = Model.predict_point model in
  let base_value = f at in
  let used = variables_used model in
  Array.init dims (fun i ->
      if not (List.mem i used) then 0.
      else begin
        let h = 1e-4 *. Float.max (Float.abs at.(i)) 1e-12 in
        let probe delta =
          let x = Array.copy at in
          x.(i) <- x.(i) +. delta;
          f x
        in
        let plus = probe h and minus = probe (-.h) in
        let derivative = (plus -. minus) /. (2. *. h) in
        if
          Float.is_finite derivative && Float.is_finite base_value && base_value <> 0.
        then derivative *. at.(i) /. base_value
        else Float.nan
      end)

let exact_sensitivities (model : Model.t) ~at =
  let ws =
    {
      Expr.bias = model.Model.intercept;
      terms =
        Array.to_list (Array.mapi (fun j basis -> (model.Model.weights.(j), basis)) model.Model.bases);
    }
  in
  let base_value = Model.predict_point model at in
  let gradient = Caffeine_expr.Deriv.gradient_wsum ws at in
  Array.mapi
    (fun i g ->
      if g = 0. then 0.
      else if Float.is_finite g && Float.is_finite base_value && base_value <> 0. then
        g *. at.(i) /. base_value
      else Float.nan)
    gradient

let dominant_variables ?(top = 5) model ~at =
  let s = sensitivities model ~at in
  let ranked =
    List.filter (fun (_, v) -> Float.is_finite v && v <> 0.)
      (Array.to_list (Array.mapi (fun i v -> (i, v)) s))
  in
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a)) ranked
  in
  List.filteri (fun k _ -> k < top) sorted

let sobol_first_order ?(samples = 1024) rng (model : Model.t) ~lo ~hi =
  let dims = Array.length lo in
  if Array.length hi <> dims then invalid_arg "Insight.sobol_first_order: bound width mismatch";
  if dims = 0 then [||]
  else begin
  let module Rng = Caffeine_util.Rng in
  let draw_point () = Array.init dims (fun i -> Rng.range rng lo.(i) hi.(i)) in
  (* Saltelli pick-freeze: f(A), f(B), and f(AB_i) where AB_i takes column i
     from B and the rest from A. *)
  let a = Array.init samples (fun _ -> draw_point ()) in
  let b = Array.init samples (fun _ -> draw_point ()) in
  (* Batch every response through the compiled engine: one dataset per
     sample matrix instead of a tree interpretation per point.  Each fresh
     dataset's columns are filled by one fused pass over the model's bases
     (shared subtrees computed once) before [predict] reads them. *)
  let batch rows =
    let data = Caffeine_io.Dataset.of_rows rows in
    Model.warm model data;
    Model.predict model data
  in
  let fa = batch a in
  let fb = batch b in
  let valid = Array.map Float.is_finite fa in
  let finite_values =
    Array.of_list (List.filteri (fun k _ -> valid.(k)) (Array.to_list fa))
  in
  if Array.length finite_values < 2 then Array.make dims 0.
  else begin
    let total_variance = Caffeine_util.Stats.variance finite_values in
    if total_variance <= 0. then Array.make dims 0.
    else begin
      (* Center the outputs before forming products: the Saltelli estimator
         E[f_B·(f_AB − f_A)] is exact in expectation but its Monte-Carlo
         error scales with the squared mean, which dwarfs the variance for
         offset-dominated models.  Subtracting the sample mean removes that
         amplification without changing the expectation. *)
      let mean = Caffeine_util.Stats.mean finite_values in
      Array.init dims (fun i ->
          let f_mixed_all =
            batch
              (Array.init samples (fun k ->
                   let mixed = Array.copy a.(k) in
                   mixed.(i) <- b.(k).(i);
                   mixed))
          in
          let acc = ref 0. in
          let count = ref 0 in
          for k = 0 to samples - 1 do
            if valid.(k) then begin
              let f_mixed = f_mixed_all.(k) in
              let f_b = fb.(k) in
              if Float.is_finite f_mixed && Float.is_finite f_b then begin
                (* Saltelli 2010: S_i = (1/N) Σ f(B)·(f(AB_i) − f(A)) / Var. *)
                acc := !acc +. ((f_b -. mean) *. (f_mixed -. fa.(k)));
                incr count
              end
            end
          done;
          if !count = 0 then 0.
          else
            let estimate = !acc /. float_of_int !count /. total_variance in
            Float.max 0. (Float.min 1. estimate))
    end
  end
  end

let usage_along_front models =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun model ->
      List.iter
        (fun i ->
          Hashtbl.replace counts i (1 + Option.value ~default:0 (Hashtbl.find_opt counts i)))
        (variables_used model))
    models;
  let entries = Hashtbl.fold (fun i n acc -> (i, n) :: acc) counts [] in
  List.sort (fun (i1, n1) (i2, n2) -> if n1 <> n2 then compare n2 n1 else compare i1 i2) entries

let report ~var_names ~at model =
  let buffer = Buffer.create 256 in
  let name i = if i < Array.length var_names then var_names.(i) else Printf.sprintf "x%d" i in
  Buffer.add_string buffer ("model: " ^ Model.to_string ~var_names model ^ "\n");
  let used = variables_used model in
  Buffer.add_string buffer
    ("variables used: "
    ^ (if used = [] then "(none — constant model)" else String.concat ", " (List.map name used))
    ^ "\n");
  let dominant = dominant_variables model ~at in
  if dominant <> [] then begin
    Buffer.add_string buffer "relative sensitivities at the given point:\n";
    List.iter
      (fun (i, s) -> Buffer.add_string buffer (Printf.sprintf "  %-8s %+.3f\n" (name i) s))
      dominant
  end;
  Buffer.contents buffer
