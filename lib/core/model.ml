module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset
module Linfit = Caffeine_regress.Linfit
module Stats = Caffeine_util.Stats

type t = {
  bases : Expr.basis array;
  intercept : float;
  weights : float array;
  train_error : float;
  complexity : float;
}

let complexity_of ~wb ~wvc bases =
  Array.fold_left
    (fun acc basis ->
      let vc_cost =
        List.fold_left
          (fun sum vc -> sum +. (wvc *. float_of_int (Array.fold_left (fun a e -> a + abs e) 0 vc)))
          0. (Expr.vcs_of_basis basis)
      in
      acc +. wb +. float_of_int (Expr.nnodes_basis basis) +. vc_cost)
    0. bases

let basis_columns bases data =
  let columns = Dataset.basis_columns data bases in
  if Array.for_all Stats.is_finite_array columns then Some columns else None

let accept ~wb ~wvc bases fitted =
  if
    Float.is_finite fitted.Linfit.train_error
    && Float.is_finite fitted.Linfit.intercept
    && Stats.is_finite_array fitted.Linfit.weights
  then
    Some
      {
        bases;
        intercept = fitted.Linfit.intercept;
        weights = fitted.Linfit.weights;
        train_error = fitted.Linfit.train_error;
        complexity = complexity_of ~wb ~wvc bases;
      }
  else None

(* Both storage kinds take the bordered Gram and the column pass from
   [Dataset.finite_gram], which hashes each basis once and answers [None]
   for an individual with a basis known not to be finite.  On resident
   data it fetches each distinct memoized column once, reads its
   all-finite flag, forms every product from the held columns, and its
   pass hands the same columns to the prediction pass (or the fallback's
   materialization) as one chunk; out of core it serves products from
   the dataset's dot cache, streams only the missing ones, and its pass
   streams the bases again.  The chunk size changes no word, so the two
   storages produce byte-identical fronts. *)
let gram_products g =
  ( (fun i j -> g.Dataset.dots.(i).(j)),
    (fun i -> g.Dataset.dot_ys.(i)),
    fun i -> g.Dataset.col_sums.(i) )

let fit ~wb ~wvc bases ~data ~targets =
  if Array.length bases = 0 then accept ~wb ~wvc bases (Linfit.fit_constant ~targets)
  else
    match Dataset.finite_gram data bases ~targets with
    | None -> None
    | Some (g, pass) -> (
        let dot, dot_y, col_sum = gram_products g in
        match
          Linfit.fit_stream ~dot ~dot_y ~col_sum ~k:(Array.length bases)
            ~n:(Dataset.n_samples data) ~iter:pass ~targets
        with
        | fitted -> accept ~wb ~wvc bases fitted
        | exception Caffeine_linalg.Decomp.Singular -> None)

let fit_columns ~wb ~wvc bases ~columns ~data ~targets =
  if Array.length bases = 0 then accept ~wb ~wvc bases (Linfit.fit_constant ~targets)
  else
    let dot, dot_y, col_sum = gram_products (Dataset.gram data bases ~targets) in
    match Linfit.fit_gram ~dot ~dot_y ~col_sum ~basis_values:columns ~targets with
    | fitted -> accept ~wb ~wvc bases fitted
    | exception Caffeine_linalg.Decomp.Singular -> None

let predict_point model x =
  let acc = ref model.intercept in
  Array.iteri (fun j b -> acc := !acc +. (model.weights.(j) *. Expr.eval_basis b x)) model.bases;
  !acc

(* Row by row, with the per-row left fold of [Linfit.fit_stream]'s
   prediction pass: intercept first, then each weighted basis in order.
   Chunked storage evaluates all of the model's bases in one fused pass;
   dense storage reads the memoized columns. *)
let predict model data =
  let predictions = Array.make (Dataset.n_samples data) model.intercept in
  let k = Array.length model.bases in
  if k > 0 then begin
    let weights = model.weights in
    Dataset.iter_basis_chunks data model.bases ~f:(fun ~row0 ~len columns ->
        for i = 0 to len - 1 do
          let acc = ref model.intercept in
          for j = 0 to k - 1 do
            acc := !acc +. (weights.(j) *. columns.(j).(i))
          done;
          predictions.(row0 + i) <- !acc
        done)
  end;
  predictions

let warm model data = ignore (Dataset.warm_columns data model.bases : Dataset.fuse_stats)

let warm_front front data =
  ignore
    (Dataset.warm_columns data (Array.concat (List.map (fun m -> m.bases) front))
      : Dataset.fuse_stats)

let error_on model ~data ~targets =
  let predictions = predict model data in
  if Stats.is_finite_array predictions then Stats.normalized_error targets predictions
  else Float.infinity

let num_bases model = Array.length model.bases

let to_string ~var_names model =
  let terms =
    Array.to_list (Array.mapi (fun j basis -> (model.weights.(j), basis)) model.bases)
  in
  let visible = List.filter (fun (w, _) -> w <> 0.) terms in
  Expr.wsum_to_string ~var_names { Expr.bias = model.intercept; terms = visible }

let simplify ~wb ~wvc model =
  let intercept = ref model.intercept in
  let kept = ref [] in
  Array.iteri
    (fun j basis ->
      let weight = model.weights.(j) in
      if weight <> 0. then begin
        let scale, simplified = Expr.simplify_basis basis in
        match simplified with
        | None -> intercept := !intercept +. (weight *. scale)
        | Some b ->
            let w = weight *. scale in
            if w <> 0. then kept := (w, b) :: !kept
      end)
    model.bases;
  let kept = List.rev !kept in
  let bases = Array.of_list (List.map snd kept) in
  let weights = Array.of_list (List.map fst kept) in
  {
    bases;
    intercept = !intercept;
    weights;
    train_error = model.train_error;
    complexity = complexity_of ~wb ~wvc bases;
  }
