(* Determinism contract: the order in which this module draws from the
   generator is part of every seeded front.  OCaml leaves the evaluation
   order of constructor arguments, operator operands, tuple and list
   elements and record fields unspecified (ocamlopt evaluates them right to
   left, and record fields in reverse declaration order), so no such
   expression holds two draws: each is bound by its own [let], in the order
   ocamlopt used before the order was spelled out, which every recorded
   front depends on. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr

let random_exponent rng opset =
  let choices = Opset.exponent_choices opset in
  (* Bias towards +/-1 for interpretability; the paper's tables are
     dominated by simple ratios. *)
  let simple =
    Array.of_list (List.filter (fun e -> abs e = 1) (Array.to_list choices))
  in
  if Array.length simple > 0 && Rng.bernoulli rng 0.7 then Rng.choose rng simple
  else Rng.choose rng choices

let random_vc rng opset ~dims ~max_vars =
  if dims < 1 then invalid_arg "Gen.random_vc: dims < 1";
  let upper = max 1 (min max_vars dims) in
  (* 1 variable most of the time, occasionally more. *)
  let count = 1 + (if upper > 1 && Rng.bernoulli rng 0.35 then Rng.int rng upper else 0) in
  let count = min count dims in
  let vars = Rng.sample_without_replacement rng count dims in
  let exponents = Array.make dims 0 in
  Array.iter (fun v -> exponents.(v) <- random_exponent rng opset) vars;
  exponents

let rec random_basis rng opset ~dims ~depth ~max_vc_vars =
  let can_nest = depth > 1 && Opset.allow_nonlinear opset in
  let vc_only () =
    { Expr.vc = Some (random_vc rng opset ~dims ~max_vars:max_vc_vars); factors = [] }
  in
  if not can_nest then vc_only ()
  else begin
    let shape = Rng.uniform rng in
    if shape < 0.55 then vc_only ()
    else if shape < 0.8 then begin
      let factor = random_factor rng opset ~dims ~depth ~max_vc_vars in
      let vc = random_vc rng opset ~dims ~max_vars:max_vc_vars in
      { Expr.vc = Some vc; factors = [ factor ] }
    end
    else begin
      let extra =
        if Rng.bernoulli rng 0.2 then [ random_factor rng opset ~dims ~depth ~max_vc_vars ]
        else []
      in
      { Expr.vc = None; factors = random_factor rng opset ~dims ~depth ~max_vc_vars :: extra }
    end
  end

and random_factor rng opset ~dims ~depth ~max_vc_vars =
  let unary_count = Array.length opset.Opset.unops in
  let binary_count = Array.length opset.Opset.binops in
  let lte_weight = if opset.Opset.allow_lte then 1. else 0. in
  let choice =
    Rng.weighted_index rng [| float_of_int unary_count; float_of_int binary_count; lte_weight |]
  in
  match choice with
  | 0 ->
      let op = Rng.choose rng opset.Opset.unops in
      Expr.Unary (op, random_wsum rng opset ~dims ~depth:(depth - 1) ~max_vc_vars)
  | 1 ->
      let op = Rng.choose rng opset.Opset.binops in
      (* 2ARGS: exactly one side is a weighted sum; the other is MAYBEW. *)
      let sum_side = Expr.Sum (random_wsum rng opset ~dims ~depth:(depth - 1) ~max_vc_vars) in
      let maybe_side = random_maybew rng opset ~dims ~depth:(depth - 1) ~max_vc_vars in
      if Rng.bool rng then Expr.Binary (op, sum_side, maybe_side)
      else Expr.Binary (op, maybe_side, sum_side)
  | 2 ->
      let maybew () = random_maybew rng opset ~dims ~depth:(depth - 1) ~max_vc_vars in
      let otherwise = maybew () in
      let less = maybew () in
      let threshold = maybew () in
      let test = random_wsum rng opset ~dims ~depth:(depth - 1) ~max_vc_vars in
      Expr.Lte { test; threshold; less; otherwise }
  | _ -> assert false

and random_maybew rng opset ~dims ~depth ~max_vc_vars =
  if Rng.bernoulli rng 0.5 then Expr.Const (Weight.random_value rng)
  else Expr.Sum (random_wsum rng opset ~dims ~depth ~max_vc_vars)

and random_wsum rng opset ~dims ~depth ~max_vc_vars =
  let term () =
    let basis = random_basis rng opset ~dims ~depth:(max 0 (depth - 1)) ~max_vc_vars in
    (Weight.random_value rng, basis)
  in
  let terms =
    if Rng.bernoulli rng 0.3 then begin
      let second = term () in
      [ term (); second ]
    end
    else [ term () ]
  in
  { Expr.bias = Weight.random_value rng; terms }

let random_individual rng config ~dims =
  let upper = max 1 (config.Config.max_bases / 3) in
  let count = 1 + Rng.int rng upper in
  Array.init count (fun _ ->
      random_basis rng config.Config.opset ~dims ~depth:config.Config.max_depth
        ~max_vc_vars:config.Config.max_vc_vars)
