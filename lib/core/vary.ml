(* Determinism contract: the order in which this module draws from the
   generator, and in which its traversals number mutation sites, is part
   of every seeded front.  OCaml leaves the evaluation order of
   constructor arguments, operator operands, tuple and list elements and
   record fields unspecified (ocamlopt evaluates them right to left, and
   record fields in reverse declaration order), so no such expression
   holds two draws or two site visits: each is bound by its own [let], in
   the order ocamlopt used before the order was spelled out, which every
   recorded front depends on. *)

module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr

type individual = Expr.basis array

(* --- traversal helpers ------------------------------------------------ *)

(* Rebuild a basis applying [f] to every stored weight, in a fixed
   depth-first order (bias before terms, term weight before its basis). *)
let rec map_weights_basis f (b : Expr.basis) =
  { b with Expr.factors = List.map (map_weights_factor f) b.Expr.factors }

and map_weights_factor f = function
  | Expr.Unary (op, ws) -> Expr.Unary (op, map_weights_wsum f ws)
  | Expr.Binary (op, a1, a2) ->
      let a1 = map_weights_arg f a1 in
      let a2 = map_weights_arg f a2 in
      Expr.Binary (op, a1, a2)
  | Expr.Lte { test; threshold; less; otherwise } ->
      let test = map_weights_wsum f test in
      let threshold = map_weights_arg f threshold in
      let less = map_weights_arg f less in
      let otherwise = map_weights_arg f otherwise in
      Expr.Lte { test; threshold; less; otherwise }

and map_weights_arg f = function
  | Expr.Const w -> Expr.Const (f w)
  | Expr.Sum ws -> Expr.Sum (map_weights_wsum f ws)

and map_weights_wsum f (ws : Expr.wsum) =
  let bias = f ws.Expr.bias in
  let terms =
    List.map
      (fun (w, b) ->
        let w = f w in
        let b = map_weights_basis f b in
        (w, b))
      ws.Expr.terms
  in
  { Expr.bias; terms }

(* Rebuild applying [f] to every VC: a basis's factors before its own VC,
   a binary factor's second argument before its first, and a conditional's
   parts from [otherwise] back to [test]. *)
let rec map_vcs_basis f (b : Expr.basis) =
  let factors = List.map (map_vcs_factor f) b.Expr.factors in
  let vc = Option.map f b.Expr.vc in
  { Expr.vc; factors }

and map_vcs_factor f = function
  | Expr.Unary (op, ws) -> Expr.Unary (op, map_vcs_wsum f ws)
  | Expr.Binary (op, a1, a2) ->
      let a2 = map_vcs_arg f a2 in
      let a1 = map_vcs_arg f a1 in
      Expr.Binary (op, a1, a2)
  | Expr.Lte { test; threshold; less; otherwise } ->
      let otherwise = map_vcs_arg f otherwise in
      let less = map_vcs_arg f less in
      let threshold = map_vcs_arg f threshold in
      let test = map_vcs_wsum f test in
      Expr.Lte { test; threshold; less; otherwise }

and map_vcs_arg f = function
  | Expr.Const w -> Expr.Const w
  | Expr.Sum ws -> Expr.Sum (map_vcs_wsum f ws)

and map_vcs_wsum f (ws : Expr.wsum) =
  { ws with Expr.terms = List.map (fun (w, b) -> (w, map_vcs_basis f b)) ws.Expr.terms }

(* Rebuild applying [f] to every operator-bearing factor, after the
   factors inside it, in the order of [map_vcs_factor]. *)
let rec map_factors_basis f (b : Expr.basis) =
  { b with Expr.factors = List.map (fun factor -> f (map_factors_inside f factor)) b.Expr.factors }

and map_factors_inside f = function
  | Expr.Unary (op, ws) -> Expr.Unary (op, map_factors_wsum f ws)
  | Expr.Binary (op, a1, a2) ->
      let a2 = map_factors_arg f a2 in
      let a1 = map_factors_arg f a1 in
      Expr.Binary (op, a1, a2)
  | Expr.Lte { test; threshold; less; otherwise } ->
      let otherwise = map_factors_arg f otherwise in
      let less = map_factors_arg f less in
      let threshold = map_factors_arg f threshold in
      let test = map_factors_wsum f test in
      Expr.Lte { test; threshold; less; otherwise }

and map_factors_arg f = function
  | Expr.Const w -> Expr.Const w
  | Expr.Sum ws -> Expr.Sum (map_factors_wsum f ws)

and map_factors_wsum f (ws : Expr.wsum) =
  { ws with Expr.terms = List.map (fun (w, b) -> (w, map_factors_basis f b)) ws.Expr.terms }

let count_factors_basis b =
  let count = ref 0 in
  let counting factor = incr count; factor in
  ignore (map_factors_basis counting b);
  !count

(* All bases appearing in the tree, the root included, depth-first. *)
let rec bases_in_basis (b : Expr.basis) =
  b :: List.concat_map bases_in_factor b.Expr.factors

and bases_in_factor = function
  | Expr.Unary (_, ws) -> bases_in_wsum ws
  | Expr.Binary (_, a1, a2) -> bases_in_arg a1 @ bases_in_arg a2
  | Expr.Lte { test; threshold; less; otherwise } ->
      bases_in_wsum test @ bases_in_arg threshold @ bases_in_arg less @ bases_in_arg otherwise

and bases_in_arg = function
  | Expr.Const _ -> []
  | Expr.Sum ws -> bases_in_wsum ws

and bases_in_wsum (ws : Expr.wsum) = List.concat_map (fun (_, b) -> bases_in_basis b) ws.Expr.terms

let nested_bases individual =
  List.concat_map bases_in_basis (Array.to_list individual)

(* Term-basis replacement: sites are wsum terms, visited outer-to-inner. *)
let rec count_term_sites_basis (b : Expr.basis) =
  List.fold_left (fun acc factor -> acc + count_term_sites_factor factor) 0 b.Expr.factors

and count_term_sites_factor = function
  | Expr.Unary (_, ws) -> count_term_sites_wsum ws
  | Expr.Binary (_, a1, a2) -> count_term_sites_arg a1 + count_term_sites_arg a2
  | Expr.Lte { test; threshold; less; otherwise } ->
      count_term_sites_wsum test + count_term_sites_arg threshold + count_term_sites_arg less
      + count_term_sites_arg otherwise

and count_term_sites_arg = function
  | Expr.Const _ -> 0
  | Expr.Sum ws -> count_term_sites_wsum ws

and count_term_sites_wsum (ws : Expr.wsum) =
  List.fold_left (fun acc (_, b) -> acc + 1 + count_term_sites_basis b) 0 ws.Expr.terms

let replace_term_site target replacement b =
  let counter = ref 0 in
  let rec go_basis (b : Expr.basis) =
    { b with Expr.factors = List.map go_factor b.Expr.factors }
  and go_factor = function
    | Expr.Unary (op, ws) -> Expr.Unary (op, go_wsum ws)
    | Expr.Binary (op, a1, a2) ->
        let a1 = go_arg a1 in
        let a2 = go_arg a2 in
        Expr.Binary (op, a1, a2)
    | Expr.Lte { test; threshold; less; otherwise } ->
        let test = go_wsum test in
        let threshold = go_arg threshold in
        let less = go_arg less in
        let otherwise = go_arg otherwise in
        Expr.Lte { test; threshold; less; otherwise }
  and go_arg = function
    | Expr.Const w -> Expr.Const w
    | Expr.Sum ws -> Expr.Sum (go_wsum ws)
  and go_wsum (ws : Expr.wsum) =
    let terms =
      List.map
        (fun (w, basis) ->
          let site = !counter in
          incr counter;
          if site = target then (w, replacement) else (w, go_basis basis))
        ws.Expr.terms
    in
    { ws with Expr.terms = terms }
  in
  go_basis b

(* Inner weighted-sum replacement: sites are the wsums feeding operators. *)
let rec count_wsum_sites_basis (b : Expr.basis) =
  List.fold_left (fun acc factor -> acc + count_wsum_sites_factor factor) 0 b.Expr.factors

and count_wsum_sites_factor = function
  | Expr.Unary (_, ws) -> 1 + count_wsum_sites_wsum ws
  | Expr.Binary (_, a1, a2) -> count_wsum_sites_arg a1 + count_wsum_sites_arg a2
  | Expr.Lte { test; threshold; less; otherwise } ->
      1 + count_wsum_sites_wsum test + count_wsum_sites_arg threshold
      + count_wsum_sites_arg less + count_wsum_sites_arg otherwise

and count_wsum_sites_arg = function
  | Expr.Const _ -> 0
  | Expr.Sum ws -> 1 + count_wsum_sites_wsum ws

and count_wsum_sites_wsum (ws : Expr.wsum) =
  List.fold_left (fun acc (_, b) -> acc + count_wsum_sites_basis b) 0 ws.Expr.terms

let replace_wsum_site target replacement b =
  let counter = ref 0 in
  let visit_wsum recurse ws =
    let site = !counter in
    incr counter;
    if site = target then replacement else recurse ws
  in
  let rec go_basis (b : Expr.basis) =
    { b with Expr.factors = List.map go_factor b.Expr.factors }
  and go_factor = function
    | Expr.Unary (op, ws) -> Expr.Unary (op, visit_wsum go_wsum ws)
    | Expr.Binary (op, a1, a2) ->
        let a1 = go_arg a1 in
        let a2 = go_arg a2 in
        Expr.Binary (op, a1, a2)
    | Expr.Lte { test; threshold; less; otherwise } ->
        let test = visit_wsum go_wsum test in
        let threshold = go_arg threshold in
        let less = go_arg less in
        let otherwise = go_arg otherwise in
        Expr.Lte { test; threshold; less; otherwise }
  and go_arg = function
    | Expr.Const w -> Expr.Const w
    | Expr.Sum ws -> Expr.Sum (visit_wsum go_wsum ws)
  and go_wsum (ws : Expr.wsum) =
    { ws with Expr.terms = List.map (fun (w, basis) -> (w, go_basis basis)) ws.Expr.terms }
  in
  go_basis b

(* --- operators --------------------------------------------------------- *)

let dedup_bases bases =
  let rec keep_first seen = function
    | [] -> List.rev seen
    | b :: rest ->
        if List.exists (Expr.equal_basis b) seen then keep_first seen rest
        else keep_first (b :: seen) rest
  in
  keep_first [] bases

let crossover_bases rng ~max_bases parent1 parent2 =
  let take parent =
    let count = 1 + Rng.int rng (Array.length parent) in
    let indices = Rng.sample_without_replacement rng count (Array.length parent) in
    Array.to_list (Array.map (fun i -> parent.(i)) indices)
  in
  let from2 = take parent2 in
  let from1 = take parent1 in
  let combined = Array.of_list (dedup_bases (from1 @ from2)) in
  if Array.length combined <= max_bases then combined
  else begin
    let keep = Rng.sample_without_replacement rng max_bases (Array.length combined) in
    Array.map (fun i -> combined.(i)) keep
  end

let total_weights individual =
  Array.fold_left (fun acc b -> acc + Expr.num_weights_basis b) 0 individual

let mutate_weight rng individual =
  let total = total_weights individual in
  if total = 0 then individual
  else begin
    let target = Rng.int rng total in
    let counter = ref 0 in
    let mutate_site value =
      let site = !counter in
      incr counter;
      if site = target then Weight.mutate_value rng value else value
    in
    Array.map (map_weights_basis mutate_site) individual
  end

let total_vcs individual =
  Array.fold_left (fun acc b -> acc + List.length (Expr.vcs_of_basis b)) 0 individual

let mutate_vc rng opset individual =
  let total = total_vcs individual in
  if total = 0 then individual
  else begin
    let target = Rng.int rng total in
    let counter = ref 0 in
    let mutate_site vc =
      let site = !counter in
      incr counter;
      if site <> target then vc
      else begin
        let dims = Array.length vc in
        let dim = Rng.int rng dims in
        let delta = if Rng.bool rng then 1 else -1 in
        let next = Array.copy vc in
        let proposed = vc.(dim) + delta in
        let clamped =
          max opset.Opset.min_exponent (min opset.Opset.max_exponent proposed)
        in
        next.(dim) <- clamped;
        if Array.for_all (fun e -> e = 0) next then vc else next
      end
    in
    Array.map (map_vcs_basis mutate_site) individual
  end

let all_vcs individual =
  List.concat_map Expr.vcs_of_basis (Array.to_list individual)

let crossover_vc rng child donor =
  let donor_vcs = Array.of_list (all_vcs donor) in
  let total = total_vcs child in
  if total = 0 || Array.length donor_vcs = 0 then child
  else begin
    let other = Rng.choose rng donor_vcs in
    let target = Rng.int rng total in
    let counter = ref 0 in
    let cross_site vc =
      let site = !counter in
      incr counter;
      if site <> target then vc
      else begin
        let dims = Array.length vc in
        let point = 1 + Rng.int rng (max 1 (dims - 1)) in
        let next = Array.init dims (fun i -> if i < point then vc.(i) else other.(i)) in
        if Array.for_all (fun e -> e = 0) next then vc else next
      end
    in
    Array.map (map_vcs_basis cross_site) child
  end

let swap_operator rng opset individual =
  let total = Array.fold_left (fun acc b -> acc + count_factors_basis b) 0 individual in
  if total = 0 then individual
  else begin
    let target = Rng.int rng total in
    let counter = ref 0 in
    let swap_site factor =
      let site = !counter in
      incr counter;
      if site <> target then factor
      else
        match factor with
        | Expr.Unary (op, ws) ->
            let candidates =
              Array.of_list
                (List.filter (fun o -> o <> op) (Array.to_list opset.Opset.unops))
            in
            if Array.length candidates = 0 then factor
            else Expr.Unary (Rng.choose rng candidates, ws)
        | Expr.Binary (op, a1, a2) ->
            let candidates =
              Array.of_list
                (List.filter (fun o -> o <> op) (Array.to_list opset.Opset.binops))
            in
            if Array.length candidates = 0 then factor
            else Expr.Binary (Rng.choose rng candidates, a1, a2)
        | Expr.Lte _ -> factor
    in
    Array.map (map_factors_basis swap_site) individual
  end

let add_basis rng config ~dims individual =
  if Array.length individual >= config.Config.max_bases then individual
  else begin
    let fresh =
      Gen.random_basis rng config.Config.opset ~dims ~depth:config.Config.max_depth
        ~max_vc_vars:config.Config.max_vc_vars
    in
    Array.append individual [| fresh |]
  end

let delete_basis rng individual =
  if Array.length individual <= 1 then individual
  else begin
    let victim = Rng.int rng (Array.length individual) in
    Array.of_list
      (List.filteri (fun i _ -> i <> victim) (Array.to_list individual))
  end

let copy_basis_from rng ~max_bases child donor =
  if Array.length child >= max_bases then child
  else begin
    let pool = Array.of_list (nested_bases donor) in
    if Array.length pool = 0 then child
    else Array.append child [| Rng.choose rng pool |]
  end

let max_depth_of individual =
  Array.fold_left (fun acc b -> max acc (Expr.depth_basis b)) 0 individual

let subtree_crossover rng child donor =
  let pool = Array.of_list (nested_bases donor) in
  if Array.length pool = 0 then child
  else begin
    let replacement = Rng.choose rng pool in
    let site_counts = Array.map count_term_sites_basis child in
    let total = Array.fold_left ( + ) 0 site_counts in
    if total = 0 then begin
      (* No inner term sites: replace a random top-level basis instead. *)
      let next = Array.copy child in
      next.(Rng.int rng (Array.length next)) <- replacement;
      next
    end
    else begin
      let target = Rng.int rng total in
      let rec locate index offset =
        if target < offset + site_counts.(index) then (index, target - offset)
        else locate (index + 1) (offset + site_counts.(index))
      in
      let index, local = locate 0 0 in
      let next = Array.copy child in
      next.(index) <- replace_term_site local replacement child.(index);
      next
    end
  end

let randomize_subtree rng config ~dims individual =
  let site_counts = Array.map count_wsum_sites_basis individual in
  let total = Array.fold_left ( + ) 0 site_counts in
  if total = 0 then add_basis rng config ~dims individual
  else begin
    let fresh =
      Gen.random_wsum rng config.Config.opset ~dims
        ~depth:(max 1 (config.Config.max_depth / 2))
        ~max_vc_vars:config.Config.max_vc_vars
    in
    let target = Rng.int rng total in
    let rec locate index offset =
      if target < offset + site_counts.(index) then (index, target - offset)
      else locate (index + 1) (offset + site_counts.(index))
    in
    let index, local = locate 0 0 in
    let next = Array.copy individual in
    next.(index) <- replace_wsum_site local fresh individual.(index);
    next
  end

(* --- top-level child construction -------------------------------------- *)

let num_ops = 9

type op_stats = {
  mutable crossovers : int;
  op_counts : int array;
  op_changed : int array;
  mutable depth_rejects : int;
}

let fresh_stats () =
  {
    crossovers = 0;
    op_counts = Array.make num_ops 0;
    op_changed = Array.make num_ops 0;
    depth_rejects = 0;
  }

let reset_stats stats =
  stats.crossovers <- 0;
  Array.fill stats.op_counts 0 num_ops 0;
  Array.fill stats.op_changed 0 num_ops 0;
  stats.depth_rejects <- 0

let equal_individual a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (Expr.equal_basis a.(i) b.(i) && go (i + 1)) in
  go 0

let vary ?stats rng config ~dims parent1 parent2 =
  let max_bases = config.Config.max_bases in
  let child =
    if Rng.bernoulli rng config.Config.crossover_probability then begin
      (match stats with Some s -> s.crossovers <- s.crossovers + 1 | None -> ());
      crossover_bases rng ~max_bases parent1 parent2
    end
    else Array.copy parent1
  in
  let weights =
    [|
      config.Config.param_mutation_weight (* 0: weight mutation *);
      1. (* 1: vc mutation *);
      1. (* 2: vc crossover *);
      1. (* 3: operator swap *);
      1. (* 4: add basis *);
      1. (* 5: delete basis *);
      1. (* 6: copy basis from donor *);
      1. (* 7: subtree crossover *);
      1. (* 8: randomize subtree *);
    |]
  in
  let before_depth = max_depth_of child in
  let op = Rng.weighted_index rng weights in
  (match stats with Some s -> s.op_counts.(op) <- s.op_counts.(op) + 1 | None -> ());
  let mutated =
    match op with
    | 0 -> mutate_weight rng child
    | 1 -> mutate_vc rng config.Config.opset child
    | 2 -> crossover_vc rng child parent2
    | 3 -> swap_operator rng config.Config.opset child
    | 4 -> add_basis rng config ~dims child
    | 5 -> delete_basis rng child
    | 6 -> copy_basis_from rng ~max_bases child parent2
    | 7 -> subtree_crossover rng child parent2
    | 8 -> randomize_subtree rng config ~dims child
    | _ -> assert false
  in
  (* Keep the depth bound: discard a mutation that deepened past the limit
     (unless the parent was already past it, e.g. inherited structure). *)
  if
    max_depth_of mutated > config.Config.max_depth
    && max_depth_of mutated > before_depth
  then begin
    (match stats with Some s -> s.depth_rejects <- s.depth_rejects + 1 | None -> ());
    child
  end
  else begin
    (* Operator success: the surviving mutation structurally changed its
       input.  Many operator draws are silent no-ops (nothing to mutate,
       bounds already reached), and the adaptive-operator consumer needs
       effective application counts, not draw counts. *)
    (match stats with
    | Some s ->
        if not (equal_individual mutated child) then s.op_changed.(op) <- s.op_changed.(op) + 1
    | None -> ());
    mutated
  end
