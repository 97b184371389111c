module Expr = Caffeine_expr.Expr
module Op = Caffeine_expr.Op

type language =
  | C
  | Verilog_a

let literal v =
  (* 17 significant digits keep full double precision; ensure a decimal
     marker so the C constant stays a double. *)
  let text = Caffeine_obs.Float_text.g17 v in
  if String.contains text '.' || String.contains text 'e' || String.contains text 'n' then text
  else text ^ ".0"

let unary_call language op argument =
  let wrap name = Printf.sprintf "%s(%s)" name argument in
  match (language, op) with
  | _, Op.Sqrt -> wrap "sqrt"
  | C, Op.Log_e -> wrap "log"
  | Verilog_a, Op.Log_e -> wrap "ln"
  | C, Op.Log_10 -> wrap "log10"
  | Verilog_a, Op.Log_10 -> wrap "log"
  | _, Op.Inv -> Printf.sprintf "(1.0 / (%s))" argument
  | C, Op.Abs -> wrap "fabs"
  | Verilog_a, Op.Abs -> wrap "abs"
  | _, Op.Square -> Printf.sprintf "((%s) * (%s))" argument argument
  | _, Op.Sin -> wrap "sin"
  | _, Op.Cos -> wrap "cos"
  | _, Op.Tan -> wrap "tan"
  | C, Op.Max0 -> Printf.sprintf "fmax(0.0, %s)" argument
  | Verilog_a, Op.Max0 -> Printf.sprintf "max(0.0, %s)" argument
  | C, Op.Min0 -> Printf.sprintf "fmin(0.0, %s)" argument
  | Verilog_a, Op.Min0 -> Printf.sprintf "min(0.0, %s)" argument
  | C, Op.Exp2 -> Printf.sprintf "pow(2.0, %s)" argument
  | Verilog_a, Op.Exp2 -> Printf.sprintf "pow(2.0, %s)" argument
  | _, Op.Exp10 -> Printf.sprintf "pow(10.0, %s)" argument

let binary_call language op a b =
  match (language, op) with
  | _, Op.Div -> Printf.sprintf "((%s) / (%s))" a b
  | _, Op.Pow -> Printf.sprintf "pow(%s, %s)" a b
  | C, Op.Max -> Printf.sprintf "fmax(%s, %s)" a b
  | Verilog_a, Op.Max -> Printf.sprintf "max(%s, %s)" a b
  | C, Op.Min -> Printf.sprintf "fmin(%s, %s)" a b
  | Verilog_a, Op.Min -> Printf.sprintf "min(%s, %s)" a b

let variable_reference language var_names i =
  match language with
  | C -> Printf.sprintf "x[%d]" i
  | Verilog_a ->
      if i < Array.length var_names then var_names.(i) else Printf.sprintf "x%d" i

(* Integer powers render as explicit products up to 3, pow() beyond. *)
let power_code _language base e =
  let magnitude = abs e in
  let positive =
    if magnitude = 1 then base
    else if magnitude <= 3 then
      String.concat " * " (List.init magnitude (fun _ -> base))
    else Printf.sprintf "pow(%s, %d.0)" base magnitude
  in
  if e >= 0 then Printf.sprintf "(%s)" positive else Printf.sprintf "(1.0 / (%s))" positive

let rec basis_code language var_names (b : Expr.basis) =
  let vc_factors =
    match b.Expr.vc with
    | None -> []
    | Some exponents ->
        List.filter_map
          (fun i ->
            let e = exponents.(i) in
            if e = 0 then None
            else Some (power_code language (variable_reference language var_names i) e))
          (List.init (Array.length exponents) (fun i -> i))
  in
  let op_factors = List.map (factor_code language var_names) b.Expr.factors in
  match vc_factors @ op_factors with
  | [] -> "1.0"
  | factors -> String.concat " * " factors

and factor_code language var_names = function
  | Expr.Unary (op, ws) -> unary_call language op (wsum_code language var_names ws)
  | Expr.Binary (op, a1, a2) ->
      binary_call language op (arg_code language var_names a1) (arg_code language var_names a2)
  | Expr.Lte { test; threshold; less; otherwise } ->
      Printf.sprintf "(((%s) <= (%s)) ? (%s) : (%s))"
        (wsum_code language var_names test)
        (arg_code language var_names threshold)
        (arg_code language var_names less)
        (arg_code language var_names otherwise)

and arg_code language var_names = function
  | Expr.Const w -> literal w
  | Expr.Sum ws -> wsum_code language var_names ws

and wsum_code language var_names (ws : Expr.wsum) =
  let terms =
    List.map
      (fun (w, b) -> Printf.sprintf "%s * %s" (literal w) (basis_code language var_names b))
      ws.Expr.terms
  in
  "(" ^ String.concat " + " (literal ws.Expr.bias :: terms) ^ ")"

let model_expression language var_names model = wsum_code language var_names (Model.wsum model)

let to_c ~name ~var_names model =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer "#include <math.h>\n\n";
  Buffer.add_string buffer "/* generated by caffeine; design variables:\n";
  Array.iteri (fun i n -> Buffer.add_string buffer (Printf.sprintf " *   x[%d] = %s\n" i n)) var_names;
  Buffer.add_string buffer " */\n";
  Buffer.add_string buffer (Printf.sprintf "double %s(const double *x) {\n" name);
  Buffer.add_string buffer
    (Printf.sprintf "  return %s;\n" (model_expression C var_names model));
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer

(* --- fused front export ---------------------------------------------------

   A whole front rendered as independent expressions repeats every subtree
   the models share — and front neighbors differ by a basis or two.  The
   fused exporter reuses the evaluation engine's hash-consed DAG
   ({!Caffeine_expr.Fused}): each model is one weighted-sum root, each
   distinct DAG node becomes exactly one [const double tN] local in
   topological order, and the function fills one output cell per model. *)

module Fused = Caffeine_expr.Fused

let fused_node_code var_names nodes id =
  let ref_of i = Printf.sprintf "t%d" i in
  match nodes.(id) with
  | Fused.Const w -> literal w
  | Fused.Vc { vars; exps } ->
      if Array.length vars = 0 then "1.0"
      else
        String.concat " * "
          (Array.to_list
             (Array.mapi
                (fun k v -> power_code C (variable_reference C var_names v) exps.(k))
                vars))
  | Fused.Unary (op, src) -> unary_call C op (ref_of src)
  | Fused.Binary (op, a, b) -> binary_call C op (ref_of a) (ref_of b)
  | Fused.Lte { test; threshold; less; otherwise } ->
      Printf.sprintf "(((%s) <= (%s)) ? (%s) : (%s))" (ref_of test) (ref_of threshold)
        (ref_of less) (ref_of otherwise)
  | Fused.Mul (a, b) -> Printf.sprintf "%s * %s" (ref_of a) (ref_of b)
  | Fused.Fma { acc; w; term } -> Printf.sprintf "%s + %s * %s" (ref_of acc) (literal w) (ref_of term)

let to_c_front ~name ~var_names front =
  let fused = Fused.compile_wsums (Array.of_list (List.map Model.wsum front)) in
  let nodes = Fused.nodes fused in
  let roots = Fused.roots fused in
  let buffer = Buffer.create 2048 in
  Buffer.add_string buffer "#include <math.h>\n\n";
  Buffer.add_string buffer "/* generated by caffeine; design variables:\n";
  Array.iteri
    (fun i n -> Buffer.add_string buffer (Printf.sprintf " *   x[%d] = %s\n" i n))
    var_names;
  Buffer.add_string buffer
    (Printf.sprintf " * out[k] = model k of the front (%d models, %d shared subexpressions)\n"
       (Array.length roots) (Array.length nodes));
  Buffer.add_string buffer " */\n";
  Buffer.add_string buffer (Printf.sprintf "void %s(const double *x, double *out) {\n" name);
  Array.iteri
    (fun id _ ->
      Buffer.add_string buffer
        (Printf.sprintf "  const double t%d = %s;\n" id (fused_node_code var_names nodes id)))
    nodes;
  Array.iteri
    (fun k root -> Buffer.add_string buffer (Printf.sprintf "  out[%d] = t%d;\n" k root))
    roots;
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer

let to_verilog_a ~name ~var_names model =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer "// generated by caffeine\n";
  Buffer.add_string buffer (Printf.sprintf "analog function real %s;\n" name);
  Array.iter (fun n -> Buffer.add_string buffer (Printf.sprintf "  input %s;\n" n)) var_names;
  Buffer.add_string buffer "  begin\n";
  Buffer.add_string buffer
    (Printf.sprintf "    %s = %s;\n" name (model_expression Verilog_a var_names model));
  Buffer.add_string buffer "  end\nendfunction\n";
  Buffer.contents buffer
