module Op = Caffeine_expr.Op

type t = {
  unops : Op.unary array;
  binops : Op.binary array;
  allow_lte : bool;
  max_exponent : int;
  min_exponent : int;
}

let default =
  {
    unops = Array.of_list Op.all_unary;
    binops = Array.of_list Op.all_binary;
    allow_lte = true;
    max_exponent = 2;
    min_exponent = -2;
  }

let rational = { default with unops = [||]; binops = [||]; allow_lte = false }

let polynomial = { rational with min_exponent = 0 }

let no_trig =
  {
    default with
    unops =
      Array.of_list
        (List.filter
           (fun op -> not (List.mem op [ Op.Sin; Op.Cos; Op.Tan ]))
           Op.all_unary);
  }

let allow_nonlinear t = Array.length t.unops > 0 || Array.length t.binops > 0 || t.allow_lte

let names =
  List.map Op.unary_name Op.all_unary @ List.map Op.binary_name Op.all_binary @ [ "LTE" ]

let of_names listed =
  match List.find_opt (fun name -> not (List.mem name names)) listed with
  | Some unknown ->
      Error
        (Printf.sprintf "unknown operator %S (operators: %s)" unknown
           (String.concat ", " names))
  | None ->
      let keep name_of ops =
        Array.of_list (List.filter (fun op -> List.mem (name_of op) listed) ops)
      in
      Ok
        {
          default with
          unops = keep Op.unary_name Op.all_unary;
          binops = keep Op.binary_name Op.all_binary;
          allow_lte = List.mem "LTE" listed;
        }

let exponent_choices t =
  if t.max_exponent < 1 then invalid_arg "Opset.exponent_choices: max_exponent < 1";
  if t.min_exponent > t.max_exponent then invalid_arg "Opset.exponent_choices: empty range";
  let choices = ref [] in
  for e = t.max_exponent downto t.min_exponent do
    if e <> 0 then choices := e :: !choices
  done;
  Array.of_list !choices
