type node = int

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Vsource of { name : string; pos : node; neg : node; dc : float; ac : float }
  | Isource of { name : string; from_node : node; to_node : node; amps : float }
  | Vccs of {
      name : string;
      out_pos : node;
      out_neg : node;
      in_pos : node;
      in_neg : node;
      gm : float;
    }
  | Mosfet of {
      name : string;
      drain : node;
      gate : node;
      source : node;
      bulk : node;
      params : Mos.params;
      w : float;
      l : float;
    }

type t = { elements : element list; num_nodes : int }

let element_name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vccs { name; _ }
  | Mosfet { name; _ } -> name

let element_nodes = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } -> [ n1; n2 ]
  | Vsource { pos; neg; _ } -> [ pos; neg ]
  | Isource { from_node; to_node; _ } -> [ from_node; to_node ]
  | Vccs { out_pos; out_neg; in_pos; in_neg; _ } -> [ out_pos; out_neg; in_pos; in_neg ]
  | Mosfet { drain; gate; source; bulk; _ } -> [ drain; gate; source; bulk ]

let validate_element e =
  let positive what v = if v <= 0. then invalid_arg (Printf.sprintf "Circuit.make: %s of %s must be positive" what (element_name e)) in
  let finite what v =
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Circuit.make: %s of %s is not finite" what (element_name e))
  in
  (match e with
  | Resistor { ohms; _ } -> positive "resistance" ohms
  | Capacitor { farads; _ } -> positive "capacitance" farads
  | Vsource { dc; ac; _ } ->
      finite "dc value" dc;
      finite "ac value" ac
  | Isource { amps; _ } -> finite "current" amps
  | Vccs { gm; _ } -> finite "gm" gm
  | Mosfet { w; l; _ } ->
      positive "width" w;
      positive "length" l);
  List.iter
    (fun n -> if n < 0 then invalid_arg ("Circuit.make: negative node in " ^ element_name e))
    (element_nodes e)

let make elements =
  if elements = [] then invalid_arg "Circuit.make: empty netlist";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let name = element_name e in
      if Hashtbl.mem seen name then invalid_arg ("Circuit.make: duplicate element name " ^ name);
      Hashtbl.add seen name ();
      validate_element e)
    elements;
  let num_nodes =
    List.fold_left (fun acc e -> List.fold_left max acc (element_nodes e)) 0 elements
  in
  { elements; num_nodes }

let elements c = c.elements
let num_nodes c = c.num_nodes

let vsource_names c =
  List.filter_map (function Vsource { name; _ } -> Some name | _ -> None) c.elements

let vsource_index c name =
  let rec search i = function
    | [] -> raise Not_found
    | candidate :: rest -> if candidate = name then i else search (i + 1) rest
  in
  search 0 (vsource_names c)
