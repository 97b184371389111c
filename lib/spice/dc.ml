module Decomp = Caffeine_linalg.Decomp

type mos_bias = {
  name : string;
  vgs : float;
  vds : float;
  vbs : float;
  op : Mos.operating_point;
}

type solution = {
  voltages : float array;
  branch_currents : (string * float) list;
  iterations : int;
  mos_biases : mos_bias list;
}

let node_voltage sol n = sol.voltages.(n)

let branch_current sol name = List.assoc name sol.branch_currents

let mos_bias sol name = List.find (fun b -> b.name = name) sol.mos_biases

(* Unknown layout: x.(i) for i < n is the voltage of node i+1; x.(n + k) is
   the branch current of the k-th voltage source.  The system has order
   [max size 1], [size = n + sources]; its cells are row-major indices
   into the matrix, and a stamp on the ground row or column (node 0) is
   dropped by compiling it to no cell ([-1] where a device keeps a fixed
   layout). *)

type mosfet = {
  drain : int;
  gate : int;
  source : int;
  bulk : int;
  params : Mos.params;
  w : float;
  l : float;
  cells : int array;
      (* drain-gate, drain-drain, drain-bulk, drain-source, source-gate,
         source-drain, source-bulk, source-source *)
  drain_row : int;
  source_row : int;
}

(* One element's stamps, in the order the element adds them. *)
type stamp =
  | Conductances of { cells : int array; values : float array }
      (* resistors, VCCSs and voltage-source incidence: constant matrix adds *)
  | Currents of { rows : int array; values : float array }  (* current sources *)
  | Source of { row : int; index : int }  (* rhs.(row) is the index-th source's value *)
  | Mosfet of mosfet  (* linearized at the iterate, every iteration *)

type system = {
  nodes : int;
  size : int;
  order : int;
  stamps : stamp array;
  cap_cells : int array;  (* per capacitor: n1-n1, n2-n2, n1-n2, n2-n1 *)
  cap_rows : int array;  (* per capacitor: n1, n2 *)
  g : float array;
  b : float array;
  x : float array;
}

type companions = { conductance : float array; current : float array }

let compile circuit =
  let n = Circuit.num_nodes circuit in
  let size = n + List.length (Circuit.vsource_names circuit) in
  let order = max size 1 in
  let cell row col = if row > 0 && col > 0 then ((row - 1) * order) + col - 1 else -1 in
  let row node = if node > 0 then node - 1 else -1 in
  let kept pairs =
    let pairs = List.filter (fun (p, _) -> p >= 0) pairs in
    (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))
  in
  let conductances pairs =
    let cells, values = kept pairs in
    Conductances { cells; values }
  in
  let branch = ref 0 and caps = ref [] in
  let compile_element = function
    | Circuit.Resistor { n1; n2; ohms; _ } ->
        let g = 1. /. ohms in
        [ conductances [ (cell n1 n1, g); (cell n2 n2, g); (cell n1 n2, -.g); (cell n2 n1, -.g) ] ]
    | Circuit.Capacitor { n1; n2; _ } ->
        caps := (n1, n2) :: !caps;
        []
    | Circuit.Vsource { pos; neg; _ } ->
        let k = n + !branch in
        let incidence node value =
          if node > 0 then [ (((node - 1) * order) + k, value); ((k * order) + node - 1, value) ]
          else []
        in
        let index = !branch in
        incr branch;
        [ conductances (incidence pos 1. @ incidence neg (-1.)); Source { row = k; index } ]
    | Circuit.Isource { from_node; to_node; amps; _ } ->
        let rows, values = kept [ (row from_node, -.amps); (row to_node, amps) ] in
        [ Currents { rows; values } ]
    | Circuit.Vccs { out_pos; out_neg; in_pos; in_neg; gm; _ } ->
        [
          conductances
            [
              (cell out_pos in_pos, gm);
              (cell out_pos in_neg, -.gm);
              (cell out_neg in_pos, -.gm);
              (cell out_neg in_neg, gm);
            ];
        ]
    | Circuit.Mosfet { drain = d; gate; source = s; bulk; params; w; l; _ } ->
        let cells =
          [|
            cell d gate; cell d d; cell d bulk; cell d s;
            cell s gate; cell s d; cell s bulk; cell s s;
          |]
        in
        let drain_row = row d and source_row = row s in
        [
          Mosfet { drain = d; gate; source = s; bulk; params; w; l; cells; drain_row; source_row };
        ]
  in
  let stamps = Array.of_list (List.concat_map compile_element (Circuit.elements circuit)) in
  let caps = Array.of_list (List.rev !caps) in
  let per_capacitor f = Array.concat (Array.to_list (Array.map f caps)) in
  {
    nodes = n;
    size;
    order;
    stamps;
    cap_cells = per_capacitor (fun (a, c) -> [| cell a a; cell c c; cell a c; cell c a |]);
    cap_rows = per_capacitor (fun (a, c) -> [| row a; row c |]);
    g = Array.make (order * order) 0.;
    b = Array.make order 0.;
    x = Array.make order 0.;
  }

let[@inline] add_at a p value = if p >= 0 then a.(p) <- a.(p) +. value
let[@inline] voltage x node = if node = 0 then 0. else x.(node - 1)

(* Companion model: I_d(v) ≈ ids + gm Δvgs + gds Δvds + gmb Δvbs. *)
let stamp_mosfet g b x m =
  let vgs = voltage x m.gate -. voltage x m.source in
  let vds = voltage x m.drain -. voltage x m.source in
  let vbs = voltage x m.bulk -. voltage x m.source in
  let op = Mos.evaluate m.params ~w:m.w ~l:m.l ~vgs ~vds ~vbs in
  let total = op.gm +. op.gds +. op.gmb in
  let cells = m.cells in
  add_at g cells.(0) op.gm;
  add_at g cells.(1) op.gds;
  add_at g cells.(2) op.gmb;
  add_at g cells.(3) (-.total);
  add_at g cells.(4) (-.op.gm);
  add_at g cells.(5) (-.op.gds);
  add_at g cells.(6) (-.op.gmb);
  add_at g cells.(7) total;
  let equivalent = op.ids -. (op.gm *. vgs) -. (op.gds *. vds) -. (op.gmb *. vbs) in
  add_at b m.drain_row (-.equivalent);
  add_at b m.source_row equivalent

(* The MNA system at the iterate [x]: every element in element order, then
   each capacitor's companion, into a zeroed matrix and right-hand side. *)
let stamp system sources companions =
  let g = system.g and b = system.b and x = system.x in
  Array.fill g 0 (Array.length g) 0.;
  Array.fill b 0 (Array.length b) 0.;
  let stamps = system.stamps in
  for e = 0 to Array.length stamps - 1 do
    match stamps.(e) with
    | Conductances { cells; values } ->
        for i = 0 to Array.length cells - 1 do
          add_at g cells.(i) values.(i)
        done
    | Currents { rows; values } ->
        for i = 0 to Array.length rows - 1 do
          add_at b rows.(i) values.(i)
        done
    | Source { row; index } -> b.(row) <- sources.(index)
    | Mosfet m -> stamp_mosfet g b x m
  done;
  match companions with
  | None -> ()
  | Some { conductance; current } ->
      let cells = system.cap_cells and rows = system.cap_rows in
      for c = 0 to Array.length conductance - 1 do
        let geq = conductance.(c) and ieq = current.(c) in
        add_at g cells.(4 * c) geq;
        add_at g cells.((4 * c) + 1) geq;
        add_at g cells.((4 * c) + 2) (-.geq);
        add_at g cells.((4 * c) + 3) (-.geq);
        add_at b rows.(2 * c) ieq;
        add_at b rows.((2 * c) + 1) (-.ieq)
      done

(* Damping limit per Newton update.  Square-law devices have polynomial
   currents (no exponentials), so generous steps are safe; the limit only
   prevents wild excursions from a poor starting point. *)
let max_step = 2.0

(* [Float.max (-.max_step) (Float.min max_step delta)] and [Float.max worst
   a] for [a >= +0] or a NaN with a clear sign bit, word for word (NaN
   passes through both), without [Float]'s two [sign_bit] calls per
   comparison: the constant bounds and [worst], which only ever holds +0,
   an [a] or such a NaN, have known signs. *)
let[@inline] clamp delta =
  if delta > max_step then max_step else if delta < -.max_step then -.max_step else delta

let[@inline] larger worst a = if a > worst || Float.is_nan a then a else worst

let newton ?(max_iterations = 300) ?(tolerance = 1e-9) ?companions system ~sources ~start
    ~voltages =
  let n = system.nodes and size = system.size in
  if Array.length start <> n + 1 then
    invalid_arg "Dc.solve: initial must have num_nodes + 1 entries";
  if Array.length voltages <> n + 1 then
    invalid_arg "Dc.newton: voltages must have num_nodes + 1 entries";
  if Array.length sources <> size - n then invalid_arg "Dc.newton: one value per voltage source";
  (match companions with
  | Some { conductance; current }
    when Array.length conductance <> Array.length system.cap_rows / 2
         || Array.length current <> Array.length conductance ->
      invalid_arg "Dc.newton: one companion per capacitor"
  | Some _ | None -> ());
  let x = system.x in
  for i = 0 to system.order - 1 do
    x.(i) <- (if i < n then start.(i + 1) else 0.)
  done;
  let rec iterate iteration =
    if iteration > max_iterations then
      Error (Printf.sprintf "no convergence in %d iterations" max_iterations)
    else begin
      stamp system sources companions;
      match Decomp.lu_solve_in_place ~n:system.order system.g system.b with
      | exception Decomp.Singular -> Error "singular MNA system"
      | () ->
          (* Damp: limit each node-voltage move to [max_step]. *)
          let fresh = system.b in
          let worst = ref 0. in
          for i = 0 to size - 1 do
            let delta = fresh.(i) -. x.(i) in
            if i < n then begin
              let damped = clamp delta in
              worst := larger !worst (Float.abs damped);
              x.(i) <- x.(i) +. damped
            end
            else x.(i) <- x.(i) +. delta
          done;
          if !worst < tolerance then begin
            voltages.(0) <- 0.;
            for i = 1 to n do
              voltages.(i) <- x.(i - 1)
            done;
            Ok iteration
          end
          else iterate (iteration + 1)
    end
  in
  iterate 1

let mos_biases_of circuit x =
  List.filter_map
    (fun element ->
      match element with
      | Circuit.Mosfet { name; drain; gate; source; bulk; params; w; l } ->
          let vgs = voltage x gate -. voltage x source in
          let vds = voltage x drain -. voltage x source in
          let vbs = voltage x bulk -. voltage x source in
          Some { name; vgs; vds; vbs; op = Mos.evaluate params ~w ~l ~vgs ~vds ~vbs }
      | Circuit.Resistor _ | Circuit.Capacitor _ | Circuit.Vsource _ | Circuit.Isource _
      | Circuit.Vccs _ -> None)
    (Circuit.elements circuit)

(* The voltage sources' DC values, in {!Circuit.vsource_names} order. *)
let dc_values circuit =
  Array.of_list
    (List.filter_map
       (function
         | Circuit.Vsource { dc; _ } -> Some dc
         | Circuit.Resistor _ | Circuit.Capacitor _ | Circuit.Isource _ | Circuit.Vccs _
         | Circuit.Mosfet _ -> None)
       (Circuit.elements circuit))

(* One solve of a compiled [system] of [circuit] at the source values
   [sources], as a solution record. *)
let solve_compiled ?max_iterations ?tolerance ?initial circuit system ~sources =
  let n = Circuit.num_nodes circuit in
  let start = match initial with Some given -> given | None -> Array.make (n + 1) 0. in
  let voltages = Array.make (n + 1) 0. in
  match newton ?max_iterations ?tolerance system ~sources ~start ~voltages with
  | Error _ as e -> e
  | Ok iterations ->
      let x = system.x in
      Ok
        {
          voltages;
          branch_currents =
            List.mapi (fun k name -> (name, x.(n + k))) (Circuit.vsource_names circuit);
          iterations;
          mos_biases = mos_biases_of circuit x;
        }

let solve ?max_iterations ?tolerance ?initial circuit =
  solve_compiled ?max_iterations ?tolerance ?initial circuit (compile circuit)
    ~sources:(dc_values circuit)

let sweep ?max_iterations ?tolerance ~circuit ~source ~values () =
  if Array.length values = 0 then invalid_arg "Dc.sweep: empty value list";
  let swept =
    match Circuit.vsource_index circuit source with
    | index -> index
    | exception Not_found -> invalid_arg ("Dc.sweep: unknown voltage source " ^ source)
  in
  let system = compile circuit in
  let sources = dc_values circuit in
  let results = Array.make (Array.length values) None in
  let previous = ref None in
  let failed = ref None in
  Array.iteri
    (fun k value ->
      if !failed = None then begin
        sources.(swept) <- value;
        match
          solve_compiled ?max_iterations ?tolerance ?initial:!previous circuit system ~sources
        with
        | Error msg -> failed := Some (Printf.sprintf "at %s = %g: %s" source value msg)
        | Ok solution ->
            previous := Some solution.voltages;
            results.(k) <- Some (value, solution)
      end)
    values;
  match !failed with
  | Some msg -> Error msg
  | None ->
      Ok
        (Array.map
           (fun entry -> match entry with Some pair -> pair | None -> assert false)
           results)
