module Cmatrix = Caffeine_linalg.Cmatrix

type point = { freq_hz : float; response : Complex.t }

type sweep = point array

let log_frequencies ~start_hz ~stop_hz ~points_per_decade =
  if start_hz <= 0. || stop_hz <= start_hz then invalid_arg "Ac.log_frequencies: bad range";
  if points_per_decade < 1 then invalid_arg "Ac.log_frequencies: need at least 1 point/decade";
  let decades = log10 (stop_hz /. start_hz) in
  let count = int_of_float (ceil (decades *. float_of_int points_per_decade)) + 1 in
  Array.init count (fun i ->
      start_hz *. (10. ** (float_of_int i /. float_of_int points_per_decade)))

(* The linearized circuit as a plan for a whole sweep.  Every stamp is
   either purely real (conductances, transconductances, source incidence)
   or purely imaginary (capacitive susceptances ωc), so each cell's real
   part is the sum of its real stamps and its imaginary part the sum of its
   imaginary stamps, each in element order.  The other half of every stamp
   is +0, and adding +0 leaves any accumulator that is not −0 unchanged; an
   accumulator that starts at +0 never holds −0 (a sum is −0 only when both
   addends are), so leaving those halves out keeps every word of the
   complex sums.  The real parts do not depend on the frequency and are
   summed once; the imaginary parts are summed at each frequency from
   [omega *. c].  Cells are row-major indices into the [size x size]
   system; stamps on the ground row or column are dropped. *)
type plan = {
  size : int;
  real : float array;  (* every cell's real part *)
  cap_cells : int array;  (* per capacitance: its four cells, -1 where dropped *)
  farads : float array;  (* per capacitance, in element order *)
  rhs : float array;  (* real right-hand side; its imaginary part is 0 *)
}

let[@inline] add_at a p value = if p >= 0 then a.(p) <- a.(p) +. value

let plan_of circuit dc ~input_index =
  let n = Circuit.num_nodes circuit in
  let size = n + List.length (Circuit.vsource_names circuit) in
  let real = Array.make (size * size) 0. in
  let rhs = Array.make size 0. in
  let caps = ref [] in
  let cell row col = if row > 0 && col > 0 then ((row - 1) * size) + col - 1 else -1 in
  let add_real row col g = add_at real (cell row col) g in
  let add_conductance n1 n2 g =
    add_real n1 n1 g;
    add_real n2 n2 g;
    add_real n1 n2 (-.g);
    add_real n2 n1 (-.g)
  in
  let add_capacitance n1 n2 c =
    caps := (c, [| cell n1 n1; cell n2 n2; cell n1 n2; cell n2 n1 |]) :: !caps
  in
  let add_vccs out_pos out_neg in_pos in_neg gm =
    add_real out_pos in_pos gm;
    add_real out_pos in_neg (-.gm);
    add_real out_neg in_pos (-.gm);
    add_real out_neg in_neg gm
  in
  let branch = ref 0 in
  List.iter
    (fun element ->
      match element with
      | Circuit.Resistor { n1; n2; ohms; _ } -> add_conductance n1 n2 (1. /. ohms)
      | Circuit.Capacitor { n1; n2; farads; _ } -> add_capacitance n1 n2 farads
      | Circuit.Vsource { pos; neg; _ } ->
          let k = n + !branch in
          let incidence node value =
            if node > 0 then begin
              add_at real (((node - 1) * size) + k) value;
              add_at real ((k * size) + node - 1) value
            end
          in
          incidence pos 1.;
          incidence neg (-1.);
          (* Unit AC on the chosen source; the others are AC grounds. *)
          rhs.(k) <- (if !branch = input_index then 1. else 0.);
          incr branch
      | Circuit.Isource _ -> ()
      | Circuit.Vccs { out_pos; out_neg; in_pos; in_neg; gm; _ } ->
          add_vccs out_pos out_neg in_pos in_neg gm
      | Circuit.Mosfet { name; drain; gate; source; bulk; params; w; l } ->
          let op = (Dc.mos_bias dc name).Dc.op in
          add_vccs drain source gate source op.Mos.gm;
          add_conductance drain source op.Mos.gds;
          add_vccs drain source bulk source op.Mos.gmb;
          add_capacitance gate source (Mos.cgs params ~w ~l);
          add_capacitance gate drain (Mos.cgd params ~w);
          add_capacitance drain bulk (Mos.cdb params ~w);
          add_capacitance source bulk (Mos.cdb params ~w))
    (Circuit.elements circuit);
  let caps = Array.of_list (List.rev !caps) in
  {
    size;
    real;
    cap_cells = Array.concat (Array.to_list (Array.map snd caps));
    farads = Array.map fst caps;
    rhs;
  }

(* The capacitive stamps at [omega], in element order: [omega *. c] on the
   two diagonal cells, its negation on the two off-diagonal ones. *)
let stamp_susceptances plan omega im =
  Array.fill im 0 (Array.length im) 0.;
  let cells = plan.cap_cells in
  for c = 0 to Array.length plan.farads - 1 do
    let admittance = omega *. plan.farads.(c) in
    let across = -.admittance in
    add_at im cells.(4 * c) admittance;
    add_at im cells.((4 * c) + 1) admittance;
    add_at im cells.((4 * c) + 2) across;
    add_at im cells.((4 * c) + 3) across
  done

let transfer ~circuit ~dc ~input ~output ~freqs =
  let input_index =
    match Circuit.vsource_index circuit input with
    | index -> index
    | exception Not_found -> invalid_arg ("Ac.transfer: unknown voltage source " ^ input)
  in
  if output <= 0 || output > Circuit.num_nodes circuit then
    invalid_arg "Ac.transfer: output node out of range";
  (* With no frequency nothing is stamped, so no MOSFET bias is looked up. *)
  if Array.length freqs = 0 then [||]
  else begin
    let plan = plan_of circuit dc ~input_index in
    let y = Cmatrix.create plan.size plan.size in
    let xr = Array.make plan.size 0. and xi = Array.make plan.size 0. in
    Array.map
      (fun freq_hz ->
        let omega = 2. *. Float.pi *. freq_hz in
        Array.blit plan.real 0 y.Cmatrix.re 0 (Array.length plan.real);
        stamp_susceptances plan omega y.Cmatrix.im;
        Array.blit plan.rhs 0 xr 0 plan.size;
        Array.fill xi 0 plan.size 0.;
        Cmatrix.solve_in_place y xr xi;
        { freq_hz; response = { Complex.re = xr.(output - 1); im = xi.(output - 1) } })
      freqs
  end

let gain_db sweep =
  Array.map (fun p -> 20. *. log10 (Float.max (Complex.norm p.response) 1e-300)) sweep

let phase_deg_unwrapped sweep =
  let n = Array.length sweep in
  let out = Array.make n 0. in
  let previous = ref 0. in
  for i = 0 to n - 1 do
    let raw = Complex.arg sweep.(i).response in
    let unwrapped =
      if i = 0 then raw
      else begin
        (* Shift by multiples of 2π to stay within π of the previous point. *)
        let delta = raw -. !previous in
        let wraps = Float.round (delta /. (2. *. Float.pi)) in
        raw -. (wraps *. 2. *. Float.pi)
      end
    in
    previous := unwrapped;
    out.(i) <- unwrapped *. 180. /. Float.pi
  done;
  out

let low_frequency_gain_db sweep =
  if Array.length sweep = 0 then invalid_arg "Ac.low_frequency_gain_db: empty sweep";
  (gain_db sweep).(0)

let unity_gain_frequency sweep =
  let db = gain_db sweep in
  let n = Array.length sweep in
  let rec scan i =
    if i >= n then None
    else if db.(i) <= 0. then
      if i = 0 then Some sweep.(0).freq_hz
      else begin
        (* Interpolate the 0 dB crossing in (log f, dB) coordinates. *)
        let f1 = sweep.(i - 1).freq_hz and f2 = sweep.(i).freq_hz in
        let g1 = db.(i - 1) and g2 = db.(i) in
        let t = if g1 = g2 then 0. else g1 /. (g1 -. g2) in
        Some (10. ** (log10 f1 +. (t *. (log10 f2 -. log10 f1))))
      end
    else scan (i + 1)
  in
  scan 0

let phase_margin_deg sweep =
  match unity_gain_frequency sweep with
  | None -> None
  | Some fu ->
      let phases = phase_deg_unwrapped sweep in
      let n = Array.length sweep in
      (* Interpolate the unwrapped phase at fu. *)
      let rec locate i =
        if i >= n then phases.(n - 1)
        else if sweep.(i).freq_hz >= fu then
          if i = 0 then phases.(0)
          else begin
            let f1 = log10 sweep.(i - 1).freq_hz and f2 = log10 sweep.(i).freq_hz in
            let t = if f1 = f2 then 0. else (log10 fu -. f1) /. (f2 -. f1) in
            phases.(i - 1) +. (t *. (phases.(i) -. phases.(i - 1)))
          end
        else locate (i + 1)
      in
      let phase_at_fu = locate 0 in
      Some (180. +. (phase_at_fu -. phases.(0)))
