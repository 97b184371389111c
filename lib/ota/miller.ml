module Mos = Caffeine_spice.Mos
module Circuit = Caffeine_spice.Circuit
module Dc = Caffeine_spice.Dc
module Ac = Caffeine_spice.Ac
module Doe = Caffeine_doe.Doe

type performance =
  | Alf
  | Fu
  | Pm
  | Power

let all_performances = [ Alf; Fu; Pm; Power ]

let performance_name = function
  | Alf -> "ALF"
  | Fu -> "fu"
  | Pm -> "PM"
  | Power -> "power"

let var_names = [| "id1"; "id2"; "vgs1"; "vsg3"; "vgs5"; "vgs7"; "cc"; "cl" |]
let dims = Array.length var_names

let i_id1 = 0
and i_id2 = 1
and i_vgs1 = 2
and i_vsg3 = 3
and i_vgs5 = 4
and i_vgs7 = 5
and i_cc = 6
and i_cl = 7

let nominal = [| 20e-6; 200e-6; 1.00; 1.10; 1.10; 1.00; 2e-12; 5e-12 |]

let supply_voltage = 5.0
let device_length = 2e-6

let nmos = Mos.default_nmos
let pmos = Mos.default_pmos

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let overdrive params v_drive =
  let vov = v_drive -. Float.abs params.Mos.vth0 in
  if vov <= 0.02 then Error "device in or near cutoff (overdrive <= 20 mV)" else Ok vov

(* First stage: NMOS pair (gm1) with PMOS mirror load into node 2; second
   stage: inverting common-source PMOS (gm5) with NMOS current-source load
   into node 3; Miller capacitor cc across the second stage. *)
let small_signal_circuit x =
  if Array.length x <> dims then invalid_arg "Miller: design point width";
  let id1 = x.(i_id1) and id2 = x.(i_id2) in
  if id1 <= 0. || id2 <= 0. then Error "non-positive stage current"
  else if x.(i_cc) <= 0. || x.(i_cl) <= 0. then Error "non-positive capacitance"
  else
    let* vov1 = overdrive nmos x.(i_vgs1) in
    let* vov3 = overdrive pmos x.(i_vsg3) in
    let* vov5 = overdrive pmos x.(i_vgs5) in
    let* vov7 = overdrive nmos x.(i_vgs7) in
    let gm1 = Mos.saturation_gm ~id:id1 ~vov:vov1 in
    let gm5 = Mos.saturation_gm ~id:id2 ~vov:vov5 in
    let gds_stage1 = (nmos.Mos.lambda +. pmos.Mos.lambda) *. id1 in
    let gds_stage2 = (nmos.Mos.lambda +. pmos.Mos.lambda) *. id2 in
    let w3 = Mos.size_for_current pmos ~id:id1 ~vov:vov3 ~l:device_length in
    let w5 = Mos.size_for_current pmos ~id:id2 ~vov:vov5 ~l:device_length in
    let w7 = Mos.size_for_current nmos ~id:id2 ~vov:vov7 ~l:device_length in
    (* Parasitics at the stage-1 output: second-stage gate plus mirror
       drain; at the output: both drain junctions. *)
    let c_stage1 =
      Mos.cgs pmos ~w:w5 ~l:device_length +. Mos.cdb pmos ~w:w3 +. Mos.cgd pmos ~w:w3
    in
    let c_output = Mos.cdb pmos ~w:w5 +. Mos.cdb nmos ~w:w7 in
    Ok
      (Circuit.make
         [
           Circuit.Vsource { name = "vin"; pos = 1; neg = 0; dc = 0.; ac = 1. };
           (* Stage 1 (inverting). *)
           Circuit.Vccs { name = "gm1"; out_pos = 2; out_neg = 0; in_pos = 1; in_neg = 0; gm = gm1 };
           Circuit.Resistor { name = "ro1"; n1 = 2; n2 = 0; ohms = 1. /. gds_stage1 };
           Circuit.Capacitor { name = "c1"; n1 = 2; n2 = 0; farads = c_stage1 };
           (* Stage 2 (inverting). *)
           Circuit.Vccs { name = "gm2"; out_pos = 3; out_neg = 0; in_pos = 2; in_neg = 0; gm = gm5 };
           Circuit.Resistor { name = "ro2"; n1 = 3; n2 = 0; ohms = 1. /. gds_stage2 };
           Circuit.Capacitor { name = "cout"; n1 = 3; n2 = 0; farads = c_output };
           (* Miller compensation and load. *)
           Circuit.Capacitor { name = "cc"; n1 = 2; n2 = 3; farads = x.(i_cc) };
           Circuit.Capacitor { name = "cl"; n1 = 3; n2 = 0; farads = x.(i_cl) };
         ])

let evaluate x =
  let* circuit = small_signal_circuit x in
  let dc =
    match Dc.solve circuit with
    | Ok solution -> solution
    | Error msg -> failwith ("Miller: linear DC cannot fail: " ^ msg)
  in
  let freqs = Ac.log_frequencies ~start_hz:10. ~stop_hz:1e10 ~points_per_decade:12 in
  let sweep = Ac.transfer ~circuit ~dc ~input:"vin" ~output:3 ~freqs in
  let alf_db = Ac.low_frequency_gain_db sweep in
  match (Ac.unity_gain_frequency sweep, Ac.phase_margin_deg sweep) with
  | Some fu, Some pm ->
      let power = supply_voltage *. ((2. *. x.(i_id1)) +. x.(i_id2)) in
      Ok [| alf_db; fu; pm; power |]
  | None, _ | _, None -> Error "no unity-gain crossing"

let dataset rng ~samples ~spread =
  let unit_points = Doe.latin_hypercube rng ~samples ~dims in
  let lo = Array.map (fun v -> v *. (1. -. spread)) nominal in
  let hi = Array.map (fun v -> v *. (1. +. spread)) nominal in
  let points = Doe.map_unit_to_box ~lo ~hi unit_points in
  let keep = ref [] in
  Array.iter
    (fun x ->
      match evaluate x with
      | Ok outputs -> keep := (x, outputs) :: !keep
      | Error _ -> ())
    points;
  let rows = Array.of_list (List.rev !keep) in
  (Array.map fst rows, Array.map snd rows)
