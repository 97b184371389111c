module Mos = Caffeine_spice.Mos
module Circuit = Caffeine_spice.Circuit
module Dc = Caffeine_spice.Dc
module Ac = Caffeine_spice.Ac
module Doe = Caffeine_doe.Doe

type performance =
  | Alf
  | Fu
  | Pm
  | Voffset
  | Srp
  | Srn

let all_performances = [ Alf; Fu; Pm; Voffset; Srp; Srn ]

let performance_name = function
  | Alf -> "ALF"
  | Fu -> "fu"
  | Pm -> "PM"
  | Voffset -> "voffset"
  | Srp -> "SRp"
  | Srn -> "SRn"

let performance_of_name name =
  List.find_opt (fun p -> performance_name p = name) all_performances

(* Design-variable indices: the operating-point formulation uses the branch
   currents and the drive / drain voltages of each device as free variables.
   All values are positive magnitudes (PMOS voltages are source-referred). *)
let var_names =
  [|
    "id1"; "id2"; "ib"; "vsg1"; "vgs2"; "vsg3"; "vsg4"; "vsg5"; "vds1"; "vds2"; "vsd5"; "vgs6";
    "vds6";
  |]

let dims = Array.length var_names

let i_id1 = 0
and i_id2 = 1
and _i_ib = 2 (* bias-branch current: a deliberate nuisance variable that no
                 performance depends on; the symbolic models should exclude
                 it, as the paper's do *)
and i_vsg1 = 3
and i_vgs2 = 4
and i_vsg3 = 5
and i_vsg4 = 6
and i_vsg5 = 7
and i_vds1 = 8
and i_vds2 = 9
and i_vsd5 = 10
and i_vgs6 = 11
and i_vds6 = 12

let nominal =
  [| 10e-6; 100e-6; 20e-6; 1.10; 1.10; 1.15; 1.15; 1.20; 1.20; 1.50; 1.40; 1.05; 0.90 |]

let supply_voltage = 5.0
let load_capacitance = 10e-12
let device_length = 3e-6

let nmos = Mos.default_nmos
let pmos = Mos.default_pmos

(* Square-law small-signal identities at a forced operating point: the
   current and the drive voltage determine gm and the device size (hence its
   capacitances); the drain voltage sets the output conductance through
   channel-length modulation. *)
type device = {
  gm : float;
  gds : float;
  cgs : float;
  cgd : float;
  cdb : float;
}

let device_of params ~id ~v_drive ~vds =
  let vth = Float.abs params.Mos.vth0 in
  let vov = v_drive -. vth in
  if id <= 0. then Error "non-positive drain current"
  else if vov <= 0.02 then Error "device in or near cutoff (overdrive <= 20 mV)"
  else begin
    let w = Mos.size_for_current params ~id ~vov ~l:device_length in
    Ok
      {
        gm = Mos.saturation_gm ~id ~vov;
        gds = params.Mos.lambda *. id /. (1. +. (params.Mos.lambda *. vds));
        cgs = Mos.cgs params ~w ~l:device_length;
        cgd = Mos.cgd params ~w;
        cdb = Mos.cdb params ~w;
      }
  end

type bias = {
  m1 : device;  (** PMOS input pair device (each side carries id1) *)
  m2 : device;  (** NMOS diode load (id1) *)
  m2k : device;  (** NMOS mirror output (id2 = K·id1) *)
  m3 : device;  (** PMOS mirror diode (id2) *)
  m4 : device;  (** PMOS mirror output (id2) *)
  m5 : device;  (** PMOS cascode (id2) *)
  m6 : device;  (** NMOS tail source (2·id1) *)
}

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let bias_of x =
  if Array.length x <> dims then invalid_arg "Ota: design point has wrong width";
  let id1 = x.(i_id1) and id2 = x.(i_id2) in
  let* m1 = device_of pmos ~id:id1 ~v_drive:x.(i_vsg1) ~vds:x.(i_vds1) in
  let* m2 = device_of nmos ~id:id1 ~v_drive:x.(i_vgs2) ~vds:x.(i_vgs2) in
  let* m2k = device_of nmos ~id:id2 ~v_drive:x.(i_vgs2) ~vds:x.(i_vds2) in
  let* m3 = device_of pmos ~id:id2 ~v_drive:x.(i_vsg3) ~vds:x.(i_vsg3) in
  let* m4 = device_of pmos ~id:id2 ~v_drive:x.(i_vsg4) ~vds:x.(i_vsg4) in
  let* m5 = device_of pmos ~id:id2 ~v_drive:x.(i_vsg5) ~vds:x.(i_vsd5) in
  let* m6 = device_of nmos ~id:(2. *. id1) ~v_drive:x.(i_vgs6) ~vds:x.(i_vds6) in
  Ok { m1; m2; m2k; m3; m4; m5; m6 }

(* Small-signal node numbering:
   1 input gate (M1a)         2 tail (sources of M1a/M1b)
   3 drain M1a = diode M2a    4 drain M1b = diode M2b
   5 mirror node (M3 diode, gate of M4)
   6 cascode internal node (drain M4, source M5)
   7 output node (drain M5, drain M2d, CL). *)
let small_signal_netlist b =
  let resistor name n1 n2 conductance =
    Circuit.Resistor { name; n1; n2; ohms = 1. /. conductance }
  in
  let cap name n1 n2 farads = Circuit.Capacitor { name; n1; n2; farads } in
  let vccs name out_pos out_neg in_pos in_neg gm =
    Circuit.Vccs { name; out_pos; out_neg; in_pos; in_neg; gm }
  in
  Circuit.make
    [
      Circuit.Vsource { name = "vin"; pos = 1; neg = 0; dc = 0.; ac = 1. };
      (* M1a: PMOS input device, gate = 1, source = tail, drain = 3. *)
      vccs "gm1a" 3 2 1 2 b.m1.gm;
      resistor "gds1a" 3 2 b.m1.gds;
      cap "cgs1a" 1 2 b.m1.cgs;
      cap "cgd1a" 1 3 b.m1.cgd;
      cap "cdb1a" 3 0 b.m1.cdb;
      (* M1b: gate at AC ground, drain = 4. *)
      vccs "gm1b" 4 2 0 2 b.m1.gm;
      resistor "gds1b" 4 2 b.m1.gds;
      cap "cgs1b" 2 0 b.m1.cgs;
      cap "cgd1b" 4 0 b.m1.cgd;
      cap "cdb1b" 4 0 b.m1.cdb;
      (* M2a / M2b: NMOS diode loads. *)
      resistor "gm2a" 3 0 (b.m2.gm +. b.m2.gds);
      cap "cgs2a" 3 0 b.m2.cgs;
      cap "cdb2a" 3 0 b.m2.cdb;
      resistor "gm2b" 4 0 (b.m2.gm +. b.m2.gds);
      cap "cgs2b" 4 0 b.m2.cgs;
      cap "cdb2b" 4 0 b.m2.cdb;
      (* M2c: NMOS mirror output into the PMOS diode M3 (node 5). *)
      vccs "gm2c" 5 0 3 0 b.m2k.gm;
      resistor "gds2c" 5 0 b.m2k.gds;
      cap "cgs2c" 3 0 b.m2k.cgs;
      cap "cgd2c" 3 5 b.m2k.cgd;
      cap "cdb2c" 5 0 b.m2k.cdb;
      (* M2d: NMOS mirror output pulling the output node. *)
      vccs "gm2d" 7 0 4 0 b.m2k.gm;
      resistor "gds2d" 7 0 b.m2k.gds;
      cap "cgs2d" 4 0 b.m2k.cgs;
      cap "cgd2d" 4 7 b.m2k.cgd;
      cap "cdb2d" 7 0 b.m2k.cdb;
      (* M3: PMOS diode at node 5 (source at AC-ground VDD). *)
      resistor "gm3" 5 0 (b.m3.gm +. b.m3.gds);
      cap "cgs3" 5 0 b.m3.cgs;
      cap "cdb3" 5 0 b.m3.cdb;
      (* M4: PMOS mirror output, gate = 5, drain = 6. *)
      vccs "gm4" 6 0 5 0 b.m4.gm;
      resistor "gds4" 6 0 b.m4.gds;
      cap "cgs4" 5 0 b.m4.cgs;
      cap "cgd4" 5 6 b.m4.cgd;
      cap "cdb4" 6 0 b.m4.cdb;
      (* M5: PMOS cascode, gate AC ground, source = 6, drain = 7. *)
      vccs "gm5" 7 6 0 6 b.m5.gm;
      resistor "gds5" 7 6 b.m5.gds;
      cap "cgs5" 6 0 b.m5.cgs;
      cap "cgd5" 7 0 b.m5.cgd;
      cap "cdb5" 7 0 b.m5.cdb;
      (* M6: tail current source. *)
      resistor "gds6" 2 0 b.m6.gds;
      cap "cdb6" 2 0 b.m6.cdb;
      cap "cgd6" 2 0 b.m6.cgd;
      (* Load. *)
      cap "cl" 7 0 load_capacitance;
    ]

let small_signal_circuit x =
  let* b = bias_of x in
  Ok (small_signal_netlist b)

(* The AC sweep's grid, the same for every design point. *)
let ac_freqs = Ac.log_frequencies ~start_hz:100. ~stop_hz:1e10 ~points_per_decade:12

(* The small-signal netlist has no MOSFET, so [Ac.transfer] looks up no
   bias and needs no DC solution. *)
let no_bias = { Dc.voltages = [||]; branch_currents = []; iterations = 0; mos_biases = [] }

let ac_measurements b =
  let circuit = small_signal_netlist b in
  let sweep = Ac.transfer ~circuit ~dc:no_bias ~input:"vin" ~output:7 ~freqs:ac_freqs in
  let alf_db = Ac.low_frequency_gain_db sweep in
  match (Ac.unity_gain_frequency sweep, Ac.phase_margin_deg sweep) with
  | Some fu, Some pm -> Ok (alf_db, fu, pm)
  | None, _ | _, None -> Error "no unity-gain crossing (simulation did not converge)"

(* Systematic input-referred offset: threshold mismatch of the input pair
   plus load mismatch referred through gm2/gm1, plus a mirror-ratio error
   term.  Deterministic — the same "systematic offset" every run, weakly
   dependent on the operating point (the paper's voffset is ~ -2 mV and is
   fitted well by a constant). *)
let delta_vth_p = -1.6e-3
let delta_vth_n = -0.5e-3
let mirror_ratio_error = 0.004

let offset_voltage x b =
  let vov1 = x.(i_vsg1) -. Float.abs pmos.Mos.vth0 in
  delta_vth_p
  +. (delta_vth_n *. b.m2.gm /. b.m1.gm)
  +. (mirror_ratio_error *. vov1 /. 2.)

(* Slew rates: the output can source/sink 2·id2 when the pair is fully
   steered (tail current 2·id1 mirrored by K = id2/id1); internal mirror
   nodes slew with the available side current id1 against their own
   capacitance, which adds a delay term.  The two directions differ in which
   internal node limits. *)
let slew_rates x b =
  let id1 = x.(i_id1) and id2 = x.(i_id2) in
  let output_limit = load_capacitance /. (2. *. id2) in
  let mirror_cap = b.m3.cgs +. b.m4.cgs +. b.m2k.cdb +. b.m2k.cgd in
  let diode_cap = b.m2.cgs +. b.m2k.cgs +. b.m1.cdb in
  let vswing = 0.5 (* representative internal swing during slewing *) in
  let srp = 1. /. (output_limit +. (mirror_cap *. vswing /. (2. *. id1))) in
  let srn = 1. /. (output_limit +. (diode_cap *. vswing /. (2. *. id1))) in
  (srp, -.srn)

let evaluate x =
  let* b = bias_of x in
  let* alf_db, fu, pm = ac_measurements b in
  if pm <= 0. then Error "negative phase margin (simulation did not converge)"
  else begin
    let voffset = offset_voltage x b in
    let srp, srn = slew_rates x b in
    Ok [| alf_db; fu; pm; voffset; srp; srn |]
  end

let performance_index p =
  let rec find i = function
    | [] -> assert false
    | q :: rest -> if q = p then i else find (i + 1) rest
  in
  find 0 all_performances

type dataset = {
  inputs : float array array;
  outputs : float array array;
}

let doe_dataset ~dx =
  let design = Doe.orthogonal_array ~runs_exponent:5 ~factors:dims in
  let points = Doe.scale_levels ~center:nominal ~dx design in
  let keep = ref [] in
  Array.iter
    (fun x ->
      match evaluate x with
      | Ok outputs -> keep := (x, outputs) :: !keep
      | Error _ -> ())
    points;
  let rows = Array.of_list (List.rev !keep) in
  { inputs = Array.map fst rows; outputs = Array.map snd rows }

let targets dataset p =
  let index = performance_index p in
  Array.map (fun row -> row.(index)) dataset.outputs

let modeling_target p value = match p with Fu -> log10 value | Alf | Pm | Voffset | Srp | Srn -> value

let modeling_target_inverse p value =
  match p with Fu -> 10. ** value | Alf | Pm | Voffset | Srp | Srn -> value
