type polarity =
  | Nmos
  | Pmos

type params = {
  polarity : polarity;
  vth0 : float;
  kp : float;
  lambda : float;
  gamma : float;
  phi : float;
  cox : float;
  cov : float;
  cj : float;
}

let default_nmos =
  {
    polarity = Nmos;
    vth0 = 0.76;
    kp = 100e-6;
    lambda = 0.06;
    gamma = 0.45;
    phi = 0.65;
    cox = 2.4e-3;
    cov = 0.25e-9;
    cj = 0.4e-3;
  }

let default_pmos =
  {
    polarity = Pmos;
    vth0 = -0.75;
    kp = 35e-6;
    lambda = 0.08;
    gamma = 0.4;
    phi = 0.65;
    cox = 2.4e-3;
    cov = 0.25e-9;
    cj = 0.5e-3;
  }

type operating_point = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  region : [ `Cutoff | `Triode | `Saturation ];
}

let gmin = 1e-12

(* Core equations for an N-type device with vds >= 0.  Body effect raises the
   threshold with source-bulk reverse bias vsb = -vbs. *)
let evaluate_ntype p ~beta ~vgs ~vds ~vbs =
  let vsb = Float.max 0. (-.vbs) in
  let sqrt_phi = sqrt p.phi in
  let sqrt_phi_vsb = sqrt (p.phi +. vsb) in
  let vth = p.vth0 +. (p.gamma *. (sqrt_phi_vsb -. sqrt_phi)) in
  let vov = vgs -. vth in
  (* d vth / d vsb, used for gmb = gm * dvth/dvsb.  Zero when the vsb >= 0
     clamp is active, so the reported derivative matches the clamped model. *)
  let dvth_dvsb = if -.vbs > 0. then p.gamma /. (2. *. sqrt_phi_vsb) else 0. in
  if vov <= 0. then
    { ids = gmin *. vds; gm = 0.; gds = gmin; gmb = 0.; region = `Cutoff }
  else begin
    let clm = 1. +. (p.lambda *. vds) in
    if vds < vov then begin
      let core = (vov *. vds) -. (vds *. vds /. 2.) in
      let ids = beta *. core *. clm in
      let gm = beta *. vds *. clm in
      let gds = (beta *. (vov -. vds) *. clm) +. (beta *. core *. p.lambda) +. gmin in
      { ids = ids +. (gmin *. vds); gm; gds; gmb = gm *. dvth_dvsb; region = `Triode }
    end
    else begin
      let half_beta = beta /. 2. in
      let ids = half_beta *. vov *. vov *. clm in
      let gm = beta *. vov *. clm in
      let gds = (half_beta *. vov *. vov *. p.lambda) +. gmin in
      { ids = ids +. (gmin *. vds); gm; gds; gmb = gm *. dvth_dvsb; region = `Saturation }
    end
  end

(* N-type evaluation valid for either sign of vds.  For vds < 0 the source
   and drain exchange roles: ids(vgs, vds, vbs) = -ids'(vgs - vds, -vds,
   vbs - vds) where ids' is the forward evaluation.  The chain rule then
   gives gm = -gm', gds = gm' + gds' + gmb', gmb = -gmb' — the returned
   fields are always the true partial derivatives of the drain→source
   current with respect to (vgs, vds, vbs). *)
let evaluate_ntype_any p ~beta ~vgs ~vds ~vbs =
  if vds >= 0. then evaluate_ntype p ~beta ~vgs ~vds ~vbs
  else begin
    let m = evaluate_ntype p ~beta ~vgs:(vgs -. vds) ~vds:(-.vds) ~vbs:(vbs -. vds) in
    {
      ids = -.m.ids;
      gm = -.m.gm;
      gds = m.gm +. m.gds +. m.gmb;
      gmb = -.m.gmb;
      region = m.region;
    }
  end

let evaluate p ~w ~l ~vgs ~vds ~vbs =
  if w <= 0. || l <= 0. then invalid_arg "Mos.evaluate: non-positive dimensions";
  let beta = p.kp *. w /. l in
  match p.polarity with
  | Nmos -> evaluate_ntype_any p ~beta ~vgs ~vds ~vbs
  | Pmos ->
      (* Reflect the P-device onto the N-type equations: ids_P(v) =
         -ids_N(-v) with |vth0|.  Every first derivative picks up two sign
         flips (outer negation and inner argument negation), so gm, gds and
         gmb carry over unchanged. *)
      let reflected = { p with polarity = Nmos; vth0 = -.p.vth0 } in
      let inner = evaluate_ntype_any reflected ~beta ~vgs:(-.vgs) ~vds:(-.vds) ~vbs:(-.vbs) in
      { inner with ids = -.inner.ids }

let size_for_current p ~id ~vov ~l =
  if id <= 0. then invalid_arg "Mos.size_for_current: current must be positive";
  if vov <= 0. then invalid_arg "Mos.size_for_current: overdrive must be positive";
  2. *. id *. l /. (p.kp *. vov *. vov)

let saturation_gm ~id ~vov =
  if vov <= 0. then invalid_arg "Mos.saturation_gm: overdrive must be positive";
  2. *. id /. vov

let cgs p ~w ~l = (2. /. 3. *. w *. l *. p.cox) +. (p.cov *. w)

let cgd p ~w = p.cov *. w

(* Drain diffusion assumed 1 µm deep regardless of technology detail. *)
let cdb p ~w = p.cj *. w *. 1e-6
