(** Level-1 (square-law) MOSFET model with channel-length modulation and
    body effect — the classic hand-analysis model, adequate for the 0.7 µm
    technology of the paper's test circuit.

    Conventions: for NMOS, [ids] flows drain→source and is non-negative in
    normal operation; the PMOS equations are obtained by sign reflection.
    All voltages in volts, currents in amperes, dimensions in meters. *)

type polarity =
  | Nmos
  | Pmos

type params = {
  polarity : polarity;
  vth0 : float;  (** zero-bias threshold; positive for NMOS, negative for PMOS *)
  kp : float;  (** transconductance parameter µCox (A/V²) *)
  lambda : float;  (** channel-length modulation (1/V) *)
  gamma : float;  (** body-effect coefficient (V^0.5) *)
  phi : float;  (** surface potential (V) *)
  cox : float;  (** gate oxide capacitance per area (F/m²) *)
  cov : float;  (** gate-drain/source overlap capacitance per width (F/m) *)
  cj : float;  (** junction capacitance per area of drain/source (F/m²) *)
}

val default_nmos : params
(** Representative 0.7 µm NMOS: vth0 = 0.76 V (the paper's technology). *)

val default_pmos : params
(** Representative 0.7 µm PMOS: vth0 = −0.75 V. *)

type operating_point = {
  ids : float;  (** drain current, drain→source (source→drain for PMOS) *)
  gm : float;  (** ∂ids/∂vgs *)
  gds : float;  (** ∂ids/∂vds *)
  gmb : float;  (** ∂ids/∂vbs *)
  region : [ `Cutoff | `Triode | `Saturation ];
}

val evaluate : params -> w:float -> l:float -> vgs:float -> vds:float -> vbs:float -> operating_point
(** Large-signal current and small-signal conductances at the given bias.
    Handles source/drain reflection ([vds < 0] for NMOS) and includes a
    tiny [gmin] leakage so Newton iterations never see an exactly-singular
    Jacobian. *)

val size_for_current :
  params -> id:float -> vov:float -> l:float -> float
(** [size_for_current p ~id ~vov ~l] is the width [w] such that the device in
    saturation with overdrive [vov] carries drain current [id] — the inverse
    square law used by the operating-point-driven formulation (currents and
    drive voltages as design variables, device sizes derived).  Requires
    [id > 0], [vov > 0]. *)

val saturation_gm : id:float -> vov:float -> float
(** [2·id / vov], the square-law transconductance identity. *)

val cgs : params -> w:float -> l:float -> float
(** Gate-source capacitance in saturation: [2/3·w·l·cox + cov·w]. *)

val cgd : params -> w:float -> float
(** Gate-drain overlap capacitance: [cov·w]. *)

val cdb : params -> w:float -> float
(** Drain-bulk junction capacitance (fixed-depth drain diffusion). *)
