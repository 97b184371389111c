(** The paper's test circuit: a high-speed CMOS OTA in a 0.7 µm, 5 V
    technology with a 10 pF load, modeled by the operating-point-driven
    formulation of Leyn et al. — drain currents and transistor drive
    voltages are the design variables, and device sizes are derived from
    the square law.

    The topology is a symmetrical OTA: PMOS input pair (M1a/M1b, current
    [id1] each) into NMOS diode loads (M2a/M2b), NMOS mirrors scaled by
    [K = id2/id1] (M2c/M2d), a PMOS mirror (M3 diode, M4 output) and a PMOS
    cascode (M5) stacking onto the output node, and an NMOS tail source
    (M6).  Substitution note (see DESIGN.md): where the paper ran HSPICE on
    the authors' netlist, we linearize this topology at the operating point
    implied by the design variables and run the small-signal AC engine of
    {!Caffeine_spice.Ac}; slew rates and offset come from large-signal
    current limits and a systematic mismatch model.

    Six performances are extracted, matching the paper: low-frequency gain
    ALF (dB), unity-gain frequency fu (Hz), phase margin PM (degrees),
    input-referred offset voltage voffset (V), and positive/negative slew
    rates SRp/SRn (V/s). *)

type performance =
  | Alf
  | Fu
  | Pm
  | Voffset
  | Srp
  | Srn

val all_performances : performance list

val performance_name : performance -> string
(** ["ALF"], ["fu"], ["PM"], ["voffset"], ["SRp"], ["SRn"]. *)

val performance_of_name : string -> performance option

val dims : int
(** Number of design variables (13). *)

val var_names : string array
(** Operating-point design-variable names, e.g. ["id1"], ["vsg1"], ["vds2"]. *)

val nominal : float array
(** Nominal design point (currents in A, voltages in V, all positive
    magnitudes). *)

val supply_voltage : float
(** 5.0 V. *)

val load_capacitance : float
(** 10 pF. *)

val small_signal_circuit : float array -> (Caffeine_spice.Circuit.t, string) result
(** Linearized netlist at the operating point implied by a design point;
    [Error] when some device cannot be biased (non-positive overdrive or
    current). *)

val evaluate : float array -> (float array, string) result
(** All six performances of a design point, in {!all_performances} order.
    [Error] mirrors a non-converging SPICE run (infeasible bias, no unity
    crossing, ...). *)

type dataset = {
  inputs : float array array;  (** design points, row-major *)
  outputs : float array array;  (** per row: six performances *)
}

val doe_dataset : dx:float -> dataset
(** The paper's sampling plan: 243-run (3⁵) orthogonal-hypercube DOE around
    {!nominal} with relative perturbation [dx] per variable (0.10 for
    training, 0.03 for testing).  Rows whose evaluation fails are dropped,
    mirroring the paper's non-converged samples. *)

val targets : dataset -> performance -> float array
(** Column extraction. *)

val modeling_target : performance -> float -> float
(** The paper's scaling: identity for all performances except [Fu], which is
    log₁₀-scaled "so that mean-squared error calculations and linear
    learning are not wrongly biased towards high-magnitude samples". *)

val modeling_target_inverse : performance -> float -> float
(** Inverse of {!modeling_target} (10^x for [Fu]). *)
