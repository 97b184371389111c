(** Transistor-level DC testbench for the OTA.

    The operating-point formulation ({!Ota}) *asserts* a bias point: drain
    currents and drive voltages are design variables and the device sizes
    are derived.  This module closes the loop: it builds the full
    transistor-level netlist of the symmetrical OTA with exactly those
    derived sizes, solves it with the nonlinear Newton engine of
    {!Caffeine_spice.Dc}, and reports how closely the solved currents match
    the asserted ones — the consistency check a designer would run before
    trusting the small-signal model. *)

type device_report = {
  name : string;
  designed_current : float;  (** the current asserted by the design point *)
  solved_current : float;  (** drain current from the Newton solution *)
  region : [ `Cutoff | `Triode | `Saturation ];
}

type report = {
  output_voltage : float;
  tail_voltage : float;
  iterations : int;
  devices : device_report list;
}

val validate : float array -> (report, string) result
(** Build and DC-solve the netlist, then compare solved vs designed drain
    currents device by device. *)

val max_current_mismatch : report -> float
(** Largest relative |solved - designed| / designed across devices. *)

val transient_slew :
  ?step_voltage:float ->
  ?duration:float ->
  float array ->
  (float * float, string) result
(** Measure the output slew rates by *large-signal transient simulation* of
    the transistor-level netlist: a ±[step_voltage] (default 0.4 V) step on
    the input fully steers the pair, and the output ramp against the 10 pF
    load is current-limited.  Returns [(rising, falling)] in V/s (falling
    negative).  This is the ground truth the analytic slew expressions in
    {!Ota} approximate. *)
