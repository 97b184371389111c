(** Nonlinear transient analysis.

    Fixed-step time integration of the full nonlinear circuit: capacitors
    are replaced by their companion models (backward Euler or trapezoidal)
    and the resulting resistive circuit is Newton-solved at every timestep,
    warm-started from the previous solution.  Voltage sources may be driven
    by arbitrary time-domain stimuli.

    This is the engine that measures genuinely large-signal behaviour —
    e.g. slew rate, where device current limiting (not small-signal
    bandwidth) sets the output ramp. *)

type integration =
  | Backward_euler  (** robust, first order *)
  | Trapezoidal  (** second order *)

type waveform = {
  times : float array;
  voltages : float array array;  (** [voltages.(k).(node)] at [times.(k)] *)
}

val node_waveform : waveform -> int -> float array
(** One node's voltage trace. *)

val simulate_stream :
  ?integration:integration ->
  ?stimulus:(string -> float -> float option) ->
  ?initial:Dc.solution ->
  circuit:Circuit.t ->
  step:float ->
  duration:float ->
  on_step:(k:int -> time:float -> float array -> unit) ->
  unit ->
  (int, string) result
(** Streaming form of {!simulate}: instead of materializing the whole
    waveform (an [num_steps x nodes] matrix), [on_step ~k ~time voltages]
    is called once per solved time point in order, starting with the
    operating point at [k = 0].  The voltage array is only valid during
    the callback and must not be mutated — copy what must outlive it (the
    run reuses two buffers).  Returns the number of integration steps
    taken.  This is the native producer for million-sample waveform
    datasets: each solved step can be appended straight to a
    {!Caffeine_io.Colstore} writer with O(1) resident memory.  {!simulate}
    is implemented on top of this.

    The circuit is compiled once per run ({!Dc.compile}); each step sets
    the capacitor companions and the source values (the stimulus is called
    once per source per time point) and runs {!Dc.newton} on the same
    system, so every voltage is the word a fresh DC solve with the
    companions stamped after the elements gives. *)

val simulate :
  ?integration:integration ->
  ?stimulus:(string -> float -> float option) ->
  ?initial:Dc.solution ->
  circuit:Circuit.t ->
  step:float ->
  duration:float ->
  unit ->
  (waveform, string) result
(** [simulate ~circuit ~step ~duration ()] integrates from an operating
    point (computed by {!Dc.solve} unless [initial] is given) for
    [duration] seconds in steps of [step].  [stimulus name t] overrides the
    voltage of the source [name] at time [t] ([None] keeps its DC value);
    the operating point uses the stimulus at t = 0.  Default integration is
    {!Trapezoidal}.  Returns [Error] if any timestep fails to converge. *)

val slew_rates : waveform -> node:int -> float * float
(** [(max rising dv/dt, max falling dv/dt)] of a node trace (the falling
    value is negative).  Requires at least two time points. *)

val settling_time :
  waveform -> node:int -> target:float -> tolerance:float -> float option
(** First time after which the node stays within [tolerance] (absolute) of
    [target] for the rest of the simulation. *)
