(** Small-signal AC analysis.

    Linearizes every MOSFET at a DC operating point (transconductance,
    output conductance, body transconductance, gate and junction
    capacitances), stamps the complex nodal admittance matrix at each
    frequency, and solves for the transfer function from one voltage source
    to one node.  Helper measurements extract the quantities the paper
    models: low-frequency gain, unity-gain frequency and phase margin. *)

type point = {
  freq_hz : float;
  response : Complex.t;  (** output node voltage per unit AC input *)
}

type sweep = point array

val log_frequencies : start_hz:float -> stop_hz:float -> points_per_decade:int -> float array
(** Logarithmically spaced frequency grid, inclusive of [start_hz]. *)

val transfer :
  circuit:Circuit.t ->
  dc:Dc.solution ->
  input:string ->
  output:int ->
  freqs:float array ->
  sweep
(** [transfer ~circuit ~dc ~input ~output ~freqs]: the AC response at node
    [output] when the voltage source named [input] drives a unit AC signal
    and all other sources are AC grounds.  Raises [Invalid_argument] when
    [input] is unknown or [output] is not a node, and [Not_found] when [dc]
    has no bias for one of the circuit's MOSFETs; raises
    {!Caffeine_linalg.Decomp.Singular} if the admittance matrix is singular
    at some frequency.

    The circuit is compiled once per sweep: the real part of every matrix
    cell (conductances, transconductances, source incidence) is summed once
    in element order, and each capacitance keeps its cells.  At each
    frequency the imaginary parts are summed from [ω·c] in element order
    into unboxed arrays, which {!Caffeine_linalg.Cmatrix.solve_in_place}
    then solves.  Every response is the word that adding each element's
    complex stamps into a zero matrix at that frequency and solving it with
    {!Caffeine_linalg.Cmatrix.solve} gives. *)

val low_frequency_gain_db : sweep -> float
(** Gain magnitude at the first sweep point, in dB. *)

val unity_gain_frequency : sweep -> float option
(** First |H| = 1 crossing, interpolated in log-frequency/dB coordinates;
    [None] when the magnitude never crosses unity within the sweep. *)

val phase_margin_deg : sweep -> float option
(** [180° + (unwrapped phase at f_u − unwrapped phase at the first point)],
    the stability margin for unity-feedback around the DC-referenced phase;
    [None] when there is no unity crossing. *)
