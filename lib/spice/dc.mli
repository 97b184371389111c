(** Nonlinear DC operating-point analysis.

    Modified nodal analysis with Newton–Raphson iteration: MOSFETs are
    replaced by their linearized companion models each iteration, the linear
    MNA system is solved, and the update is damped until the node voltages
    stop moving.  Capacitors are open circuits at DC.

    Every solve runs on a {!system}: the circuit compiled once into an
    array of stamps whose matrix cells are resolved, and one preallocated
    system.  Each iteration zeroes it, adds every stamp in element order
    (the same additions, on the same operands, as stamping a fresh matrix
    from the element list) and factors it in place with
    {!Caffeine_linalg.Decomp.lu_solve_in_place}, so the iterates are the
    words a fresh matrix and {!Caffeine_linalg.Decomp.lu_solve} give. *)

type mos_bias = {
  name : string;
  vgs : float;
  vds : float;
  vbs : float;
  op : Mos.operating_point;
}

type solution = {
  voltages : float array;  (** node voltages; index 0 is ground (0 V) *)
  branch_currents : (string * float) list;
      (** per voltage source: current flowing from its [pos] node through
          the source *)
  iterations : int;
  mos_biases : mos_bias list;  (** per-MOSFET operating point, element order *)
}

val node_voltage : solution -> int -> float

val branch_current : solution -> string -> float
(** Raises [Not_found] for an unknown source name. *)

val mos_bias : solution -> string -> mos_bias
(** Raises [Not_found] for an unknown device name. *)

val solve :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?initial:float array ->
  Circuit.t ->
  (solution, string) result
(** Newton solve from [initial] node voltages (default all zero).  Defaults:
    [max_iterations = 300], [tolerance = 1e-9] (absolute, on the node-voltage
    update).  Returns [Error] on non-convergence or a singular system. *)

val sweep :
  ?max_iterations:int ->
  ?tolerance:float ->
  circuit:Circuit.t ->
  source:string ->
  values:float array ->
  unit ->
  ((float * solution) array, string) result
(** The classic [.dc] sweep: solve the circuit for each value of the named
    voltage source, warm-starting every solve from the previous solution
    (continuation), which lets Newton track the curve through strongly
    nonlinear regions.  Returns [(value, solution)] pairs in sweep order;
    fails on the first non-converging point.  Raises [Invalid_argument] for
    an unknown source or empty value list. *)

(** {1 Compiled systems} *)

type system
(** A circuit compiled for Newton solves: its elements as stamps with
    their matrix cells resolved, one companion slot per capacitor (element
    order), and a preallocated MNA system that every solve overwrites.  A
    system is mutable: one solve at a time. *)

val compile : Circuit.t -> system

type companions = {
  conductance : float array;  (** per capacitor, element order *)
  current : float array;
      (** per capacitor: the current driven into its [n1] node and out of
          its [n2] node *)
}
(** A transient step's capacitor companions: each capacitor becomes a
    conductance in parallel with a current source. *)

val newton :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?companions:companions ->
  system ->
  sources:float array ->
  start:float array ->
  voltages:float array ->
  (int, string) result
(** [newton system ~sources ~start ~voltages] is {!solve}'s Newton
    iteration on a compiled system: [sources.(k)] is the value of the k-th
    voltage source ({!Circuit.vsource_names} order), [start] the starting
    node voltages (index 0 is ground, ignored) and [voltages] receives the
    solution's, both [num_nodes + 1] long.  [companions] are stamped after
    every element, capacitor by capacitor, each as the conductance across
    it and the current into its [n1] node.  Returns the iteration count, or
    {!solve}'s errors; [voltages] is written only on [Ok].  Raises
    [Invalid_argument] on arrays of the wrong length. *)
