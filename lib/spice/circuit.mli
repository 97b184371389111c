(** Circuit netlists.

    Nodes are non-negative integers with node [0] as ground.  A circuit is an
    immutable list of elements; {!make} validates connectivity and computes
    the node count.  Sign conventions follow SPICE:

    - a voltage source's branch current flows from the [pos] node through the
      source to the [neg] node;
    - a current source drives [amps] from node [from_node] through itself
      into node [to_node];
    - a VCCS drives [gm·(v in_pos − v in_neg)] from [out_pos] through itself
      into [out_neg]. *)

type node = int

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Vsource of { name : string; pos : node; neg : node; dc : float; ac : float }
  | Isource of { name : string; from_node : node; to_node : node; amps : float }
  | Vccs of {
      name : string;
      out_pos : node;
      out_neg : node;
      in_pos : node;
      in_neg : node;
      gm : float;
    }
  | Mosfet of {
      name : string;
      drain : node;
      gate : node;
      source : node;
      bulk : node;
      params : Mos.params;
      w : float;
      l : float;
    }

type t

val make : element list -> t
(** Validates: non-empty, unique element names, non-negative node indices,
    positive resistor/capacitor values and device dimensions.  Raises
    [Invalid_argument] on violations. *)

val elements : t -> element list

val num_nodes : t -> int
(** Highest node index (= number of non-ground nodes, assuming dense
    numbering). *)

val vsource_names : t -> string list
(** Voltage source names in element order (their branch currents extend the
    MNA unknown vector in this order). *)

val vsource_index : t -> string -> int
(** Position of a voltage source in {!vsource_names}.
    Raises [Not_found] for an unknown name. *)
