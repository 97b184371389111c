(** SPICE-format netlist parsing.

    Accepts the classic card syntax so circuits can be described in ordinary
    [.sp] decks rather than built programmatically:

    {v
    * high-speed OTA testbench
    VDD vdd 0 DC 5
    VIN in 0 DC 2.5 AC 1
    R1 n1 n2 10k
    C1 out 0 10p
    IB 0 nb 20u
    G1 out 0 in 0 1m
    M1 d g s b NMOS W=10u L=1u
    .model NMOS NMOS (VTO=0.76 KP=100u LAMBDA=0.06 GAMMA=0.45 PHI=0.65)
    .end
    v}

    Element type is selected by the first letter of the name (R, C, V, I,
    G = VCCS, M = MOSFET), node names are arbitrary identifiers ([0], [gnd]
    and [GND] are ground), and values take SPICE scale factors
    (f p n u m mil k meg g t) followed by ignored unit letters.  A first
    line that does not begin with a card letter or [.] is taken as the
    deck title.  [.model] cards define MOS parameter sets (they may appear
    after the devices that use them); a MOSFET referring to an undefined
    model named [NMOS]/[PMOS] gets the built-in defaults. *)

type t = {
  circuit : Circuit.t;
  node_names : (string * int) list;  (** name → node index, ground omitted *)
  title : string option;  (** first line when it is not a card *)
}

val parse : string -> (t, string) result
(** Parse a whole deck.  Errors carry the line number. *)

val parse_file : string -> (t, string) result
(** {!parse} on a file's contents. *)

val node : t -> string -> int
(** Look up a node by name ([0]/[gnd]/[GND] return 0).
    Raises [Not_found]. *)

val parse_value : string -> float option
(** SPICE number, case-insensitive: a decimal numeral
    [[+-]digits[.digits][e[+-]digits]] (a leading or trailing [.] is
    allowed), then optionally the longest matching scale factor, then any
    unit letters not starting with [x], which are ignored.  ["10k"] is
    1e4, ["2.5u"] is 2.5e-6, ["3meg"] is 3e6, ["1uF"] is 1e-6 and
    ["2.2kOhm"] is 2200; a bare numeral passes through.  [None] for
    anything else ([nan], [inf], [1_000], [0x10], [0xff], ...) and for
    values that overflow to infinity. *)
