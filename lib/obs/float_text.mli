(** Exact [%.17g] text for floats.

    The one place that knows how every float writer in the repository
    (JSON codecs, model files, CSV, C export, checkpoint fingerprints)
    spells a float.  For every float, including NaN, ±∞, ±0 and
    subnormals, the output is byte-for-byte [Printf.sprintf "%.17g" v]:
    17 significant digits rounded half to even, which round-trips every
    finite double through [float_of_string].

    Finite values with [1e-10 <= |v| < 1e17] are converted with exact
    native-int arithmetic, several times faster than C [printf]; all
    other values go through [Printf].  Calls share no mutable state, so
    any domain may call either function at any time. *)

val add_g17 : Buffer.t -> float -> unit
(** Append [Printf.sprintf "%.17g" v]. *)

val g17 : float -> string
(** [Printf.sprintf "%.17g" v]. *)
