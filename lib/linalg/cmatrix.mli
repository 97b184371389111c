(** Dense complex matrices and a complex linear solver.

    Used by the small-signal AC analysis in the circuit simulator, where the
    nodal admittance matrix has entries [g + jωc]. *)

type t = private { rows : int; cols : int; re : float array; im : float array }
(** A [rows x cols] dense complex matrix stored as two unboxed row-major
    arrays: entry [(i, j)] is [re.(i * cols + j) + i·im.(i * cols + j)].
    The representation is readable so a caller can stamp a system into the
    arrays without boxing a [Complex.t] per entry (see {!Caffeine_spice.Ac});
    build matrices through {!create}. *)

val create : int -> int -> t
(** Zero matrix; dimensions must be positive. *)

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val add_entry : t -> int -> int -> Complex.t -> unit
(** [add_entry m i j z] accumulates [z] into entry [(i, j)] — the natural
    operation for MNA stamping. *)

val mul_vec : t -> Complex.t array -> Complex.t array

val solve : t -> Complex.t array -> Complex.t array
(** Gaussian elimination with partial pivoting (by modulus).
    Raises {!Decomp.Singular} when a pivot vanishes.  It is {!solve_in_place}
    on a copy of the matrix and of [b]. *)

val solve_in_place : t -> float array -> float array -> unit
(** [solve_in_place m xr xi] solves [m x = b] for [b = xr + i·xi],
    overwriting [xr] and [xi] with [x] and [m] with its elimination.
    Pivots are chosen by [Complex.norm] (the first row of largest modulus),
    a row whose factor has modulus 0 is skipped, and a pivot of modulus
    below [1e-300] raises {!Decomp.Singular}.  Every product, quotient
    and difference is [Complex]'s formula on the same operands in the same
    order, so the solution is word for word the one [Complex] arithmetic
    gives.  Raises [Invalid_argument] on mismatched dimensions. *)
