(** Dense real matrices in row-major layout.

    Sized for the regression and circuit problems in this library (hundreds of
    rows, tens of columns); all operations are straightforward O(n^3)-or-less
    dense algorithms with no blocking. *)

type t = private { rows : int; cols : int; data : float array }
(** A [rows x cols] dense matrix.  Entry [(i, j)] is [data.(i * cols + j)].
    The representation is readable so hot kernels in other modules can loop
    over [data] directly: dune's dev profile compiles library modules with
    [-opaque], so a cross-module {!get} is never inlined and boxes the
    float it returns.  Build matrices through this module's constructors. *)

val create : int -> int -> t
(** [create rows cols] is a zero matrix.  Dimensions must be positive. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Build from rows; all rows must share a length. *)

val to_arrays : t -> float array array

val of_column : float array -> t
(** A single-column matrix. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t
val transpose : t -> t

val row : t -> int -> float array
val column : t -> int -> float array

val set_column : t -> int -> float array -> unit

val select_columns : t -> int array -> t
(** [select_columns m idx] keeps the listed columns, in order. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
(** Matrix product; inner dimensions must agree. *)

val mul_vec : t -> float array -> float array
(** Matrix-vector product. *)

val gram : t -> t
(** [gram a] is [aᵀ a]. *)

val frobenius_norm : t -> float

val max_abs_diff : t -> t -> float
(** Largest absolute entrywise difference; matrices must share dimensions. *)

val equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison within [tol] (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
