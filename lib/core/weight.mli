(** The paper's weight representation (section 5).

    A real value is stored in the range [\[-2B, +2B\]] at each W node; during
    interpretation it is transformed into
    [-\[1e-B, 1e+B\] ∪ {0} ∪ +\[1e-B, 1e+B\]], so evolved parameters can take
    very small or very large magnitudes of either sign.  Zero-mean Cauchy
    mutation acts on the raw value. *)

type t = private float
(** A raw weight, clamped to [\[-2B, +2B\]]. *)

val bound : float
(** B = 10, the paper's setting. *)

val of_raw : float -> t
(** Clamp into [\[-2B, +2B\]]. *)

val raw : t -> float

val value : t -> float
(** The interpreted weight: [0] at raw 0, otherwise
    [sign(raw) · 10^(|raw| - B)]. *)

val of_value : float -> t
(** Inverse of {!value}, clamping magnitudes outside [\[1e-B, 1e+B\]].
    Only [v = 0] maps to raw 0: a nonzero [v] at (or clamped to) the
    [1e-B] boundary keeps its sign and round-trips,
    [value (of_value v) = v]. *)

val mutate : ?scale:float -> Caffeine_util.Rng.t -> t -> t
(** Zero-mean Cauchy perturbation of the raw value (default [scale = 1.0]),
    re-clamped. *)

val random_value : Caffeine_util.Rng.t -> float
(** [value (random rng)] — a fresh interpreted weight. *)

val mutate_value : ?scale:float -> Caffeine_util.Rng.t -> float -> float
(** Round-trip mutation on an interpreted weight: pull back through
    {!of_value}, Cauchy-perturb, re-interpret. *)
