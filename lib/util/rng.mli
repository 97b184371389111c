(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256** seeded through splitmix64, which gives
    reproducible streams from an integer seed.  Every stochastic component of
    the library threads a value of type {!t} explicitly so that whole
    experiments are replayable from a single seed. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from [seed] (default [0x5EED]). *)

val copy : t -> t
(** [copy rng] is an independent generator with the same current state. *)

type state = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }
(** The four xoshiro256** state words, exposed for serialization
    (checkpoint snapshots).  A captured state plus {!of_state} replays the
    exact remaining stream. *)

val to_state : t -> state
(** Snapshot the current state; the generator is not advanced. *)

val of_state : state -> t
(** Rebuild a generator that continues the stream captured by
    {!to_state}.  Raises [Invalid_argument] on the all-zero state (the
    degenerate fixed point of xoshiro256**, unreachable from any seed). *)

val split : t -> t
(** [split rng] derives a fresh generator from [rng], advancing [rng].
    The two streams are statistically independent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val uniform : t -> float
(** [uniform rng] is uniform in [\[0, 1)]. *)

val range : t -> float -> float -> float
(** [range rng lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. *)

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal deviate via Box–Muller (default standard normal). *)

val cauchy : ?scale:float -> t -> float
(** Zero-mean Cauchy deviate with the given [scale] (default [1.0]);
    used for parameter mutation after Yao, Liu and Lin. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index rng ws] samples an index with probability proportional to
    the non-negative weight [ws.(i)].  At least one weight must be positive. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation rng n] is a uniformly random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement rng k n] draws [k] distinct values from
    [0..n-1], in random order.  Requires [k <= n]. *)
