(** Lock-free, domain-safe metrics registry.

    One registry holds named metrics of four kinds — monotone counters,
    last-write-wins gauges, timing accumulators fed by monotonic-clock
    spans, and fixed-bucket histograms.  Registration (name -> handle)
    takes a mutex; it is expected once per metric, at module or pool
    initialization, on the main domain.  Every update on a handle is a
    plain [Atomic] operation — no locks, no blocking — so the hot paths
    (objective evaluation inside pool workers, per-candidate PRESS probes)
    can bump counters from any domain concurrently without coordination.
    Counts are exact: increments are atomic read-modify-write, never
    lost to races.

    The process-wide {!default} registry is what the always-on
    instrumentation (pool utilization, regression-engine counters) writes
    to and what [fit --metrics] renders; independent registries
    ({!create}) serve tests and embedders that want isolation. *)

type t
(** A registry: a named collection of metrics. *)

val create : unit -> t

val default : t
(** The process-wide registry used by the built-in instrumentation. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create the counter [name].  Raises [Invalid_argument] if the
    name is already registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** Get or create the gauge [name] (initially [0.]). *)

val set_gauge : gauge -> float -> unit
(** Last write wins; concurrent writers never corrupt the value. *)

val gauge_value : gauge -> float

(** {2 Timers} *)

type timer
(** Accumulates spans: a call count and a total duration in monotonic
    nanoseconds. *)

val timer : t -> string -> timer

val now_ns : unit -> int64
(** Monotonic clock ([CLOCK_MONOTONIC]), unaffected by wall-clock
    adjustments — safe to difference across a long run. *)

val record_span : timer -> start_ns:int64 -> stop_ns:int64 -> unit
(** Add [stop_ns - start_ns] (clamped at 0) to the timer. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is recorded even on exception. *)

val timer_count : timer -> int
val timer_total_ns : timer -> int

(** {2 Histograms} *)

type histogram
(** Fixed upper-inclusive buckets: with bounds [[| b0; ...; bk |]]
    (strictly increasing), observation [v] lands in the first bucket [i]
    with [v <= bi], and in the overflow bucket (index [k+1]) when
    [v > bk] or [v] is NaN. *)

val histogram : t -> buckets:float array -> string -> histogram
(** Get or create.  [buckets] must be non-empty and strictly increasing;
    re-registration with different bounds raises [Invalid_argument]. *)

val observe : histogram -> float -> unit
val bucket_bounds : histogram -> float array

val bucket_counts : histogram -> int array
(** One count per bucket plus the trailing overflow bucket
    ([Array.length (bucket_bounds h) + 1] entries). *)

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Timer of { count : int; total_ns : int }
  | Histogram of { bounds : float array; counts : int array }

val snapshot : t -> (string * value) list
(** Point-in-time copy of every metric, sorted by name.  Concurrent
    updates may or may not be included; each individual value is a single
    atomic read. *)

val reset : t -> unit
(** Zero every metric, keeping the registrations (handles stay valid). *)

val render : (string * value) list -> string
(** Human-readable table of a snapshot, one metric per line.  Counters and
    integral gauges print every digit; other gauges print six significant
    digits ([%g]). *)
