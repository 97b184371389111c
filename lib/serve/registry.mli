(** Model registry of the serving layer: versioned, hot-reloadable fronts.

    The end product of a CAFFEINE run is a Pareto front of closed-form
    models saved through {!Caffeine.Model_io}.  A registry loads one such
    file, compiles the whole front into a single fused DAG
    ({!Caffeine_expr.Fused.compile_wsums} — one root per model, subtrees
    shared across models evaluated once), and hands the serving loop an
    immutable {!front} value per request.

    Hot reload is an {e atomic swap}: {!check_reload} stats the file and,
    when the (mtime, size) signature changed, loads and compiles the new
    front into a fresh {!front} value before a single [Atomic.set]
    publishes it.  A request that captured the previous front keeps
    evaluating against it unchanged (fronts are immutable), and a reload
    that fails to parse leaves the served front exactly as it was — the
    registry never exposes a half-loaded state.  Reload outcomes are
    counted on the registry's metrics ([serve.reloads] /
    [serve.reload_failures]). *)

module Model = Caffeine.Model
module Fused = Caffeine_expr.Fused
module Metrics = Caffeine_obs.Metrics

type front = {
  path : string;  (** the models file this front was loaded from *)
  var_names : string array;  (** design variables, in model index order *)
  models : Model.t array;  (** file order (complexity-sorted by [fit]) *)
  fused : Fused.t;
      (** the whole front as one fused tape: root [k] computes model [k]'s
          [intercept + Σ wⱼ·basisⱼ], bit-identical to {!Model.predict} *)
  mtime : float;  (** stat signature of the loaded file *)
  size : int;
  generation : int;  (** 0 at startup, +1 per successful reload *)
}

type t

val create : ?metrics:Metrics.t -> path:string -> wb:float -> wvc:float -> unit -> (t, string) result
(** Load the initial front; [wb]/[wvc] recompute complexities on (re)load.
    Reload counters register on [metrics] (default {!Metrics.default}). *)

val current : t -> front
(** The front serving right now — one atomic read; the returned value is
    immutable, so a concurrent or subsequent reload cannot affect a batch
    already evaluating against it. *)

val check_reload : t -> [ `Unchanged | `Reloaded | `Failed of string ]
(** Stat the file and swap in a freshly compiled front when its
    (mtime, size) changed.  [`Failed] (unreadable or malformed file) keeps
    the current front serving and bumps [serve.reload_failures]. *)

val reloads : t -> int
val reload_failures : t -> int
