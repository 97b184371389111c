module Expr = Caffeine_expr.Expr
module Metrics = Caffeine_obs.Metrics

(* Exact objective-evaluation cache, keyed by the full structural hash of
   the whole individual (every basis, weight and exponent participates).
   It returns the objectives computed the first time the structure was
   fitted — bit-identical to recomputation by construction, since
   objectives are a pure function of (structure, data, targets).

   The table is a {!Caffeine_par.Memo} of 65,536 entries, the policy
   behind the dataset caches too: sharded by key hash, each shard behind
   its own mutex, bounded by a wholesale per-shard reset.  The search
   gives every island a private instance and touches it only from the
   island's coordinating domain, but the sharding keeps the structure safe
   should a future caller share one. *)

type mode = Off | Exact

let mode_to_string = function Off -> "off" | Exact -> "exact"

let mode_of_string = function
  | "off" -> Ok Off
  | "exact" -> Ok Exact
  | other -> Error (Printf.sprintf "unknown eval-cache mode %S (expected off or exact)" other)

(* Process-wide effectiveness counters ([fit --metrics], trace summary). *)
let m_hits = Metrics.counter Metrics.default "eval.cache_hits"
let m_misses = Metrics.counter Metrics.default "eval.cache_misses"
let m_evictions = Metrics.counter Metrics.default "eval.cache_evictions"

(* Order-sensitive FNV-style fold of the per-basis structural hashes:
   basis order affects the regression's pivoting, so permuted individuals
   are distinct keys. *)
let hash_individual individual =
  Array.fold_left (fun h b -> (h * 0x01000193) + Expr.hash_basis b) 0x811c9dc5 individual
  land max_int

(* The hash walks every tree of the individual, so each entry point
   computes it once into a key, and shard selection, lookup and insertion
   all reuse it. *)
type key = { individual : Expr.basis array; hash : int }

let key individual = { individual; hash = hash_individual individual }

module Individual_key = struct
  type t = key

  let equal a b =
    a.hash = b.hash
    &&
    let n = Array.length a.individual in
    n = Array.length b.individual
    &&
    let rec go i =
      i = n || (Expr.equal_basis a.individual.(i) b.individual.(i) && go (i + 1))
    in
    go 0

  let hash k = k.hash
end

module Memo = Caffeine_par.Memo.Make (Individual_key)

type t = { mode : mode; memo : float array Memo.t }

let create ~mode ~wb:_ ~wvc:_ ~data:_ () = { mode; memo = Memo.create ~limit:65_536 }
let mode t = t.mode

let lookup t individual =
  match t.mode with
  | Off -> None
  | Exact -> (
      match Memo.find t.memo (key individual) with
      | Some objectives ->
          Metrics.incr m_hits;
          Some (Array.copy objectives)
      | None ->
          Metrics.incr m_misses;
          None)

let store t individual objectives =
  match t.mode with
  | Off -> ()
  | Exact ->
      let evicted = Memo.add t.memo (key individual) (Array.copy objectives) in
      if evicted > 0 then Metrics.add m_evictions evicted

(* --- introspection -------------------------------------------------------- *)

type stats = Caffeine_par.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

let stats t = Memo.stats t.memo

let global_stats () =
  {
    Caffeine_obs.Trace.eval_hits = Metrics.counter_value m_hits;
    eval_misses = Metrics.counter_value m_misses;
    eval_evictions = Metrics.counter_value m_evictions;
  }
