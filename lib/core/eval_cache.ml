module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset
module Metrics = Caffeine_obs.Metrics

(* Exact objective-evaluation cache, keyed by the full structural hash of
   the whole individual (every basis, weight and exponent participates).
   It returns the objectives computed the first time the structure was
   fitted — bit-identical to recomputation by construction, since
   objectives are a pure function of (structure, data, targets).

   It follows the dataset caches' concurrency design: sharded by key hash,
   each shard behind its own mutex, bounded by a wholesale per-shard
   reset.  The search gives every island a private instance and touches it
   only from the island's coordinating domain, but the sharding keeps the
   structure safe should a future caller share one. *)

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

module Tbl = Hashtbl.Make (Individual_key)

let shard_count = 16 (* power of two: shard selection is a mask *)

type shard = {
  lock : Mutex.t;
  table : float array Tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = { mode : mode; limit : int; shards : shard array }

let default_limit = 65_536

let create ?(limit = default_limit) ~mode ~wb:_ ~wvc:_ ~data:_ () =
  if limit < 1 then invalid_arg "Eval_cache.create: limit must be positive";
  {
    mode;
    limit;
    shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create (); table = Tbl.create 64; hits = 0; misses = 0; evictions = 0 });
  }

let mode t = t.mode
let shard_of t k = t.shards.(k.hash land (shard_count - 1))

let lookup t individual =
  match t.mode with
  | Off -> None
  | Exact -> (
      let k = key individual in
      let shard = shard_of t k in
      Mutex.lock shard.lock;
      let found = Tbl.find_opt shard.table k in
      (match found with
      | Some _ -> shard.hits <- shard.hits + 1
      | None -> shard.misses <- shard.misses + 1);
      Mutex.unlock shard.lock;
      match found with
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
      let objectives = Array.copy objectives in
      let k = key individual in
      let shard = shard_of t k in
      let per_shard_limit = Stdlib.max 1 (t.limit / shard_count) in
      Mutex.lock shard.lock;
      if Tbl.length shard.table >= per_shard_limit then begin
        (* Wholesale per-shard reset, like the dataset caches: misses simply
           recompute, values are unaffected. *)
        shard.evictions <- shard.evictions + Tbl.length shard.table;
        Metrics.add m_evictions (Tbl.length shard.table);
        Tbl.reset shard.table
      end;
      if not (Tbl.mem shard.table k) then Tbl.add shard.table k objectives;
      Mutex.unlock shard.lock

(* --- introspection -------------------------------------------------------- *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  Array.fold_left
    (fun acc (shard : shard) ->
      Mutex.lock shard.lock;
      let acc =
        {
          hits = acc.hits + shard.hits;
          misses = acc.misses + shard.misses;
          evictions = acc.evictions + shard.evictions;
          entries = acc.entries + Tbl.length shard.table;
        }
      in
      Mutex.unlock shard.lock;
      acc)
    { hits = 0; misses = 0; evictions = 0; entries = 0 }
    t.shards

type global_stats = { total_hits : int; total_misses : int; total_evictions : int }

let global_stats () =
  {
    total_hits = Metrics.counter_value m_hits;
    total_misses = Metrics.counter_value m_misses;
    total_evictions = Metrics.counter_value m_evictions;
  }
