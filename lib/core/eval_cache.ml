module Rng = Caffeine_util.Rng
module Expr = Caffeine_expr.Expr
module Dataset = Caffeine_io.Dataset
module Metrics = Caffeine_obs.Metrics

(* Two-level objective-evaluation cache.

   L1 is exact: keyed by the full structural hash of the whole individual
   (every basis, weight and exponent participates), it returns the
   objectives computed the first time the structure was fitted —
   bit-identical to recomputation by construction, since objectives are a
   pure function of (structure, data, targets).

   L2 is behavioral and only consulted in [Behavioral] mode: each
   candidate is keyed by the raw IEEE words of its bases' outputs on a
   fixed probe subsample, in basis order.  Two individuals matching on
   that key assemble their regressions from bit-identical columns wherever
   the fit actually looks, so the cached training error is reused; the
   complexity objective is structural and is always recomputed for the
   candidate at hand.  Quantized probe outputs additionally serve as
   behavioral fingerprints for population-diversity accounting — never for
   result reuse, which demands the exact match.

   Both levels follow the dataset caches' concurrency design: sharded by
   key hash, each shard behind its own mutex, bounded by a wholesale
   per-shard reset.  The search gives every island a private instance and
   touches it only from the island's coordinating domain, but the sharding
   keeps the structure safe should a future caller share one. *)

type mode = Off | Exact | Behavioral

let mode_to_string = function Off -> "off" | Exact -> "exact" | Behavioral -> "behavioral"

let mode_of_string = function
  | "off" -> Ok Off
  | "exact" -> Ok Exact
  | "behavioral" -> Ok Behavioral
  | other ->
      Error (Printf.sprintf "unknown eval-cache mode %S (expected off, exact or behavioral)" other)

(* Process-wide effectiveness counters ([fit --metrics], trace summary). *)
let m_hits = Metrics.counter Metrics.default "eval.cache_hits"
let m_misses = Metrics.counter Metrics.default "eval.cache_misses"
let m_evictions = Metrics.counter Metrics.default "eval.cache_evictions"

module Individual_key = struct
  type t = Expr.basis array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (Expr.equal_basis a.(i) b.(i) && go (i + 1)) in
    go 0

  (* Order-sensitive FNV-style fold of the per-basis structural hashes:
     basis order affects the regression's pivoting, so permuted
     individuals are distinct keys. *)
  let hash individual =
    Array.fold_left (fun h b -> (h * 0x01000193) + Expr.hash_basis b) 0x811c9dc5 individual
    land max_int
end

module L1_tbl = Hashtbl.Make (Individual_key)

module Signature_key = struct
  type t = float array

  (* Bit-level equality: NaN probe outputs must match themselves, and two
     values are interchangeable in a fit only when their IEEE words agree. *)
  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i =
      i = n || (Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && go (i + 1))
    in
    go 0

  let hash signature =
    Array.fold_left
      (fun h v -> (h * 0x01000193) + Int64.to_int (Int64.bits_of_float v))
      0x811c9dc5 signature
    land max_int
end

module L2_tbl = Hashtbl.Make (Signature_key)

let shard_count = 16 (* power of two: shard selection is a mask *)

type l1_shard = {
  l1_lock : Mutex.t;
  l1_table : float array L1_tbl.t;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l1_evictions : int;
}

type l2_shard = {
  l2_lock : Mutex.t;
  l2_table : float L2_tbl.t;
  mutable l2_hits : int;
  mutable l2_evictions : int;
}

type t = {
  mode : mode;
  data : Dataset.t;
  wb : float;
  wvc : float;
  limit : int;
  probe_indices : int array;
  quantum : float;  (* quantization step of the diversity fingerprint *)
  l1_shards : l1_shard array;
  l2_shards : l2_shard array;
}

let default_limit = 65_536
let default_probe_size = 16
let default_probe_seed = 0xCAFE
let default_precision = 6

let create ?(limit = default_limit) ?(probe_size = default_probe_size)
    ?(probe_seed = default_probe_seed) ?(precision = default_precision) ~mode ~wb ~wvc ~data () =
  if limit < 1 then invalid_arg "Eval_cache.create: limit must be positive";
  if probe_size < 1 then invalid_arg "Eval_cache.create: probe_size must be positive";
  if precision < 0 then invalid_arg "Eval_cache.create: precision must be non-negative";
  (* The probe plan is fixed at creation from its own seeded generator:
     every island of a run (and every resumed run) draws the same indices,
     independent of the search stream. *)
  let n = Dataset.n_samples data in
  let k = Stdlib.min probe_size n in
  let probe_indices =
    Rng.sample_without_replacement (Rng.create ~seed:probe_seed ()) k n
  in
  Array.sort compare probe_indices;
  {
    mode;
    data;
    wb;
    wvc;
    limit;
    probe_indices;
    quantum = Float.pow 10. (float_of_int precision);
    l1_shards =
      Array.init shard_count (fun _ ->
          {
            l1_lock = Mutex.create ();
            l1_table = L1_tbl.create 64;
            l1_hits = 0;
            l1_misses = 0;
            l1_evictions = 0;
          });
    l2_shards =
      Array.init shard_count (fun _ ->
          {
            l2_lock = Mutex.create ();
            l2_table = L2_tbl.create 64;
            l2_hits = 0;
            l2_evictions = 0;
          });
  }

let mode t = t.mode
let probe_size t = Array.length t.probe_indices

(* --- probe signatures and fingerprints ----------------------------------- *)

(* Raw probe outputs of every basis, concatenated in basis order — the
   exact-match key of L2.  Probing goes through the fused evaluator
   ([Dataset.probe_many]) so subtrees shared between an individual's
   bases are walked once; its rows match per-basis [Dataset.probe] bit
   for bit in every cache state, so signatures are stable under
   column-cache eviction and identical to what per-basis probing would
   produce. *)
let signature t individual =
  Array.concat
    (Array.to_list (Dataset.probe_many t.data individual ~indices:t.probe_indices))

(* Diversity fingerprint: the signature quantized to the configured
   precision, as IEEE words.  Non-finite probe outputs collapse to
   canonical constants so every NaN payload counts as one behavior. *)
let fingerprint_of_signature t signature =
  Array.map
    (fun v ->
      if Float.is_nan v then Int64.min_int
      else if Float.is_finite v then
        Int64.bits_of_float (Float.round (v *. t.quantum) /. t.quantum)
      else Int64.bits_of_float v)
    signature

let fingerprint t individual = fingerprint_of_signature t (signature t individual)

let diversity t population =
  if t.mode <> Behavioral then -1
  else begin
    let seen = Hashtbl.create (Array.length population) in
    Array.iter
      (fun individual -> Hashtbl.replace seen (Array.to_list (fingerprint t individual)) ())
      population;
    Hashtbl.length seen
  end

(* --- the cache proper ----------------------------------------------------- *)

let l1_shard_of t individual = t.l1_shards.(Individual_key.hash individual land (shard_count - 1))
let l2_shard_of t signature = t.l2_shards.(Signature_key.hash signature land (shard_count - 1))

let l1_find t individual =
  let shard = l1_shard_of t individual in
  Mutex.lock shard.l1_lock;
  let found = L1_tbl.find_opt shard.l1_table individual in
  (match found with
  | Some _ -> shard.l1_hits <- shard.l1_hits + 1
  | None -> shard.l1_misses <- shard.l1_misses + 1);
  Mutex.unlock shard.l1_lock;
  found

let l1_add t individual objectives =
  let shard = l1_shard_of t individual in
  let per_shard_limit = Stdlib.max 1 (t.limit / shard_count) in
  Mutex.lock shard.l1_lock;
  if L1_tbl.length shard.l1_table >= per_shard_limit then begin
    (* Wholesale per-shard reset, like the dataset caches: misses simply
       recompute, values are unaffected. *)
    shard.l1_evictions <- shard.l1_evictions + L1_tbl.length shard.l1_table;
    Metrics.add m_evictions (L1_tbl.length shard.l1_table);
    L1_tbl.reset shard.l1_table
  end;
  if not (L1_tbl.mem shard.l1_table individual) then
    L1_tbl.add shard.l1_table individual objectives;
  Mutex.unlock shard.l1_lock

let l2_find t signature =
  let shard = l2_shard_of t signature in
  Mutex.lock shard.l2_lock;
  let found = L2_tbl.find_opt shard.l2_table signature in
  (match found with Some _ -> shard.l2_hits <- shard.l2_hits + 1 | None -> ());
  Mutex.unlock shard.l2_lock;
  found

let l2_add t signature train_error =
  let shard = l2_shard_of t signature in
  let per_shard_limit = Stdlib.max 1 (t.limit / shard_count) in
  Mutex.lock shard.l2_lock;
  if L2_tbl.length shard.l2_table >= per_shard_limit then begin
    shard.l2_evictions <- shard.l2_evictions + L2_tbl.length shard.l2_table;
    Metrics.add m_evictions (L2_tbl.length shard.l2_table);
    L2_tbl.reset shard.l2_table
  end;
  if not (L2_tbl.mem shard.l2_table signature) then L2_tbl.add shard.l2_table signature train_error;
  Mutex.unlock shard.l2_lock

let lookup t individual =
  match t.mode with
  | Off -> None
  | Exact | Behavioral -> (
      match l1_find t individual with
      | Some objectives ->
          Metrics.incr m_hits;
          Some (Array.copy objectives)
      | None when t.mode = Exact ->
          Metrics.incr m_misses;
          None
      | None -> (
          match l2_find t (signature t individual) with
          | Some train_error ->
              (* Behavioral reuse carries only the fitted error; complexity
                 is structural and belongs to this candidate, not the
                 twin's. *)
              let objectives = [| train_error; Model.complexity_of ~wb:t.wb ~wvc:t.wvc individual |] in
              Metrics.incr m_hits;
              l1_add t individual (Array.copy objectives);
              Some objectives
          | None ->
              Metrics.incr m_misses;
              None))

let store t individual objectives =
  match t.mode with
  | Off -> ()
  | Exact -> l1_add t individual (Array.copy objectives)
  | Behavioral ->
      l1_add t individual (Array.copy objectives);
      l2_add t (signature t individual) objectives.(0)

(* --- introspection -------------------------------------------------------- *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  l1_hits : int;
  l2_hits : int;
  entries : int;
}

let stats t =
  let l1_hits = ref 0 and l1_misses = ref 0 and evictions = ref 0 and entries = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.lock shard.l1_lock;
      l1_hits := !l1_hits + shard.l1_hits;
      l1_misses := !l1_misses + shard.l1_misses;
      evictions := !evictions + shard.l1_evictions;
      entries := !entries + L1_tbl.length shard.l1_table;
      Mutex.unlock shard.l1_lock)
    t.l1_shards;
  let l2_hits = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.lock shard.l2_lock;
      l2_hits := !l2_hits + shard.l2_hits;
      evictions := !evictions + shard.l2_evictions;
      entries := !entries + L2_tbl.length shard.l2_table;
      Mutex.unlock shard.l2_lock)
    t.l2_shards;
  {
    hits = !l1_hits + !l2_hits;
    misses = !l1_misses - !l2_hits;
    evictions = !evictions;
    l1_hits = !l1_hits;
    l2_hits = !l2_hits;
    entries = !entries;
  }

type global_stats = { total_hits : int; total_misses : int; total_evictions : int }

let global_stats () =
  {
    total_hits = Metrics.counter_value m_hits;
    total_misses = Metrics.counter_value m_misses;
    total_evictions = Metrics.counter_value m_evictions;
  }
