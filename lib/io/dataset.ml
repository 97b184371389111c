module Expr = Caffeine_expr.Expr
module Fused = Caffeine_expr.Fused

(* The basis-column memo table is sharded by the full structural hash, each
   shard behind its own mutex, so concurrent evaluators (parallel NSGA-II
   objective evaluation, parallel islands) rarely contend on the same lock.
   Column values are pure functions of (basis, data), so a racing duplicate
   evaluation is only wasted work, never a wrong or nondeterministic
   result.

   Which level is memoized follows the storage (DESIGN §7j).  Resident
   storage memoizes columns and keeps no scalar tables: [gram] forms
   every product from the memoized columns.  At a few hundred rows a
   product is a short loop over two resident arrays, while a table costs
   a shard mutex and shared counters per lookup, the product anyway on a
   miss, and heap for every entry; end to end the search runs faster
   without them (DESIGN §7c).  Chunked
   storage caches no column (each is [n] floats) but caches the scalars,
   because there every product costs a stream over the data: ⟨col_i,
   col_j⟩, ⟨col_i, y⟩ and ⟨col_i, 1⟩ entries, and each basis's
   finiteness.  Target products are keyed by (basis, target id) where ids
   come from a small physical-equality registry (the search passes the
   same target array on every call); id 0 stands for the notional ones
   vector, so it keys column sums.

   Both storages form ⟨col_i, col_j⟩ in one canonical orientation, the
   lower key on the left ([compare_keys]), so a pair has one word however
   its bases are ordered or repeated, NaN payloads included, with no cache
   to hold it.

   The structural hash walks the whole tree, so every entry point hashes
   each basis once into a [key] and every shard selection, table lookup and
   pair key reuses it: a k-basis Gram costs k tree walks, not four per
   entry. *)

let shard_count = 16 (* power of two: shard selection is a mask *)

type key = { basis : Expr.basis; hash : int }

let key basis = { basis; hash = Expr.hash_basis basis }

module Key = struct
  type t = key

  let equal a b = a.hash = b.hash && Expr.equal_basis a.basis b.basis
  let hash k = k.hash
end

module Key_tbl = Hashtbl.Make (Key)

(* The canonical orientation of a product: structural hash first, then
   [Expr.compare_basis] on ties, a total order that is 0 exactly when
   [Key.equal] holds.  IEEE multiplication commutes except in the payload
   of a NaN product, so orienting every pair this way gives it one word
   whichever order its bases come in. *)
let compare_keys a b =
  let c = Int.compare a.hash b.hash in
  if c <> 0 then c else Expr.compare_basis a.basis b.basis

type shard = {
  lock : Mutex.t;
  table : float array Key_tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* A pair is always keyed in canonical orientation, (lower, higher). *)
module Pair_key = struct
  type t = key * key

  let equal (a1, b1) (a2, b2) = Key.equal a1 a2 && Key.equal b1 b2
  let hash ((a : key), (b : key)) = (a.hash + b.hash) land max_int
end

module Pair_tbl = Hashtbl.Make (Pair_key)

module Target_key = struct
  type t = key * int

  let equal (b1, t1) (b2, t2) = t1 = t2 && Key.equal b1 b2
  let hash ((b : key), t) = (b.hash + (t * 0x9e3779b1)) land max_int
end

module Target_tbl = Hashtbl.Make (Target_key)

type dot_shard = {
  dot_lock : Mutex.t;
  pairs : float Pair_tbl.t;  (* ⟨col_i, col_j⟩, canonical key *)
  target_dots : float Target_tbl.t;  (* ⟨col_i, y⟩ per registered target *)
  mutable dot_hits : int;
  mutable dot_misses : int;
  mutable dot_evictions : int;
}

(* Out-of-core storage: samples arrive as row chunks from a pull-based
   source instead of resident columns.  [src_iter] visits the chunks in
   row order with reused buffers (only [len] leading cells are valid);
   [src_gather] is the random-access path of [point].  The concrete source
   is either a {!Colstore} file or a sliced in-memory matrix (tests). *)
type chunk_source = {
  src_chunk_rows : int;
  src_iter : (row0:int -> len:int -> float array array -> unit) -> unit;
  src_gather : int array -> float array array;
}

type storage =
  | Dense of float array array  (* columns.(v).(i): variable v at sample i *)
  | Chunked of chunk_source

(* Per-domain tile arena, shared by every dataset: tape evaluation reuses
   buffers without sharing them across concurrent evaluators.  One key for
   the whole process, because OCaml never releases a DLS key — a key per
   dataset would keep every dataset's buffers reachable forever.  Sharing
   is safe: the buffers grow on demand and every use ends within one
   call. *)
let scratch_key = Domain.DLS.new_key (fun () -> Fused.scratch ())

type t = {
  var_names : string array;
  storage : storage;
  n : int;
  shards : shard array;  (* basis -> value column on this data (resident) *)
  mutable cache_limit : int;  (* max cached columns across all shards *)
  dot_shards : dot_shard array;  (* Gram scalars (chunked) *)
  mutable dot_cache_limit : int;  (* max cached products across all shards *)
  finite_lock : Mutex.t;
  finite_table : bool Key_tbl.t;
      (* per-basis finiteness (chunked), recorded when the Gram pass
         screens a basis, so repeat fits skip the data pass and
         [known_nonfinite] can reject an individual before its Gram *)
  targets_lock : Mutex.t;
  mutable registered_targets : (float array * int) list;  (* keyed by (==) *)
  mutable next_target_id : int;
}

type cache_stats = {
  columns_cached : int;
  column_hits : int;
  column_misses : int;
  column_evictions : int;
  dots_cached : int;
  dot_hits : int;
  dot_misses : int;
  dot_evictions : int;
}

let default_cache_limit = 32_768
let default_dot_cache_limit = 131_072

let default_names dims = Array.init dims (fun v -> Printf.sprintf "x%d" v)

let resolve_names ~dims var_names =
  match var_names with
  | None -> default_names dims
  | Some names ->
      if Array.length names <> dims then invalid_arg "Dataset: name/column count mismatch";
      names

let make_with ~var_names ~storage ~n =
  {
    var_names;
    storage;
    n;
    shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create (); table = Key_tbl.create 64;
            hits = 0; misses = 0; evictions = 0 });
    cache_limit = default_cache_limit;
    dot_shards =
      Array.init shard_count (fun _ ->
          { dot_lock = Mutex.create (); pairs = Pair_tbl.create 64;
            target_dots = Target_tbl.create 64;
            dot_hits = 0; dot_misses = 0; dot_evictions = 0 });
    dot_cache_limit = default_dot_cache_limit;
    finite_lock = Mutex.create ();
    finite_table = Key_tbl.create 64;
    targets_lock = Mutex.create ();
    registered_targets = [];
    next_target_id = 1 (* 0 keys column sums *);
  }

let make ?var_names columns n =
  let dims = Array.length columns in
  if dims = 0 then invalid_arg "Dataset: zero design variables";
  let var_names = resolve_names ~dims var_names in
  (* Every consumer downstream — fused kernels included — indexes columns
     with unsafe accesses trusting [n], so a short column here would read
     out of bounds later.  Reject it now, naming the variable. *)
  Array.iteri
    (fun v col ->
      if Array.length col <> n then
        invalid_arg
          (Printf.sprintf "Dataset: column %S has %d values, expected %d" var_names.(v)
             (Array.length col) n))
    columns;
  make_with ~var_names ~storage:(Dense columns) ~n

let make_chunked ?var_names ~dims source n =
  if dims = 0 then invalid_arg "Dataset: zero design variables";
  if n < 1 then invalid_arg "Dataset: streaming source has no samples";
  if source.src_chunk_rows < 1 then invalid_arg "Dataset: chunk_rows must be positive";
  let var_names = resolve_names ~dims var_names in
  make_with ~var_names ~storage:(Chunked source) ~n

let of_columns ?var_names columns =
  if Array.length columns = 0 then invalid_arg "Dataset.of_columns: no columns";
  let n = Array.length columns.(0) in
  if n = 0 then invalid_arg "Dataset.of_columns: empty columns";
  (* Length validation happens in [make], which names the offending
     variable — a generic "ragged columns" duplicate here would shadow
     the more useful message. *)
  make ?var_names columns n

let of_rows ?var_names rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Dataset.of_rows: no samples";
  let dims = Array.length rows.(0) in
  if dims = 0 then invalid_arg "Dataset.of_rows: zero-width design points";
  Array.iter
    (fun row -> if Array.length row <> dims then invalid_arg "Dataset.of_rows: ragged rows")
    rows;
  let columns = Array.init dims (fun v -> Array.init n (fun i -> rows.(i).(v))) in
  make ?var_names columns n

let of_table ?(exclude = []) table =
  if Array.length table.Csv.rows = 0 then
    invalid_arg "Dataset.of_table: table has no data rows (header only)";
  let names, rows = Csv.columns_except table exclude in
  of_rows ~var_names:names rows

let chunked_of_columns ?var_names ~chunk_rows columns =
  if Array.length columns = 0 then invalid_arg "Dataset.chunked_of_columns: no columns";
  let n = Array.length columns.(0) in
  if n = 0 then invalid_arg "Dataset.chunked_of_columns: empty columns";
  Array.iter
    (fun col ->
      if Array.length col <> n then
        invalid_arg "Dataset.chunked_of_columns: ragged columns")
    columns;
  let dims = Array.length columns in
  let src_iter f =
    (* Fresh buffers per pass: sliced views of the resident matrix, the
       in-memory stand-in the equivalence tests stream against. *)
    let buffers = Array.init dims (fun _ -> Array.make chunk_rows 0.) in
    let row0 = ref 0 in
    while !row0 < n do
      let len = Stdlib.min chunk_rows (n - !row0) in
      for v = 0 to dims - 1 do
        Array.blit columns.(v) !row0 buffers.(v) 0 len
      done;
      f ~row0:!row0 ~len buffers;
      row0 := !row0 + len
    done
  in
  let src_gather indices =
    Array.map (fun col -> Array.map (fun i -> col.(i)) indices) columns
  in
  make_chunked ?var_names ~dims { src_chunk_rows = chunk_rows; src_iter; src_gather } n

let of_colstore ?(exclude = []) store =
  let all_names = Colstore.var_names store in
  let keep = ref [] in
  Array.iteri
    (fun v name -> if not (List.mem name exclude) then keep := v :: !keep)
    all_names;
  let keep = Array.of_list (List.rev !keep) in
  let dims = Array.length keep in
  if dims = 0 then invalid_arg "Dataset.of_colstore: every column is excluded";
  let var_names = Array.map (fun v -> all_names.(v)) keep in
  let n = Colstore.n_rows store in
  let remap columns = Array.map (fun v -> columns.(v)) keep in
  let src_iter f =
    Colstore.iter_chunks store ~f:(fun ~row0 ~len columns -> f ~row0 ~len (remap columns))
  in
  let src_gather indices = remap (Colstore.gather store ~indices) in
  make_chunked ~var_names ~dims
    { src_chunk_rows = Colstore.chunk_rows store; src_iter; src_gather }
    n

let n_samples data = data.n
let dims data = Array.length data.var_names
let var_names data = data.var_names
let is_chunked data = match data.storage with Dense _ -> false | Chunked _ -> true
let chunk_rows data =
  match data.storage with Dense _ -> data.n | Chunked src -> src.src_chunk_rows

let column data v =
  match data.storage with
  | Dense columns -> columns.(v)
  | Chunked src ->
      let out = Array.make data.n 0. in
      src.src_iter (fun ~row0 ~len columns -> Array.blit columns.(v) 0 out row0 len);
      out

let iter_variable_chunks data ~f =
  match data.storage with
  | Dense columns -> f ~row0:0 ~len:data.n columns
  | Chunked src -> src.src_iter f

let point data i =
  match data.storage with
  | Dense columns -> Array.map (fun col -> col.(i)) columns
  | Chunked src ->
      let gathered = src.src_gather [| i |] in
      Array.map (fun col -> col.(0)) gathered

let rows data =
  match data.storage with
  | Dense _ -> Array.init data.n (fun i -> point data i)
  | Chunked _ -> invalid_arg "Dataset.rows: not supported on streaming datasets"

let split data ~at =
  match data.storage with
  | Chunked _ -> invalid_arg "Dataset.split: not supported on streaming datasets"
  | Dense columns ->
      if at <= 0 || at >= data.n then invalid_arg "Dataset.split: index out of range";
      let part offset count =
        make ~var_names:data.var_names
          (Array.map (fun col -> Array.sub col offset count) columns)
          count
      in
      (part 0 at, part at (data.n - at))

let shard_of data k = data.shards.(k.hash land (shard_count - 1))

(* Chunked storage: visit the bases' values chunk by chunk in row order,
   through one fused tape per pass.  The tape is elementwise, so every
   chunk holds the words a whole-column evaluation would hold at those
   rows. *)
let iter_chunks src bases ~f =
  let fused = Fused.compile bases in
  let scratch = Domain.DLS.get scratch_key in
  let out = Array.map (fun _ -> Array.make src.src_chunk_rows 0.) bases in
  src.src_iter (fun ~row0 ~len columns ->
      Fused.eval_columns_into fused ~scratch ~columns ~n:len ~out;
      f ~row0 ~len out)

let chunked_columns data src bases =
  let columns = Array.map (fun _ -> Array.make data.n 0.) bases in
  iter_chunks src bases ~f:(fun ~row0 ~len chunk ->
      Array.iteri (fun j column -> Array.blit chunk.(j) 0 column row0 len) columns);
  columns

let find_finite data k =
  Mutex.lock data.finite_lock;
  let found = Key_tbl.find_opt data.finite_table k in
  Mutex.unlock data.finite_lock;
  found

(* The store functions install a value unless the key is already held: a
   racing duplicate computed the same word, since every entry comes from
   the same row-order pass and every pair in canonical orientation. *)
let store_finite data k value =
  Mutex.lock data.finite_lock;
  if Key_tbl.length data.finite_table >= data.cache_limit then Key_tbl.reset data.finite_table;
  if not (Key_tbl.mem data.finite_table k) then Key_tbl.add data.finite_table k value;
  Mutex.unlock data.finite_lock

(* Add a column to the cache under the bounded-shard policy: drop the
   shard wholesale once full (misses just re-evaluate; values are
   unaffected), and keep whichever copy of a racing duplicate landed
   first — both are the same words. *)
let install data k col =
  let shard = shard_of data k in
  let per_shard_limit = Stdlib.max 1 (data.cache_limit / shard_count) in
  Mutex.lock shard.lock;
  if Key_tbl.length shard.table >= per_shard_limit then begin
    shard.evictions <- shard.evictions + Key_tbl.length shard.table;
    Key_tbl.reset shard.table
  end;
  if not (Key_tbl.mem shard.table k) then Key_tbl.add shard.table k col;
  Mutex.unlock shard.lock

let column_of_key data k =
  match data.storage with
  | Chunked src ->
      (* Bypass policy (DESIGN §7j): an out-of-core column is [n] floats —
         caching even a few would blow the memory budget streaming exists
         to hold, so chunked storage materializes fresh and never fills
         the column cache.  Dot products, being scalars, stay cached. *)
      (chunked_columns data src [| k.basis |]).(0)
  | Dense columns -> (
      let shard = shard_of data k in
      Mutex.lock shard.lock;
      match Key_tbl.find_opt shard.table k with
      | Some col ->
          shard.hits <- shard.hits + 1;
          Mutex.unlock shard.lock;
          col
      | None ->
          shard.misses <- shard.misses + 1;
          Mutex.unlock shard.lock;
          (* Evaluate outside the lock: another domain may compute the same
             column concurrently, but both results are identical.  A
             one-root tape gives the row [warm_columns] would install. *)
          let col =
            (Fused.eval_columns
               (Fused.compile [| k.basis |])
               ~scratch:(Domain.DLS.get scratch_key) ~columns ~n:data.n).(0)
          in
          install data k col;
          col)

let basis_column data basis = column_of_key data (key basis)

(* --- fused batch evaluation ---------------------------------------------- *)

module Metrics = Caffeine_obs.Metrics

let c_fused_nodes_in = Metrics.counter Metrics.default "fused.nodes_in"
let c_fused_nodes_out = Metrics.counter Metrics.default "fused.nodes_out"
let g_fused_cse_ratio = Metrics.gauge Metrics.default "fused.cse_ratio"

type fuse_stats = { fused_bases : int; nodes_in : int; nodes_out : int }

let record_fusion fused =
  let nodes_in = Fused.nodes_in fused and nodes_out = Fused.nodes_out fused in
  Metrics.add c_fused_nodes_in nodes_in;
  Metrics.add c_fused_nodes_out nodes_out;
  let total_in = Metrics.counter_value c_fused_nodes_in
  and total_out = Metrics.counter_value c_fused_nodes_out in
  Metrics.set_gauge g_fused_cse_ratio
    (float_of_int total_in /. float_of_int (Stdlib.max 1 total_out));
  (nodes_in, nodes_out)

let warm_columns data bases =
  match data.storage with
  | Chunked _ ->
      (* Nothing to warm: out-of-core columns are never cached (see
         [basis_column]), so warming would materialize n-length arrays
         only to drop them. *)
      ignore bases;
      { fused_bases = 0; nodes_in = 0; nodes_out = 0 }
  | Dense dense_columns ->
  (* One pass to find the bases with no memoized column (first occurrence
     only: a fused compile handles duplicate roots, but the cache needs
     one install per distinct basis), counting each as a miss, then one
     fused evaluation of all of them together, installed like a
     [basis_column] miss.  A root's row does not depend on the other
     roots, so a warmed cache serves exactly the words a cold one would
     have computed. *)
  let seen = Key_tbl.create (Array.length bases) in
  let rev_missing = ref [] in
  Array.iter
    (fun basis ->
      let k = key basis in
      if not (Key_tbl.mem seen k) then begin
        Key_tbl.add seen k ();
        let shard = shard_of data k in
        Mutex.lock shard.lock;
        let cached = Key_tbl.mem shard.table k in
        if not cached then shard.misses <- shard.misses + 1;
        Mutex.unlock shard.lock;
        if not cached then rev_missing := k :: !rev_missing
      end)
    bases;
  match !rev_missing with
  | [] -> { fused_bases = 0; nodes_in = 0; nodes_out = 0 }
  | rev ->
      let missing = Array.of_list (List.rev rev) in
      let fused = Fused.compile (Array.map (fun k -> k.basis) missing) in
      let scratch = Domain.DLS.get scratch_key in
      let columns = Fused.eval_columns fused ~scratch ~columns:dense_columns ~n:data.n in
      Array.iteri (fun i k -> install data k columns.(i)) missing;
      let nodes_in, nodes_out = record_fusion fused in
      { fused_bases = Array.length missing; nodes_in; nodes_out }

(* --- dot products -------------------------------------------------------- *)

let dot_shard_entries shard = Pair_tbl.length shard.pairs + Target_tbl.length shard.target_dots

(* Drop the whole shard once the pair + target tables together exceed the
   per-shard budget — same wholesale policy as the column cache. *)
let trim_dot_shard data shard =
  let per_shard_limit = Stdlib.max 1 (data.dot_cache_limit / shard_count) in
  if dot_shard_entries shard >= per_shard_limit then begin
    shard.dot_evictions <- shard.dot_evictions + dot_shard_entries shard;
    Pair_tbl.reset shard.pairs;
    Target_tbl.reset shard.target_dots
  end

let pair_shard data key = data.dot_shards.(Pair_key.hash key land (shard_count - 1))
let target_shard data key = data.dot_shards.(Target_key.hash key land (shard_count - 1))

let find_pair data key =
  let shard = pair_shard data key in
  Mutex.lock shard.dot_lock;
  let found = Pair_tbl.find_opt shard.pairs key in
  (match found with
  | Some _ -> shard.dot_hits <- shard.dot_hits + 1
  | None -> shard.dot_misses <- shard.dot_misses + 1);
  Mutex.unlock shard.dot_lock;
  found

let store_pair data key value =
  let shard = pair_shard data key in
  Mutex.lock shard.dot_lock;
  trim_dot_shard data shard;
  if not (Pair_tbl.mem shard.pairs key) then Pair_tbl.add shard.pairs key value;
  Mutex.unlock shard.dot_lock

let find_target data key =
  let shard = target_shard data key in
  Mutex.lock shard.dot_lock;
  let found = Target_tbl.find_opt shard.target_dots key in
  (match found with
  | Some _ -> shard.dot_hits <- shard.dot_hits + 1
  | None -> shard.dot_misses <- shard.dot_misses + 1);
  Mutex.unlock shard.dot_lock;
  found

let store_target data key value =
  let shard = target_shard data key in
  Mutex.lock shard.dot_lock;
  trim_dot_shard data shard;
  if not (Target_tbl.mem shard.target_dots key) then Target_tbl.add shard.target_dots key value;
  Mutex.unlock shard.dot_lock

(* Target arrays are identified physically: the search and SAG pass the
   same array on every fit of a run, so the registry stays tiny (one entry
   per modeled performance). *)
let target_id data targets =
  Mutex.lock data.targets_lock;
  let id =
    match List.find_opt (fun (arr, _) -> arr == targets) data.registered_targets with
    | Some (_, id) -> id
    | None ->
        let id = data.next_target_id in
        data.next_target_id <- id + 1;
        data.registered_targets <- (targets, id) :: data.registered_targets;
        id
  in
  Mutex.unlock data.targets_lock;
  id

let known_nonfinite data bases =
  match data.storage with
  | Dense _ -> false
  | Chunked _ ->
      Array.exists
        (fun basis -> match find_finite data (key basis) with Some false -> true | _ -> false)
        bases

(* --- the one Gram pass --------------------------------------------------- *)

module Gram_stream = Caffeine_regress.Gram_stream

(* A pass over the bases' columns: resident columns come from the memo
   table as a single whole-dataset chunk, streamed ones through one fused
   tape per chunk, never cached. *)
let iter_key_chunks data keys ~f =
  match data.storage with
  | Dense _ -> f ~row0:0 ~len:data.n (Array.map (column_of_key data) keys)
  | Chunked src -> iter_chunks src (Array.map (fun k -> k.basis) keys) ~f

let iter_basis_chunks data bases ~f =
  if Array.length bases = 0 then invalid_arg "Dataset.iter_basis_chunks: no bases";
  iter_key_chunks data (Array.map key bases) ~f

type gram = {
  dots : float array array;  (* k x k, symmetric, fully populated *)
  dot_ys : float array;
  col_sums : float array;
  finite_bases : bool array;
}

(* The distinct keys in first-occurrence order, and the slot of each
   input key among them. *)
let distinct_keys keys =
  let k = Array.length keys in
  let slot = Array.make k 0 and distinct = ref [] and d = ref 0 in
  for i = 0 to k - 1 do
    let rec earlier j =
      if j = i then begin
        distinct := keys.(i) :: !distinct;
        slot.(i) <- !d;
        incr d
      end
      else if Key.equal keys.(j) keys.(i) then slot.(i) <- slot.(j)
      else earlier (j + 1)
    in
    earlier 0
  done;
  (Array.of_list (List.rev !distinct), slot)

(* Accumulate the named entries of [g] (indices into [keys]) in one
   [Gram_stream] pass over the columns they involve.  [pairs] come
   oriented, so [(i, j)] is formed as [col_i *. col_j]. *)
let accumulate data keys g ~targets ~pairs ~dot_ys ~col_sums ~finite =
  let needed = Array.make (Array.length keys) false in
  Array.iter
    (fun (i, j) ->
      needed.(i) <- true;
      needed.(j) <- true)
    pairs;
  List.iter (Array.iter (fun i -> needed.(i) <- true)) [ dot_ys; col_sums; finite ];
  let pos = Array.make (Array.length keys) (-1) and rev_read = ref [] and m = ref 0 in
  Array.iteri
    (fun i wanted ->
      if wanted then begin
        pos.(i) <- !m;
        incr m;
        rev_read := keys.(i) :: !rev_read
      end)
    needed;
  if !m > 0 then begin
    let at = Array.map (fun i -> pos.(i)) in
    let acc =
      Gram_stream.create !m
        ~pairs:(Array.map (fun (i, j) -> (pos.(i), pos.(j))) pairs)
        ~dot_ys:(at dot_ys) ~col_sums:(at col_sums) ~finite:(at finite)
    in
    iter_key_chunks data (Array.of_list (List.rev !rev_read)) ~f:(fun ~row0 ~len columns ->
        Gram_stream.update acc ~columns ~targets ~row0 ~len);
    Array.iteri
      (fun p (i, j) ->
        g.dots.(i).(j) <- Gram_stream.dot acc p;
        g.dots.(j).(i) <- Gram_stream.dot acc p)
      pairs;
    Array.iteri (fun p i -> g.dot_ys.(i) <- Gram_stream.dot_y acc p) dot_ys;
    Array.iteri (fun p i -> g.col_sums.(i) <- Gram_stream.col_sum acc p) col_sums;
    Array.iteri (fun p i -> g.finite_bases.(i) <- Gram_stream.finite acc p) finite
  end

(* The Gram of distinct keys.  Resident storage forms every entry from
   the memoized columns; chunked storage looks each up and accumulates
   exactly the missing ones, which it then caches. *)
let distinct_gram data keys ~targets =
  let d = Array.length keys in
  let g =
    {
      dots = Array.make_matrix d d Float.nan;
      dot_ys = Array.make d Float.nan;
      col_sums = Array.make d Float.nan;
      finite_bases = Array.make d true;
    }
  in
  let oriented i j = if compare_keys keys.(i) keys.(j) <= 0 then (i, j) else (j, i) in
  (match data.storage with
  | Dense _ ->
      let all = Array.init d Fun.id in
      let pairs = ref [] in
      for i = d - 1 downto 0 do
        for j = d - 1 downto i do
          pairs := oriented i j :: !pairs
        done
      done;
      accumulate data keys g ~targets ~pairs:(Array.of_list !pairs) ~dot_ys:all ~col_sums:all
        ~finite:all
  | Chunked _ ->
      let tid = target_id data targets in
      let pairs = ref [] and dot_ys = ref [] and col_sums = ref [] and finite = ref [] in
      let lookup found entries missing i =
        match found with Some v -> entries.(i) <- v | None -> missing := i :: !missing
      in
      for i = 0 to d - 1 do
        lookup (find_target data (keys.(i), tid)) g.dot_ys dot_ys i;
        lookup (find_target data (keys.(i), 0)) g.col_sums col_sums i;
        lookup (find_finite data keys.(i)) g.finite_bases finite i;
        for j = i to d - 1 do
          let lo, hi = oriented i j in
          match find_pair data (keys.(lo), keys.(hi)) with
          | Some v ->
              g.dots.(i).(j) <- v;
              g.dots.(j).(i) <- v
          | None -> pairs := (lo, hi) :: !pairs
        done
      done;
      let in_order missing = Array.of_list (List.rev !missing) in
      let pairs = in_order pairs and dot_ys = in_order dot_ys in
      let col_sums = in_order col_sums and finite = in_order finite in
      accumulate data keys g ~targets ~pairs ~dot_ys ~col_sums ~finite;
      Array.iter (fun i -> store_target data (keys.(i), tid) g.dot_ys.(i)) dot_ys;
      Array.iter (fun i -> store_target data (keys.(i), 0) g.col_sums.(i)) col_sums;
      Array.iter (fun i -> store_finite data keys.(i) g.finite_bases.(i)) finite;
      Array.iter (fun (i, j) -> store_pair data (keys.(i), keys.(j)) g.dots.(i).(j)) pairs);
  g

let gram data bases ~targets =
  if Array.length targets <> data.n then invalid_arg "Dataset.gram: target length mismatch";
  if Array.length bases = 0 then
    { dots = [||]; dot_ys = [||]; col_sums = [||]; finite_bases = [||] }
  else begin
    let distinct, slot = distinct_keys (Array.map key bases) in
    let g = distinct_gram data distinct ~targets in
    if Array.length distinct = Array.length bases then g
    else
      (* A repeated basis reads its one distinct entry. *)
      let pick entries = Array.map (fun s -> entries.(s)) slot in
      {
        dots = Array.map (fun s -> pick g.dots.(s)) slot;
        dot_ys = pick g.dot_ys;
        col_sums = pick g.col_sums;
        finite_bases = pick g.finite_bases;
      }
  end

let basis_columns data bases =
  match data.storage with
  | Dense _ -> Array.map (basis_column data) bases
  | Chunked _ when Array.length bases = 0 -> [||]
  | Chunked src ->
      (* One fused pass for the whole set, where per-basis [basis_column]
         calls would stream the data once per basis.  Fresh columns, never
         cached: the same bypass policy as [column_of_key]. *)
      chunked_columns data src bases

(* --- cache management ----------------------------------------------------- *)

let cached_columns data =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.lock;
      let count = Key_tbl.length shard.table in
      Mutex.unlock shard.lock;
      acc + count)
    0 data.shards

let stats data =
  let columns_cached = ref 0
  and column_hits = ref 0
  and column_misses = ref 0
  and column_evictions = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      columns_cached := !columns_cached + Key_tbl.length shard.table;
      column_hits := !column_hits + shard.hits;
      column_misses := !column_misses + shard.misses;
      column_evictions := !column_evictions + shard.evictions;
      Mutex.unlock shard.lock)
    data.shards;
  let dots_cached = ref 0
  and dot_hits = ref 0
  and dot_misses = ref 0
  and dot_evictions = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.lock shard.dot_lock;
      dots_cached := !dots_cached + dot_shard_entries shard;
      dot_hits := !dot_hits + shard.dot_hits;
      dot_misses := !dot_misses + shard.dot_misses;
      dot_evictions := !dot_evictions + shard.dot_evictions;
      Mutex.unlock shard.dot_lock)
    data.dot_shards;
  {
    columns_cached = !columns_cached;
    column_hits = !column_hits;
    column_misses = !column_misses;
    column_evictions = !column_evictions;
    dots_cached = !dots_cached;
    dot_hits = !dot_hits;
    dot_misses = !dot_misses;
    dot_evictions = !dot_evictions;
  }

(* Gauges, not counters: {!stats} is a point-in-time aggregate over the
   shards, so each publication overwrites the previous snapshot. *)
let g_columns_cached = Metrics.gauge Metrics.default "dataset.columns_cached"
let g_column_hits = Metrics.gauge Metrics.default "dataset.column_hits"
let g_column_misses = Metrics.gauge Metrics.default "dataset.column_misses"
let g_column_evictions = Metrics.gauge Metrics.default "dataset.column_evictions"
let g_dots_cached = Metrics.gauge Metrics.default "dataset.dots_cached"
let g_dot_hits = Metrics.gauge Metrics.default "dataset.dot_hits"
let g_dot_misses = Metrics.gauge Metrics.default "dataset.dot_misses"
let g_dot_evictions = Metrics.gauge Metrics.default "dataset.dot_evictions"

let publish_metrics data =
  let s = stats data in
  Metrics.set_gauge g_columns_cached (float_of_int s.columns_cached);
  Metrics.set_gauge g_column_hits (float_of_int s.column_hits);
  Metrics.set_gauge g_column_misses (float_of_int s.column_misses);
  Metrics.set_gauge g_column_evictions (float_of_int s.column_evictions);
  Metrics.set_gauge g_dots_cached (float_of_int s.dots_cached);
  Metrics.set_gauge g_dot_hits (float_of_int s.dot_hits);
  Metrics.set_gauge g_dot_misses (float_of_int s.dot_misses);
  Metrics.set_gauge g_dot_evictions (float_of_int s.dot_evictions)

let clear_cache data =
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Key_tbl.reset shard.table;
      Mutex.unlock shard.lock)
    data.shards;
  Array.iter
    (fun shard ->
      Mutex.lock shard.dot_lock;
      Pair_tbl.reset shard.pairs;
      Target_tbl.reset shard.target_dots;
      Mutex.unlock shard.dot_lock)
    data.dot_shards;
  Mutex.lock data.finite_lock;
  Key_tbl.reset data.finite_table;
  Mutex.unlock data.finite_lock

let cache_limit data = data.cache_limit

let set_cache_limit data limit =
  if limit < 1 then invalid_arg "Dataset.set_cache_limit: limit must be positive";
  data.cache_limit <- limit

let dot_cache_limit data = data.dot_cache_limit

let set_dot_cache_limit data limit =
  if limit < 1 then invalid_arg "Dataset.set_dot_cache_limit: limit must be positive";
  data.dot_cache_limit <- limit
