module Expr = Caffeine_expr.Expr
module Fused = Caffeine_expr.Fused

(* Every table here is a {!Caffeine_par.Memo}: sharded by the full
   structural hash, each shard behind its own mutex, so concurrent
   evaluators (parallel NSGA-II objective evaluation, parallel islands)
   rarely contend on the same lock, and bounded by wholesale per-shard
   resets.  Entries are pure functions of (basis, data), so a racing
   duplicate evaluation is only wasted work, never a wrong or
   nondeterministic result.

   Which level is memoized follows the storage (DESIGN §7j).  Resident
   storage memoizes columns, each with an all-finite flag computed once
   when the column is installed, and keeps no scalar tables: a Gram forms
   every product from the memoized columns.  At a few hundred rows a
   product is a short loop over two resident arrays, while a table costs
   a shard mutex and shared counters per lookup, the product anyway on a
   miss, and heap for every entry; end to end the search runs faster
   without them (DESIGN §7c).  Chunked
   storage caches no column (each is [n] floats) but caches the scalars,
   because there every product costs a stream over the data: ⟨col_i,
   col_j⟩, ⟨col_i, y⟩ and ⟨col_i, 1⟩ entries in one memo, and each
   basis's finiteness in another.  Target products are keyed by (basis,
   target id) where ids come from a small physical-equality registry (the
   search passes the same target array on every call); id 0 stands for
   the notional ones vector, so it keys column sums.

   Both storages form ⟨col_i, col_j⟩ in one canonical orientation, the
   lower key on the left ([compare_keys]), so a pair has one word however
   its bases are ordered or repeated, NaN payloads included, with no cache
   to hold it.

   The structural hash walks the whole tree, so every entry point hashes
   each basis once into a [key] and every shard selection, table lookup and
   pair key reuses it: a k-basis Gram costs k tree walks, not four per
   entry. *)

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

module Memo = Caffeine_par.Memo
module Key_memo = Memo.Make (Key)

(* The chunked Gram scalars share one memo, and so one budget: a pair is
   keyed in canonical orientation, (lower, higher); a target product by
   (basis, target id). *)
module Product_key = struct
  type t = Pair of key * key | Target of key * int

  let equal a b =
    match (a, b) with
    | Pair (a1, b1), Pair (a2, b2) -> Key.equal a1 a2 && Key.equal b1 b2
    | Target (b1, t1), Target (b2, t2) -> t1 = t2 && Key.equal b1 b2
    | Pair _, Target _ | Target _, Pair _ -> false

  let hash = function
    | Pair (a, b) -> (a.hash + b.hash) land max_int
    | Target (b, t) -> (b.hash + (t * 0x9e3779b1)) land max_int
end

module Product_memo = Memo.Make (Product_key)

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

(* A memoized resident column and whether every value in it is finite,
   found once when the column is installed, so a fit reads finiteness
   instead of scanning for it. *)
type column = { values : float array; all_finite : bool }

type t = {
  var_names : string array;
  storage : storage;
  n : int;
  columns : column Key_memo.t;  (* basis -> value column (resident) *)
  products : float Product_memo.t;  (* Gram scalars (chunked) *)
  finite : bool Key_memo.t;
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
    columns = Key_memo.create ~limit:32_768;
    products = Product_memo.create ~limit:131_072;
    finite = Key_memo.create ~limit:32_768;
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

(* A memo keeps the first value stored under a key, and a racing
   duplicate computed the same words: a column comes from the same kernels
   on a one-root or a batch tape, a Gram entry from the same row-order
   pass in canonical orientation. *)
let install data k values =
  let entry = { values; all_finite = Caffeine_util.Stats.is_finite_array values } in
  ignore (Key_memo.add data.columns k entry : int);
  entry

(* A resident key's memo entry: one lookup, and on a miss one evaluation
   and install. *)
let resident_entry data columns k =
  match Key_memo.find data.columns k with
  | Some entry -> entry
  | None ->
      (* Evaluate outside the lock: another domain may compute the same
         column concurrently, but both results are identical.  A one-root
         tape gives the row [warm_columns] would install. *)
      install data k
        (Fused.eval_columns
           (Fused.compile [| k.basis |])
           ~scratch:(Domain.DLS.get scratch_key) ~columns ~n:data.n).(0)

let column_of_key data k =
  match data.storage with
  | Chunked src ->
      (* Bypass policy (DESIGN §7j): an out-of-core column is [n] floats —
         caching even a few would blow the memory budget streaming exists
         to hold, so chunked storage materializes fresh and never fills
         the column cache.  Dot products, being scalars, stay cached. *)
      (chunked_columns data src [| k.basis |]).(0)
  | Dense columns -> (resident_entry data columns k).values

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
        if not (Key_memo.mem data.columns k) then rev_missing := k :: !rev_missing
      end)
    bases;
  match !rev_missing with
  | [] -> { fused_bases = 0; nodes_in = 0; nodes_out = 0 }
  | rev ->
      let missing = Array.of_list (List.rev rev) in
      let fused = Fused.compile (Array.map (fun k -> k.basis) missing) in
      let scratch = Domain.DLS.get scratch_key in
      let columns = Fused.eval_columns fused ~scratch ~columns:dense_columns ~n:data.n in
      Array.iteri (fun i k -> ignore (install data k columns.(i) : column)) missing;
      let nodes_in, nodes_out = record_fusion fused in
      { fused_bases = Array.length missing; nodes_in; nodes_out }

(* --- dot products -------------------------------------------------------- *)

let store_product data key value = ignore (Product_memo.add data.products key value : int)

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

(* --- the one Gram pass --------------------------------------------------- *)

module Gram_stream = Caffeine_regress.Gram_stream

type pass = (row0:int -> len:int -> float array array -> unit) -> unit

(* A pass over the bases' columns: resident columns come from the memo
   table as a single whole-dataset chunk, streamed ones through one fused
   tape per chunk, never cached. *)
let iter_basis_chunks data bases ~f =
  if Array.length bases = 0 then invalid_arg "Dataset.iter_basis_chunks: no bases";
  match data.storage with
  | Dense _ -> f ~row0:0 ~len:data.n (Array.map (basis_column data) bases)
  | Chunked src -> iter_chunks src bases ~f

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

(* Accumulate the named entries of [g] (indices into the [d] distinct
   keys) in one [Gram_stream] pass over the columns they involve: [read
   needed] visits the columns of the listed key indices as row chunks.
   [pairs] come oriented, so [(i, j)] is formed as [col_i *. col_j]. *)
let accumulate ~read d g ~targets ~pairs ~dot_ys ~col_sums ~finite =
  let needed = Array.make d false in
  Array.iter
    (fun (i, j) ->
      needed.(i) <- true;
      needed.(j) <- true)
    pairs;
  List.iter (Array.iter (fun i -> needed.(i) <- true)) [ dot_ys; col_sums; finite ];
  let pos = Array.make d (-1) and rev_read = ref [] and m = ref 0 in
  Array.iteri
    (fun i wanted ->
      if wanted then begin
        pos.(i) <- !m;
        incr m;
        rev_read := i :: !rev_read
      end)
    needed;
  if !m > 0 then begin
    let at = Array.map (fun i -> pos.(i)) in
    let acc =
      Gram_stream.create !m
        ~pairs:(Array.map (fun (i, j) -> (pos.(i), pos.(j))) pairs)
        ~dot_ys:(at dot_ys) ~col_sums:(at col_sums) ~finite:(at finite)
    in
    read (Array.of_list (List.rev !rev_read)) (fun ~row0 ~len columns ->
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

let empty_gram d =
  {
    dots = Array.make_matrix d d Float.nan;
    dot_ys = Array.make d Float.nan;
    col_sums = Array.make d Float.nan;
    finite_bases = Array.make d true;
  }

let oriented keys i j = if compare_keys keys.(i) keys.(j) <= 0 then (i, j) else (j, i)

(* Every entry of the distinct keys' Gram from their held resident
   columns, in one pass with no finiteness scan: the memo entries carry
   it. *)
let held_gram data keys (entries : column array) ~targets =
  let d = Array.length keys in
  let g = empty_gram d in
  let all = Array.init d Fun.id in
  let pairs = ref [] in
  for i = d - 1 downto 0 do
    for j = d - 1 downto i do
      pairs := oriented keys i j :: !pairs
    done
  done;
  accumulate d g ~targets ~pairs:(Array.of_list !pairs) ~dot_ys:all ~col_sums:all ~finite:[||]
    ~read:(fun read f -> f ~row0:0 ~len:data.n (Array.map (fun i -> entries.(i).values) read));
  Array.iteri (fun i e -> g.finite_bases.(i) <- e.all_finite) entries;
  g

(* The Gram of distinct keys on chunked storage: each entry is looked up,
   and exactly the missing ones are accumulated in one streamed pass and
   cached. *)
let streamed_gram data src keys ~targets =
  let d = Array.length keys in
  let g = empty_gram d in
  let tid = target_id data targets in
  let pairs = ref [] and dot_ys = ref [] and col_sums = ref [] and finite = ref [] in
  let lookup found entries missing i =
    match found with Some v -> entries.(i) <- v | None -> missing := i :: !missing
  in
  for i = 0 to d - 1 do
    lookup (Product_memo.find data.products (Target (keys.(i), tid))) g.dot_ys dot_ys i;
    lookup (Product_memo.find data.products (Target (keys.(i), 0))) g.col_sums col_sums i;
    lookup (Key_memo.find data.finite keys.(i)) g.finite_bases finite i;
    for j = i to d - 1 do
      let lo, hi = oriented keys i j in
      match Product_memo.find data.products (Pair (keys.(lo), keys.(hi))) with
      | Some v ->
          g.dots.(i).(j) <- v;
          g.dots.(j).(i) <- v
      | None -> pairs := (lo, hi) :: !pairs
    done
  done;
  let in_order missing = Array.of_list (List.rev !missing) in
  let pairs = in_order pairs and dot_ys = in_order dot_ys in
  let col_sums = in_order col_sums and finite = in_order finite in
  accumulate d g ~targets ~pairs ~dot_ys ~col_sums ~finite ~read:(fun read f ->
      iter_chunks src (Array.map (fun i -> keys.(i).basis) read) ~f);
  Array.iter (fun i -> store_product data (Target (keys.(i), tid)) g.dot_ys.(i)) dot_ys;
  Array.iter (fun i -> store_product data (Target (keys.(i), 0)) g.col_sums.(i)) col_sums;
  Array.iter (fun i -> ignore (Key_memo.add data.finite keys.(i) g.finite_bases.(i) : int)) finite;
  Array.iter (fun (i, j) -> store_product data (Pair (keys.(i), keys.(j))) g.dots.(i).(j)) pairs;
  g

(* The Gram of the given bases from that of their distinct keys: a
   repeated basis reads its one distinct entry. *)
let expand g slot =
  if Array.length slot = Array.length g.dot_ys then g
  else
    let pick entries = Array.map (fun s -> entries.(s)) slot in
    {
      dots = Array.map (fun s -> pick g.dots.(s)) slot;
      dot_ys = pick g.dot_ys;
      col_sums = pick g.col_sums;
      finite_bases = pick g.finite_bases;
    }

let check_targets name data targets =
  if Array.length targets <> data.n then invalid_arg (name ^ ": target length mismatch")

let gram data bases ~targets =
  check_targets "Dataset.gram" data targets;
  if Array.length bases = 0 then
    { dots = [||]; dot_ys = [||]; col_sums = [||]; finite_bases = [||] }
  else begin
    let distinct, slot = distinct_keys (Array.map key bases) in
    let g =
      match data.storage with
      | Dense columns ->
          held_gram data distinct (Array.map (resident_entry data columns) distinct) ~targets
      | Chunked src -> streamed_gram data src distinct ~targets
    in
    expand g slot
  end

(* One hash per basis.  Resident storage fetches each distinct column
   once, stops at the first whose flag says it is not finite, and hands
   the held columns to both the Gram and the fit's pass; chunked storage
   rejects a basis its finite memo already knows to be non-finite before
   it looks up any product, then streams what the memos miss. *)
let finite_gram data bases ~targets =
  check_targets "Dataset.finite_gram" data targets;
  if Array.length bases = 0 then invalid_arg "Dataset.finite_gram: no bases";
  let distinct, slot = distinct_keys (Array.map key bases) in
  match data.storage with
  | Dense columns ->
      let d = Array.length distinct in
      let entries = Array.make d { values = [||]; all_finite = true } in
      let rec fetch i =
        i = d
        ||
        let entry = resident_entry data columns distinct.(i) in
        entries.(i) <- entry;
        entry.all_finite && fetch (i + 1)
      in
      if not (fetch 0) then None
      else
        let held = Array.map (fun s -> entries.(s).values) slot in
        Some
          ( expand (held_gram data distinct entries ~targets) slot,
            fun f -> f ~row0:0 ~len:data.n held )
  | Chunked src ->
      let known_nonfinite k =
        match Key_memo.find data.finite k with Some false -> true | Some true | None -> false
      in
      if Array.exists known_nonfinite distinct then None
      else
        let g = streamed_gram data src distinct ~targets in
        if not (Array.for_all Fun.id g.finite_bases) then None
        else Some (expand g slot, fun f -> iter_chunks src bases ~f)

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

let cached_columns data = (Key_memo.stats data.columns).entries

let stats data =
  let c = Key_memo.stats data.columns and p = Product_memo.stats data.products in
  {
    columns_cached = c.entries;
    column_hits = c.hits;
    column_misses = c.misses;
    column_evictions = c.evictions;
    dots_cached = p.entries;
    dot_hits = p.hits;
    dot_misses = p.misses;
    dot_evictions = p.evictions;
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
  Key_memo.clear data.columns;
  Product_memo.clear data.products;
  Key_memo.clear data.finite
