(** Tape evaluation of canonical-form basis functions, one or many at once.

    {!Expr.eval_basis} interprets a tree recursively, one sample at a
    time, re-walking the same lists and closures on every sample.  This
    module lowers a {e set} of bases (one basis is the one-root case)
    into a single DAG, hash-consed under the structural identity of
    {!Expr.Key} (structural equality, weights by IEEE bits), so every
    distinct subtree is computed exactly once — and GP populations under
    set crossover share enormously.  The DAG is emitted as one
    topologically-ordered tape and evaluated with cache-tiled kernels:
    the sample dimension is blocked so the whole working set (one tile
    per live slot) stays L1/L2-resident, inner loops use unsafe
    accesses, and per-root output rows are the only allocations —
    intermediate tiles live in a reusable scratch arena whose slots are
    recycled by liveness (a value's slot is reused as soon as its last
    consumer has read it).

    {b Semantics.}  {!Expr.eval_basis} is the reference.  Every value a
    tape computes that is not NaN has the interpreter's IEEE bits: each
    DAG node applies one operation of the interpreter's fold, in the same
    order and association (the conditional evaluates all four operands
    eagerly and selects per sample, which is value-equivalent to the
    interpreter's lazy branch because expressions are pure).  A value is
    NaN exactly where the interpreter's is, with the NaN payload
    unspecified.  Every kernel is elementwise and the same code runs a
    node however it was reached, so tiling, slot reuse and sharing cannot
    change an IEEE word: {b adding roots to a set never changes a root's
    bits}, NaN payloads included.  That is why a set fused by a worker
    gives the same columns as one basis compiled alone. *)

type node =
  | Const of float
  | Vc of { vars : int array; exps : int array }
      (** Monomial over the nonzero-exponent design variables. *)
  | Unary of Op.unary * int
  | Binary of Op.binary * int * int
  | Lte of { test : int; threshold : int; less : int; otherwise : int }
  | Mul of int * int  (** One step of a basis's factor-product fold. *)
  | Fma of { acc : int; w : float; term : int }
      (** One step of a weighted-sum fold: [acc +. (w *. term)]. *)

type t
(** A fused DAG compiled to a slot-allocated, tiled kernel tape. *)

val compile : Expr.basis array -> t
(** Hash-cons the bases into one DAG and compile it.  [compile [| b |]]
    is the compiled form of a single basis; [compile [||]] is valid and
    evaluates to zero output rows.  Products and weighted sums
    are consed one fold step at a time ({!Mul}/{!Fma} chains), so shared
    {e prefixes} of factor lists and term lists deduplicate too, not just
    whole subtrees. *)

val compile_wsums : Expr.wsum array -> t
(** Fuse whole weighted sums (one root per wsum) — a model's
    [intercept + Σ wⱼ·basisⱼ] is a wsum, so this fuses entire fronts for
    export and serving. *)

val roots : t -> int array
(** Node id of each input expression, in input order.  Duplicate inputs
    map to the same node id but keep distinct output rows. *)

val nodes : t -> node array
(** The DAG in topological (creation) order: children precede parents.
    This is the codegen surface for fused export. *)

val nodes_in : t -> int
(** DAG nodes the input expressions would create without any sharing:
    one per operation of each root's fold. *)

val nodes_out : t -> int
(** Distinct DAG nodes after hash-consing ([Array.length (nodes t)]).
    [nodes_in / nodes_out] is the cross-tree CSE ratio. *)

val tile : t -> int
(** Samples per block: chosen at compile time so all live slots' tiles
    fit the L1 budget, clamped to keep per-tile loop overhead amortized. *)

val slots : t -> int
(** Scratch columns needed (after liveness-based slot reuse). *)

type scratch
(** Reusable arena of tile buffers; grows to the largest
    (slots × tile width) seen and can be shared by sequential calls. *)

val scratch : unit -> scratch

val eval_columns :
  t -> scratch:scratch -> columns:float array array -> n:int -> float array array
(** [eval_columns t ~scratch ~columns ~n] evaluates every root over all
    [n] samples ([columns.(v).(i)] is design variable [v] at sample [i]).
    Row [r] of the result is a fresh length-[n] column; it is the row
    [compile [| bases.(r) |]] gives, bit for bit. *)

val eval_columns_into :
  t ->
  scratch:scratch ->
  columns:float array array ->
  n:int ->
  out:float array array ->
  unit
(** {!eval_columns} writing into caller-owned buffers: fills the first [n]
    cells of [out.(r)] with root [r]'s values (cells past [n] are left
    untouched).  The streaming (chunked) dataset path calls this once per
    chunk with buffers allocated once per pass, so a million-row fit does
    not churn a fresh result matrix per chunk.  Raises [Invalid_argument]
    unless [out] has one buffer of length >= [n] per root. *)
