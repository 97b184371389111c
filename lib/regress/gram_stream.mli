(** Streaming Gram accumulator: build the products {!Linfit.fit_stream}
    needs — [⟨colᵢ, colⱼ⟩], [⟨colᵢ, y⟩], [⟨colᵢ, 1⟩], per-column
    finiteness — in one pass over row chunks, without ever materializing a
    full column.  Only the entries named at {!create} are accumulated, so a
    caller holding most of them in a cache pays for exactly the rest.

    Each scalar accumulates row products in global row order (the
    accumulator is carried across chunk boundaries), so the result does
    not depend on the chunk size: resident data fed as one chunk and
    out-of-core data fed in slices agree to the last IEEE bit, which keeps
    Pareto fronts byte-identical across the two storages.  See DESIGN.md
    §7j. *)

type t

val create :
  int -> pairs:(int * int) array -> dot_ys:int array -> col_sums:int array -> finite:int array -> t
(** [create k ~pairs ~dot_ys ~col_sums ~finite] starts an accumulator over
    chunks of [k] columns, every product zero.  [pairs.(p) = (i, j)] asks
    for [⟨colᵢ, colⱼ⟩] (computed as [colᵢ.(r) *. colⱼ.(r)], in that
    order); [dot_ys], [col_sums] and [finite] list the columns whose
    [⟨col, y⟩], [⟨col, 1⟩] and finiteness are wanted.  A column may be
    listed more than once.  Raises [Invalid_argument] when [k < 1]; an
    index outside [0 .. k-1] makes {!update} raise it. *)

val update : t -> columns:float array array -> targets:float array -> row0:int -> len:int -> unit
(** Feed the chunk covering rows [row0 .. row0+len-1]: [columns.(i)] holds
    column [i]'s values for those rows in its first [len] cells (longer
    scratch buffers are fine), [targets] is the full dense target vector.
    Chunks must arrive in row order with no gaps ([row0] must equal
    {!rows_seen}); raises [Invalid_argument] otherwise, or when a column
    holds fewer than [len] cells.  The sweeps advance four accumulators at
    a time, each still a left fold over the rows in order, so every entry
    is the word a lone row-order loop from [+0.] would give. *)

val rows_seen : t -> int

val dot : t -> int -> float
(** [dot t p] is the product asked for by [pairs.(p)], over the rows seen
    so far. *)

val dot_y : t -> int -> float
(** [dot_y t p] is [⟨col, y⟩] for the column [dot_ys.(p)]. *)

val col_sum : t -> int -> float
(** [col_sum t p] is [⟨col, 1⟩] for the column [col_sums.(p)]. *)

val finite : t -> int -> bool
(** [finite t p] is whether every value seen so far of the column
    [finite.(p)] is finite. *)
