(** Chunked on-disk column store for out-of-core datasets.

    A store holds [n] rows of [dims] named variables as fixed-size row
    chunks; within a chunk each variable's values are contiguous
    little-endian float64, so a chunk loads with one sequential read per
    variable and evaluates like a short in-memory dataset.  The format is
    self-describing (magic ["CAFSTOR1"], header with names and geometry)
    and the data region starts on a 4096-byte page.

    See DESIGN.md §7j for how [Dataset] drives this during streaming
    Gram accumulation. *)

module Writer : sig
  type t

  val create : path:string -> var_names:string array -> ?chunk_rows:int -> unit -> t
  (** Start a store at [path].  [chunk_rows] defaults to 65536 (512 KiB
      per variable per chunk).  Raises [Invalid_argument] on empty
      [var_names], an empty name, or [chunk_rows < 1]. *)

  val append_row : t -> float array -> unit
  (** Append one row ([dims] values, variable order as [var_names]).
      Buffers at most one chunk in memory. *)

  val close : t -> unit
  (** Flush the partial chunk and patch the header's row count.  The
      store is unreadable until closed.  Idempotent. *)
end

type t

val openfile : string -> t
(** Open a store for reading through buffered channel reads, which keep
    resident memory bounded by one chunk; readers keep one channel per
    domain, so domains never share a file offset.  The header is checked
    against the file before anything it sizes is allocated: every name
    lies inside the header, the header inside the file, and the file is
    exactly the header plus [n_rows * dims] float64 cells.  A [chunk_rows]
    above [max 1 n_rows] is read as [max 1 n_rows], since no chunk holds
    more rows.  Raises [Invalid_argument] naming [path] on a missing,
    unreadable, truncated or malformed file. *)

val var_names : t -> string array
val n_rows : t -> int
val chunk_rows : t -> int

val iter_chunks :
  t -> f:(row0:int -> len:int -> float array array -> unit) -> unit
(** Visit every chunk in row order.  [columns.(d)] holds variable [d]'s
    values for rows [row0 .. row0+len-1] in its first [len] cells.  The
    arrays are reused across chunks (allocated once per pass at
    [chunk_rows] length) — copy anything that must outlive the call. *)

val gather : t -> indices:int array -> float array array
(** [gather t ~indices] returns [dims] fresh arrays with the variables'
    values at the given rows, in index order — the random-access path for
    point reads.  Raises [Invalid_argument] on an out-of-range row. *)

val column : t -> int -> float array
(** Materialize one variable as a fresh [n_rows] array. *)

val close : t -> unit
(** Close every channel this process holds on the store, whichever
    domain opened it.  A later read reopens a channel. *)
