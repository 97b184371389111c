(** The execution backend seam: one value that says {e how} the search
    runs, threaded through every layer that used to take a raw [?pool].

    An executor carries a backend choice plus whatever runtime it needs:

    - {!Seq} — everything on the calling domain; no domains, no
      processes.  The reference semantics every other backend must
      reproduce bit-for-bit.
    - {!Domains} — a shared {!Pool.t} of worker domains; data-parallel
      maps (objective evaluation, PRESS candidate scoring) fan out across
      it.  Bound by OCaml 5's cross-domain GC coupling: all domains join
      every minor collection, so it only pays off when the work between
      synchronizations is large.
    - {!Processes} — island-level fan-out across OS worker processes,
      each a fresh start of the running executable (see
      {!Caffeine.Shard}), immune to that GC coupling.  Workers are never
      forked, so this backend also runs in a process that has run a
      domain pool (OCaml 5.1 refuses [Unix.fork] there).  Inside each
      worker process, and for any data-parallel {!map} issued on the
      coordinator, execution is sequential: the parallelism lives at the
      island level.

    Executors are cheap immutable handles; the only resource they may own
    is the domain pool, released by {!shutdown} / {!with_executor}.
    Nested use is safe everywhere: a {!map} issued from inside another
    {!map} (or from inside a worker process) degrades to [Array.map] on
    the calling domain, never to deadlock. *)

type backend =
  | Seq
  | Domains
  | Processes

val backend_name : backend -> string
(** ["seq"], ["domains"] or ["processes"] — the [--backend] CLI spelling. *)

val backend_of_string : string -> (backend, string) result
(** Inverse of {!backend_name}; the error lists the valid spellings. *)

type t

val sequential : t
(** The {!Seq} executor: [map] is [Array.map], no resources owned. *)

val of_pool : Pool.t -> t
(** A {!Domains} executor borrowing the caller's pool.  The caller keeps
    ownership: {!shutdown} on the result is a no-op. *)

val with_executor : ?jobs:int -> ?shards:int -> backend -> (t -> 'a) -> 'a
(** [with_executor ?jobs ?shards backend f] builds an executor, applies
    [f] to it and releases it with {!shutdown}, including on exception.

    For {!Domains}, [jobs] (default auto, clamped by
    {!Pool.effective_jobs}) sets the pool size; an effective size of 1
    spawns no domains.  For {!Processes}, [shards] sets how many worker
    processes an island run starts (default/0 = one per core; never more
    than there are islands); [jobs] is ignored — in-process maps stay
    sequential.  For {!Seq} both are ignored. *)

val shutdown : t -> unit
(** Release the executor's owned resources (the domain pool, when it
    spawned one).  Idempotent; borrowed pools are left alone. *)

val backend : t -> backend

val jobs : t -> int
(** Within-process parallelism: the pool size for {!Domains}, else 1. *)

val shards : t -> int
(** Worker-process fan-out for {!Processes}, else 1. *)

val pool : t -> Pool.t option
(** The underlying domain pool, when the backend has one. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map exec f input] is [Array.map f input], fanned across the domain
    pool when the executor has one ({!Pool.parallel_map} contract: [f]
    domain-safe, element order preserved, first exception re-raised).
    On {!Seq} and {!Processes} executors it runs on the calling domain. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init exec n f] is [Array.init n f] under the same contract as
    {!map}. *)
