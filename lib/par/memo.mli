(** Domain-safe bounded memo: the one cache policy behind every table the
    program memoizes (resident basis columns, streamed Gram products and
    finiteness in {!Caffeine_io.Dataset}, whole-individual objectives in
    [Eval_cache]).

    A memo splits its entries into 16 shards chosen by the key's hash,
    each behind its own mutex, so concurrent domains (parallel NSGA-II
    evaluation, parallel islands) rarely contend on one lock.  It is meant
    for values that are pure functions of their key: the first value
    stored under a key wins and is never replaced, so a racing duplicate,
    which computed the same words, is only wasted work.

    The bound is kept per shard.  An {!Make.add} to a full shard first
    drops every entry of that shard, counting them as evictions; a dropped
    entry is recomputed on its next miss, so eviction never changes a
    value, only how often one is computed.  Hit, miss and eviction counts
    live as long as the memo: {!Make.clear} drops the entries and keeps
    the counts. *)

type stats = {
  hits : int;  (** lookups that found a value *)
  misses : int;  (** lookups that found none *)
  evictions : int;  (** entries dropped by full-shard resets *)
  entries : int;  (** entries held now *)
}

val shard_count : int
(** 16. *)

module Make (Key : Hashtbl.HashedType) : sig
  type 'a t

  val create : limit:int -> 'a t
  (** An empty memo of at most [limit] entries, [limit / 16] per shard.
      Raises [Invalid_argument] when [limit] is below {!shard_count}: a
      shard must hold at least one entry. *)

  val find : 'a t -> Key.t -> 'a option
  (** The value stored under the key, counting a hit, or [None],
      counting a miss. *)

  val mem : 'a t -> Key.t -> bool
  (** Whether a value is stored under the key.  An absent key counts a
      miss, as {!find} would; a held one counts no hit, because nothing is
      read.  This is the check before computing entries in bulk: the
      caller adds the missing ones, and its later {!find}s count the
      hits. *)

  val add : 'a t -> Key.t -> 'a -> int
  (** Store the value unless the key already holds one (the first stored
      value wins).  When the key's shard is full, its entries are dropped
      first; the result is how many (0 when the shard had room). *)

  val clear : 'a t -> unit
  (** Drop every entry; the counts are kept. *)

  val stats : 'a t -> stats
  (** Lifetime counts and current entries, summed over the shards. *)
end
