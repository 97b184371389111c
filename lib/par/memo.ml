type stats = { hits : int; misses : int; evictions : int; entries : int }

let shard_count = 16 (* power of two: shard selection is a mask *)

module Make (Key : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (Key)

  type 'a shard = {
    lock : Mutex.t;
    table : 'a Tbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  type 'a t = { shard_limit : int; shards : 'a shard array }

  let create ~limit =
    if limit < shard_count then
      invalid_arg
        (Printf.sprintf "Memo.create: limit %d is below the shard count %d" limit shard_count);
    {
      shard_limit = limit / shard_count;
      shards =
        Array.init shard_count (fun _ ->
            { lock = Mutex.create (); table = Tbl.create 64; hits = 0; misses = 0; evictions = 0 });
    }

  let shard t key = t.shards.(Key.hash key land (shard_count - 1))

  (* Plain lock/unlock rather than [Mutex.protect]: no Hashtbl operation
     below raises, and a lookup is on every evaluation's path. *)
  let find t key =
    let s = shard t key in
    Mutex.lock s.lock;
    let found = Tbl.find_opt s.table key in
    (match found with Some _ -> s.hits <- s.hits + 1 | None -> s.misses <- s.misses + 1);
    Mutex.unlock s.lock;
    found

  let mem t key =
    let s = shard t key in
    Mutex.lock s.lock;
    let held = Tbl.mem s.table key in
    if not held then s.misses <- s.misses + 1;
    Mutex.unlock s.lock;
    held

  let add t key value =
    let s = shard t key in
    Mutex.lock s.lock;
    let dropped = Tbl.length s.table in
    let dropped =
      if dropped < t.shard_limit then 0
      else begin
        s.evictions <- s.evictions + dropped;
        Tbl.reset s.table;
        dropped
      end
    in
    if not (Tbl.mem s.table key) then Tbl.add s.table key value;
    Mutex.unlock s.lock;
    dropped

  let clear t =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        Tbl.reset s.table;
        Mutex.unlock s.lock)
      t.shards

  let stats t =
    Array.fold_left
      (fun (acc : stats) s ->
        Mutex.lock s.lock;
        let acc =
          {
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            entries = acc.entries + Tbl.length s.table;
          }
        in
        Mutex.unlock s.lock;
        acc)
      { hits = 0; misses = 0; evictions = 0; entries = 0 }
      t.shards
end
