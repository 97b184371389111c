module Rng = Caffeine_util.Rng
module Executor = Caffeine_par.Executor

type 'a individual = {
  genome : 'a;
  objectives : float array;
  rank : int;
  crowding : float;
}

let sanitize objectives =
  Array.map (fun v -> if Float.is_nan v then Float.infinity else v) objectives

(* The annotation keeps this monomorphic: unannotated, the comparisons
   compile to [caml_compare] calls and every array read checks the array's
   tag, several times slower inside the nondominated sort. *)
let dominates (a : float array) (b : float array) =
  let n = Array.length a in
  assert (Array.length b = n);
  let no_worse = ref true and strictly_better = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then no_worse := false else if a.(i) < b.(i) then strictly_better := true
  done;
  !no_worse && !strictly_better

(* Deb's pairwise sort, O(m N²): the reference semantics, and the path for
   any input other than two NaN-free objectives. *)
let pairwise_sort objectives =
  let n = Array.length objectives in
  let dominated_by = Array.make n [] in
  let domination_count = Array.make n 0 in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if dominates objectives.(p) objectives.(q) then begin
        dominated_by.(p) <- q :: dominated_by.(p);
        domination_count.(q) <- domination_count.(q) + 1
      end
      else if dominates objectives.(q) objectives.(p) then begin
        dominated_by.(q) <- p :: dominated_by.(q);
        domination_count.(p) <- domination_count.(p) + 1
      end
    done
  done;
  let fronts = ref [] in
  let current = ref [] in
  for p = 0 to n - 1 do
    if domination_count.(p) = 0 then current := p :: !current
  done;
  while !current <> [] do
    fronts := List.rev !current :: !fronts;
    let next = ref [] in
    List.iter
      (fun p ->
        List.iter
          (fun q ->
            domination_count.(q) <- domination_count.(q) - 1;
            if domination_count.(q) = 0 then next := q :: !next)
          dominated_by.(p))
      !current;
    current := List.rev !next
  done;
  Array.of_list (List.rev !fronts)

(* Two NaN-free objectives: the same fronts, members in the same order, in
   O(N log N) (Jensen, IEEE TEC 7(5), 2003).

   Ranks.  Sweep the points in lexicographic (f0, f1) order: every
   dominator of a point is swept before it.  Within a front, lexicographic
   order has f0 non-decreasing and f1 non-increasing, so a front dominates
   the point iff its last-swept member does, and the fronts that dominate
   it form a prefix; a binary search over the fronts' last members finds
   the point's rank.

   Member order.  In [pairwise_sort], front 0 is emitted in ascending
   index order and processed in the reverse order; each [dominated_by]
   list runs in descending index order; a member of front k+1 joins the
   processing order when the last of its front-k dominators (in front k's
   processing order) is processed, and the front is emitted reversed.  So
   front k+1's processing order sorts its members by the position of that
   dominator (ascending), then by index (descending).  A point's front-k
   dominators are a contiguous run of front k's lexicographic order
   (f0 <= q.f0 is a prefix, f1 <= q.f1 a suffix), and both ends of the run
   only move forward as q walks front k+1 in lexicographic order, so a
   sliding-window maximum finds every position in linear time. *)
let two_objective_sort objectives =
  let n = Array.length objectives in
  let f0 = Array.init n (fun i -> objectives.(i).(0))
  and f1 = Array.init n (fun i -> objectives.(i).(1)) in
  let dominates_point a p =
    f0.(a) <= f0.(p) && f1.(a) <= f1.(p) && (f0.(a) < f0.(p) || f1.(a) < f1.(p))
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare f0.(a) f0.(b) in
      if c <> 0 then c
      else
        let c = Float.compare f1.(a) f1.(b) in
        if c <> 0 then c else Int.compare a b)
    order;
  let rank = Array.make n 0 in
  let last = Array.make n 0 in
  let count = ref 0 in
  Array.iter
    (fun p ->
      let lo = ref 0 and hi = ref !count in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if dominates_point last.(mid) p then lo := mid + 1 else hi := mid
      done;
      rank.(p) <- !lo;
      last.(!lo) <- p;
      if !lo = !count then incr count)
    order;
  let count = !count in
  (* Front k occupies [start.(k), start.(k+1)) of [lex] (its members in
     lexicographic order) and of [processing] (its processing order);
     [pos.(i)] is i's offset in its front's processing order. *)
  let start = Array.make (count + 1) 0 in
  Array.iter (fun r -> start.(r + 1) <- start.(r + 1) + 1) rank;
  for k = 1 to count do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let lex = Array.make n 0 in
  let fill = Array.sub start 0 count in
  Array.iter
    (fun p ->
      let r = rank.(p) in
      lex.(fill.(r)) <- p;
      fill.(r) <- fill.(r) + 1)
    order;
  let processing = Array.make n 0 and pos = Array.make n 0 in
  let place k members =
    Array.blit members 0 processing start.(k) (Array.length members);
    Array.iteri (fun j i -> pos.(i) <- j) members
  in
  if count > 0 then begin
    let front0 = Array.sub lex 0 start.(1) in
    Array.sort (fun a b -> Int.compare b a) front0;
    place 0 front0
  end;
  (* [window.(head .. tail-1)] holds [lex] offsets of front k-1's run
     [lo, hi), increasing, with decreasing [pos]: its head is the run's
     last dominator in processing order. *)
  let window = Array.make n 0 in
  for k = 1 to count - 1 do
    let prev_end = start.(k) and size = start.(k + 1) - start.(k) in
    (* One int per member: dominator position major, descending index
       minor. *)
    let keys = Array.make size 0 in
    let lo = ref start.(k - 1) and hi = ref start.(k - 1) in
    let head = ref 0 and tail = ref 0 in
    for j = 0 to size - 1 do
      let q = lex.(start.(k) + j) in
      (* q has a dominator in front k-1, so the run is never empty and
         [lo] stops before [hi]. *)
      while !hi < prev_end && f0.(lex.(!hi)) <= f0.(q) do
        let d = lex.(!hi) in
        while !tail > !head && pos.(lex.(window.(!tail - 1))) < pos.(d) do
          decr tail
        done;
        window.(!tail) <- !hi;
        incr tail;
        incr hi
      done;
      while f1.(lex.(!lo)) > f1.(q) do
        incr lo
      done;
      while window.(!head) < !lo do
        incr head
      done;
      keys.(j) <- (pos.(lex.(window.(!head))) * n) + (n - 1 - q)
    done;
    Array.sort Int.compare keys;
    place k (Array.map (fun key -> n - 1 - (key mod n)) keys)
  done;
  Array.init count (fun k ->
      let members = ref [] in
      for j = start.(k) to start.(k + 1) - 1 do
        members := processing.(j) :: !members
      done;
      !members)

let fast_nondominated_sort objectives =
  if
    Array.for_all
      (fun o -> Array.length o = 2 && not (Float.is_nan o.(0) || Float.is_nan o.(1)))
      objectives
  then two_objective_sort objectives
  else pairwise_sort objectives

(* Monomorphic comparisons and distances indexed by front position: on
   sanitized objectives [Float.compare] orders exactly as the polymorphic
   [compare] did (NaN-free, [-0.] equal to [0.]), so [Array.sort] makes the
   same swaps without a [caml_compare] call per comparison. *)
let crowding_distances objectives front =
  match front with
  | [] -> []
  | [ only ] -> [ (only, Float.infinity) ]
  | _ :: _ :: _ ->
      let members = Array.of_list front in
      let count = Array.length members in
      let distance = Array.make count 0. in
      let num_objectives = Array.length objectives.(members.(0)) in
      for m = 0 to num_objectives - 1 do
        let value position = objectives.(members.(position)).(m) in
        let sorted = Array.init count Fun.id in
        Array.sort (fun a b -> Float.compare (value a) (value b)) sorted;
        let lo = value sorted.(0) in
        let hi = value sorted.(count - 1) in
        distance.(sorted.(0)) <- Float.infinity;
        distance.(sorted.(count - 1)) <- Float.infinity;
        let span = hi -. lo in
        if span > 0. && Float.is_finite span then
          for k = 1 to count - 2 do
            let gap = (value sorted.(k + 1) -. value sorted.(k - 1)) /. span in
            distance.(sorted.(k)) <- distance.(sorted.(k)) +. gap
          done
      done;
      List.mapi (fun position i -> (i, distance.(position))) front

let pareto_front population = Array.of_list (List.filter (fun ind -> ind.rank = 0) (Array.to_list population))

type 'a config = {
  pop_size : int;
  generations : int;
  init : Rng.t -> 'a;
  objectives : 'a -> float array;
  vary : Rng.t -> 'a -> 'a -> 'a;
}

(* Rank the raw (genome, objectives) pairs and keep the best [target] of
   them, truncating the split front by crowding distance. *)
let environmental_selection genomes objectives target =
  let fronts = fast_nondominated_sort objectives in
  let selected = ref [] in
  let remaining = ref target in
  Array.iteri
    (fun rank front ->
      if !remaining > 0 then begin
        let scored = crowding_distances objectives front in
        let scored =
          if List.length scored <= !remaining then scored
          else begin
            let sorted =
              List.sort (fun (_, c1) (_, c2) -> Float.compare c2 c1) scored
            in
            List.filteri (fun k _ -> k < !remaining) sorted
          end
        in
        List.iter
          (fun (i, crowding) ->
            selected :=
              { genome = genomes.(i); objectives = objectives.(i); rank; crowding } :: !selected)
          scored;
        remaining := !remaining - List.length scored
      end)
    fronts;
  let population = Array.of_list (List.rev !selected) in
  Array.sort
    (fun a b ->
      if a.rank <> b.rank then Int.compare a.rank b.rank else Float.compare b.crowding a.crowding)
    population;
  population

let binary_tournament rng population =
  let pick () = population.(Rng.int rng (Array.length population)) in
  let a = pick () and b = pick () in
  if a.rank < b.rank then a
  else if b.rank < a.rank then b
  else if a.crowding > b.crowding then a
  else b

type 'a cache = {
  lookup : 'a -> float array option;
  store : 'a -> float array -> unit;
}

let run ?on_generation ?(executor = Executor.sequential) ?start ?cache ?prepare ~rng config =
  if config.pop_size < 2 then invalid_arg "Nsga2.run: pop_size must be at least 2";
  let evaluate genome = sanitize (config.objectives genome) in
  (* Objective evaluation is the dominant cost and is independent per
     genome, so it fans out across the executor; initialization,
     tournament selection and variation stay on the caller's RNG in
     sequential order, which keeps results bit-identical to the
     sequential path.

     With a cache, lookups and stores happen sequentially on the calling
     domain, in genome order, and only the missing genomes fan out — the
     cache never sees concurrent access from pool workers, and the result
     array is the same whether a value was cached or recomputed (the
     cache contract). *)
  let eval_indices genomes indices =
    match prepare with
    | None -> Executor.map executor (fun i -> evaluate genomes.(i)) indices
    | Some prepare ->
        (* Batched path: split the miss-batch into contiguous chunks — one
           per executor slot, doubled for load balance — and let each
           worker run [prepare] on its own chunk before evaluating it.
           [prepare] must be a pure throughput hint (fused cache warming):
           chunk boundaries vary with the jobs setting, so results must
           not depend on which genomes were prepared together.  Seq and
           process executors report one job, giving a single maximal
           batch. *)
        let total = Array.length indices in
        if total = 0 then [||]
        else begin
          let chunk_count = Stdlib.min total (Stdlib.max 1 (2 * Executor.jobs executor)) in
          let chunks =
            Array.init chunk_count (fun c ->
                let lo = c * total / chunk_count and hi = (c + 1) * total / chunk_count in
                Array.sub indices lo (hi - lo))
          in
          let results =
            Executor.map executor
              (fun chunk ->
                prepare (Array.map (fun i -> genomes.(i)) chunk);
                Array.map (fun i -> evaluate genomes.(i)) chunk)
              chunks
          in
          Array.concat (Array.to_list results)
        end
  in
  let evaluate_all genomes =
    match cache with
    | None -> (
        match prepare with
        | None -> Executor.map executor evaluate genomes
        | Some _ -> eval_indices genomes (Array.init (Array.length genomes) Fun.id))
    | Some cache ->
        let n = Array.length genomes in
        let results = Array.make n [||] in
        let missing = ref [] in
        for i = n - 1 downto 0 do
          match cache.lookup genomes.(i) with
          | Some objectives -> results.(i) <- sanitize objectives
          | None -> missing := i :: !missing
        done;
        let missing = Array.of_list !missing in
        let computed = eval_indices genomes missing in
        Array.iteri
          (fun k i ->
            results.(i) <- computed.(k);
            cache.store genomes.(i) computed.(k))
          missing;
        results
  in
  (* Resuming from a checkpointed (generation, population) skips
     initialization entirely: the caller's rng must hold the state captured
     right after that generation's environmental selection, so the next
     tournament draw continues the original stream. *)
  let population, first_gen =
    match start with
    | Some (gen0, resumed) ->
        if gen0 < 0 || gen0 > config.generations then
          invalid_arg "Nsga2.run: start generation out of range";
        if Array.length resumed <> config.pop_size then
          invalid_arg "Nsga2.run: start population size does not match pop_size";
        (ref resumed, gen0 + 1)
    | None ->
        let genomes = Array.init config.pop_size (fun _ -> config.init rng) in
        let objectives = evaluate_all genomes in
        let population = ref (environmental_selection genomes objectives config.pop_size) in
        (match on_generation with Some f -> f 0 !population | None -> ());
        (population, 1)
  in
  for gen = first_gen to config.generations do
    let parents = !population in
    let children =
      Array.init config.pop_size (fun _ ->
          let p1 = binary_tournament rng parents in
          let p2 = binary_tournament rng parents in
          config.vary rng p1.genome p2.genome)
    in
    let child_objectives = evaluate_all children in
    let merged_genomes = Array.append (Array.map (fun ind -> ind.genome) parents) children in
    let merged_objectives =
      Array.append (Array.map (fun (ind : _ individual) -> ind.objectives) parents) child_objectives
    in
    population := environmental_selection merged_genomes merged_objectives config.pop_size;
    match on_generation with Some f -> f gen !population | None -> ()
  done;
  !population
