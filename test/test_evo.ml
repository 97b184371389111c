(* Tests for the generic NSGA-II engine: dominance, sorting, crowding, and
   full runs on analytic multi-objective problems. *)

module Nsga2 = Caffeine_evo.Nsga2
module Rng = Caffeine_util.Rng

let test_dominates_basic () =
  Alcotest.(check bool) "strictly better" true (Nsga2.dominates [| 1.; 1. |] [| 2.; 2. |]);
  Alcotest.(check bool) "better in one" true (Nsga2.dominates [| 1.; 2. |] [| 2.; 2. |]);
  Alcotest.(check bool) "equal does not dominate" false (Nsga2.dominates [| 1.; 1. |] [| 1.; 1. |]);
  Alcotest.(check bool) "tradeoff does not dominate" false (Nsga2.dominates [| 1.; 3. |] [| 2.; 2. |]);
  Alcotest.(check bool) "asymmetry" false (Nsga2.dominates [| 2.; 2. |] [| 1.; 1. |])

let test_fast_nondominated_sort_fronts () =
  let objectives = [| [| 1.; 4. |]; [| 2.; 3. |]; [| 3.; 2. |]; [| 2.; 4. |]; [| 4.; 4. |] |] in
  let fronts = Nsga2.fast_nondominated_sort objectives in
  (* Points 0,1,2 are mutually nondominated; 3 is dominated by 1; 4 by all. *)
  Alcotest.(check (list int)) "front 0" [ 0; 1; 2 ] (List.sort compare fronts.(0));
  Alcotest.(check (list int)) "front 1" [ 3 ] (List.sort compare fronts.(1));
  Alcotest.(check (list int)) "front 2" [ 4 ] (List.sort compare fronts.(2))

let test_sort_handles_duplicates () =
  let objectives = [| [| 1.; 1. |]; [| 1.; 1. |]; [| 2.; 2. |] |] in
  let fronts = Nsga2.fast_nondominated_sort objectives in
  Alcotest.(check (list int)) "duplicates share the front" [ 0; 1 ] (List.sort compare fronts.(0))

let test_sort_partitions_everything () =
  let rng = Rng.create ~seed:1 () in
  let objectives = Array.init 50 (fun _ -> [| Rng.uniform rng; Rng.uniform rng |]) in
  let fronts = Nsga2.fast_nondominated_sort objectives in
  let total = Array.fold_left (fun acc f -> acc + List.length f) 0 fronts in
  Alcotest.(check int) "every index in exactly one front" 50 total

let test_front_members_mutually_nondominated () =
  let rng = Rng.create ~seed:2 () in
  let objectives = Array.init 40 (fun _ -> [| Rng.uniform rng; Rng.uniform rng |]) in
  let fronts = Nsga2.fast_nondominated_sort objectives in
  Array.iter
    (fun front ->
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if p <> q then
                Alcotest.(check bool) "no intra-front domination" false
                  (Nsga2.dominates objectives.(p) objectives.(q)))
            front)
        front)
    fronts

let test_crowding_boundaries_infinite () =
  let objectives = [| [| 0.; 3. |]; [| 1.; 2. |]; [| 2.; 1. |]; [| 3.; 0. |] |] in
  let distances = Nsga2.crowding_distances objectives [ 0; 1; 2; 3 ] in
  let lookup i = List.assoc i distances in
  Alcotest.(check bool) "lower boundary infinite" true (lookup 0 = Float.infinity);
  Alcotest.(check bool) "upper boundary infinite" true (lookup 3 = Float.infinity);
  Alcotest.(check bool) "interior finite" true (Float.is_finite (lookup 1));
  Alcotest.(check bool) "interior finite" true (Float.is_finite (lookup 2))

let test_crowding_prefers_isolated_points () =
  (* Point 1 is much closer to point 0 than point 2 is to its neighbors. *)
  let objectives = [| [| 0.; 10. |]; [| 0.5; 9.5 |]; [| 5.; 5. |]; [| 10.; 0. |] |] in
  let distances = Nsga2.crowding_distances objectives [ 0; 1; 2; 3 ] in
  let lookup i = List.assoc i distances in
  Alcotest.(check bool) "isolated point more crowded-distance" true (lookup 2 > lookup 1)

let test_run_minimizes_sphere_tradeoff () =
  (* Classic Schaffer problem: f1 = x^2, f2 = (x-2)^2; the Pareto set is
     x in [0, 2]. *)
  let rng = Rng.create ~seed:3 () in
  let population =
    Nsga2.run ~rng
      {
        Nsga2.pop_size = 60;
        generations = 60;
        init = (fun rng -> Rng.range rng (-10.) 10.);
        objectives = (fun x -> [| x *. x; (x -. 2.) *. (x -. 2.) |]);
        vary =
          (fun rng a b ->
            let child = if Rng.bool rng then (a +. b) /. 2. else a in
            child +. Rng.gaussian ~sigma:0.3 rng);
      }
  in
  let front = Nsga2.pareto_front population in
  Alcotest.(check bool) "front populated" true (Array.length front > 10);
  Array.iter
    (fun ind ->
      Alcotest.(check bool) "pareto set near [0,2]" true
        (ind.Nsga2.genome > -0.5 && ind.Nsga2.genome < 2.5))
    front;
  (* The front should cover both ends of the tradeoff. *)
  let f1_values =
    Array.map (fun (ind : float Nsga2.individual) -> ind.Nsga2.objectives.(0)) front
  in
  let min_f1 = Array.fold_left Float.min Float.infinity f1_values in
  let max_f1 = Array.fold_left Float.max Float.neg_infinity f1_values in
  Alcotest.(check bool) "covers the spread" true (min_f1 < 0.3 && max_f1 > 2.0)

let test_run_handles_nan_objectives () =
  (* Genomes that evaluate to nan must be dominated away, not crash. *)
  let rng = Rng.create ~seed:4 () in
  let population =
    Nsga2.run ~rng
      {
        Nsga2.pop_size = 20;
        generations = 10;
        init = (fun rng -> Rng.range rng (-1.) 1.);
        objectives = (fun x -> if x < 0. then [| Float.nan; Float.nan |] else [| x; 1. -. x |]);
        vary = (fun rng a _ -> a +. Rng.gaussian ~sigma:0.2 rng);
      }
  in
  let front = Nsga2.pareto_front population in
  Array.iter
    (fun (ind : float Nsga2.individual) ->
      Alcotest.(check bool) "front has no nan genomes" true
        (Array.for_all Float.is_finite ind.Nsga2.objectives))
    front

let test_run_elitism_never_loses_best () =
  (* Track the best f1 over generations: with elitism it never worsens. *)
  let rng = Rng.create ~seed:5 () in
  let best_so_far = ref Float.infinity in
  let violated = ref false in
  let _ =
    Nsga2.run ~rng
      ~on_generation:(fun _ population ->
        let best =
          Array.fold_left
            (fun acc (ind : float Nsga2.individual) -> Float.min acc ind.Nsga2.objectives.(0))
            Float.infinity population
        in
        if best > !best_so_far +. 1e-12 then violated := true;
        best_so_far := Float.min !best_so_far best)
      {
        Nsga2.pop_size = 30;
        generations = 30;
        init = (fun rng -> Rng.range rng (-5.) 5.);
        objectives = (fun x -> [| Float.abs x; Float.abs (x -. 1.) |]);
        vary = (fun rng a _ -> a +. Rng.gaussian ~sigma:0.5 rng);
      }
  in
  Alcotest.(check bool) "monotone best objective" false !violated

let test_run_rejects_tiny_population () =
  Alcotest.(check bool) "pop_size 1 rejected" true
    (match
       Nsga2.run ~rng:(Rng.create ())
         {
           Nsga2.pop_size = 1;
           generations = 1;
           init = (fun _ -> 0.);
           objectives = (fun _ -> [| 0. |]);
           vary = (fun _ a _ -> a);
         }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_population_sorted_by_rank () =
  let rng = Rng.create ~seed:6 () in
  let population =
    Nsga2.run ~rng
      {
        Nsga2.pop_size = 40;
        generations = 15;
        init = (fun rng -> Rng.range rng (-3.) 3.);
        objectives = (fun x -> [| x *. x; (x -. 1.) *. (x -. 1.) |]);
        vary = (fun rng a _ -> a +. Rng.gaussian ~sigma:0.2 rng);
      }
  in
  let sorted = ref true in
  for i = 1 to Array.length population - 1 do
    if population.(i).Nsga2.rank < population.(i - 1).Nsga2.rank then sorted := false
  done;
  Alcotest.(check bool) "rank-sorted output" true !sorted

(* Deb's sort as it read while [dominates] was still compiled polymorphic.
   The member order of every front decides crowding ties and the unstable
   sort in environmental selection, so the monomorphic version must
   reproduce it exactly, not just the partition. *)
module Reference = struct
  let dominates a b =
    let n = Array.length a in
    assert (Array.length b = n);
    let no_worse = ref true and strictly_better = ref false in
    for i = 0 to n - 1 do
      if a.(i) > b.(i) then no_worse := false else if a.(i) < b.(i) then strictly_better := true
    done;
    !no_worse && !strictly_better

  let fast_nondominated_sort objectives =
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

  (* Crowding as it read with polymorphic [compare] and a [Hashtbl]. *)
  let crowding_distances objectives front =
    match front with
    | [] -> []
    | [ only ] -> [ (only, Float.infinity) ]
    | _ :: _ :: _ ->
        let members = Array.of_list front in
        let count = Array.length members in
        let distance = Hashtbl.create count in
        Array.iter (fun i -> Hashtbl.replace distance i 0.) members;
        let num_objectives = Array.length objectives.(members.(0)) in
        for m = 0 to num_objectives - 1 do
          let sorted = Array.copy members in
          Array.sort (fun a b -> compare objectives.(a).(m) objectives.(b).(m)) sorted;
          let lo = objectives.(sorted.(0)).(m) in
          let hi = objectives.(sorted.(count - 1)).(m) in
          Hashtbl.replace distance sorted.(0) Float.infinity;
          Hashtbl.replace distance sorted.(count - 1) Float.infinity;
          let span = hi -. lo in
          if span > 0. && Float.is_finite span then
            for k = 1 to count - 2 do
              let gap =
                (objectives.(sorted.(k + 1)).(m) -. objectives.(sorted.(k - 1)).(m)) /. span
              in
              let previous = Hashtbl.find distance sorted.(k) in
              Hashtbl.replace distance sorted.(k) (previous +. gap)
            done
        done;
        List.map (fun i -> (i, Hashtbl.find distance i)) front
end

(* Objective sets heavy in ties: values from a small pool (duplicates are
   the norm), with infinities, as invalid candidates produce. *)
let tie_heavy_objectives rng ~n ~m =
  let pool = [| 0.; 1.; 1.; 2.; 3.; 0.5; Float.infinity; Float.infinity; Float.neg_infinity; Float.nan |] in
  Array.init n (fun _ -> Array.init m (fun _ -> pool.(Rng.int rng (Array.length pool))))

(* NaN-free two-objective sets, the shape [Nsga2.run] always sorts, in
   three kinds: shape 0 draws from a small pool with both infinities and
   both zeros (ties everywhere); shape 1 pairs a continuous error, +inf one
   time in eight, with an integer complexity, as the search does; shape 2
   scatters points near the anti-diagonal, so fronts are few and wide. *)
let two_objective_set rng ~n ~shape =
  let pool =
    [| 0.; -0.; 1.; 1.; 2.; 3.; 0.5; Float.infinity; Float.infinity; Float.neg_infinity |]
  in
  Array.init n (fun _ ->
      match shape with
      | 0 -> Array.init 2 (fun _ -> pool.(Rng.int rng (Array.length pool)))
      | 1 ->
          let error = if Rng.int rng 8 = 0 then Float.infinity else Rng.uniform rng in
          [| error; float_of_int (1 + Rng.int rng 40) |]
      | _ ->
          let x = Rng.uniform rng in
          [| x; 1. -. x +. (0.05 *. Rng.uniform rng) |])

let property_tests =
  [
    QCheck.Test.make ~name:"sort partitions all indices" ~count:50
      QCheck.(pair small_int (int_range 2 60))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let objectives = Array.init n (fun _ -> [| Rng.uniform rng; Rng.uniform rng |]) in
        let fronts = Nsga2.fast_nondominated_sort objectives in
        Array.fold_left (fun acc f -> acc + List.length f) 0 fronts = n);
    QCheck.Test.make ~name:"front 0 is never dominated" ~count:50
      QCheck.(pair small_int (int_range 2 40))
      (fun (seed, n) ->
        let rng = Rng.create ~seed () in
        let objectives = Array.init n (fun _ -> [| Rng.uniform rng; Rng.uniform rng |]) in
        let fronts = Nsga2.fast_nondominated_sort objectives in
        List.for_all
          (fun p ->
            Array.for_all (fun other -> not (Nsga2.dominates other objectives.(p)))
              objectives)
          fronts.(0));
    QCheck.Test.make ~name:"reference: fronts identical to Deb's sort, members in order"
      ~count:500
      QCheck.(triple small_int (int_range 0 80) (int_range 1 3))
      (fun (seed, n, m) ->
        let rng = Rng.create ~seed () in
        let objectives = tie_heavy_objectives rng ~n ~m in
        Nsga2.fast_nondominated_sort objectives = Reference.fast_nondominated_sort objectives
        && Array.for_all
             (fun a ->
               Array.for_all
                 (fun b -> Nsga2.dominates a b = Reference.dominates a b)
                 objectives)
             objectives);
    QCheck.Test.make ~name:"two-objective sweep: fronts and member order identical to Deb's"
      ~count:300
      QCheck.(triple small_int (int_range 0 400) (int_range 0 2))
      (fun (seed, n, shape) ->
        let rng = Rng.create ~seed () in
        let objectives = two_objective_set rng ~n ~shape in
        Nsga2.fast_nondominated_sort objectives = Reference.fast_nondominated_sort objectives);
    QCheck.Test.make ~name:"crowding: values and order identical to the polymorphic reference"
      ~count:300
      QCheck.(triple small_int (int_range 0 120) (int_range 0 3))
      (fun (seed, n, shape) ->
        let rng = Rng.create ~seed () in
        (* Sanitized as [Nsga2.run] sanitizes: NaN becomes +inf. *)
        let objectives =
          if shape = 3 then
            Array.map
              (Array.map (fun v -> if Float.is_nan v then Float.infinity else v))
              (tie_heavy_objectives rng ~n ~m:(1 + Rng.int rng 3))
          else two_objective_set rng ~n ~shape
        in
        let same (i, a) (j, b) = i = j && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        let shuffled = Array.init n Fun.id in
        Rng.shuffle_in_place rng shuffled;
        List.for_all
          (fun front ->
            List.equal same
              (Nsga2.crowding_distances objectives front)
              (Reference.crowding_distances objectives front))
          (Array.to_list shuffled :: Array.to_list (Nsga2.fast_nondominated_sort objectives)));
  ]

let suite =
  [
    Alcotest.test_case "dominance" `Quick test_dominates_basic;
    Alcotest.test_case "nondominated sort: fronts" `Quick test_fast_nondominated_sort_fronts;
    Alcotest.test_case "nondominated sort: duplicates" `Quick test_sort_handles_duplicates;
    Alcotest.test_case "nondominated sort: partition" `Quick test_sort_partitions_everything;
    Alcotest.test_case "fronts are internally nondominated" `Quick test_front_members_mutually_nondominated;
    Alcotest.test_case "crowding: boundaries" `Quick test_crowding_boundaries_infinite;
    Alcotest.test_case "crowding: isolation" `Quick test_crowding_prefers_isolated_points;
    Alcotest.test_case "run: schaffer tradeoff" `Quick test_run_minimizes_sphere_tradeoff;
    Alcotest.test_case "run: nan objectives" `Quick test_run_handles_nan_objectives;
    Alcotest.test_case "run: elitism" `Quick test_run_elitism_never_loses_best;
    Alcotest.test_case "run: tiny population rejected" `Quick test_run_rejects_tiny_population;
    Alcotest.test_case "run: output rank-sorted" `Quick test_population_sorted_by_rank;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests

(* --- single-objective GA --- *)

module Ga = Caffeine_evo.Ga

let sphere x = x *. x

let test_ga_minimizes_sphere () =
  let rng = Rng.create ~seed:10 () in
  let population =
    Ga.run ~rng
      {
        Ga.pop_size = 40;
        generations = 60;
        elite = 2;
        tournament = 3;
        init = (fun rng -> Rng.range rng (-10.) 10.);
        fitness = sphere;
        vary =
          (fun rng a b ->
            let child = (a +. b) /. 2. in
            child +. Rng.gaussian ~sigma:0.2 rng);
      }
  in
  let champion = Ga.best population in
  Alcotest.(check bool) "near zero" true (Float.abs champion.Ga.genome < 0.2)

let test_ga_elitism_monotone () =
  let rng = Rng.create ~seed:11 () in
  let best_so_far = ref Float.infinity in
  let violated = ref false in
  let _ =
    Ga.run ~rng
      ~on_generation:(fun _ ~best ->
        if best.Ga.fitness > !best_so_far +. 1e-12 then violated := true;
        best_so_far := Float.min !best_so_far best.Ga.fitness)
      {
        Ga.pop_size = 20;
        generations = 30;
        elite = 1;
        tournament = 2;
        init = (fun rng -> Rng.range rng (-5.) 5.);
        fitness = (fun x -> Float.abs (x -. 3.));
        vary = (fun rng a _ -> a +. Rng.gaussian ~sigma:0.5 rng);
      }
  in
  Alcotest.(check bool) "best fitness never worsens" false !violated

let test_ga_handles_nan_fitness () =
  let rng = Rng.create ~seed:12 () in
  let population =
    Ga.run ~rng
      {
        Ga.pop_size = 16;
        generations = 10;
        elite = 1;
        tournament = 2;
        init = (fun rng -> Rng.range rng (-1.) 1.);
        fitness = (fun x -> if x < 0. then Float.nan else x);
        vary = (fun rng a _ -> a +. Rng.gaussian ~sigma:0.3 rng);
      }
  in
  let champion = Ga.best population in
  Alcotest.(check bool) "best has finite fitness" true (Float.is_finite champion.Ga.fitness)

let test_ga_config_validation () =
  let bad config =
    match Ga.run ~rng:(Rng.create ()) config with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let base =
    {
      Ga.pop_size = 10;
      generations = 1;
      elite = 1;
      tournament = 2;
      init = (fun _ -> 0.);
      fitness = (fun x -> x);
      vary = (fun _ a _ -> a);
    }
  in
  Alcotest.(check bool) "tiny population" true (bad { base with Ga.pop_size = 1 });
  Alcotest.(check bool) "elite too large" true (bad { base with Ga.elite = 10 });
  Alcotest.(check bool) "zero tournament" true (bad { base with Ga.tournament = 0 })

let test_ga_sorted_output () =
  let rng = Rng.create ~seed:13 () in
  let population =
    Ga.run ~rng
      {
        Ga.pop_size = 25;
        generations = 5;
        elite = 0;
        tournament = 2;
        init = (fun rng -> Rng.range rng (-3.) 3.);
        fitness = sphere;
        vary = (fun rng a _ -> a +. Rng.gaussian ~sigma:0.5 rng);
      }
  in
  let sorted = ref true in
  for i = 1 to Array.length population - 1 do
    if population.(i).Ga.fitness < population.(i - 1).Ga.fitness then sorted := false
  done;
  Alcotest.(check bool) "fitness-sorted" true !sorted

let ga_suite =
  [
    Alcotest.test_case "ga: minimizes sphere" `Quick test_ga_minimizes_sphere;
    Alcotest.test_case "ga: elitism monotone" `Quick test_ga_elitism_monotone;
    Alcotest.test_case "ga: nan fitness" `Quick test_ga_handles_nan_fitness;
    Alcotest.test_case "ga: config validation" `Quick test_ga_config_validation;
    Alcotest.test_case "ga: sorted output" `Quick test_ga_sorted_output;
  ]

let suite = suite @ ga_suite
