(* The end-to-end benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (ota_fit, wave_fit or serve_mix) for about S measured
   seconds.  With --trace 0 it reports the end-to-end metrics; with
   --trace 1 it times every call into a layer and reports the per-layer
   metrics.  The last stdout line is the result (see Report). *)

let usage () =
  prerr_endline
    "usage: perfbench --workload ota_fit|wave_fit|serve_mix --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            seed := n;
            parse rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            seconds := n;
            parse rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = Caffeine_par.Pool.effective_jobs (Domain.recommended_domain_count ()) in
  let host = Util.host_start () in
  let traced = !trace = 1 in
  let fit spec =
    if traced then Fits.run_traced spec ~seconds:(float_of_int !seconds)
    else Fits.run_untraced spec ~seconds:(float_of_int !seconds)
  in
  let report =
    match !workload with
    | "ota_fit" -> fit (Ota_fit.spec ~seed:!seed ~seconds:!seconds ~jobs)
    | "wave_fit" -> fit (Wave_fit.spec ~seed:!seed ~jobs)
    | "serve_mix" ->
        let seconds = float_of_int !seconds in
        if traced then Serve_mix.run_traced ~seed:!seed ~seconds ~jobs
        else Serve_mix.run_untraced ~seed:!seed ~seconds ~jobs
    | _ -> usage ()
  in
  print_endline (Util.host_line host);
  Report.print report
