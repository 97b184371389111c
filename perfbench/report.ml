(* What one invocation reports.  The last stdout line is
   [RESULT {...}] with the operation counts and the metric values by name;
   run.py checks the names against BENCHMARK.json and adds the units. *)

type t = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named correctness checks *)
  metrics : (string * float) list;
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg (Printf.sprintf "Report: non-finite metric value %g" v)

let print r =
  List.iter
    (fun (name, ok) -> Printf.printf "check %-36s %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  let correct = r.failed = 0 && List.for_all snd r.checks in
  let metrics =
    String.concat ", "
      (List.map (fun (name, v) -> Printf.sprintf "%S: %s" name (json_float v)) r.metrics)
  in
  Printf.printf "RESULT {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed metrics
