(* ota_fit: the paper's experiment.  The 243-point training DOE (dx 0.10)
   and test DOE (dx 0.03) of the 13-variable OTA are simulated at set-up;
   each pass then fits all six performances at the paper's population
   (search, SAG, test scoring) and writes one front file. *)

module Ota = Caffeine_ota.Ota
module Config = Caffeine.Config
module Dataset = Caffeine_io.Dataset

let k_doe = Spans.kind "sim.doe"

(* Generations per run-second of budget: a run holds a dozen or more
   passes. *)
let generations ~seconds = Stdlib.max 2 (seconds / 3)

type inputs = {
  train : Ota.dataset;
  test : Ota.dataset;
}

let doe_runs = 243

let dataset (d : Ota.dataset) = Dataset.of_rows ~var_names:Ota.var_names d.Ota.inputs

let setup () =
  let train = Spans.span k_doe (fun () -> Ota.doe_dataset ~dx:0.10) in
  let test = Spans.span k_doe (fun () -> Ota.doe_dataset ~dx:0.03) in
  ignore (Spans.span Fits.k_dataset (fun () -> (dataset train, dataset test)));
  { train; test }

(* The seed only picks the search seeds, one per performance and pass: the
   DOEs are the paper's fixed plans. *)
let make_tasks ~seed inputs ~pass =
  Array.of_list
    (List.mapi
       (fun i p ->
         let target d = Array.map (Ota.modeling_target p) (Ota.targets d p) in
         {
           Fits.seed = (seed * 4096) + (pass * 8) + i;
           data = dataset inputs.train;
           targets = target inputs.train;
           test_data = dataset inputs.test;
           test_targets = target inputs.test;
         })
       Ota.all_performances)

let setup_layers inputs (t : Spans.totals) =
  let kept = Array.length inputs.train.Ota.inputs + Array.length inputs.test.Ota.inputs in
  [
    ("sim.doe_s", t.Spans.self_s.(k_doe));
    ("sim.points", float_of_int (2 * doe_runs));
    ("sim.dropped", float_of_int ((2 * doe_runs) - kept));
  ]

let spec ~seed ~seconds ~jobs =
  {
    Fits.label = "ota_fit";
    settings =
      {
        Fits.config =
          Config.scaled ~pop_size:200 ~generations:(generations ~seconds) ~jobs Config.paper;
        eval_cache = Caffeine.Eval_cache.Exact;
      };
    setup_every = 2;
    lead_passes = 4;
    setup;
    make_tasks = make_tasks ~seed;
    var_names = Ota.var_names;
    train_rows = (fun inputs -> inputs.train.Ota.inputs);
    setup_layers;
  }
