(* wave_fit: large-N out-of-core regression.  Set-up runs a transient
   simulation of the nonlinear common-source amplifier deck under a seeded
   wideband stimulus and streams lagged vin/vout features row by row into
   two column stores: 2^17 training rows and a held-out tail.  Each pass
   then fits vout from the lags on the streamed training store (search,
   SAG) and scores the front on the tail store. *)

module Colstore = Caffeine_io.Colstore
module Config = Caffeine.Config
module Dataset = Caffeine_io.Dataset
module Netlist = Caffeine_spice.Netlist
module Rng = Caffeine_util.Rng
module Tran = Caffeine_spice.Tran

let k_tran = Spans.kind "sim.tran"
let k_pack = Spans.kind "colstore.pack"
let k_open = Spans.kind "colstore.open"

let deck_path = "examples/netlists/cs_amp.sp"
let train_rows = 1 lsl 17
let test_rows = 1 lsl 14
let lags = 4
let step = 10e-9

(* The CLI's default chunk size for packed stores. *)
let chunk_rows = 65536

let feature_names =
  Array.append
    (Array.init lags (Printf.sprintf "vin_l%d"))
    (Array.init lags (fun l -> Printf.sprintf "vout_l%d" (l + 1)))

let names = Array.append feature_names [| "vout" |]

(* A fit costs a streamed Gram pass and a prediction pass over 2^17 rows
   per candidate, so the search is small: one generation of a small
   population. *)
let pop_size = 12
let generations = 1

type inputs = {
  train : Colstore.t;
  test : Colstore.t;
  points : int;  (** solved time points, the operating point included *)
  dropped : int;  (** points before the first full lag window *)
  bytes : int;  (** both store files *)
}

let open_stores = ref []

(* Seeded stimulus: a slow sine of seeded phase for large-signal sweeps of
   the bias point plus uniform noise held for one step, around the deck's
   1.1 V DC input. *)
let stimulus ~seed ~steps =
  let rng = Rng.create ~seed () in
  let phase = Rng.range rng 0. (2. *. Float.pi) in
  let noise = Array.init (steps + 1) (fun _ -> Rng.range rng (-1.) 1.) in
  Array.mapi
    (fun k u ->
      1.1 +. (0.15 *. sin ((2. *. Float.pi *. float_of_int k /. 2048.) +. phase)) +. (0.1 *. u))
    noise

let setup ~seed () =
  List.iter Colstore.close !open_stores;
  open_stores := [];
  let deck =
    match Netlist.parse_file deck_path with
    | Ok deck -> deck
    | Error msg -> failwith (deck_path ^ ": " ^ msg)
  in
  let vin_node = Netlist.node deck "in" and vout_node = Netlist.node deck "out" in
  let steps = train_rows + test_rows + lags - 1 in
  let vin = stimulus ~seed ~steps in
  let source name time =
    if String.lowercase_ascii name = "vin" then
      Some vin.(Stdlib.min steps (int_of_float (Float.round (time /. step))))
    else None
  in
  let train_path = Util.out_path "wave_train.cafs" and test_path = Util.out_path "wave_test.cafs" in
  let writer path =
    Spans.span k_pack (fun () -> Colstore.Writer.create ~path ~var_names:names ~chunk_rows ())
  in
  let train_writer = writer train_path and test_writer = writer test_path in
  let ring = lags + 1 in
  let vin_hist = Array.make ring 0. and vout_hist = Array.make ring 0. in
  let row = Array.make (Array.length names) 0. in
  let rows = ref 0 and points = ref 0 in
  let on_step ~k ~time:_ voltages =
    incr points;
    let slot = k mod ring in
    vin_hist.(slot) <- voltages.(vin_node);
    vout_hist.(slot) <- voltages.(vout_node);
    if k >= lags then begin
      for l = 0 to lags - 1 do
        row.(l) <- vin_hist.((k - l) mod ring);
        row.(lags + l) <- vout_hist.((k - l - 1) mod ring)
      done;
      row.(2 * lags) <- vout_hist.(slot);
      let w = if !rows < train_rows then train_writer else test_writer in
      Spans.span k_pack (fun () -> Colstore.Writer.append_row w row);
      incr rows
    end
  in
  (match
     Spans.span k_tran (fun () ->
         Tran.simulate_stream ~stimulus:source ~circuit:deck.Netlist.circuit ~step
           ~duration:((float_of_int steps -. 0.5) *. step)
           ~on_step ())
   with
  | Ok (_ : int) -> ()
  | Error msg -> failwith ("transient: " ^ msg));
  Spans.span k_pack (fun () ->
      Colstore.Writer.close train_writer;
      Colstore.Writer.close test_writer);
  if !rows <> train_rows + test_rows then
    failwith (Printf.sprintf "transient gave %d rows, expected %d" !rows (train_rows + test_rows));
  let train = Spans.span k_open (fun () -> Colstore.openfile train_path) in
  let test = Spans.span k_open (fun () -> Colstore.openfile test_path) in
  open_stores := [ train; test ];
  let size path = (Unix.stat path).Unix.st_size in
  { train; test; points = !points; dropped = lags; bytes = size train_path + size test_path }

let target_index = Array.length feature_names

(* The run seed shapes the stimulus, hence the data.  The search seed is
   fixed: every pass does the same search, so a run's passes are repeated
   samples of one piece of work and every run searches alike. *)
let make_tasks inputs ~pass:_ =
  [|
    {
      Fits.seed = 7919;
      data = Dataset.of_colstore ~exclude:[ "vout" ] inputs.train;
      targets = Colstore.column inputs.train target_index;
      test_data = Dataset.of_colstore ~exclude:[ "vout" ] inputs.test;
      test_targets = Colstore.column inputs.test target_index;
    };
  |]

let train_matrix inputs =
  let columns = Array.init target_index (Colstore.column inputs.train) in
  Array.init train_rows (fun i -> Array.map (fun c -> c.(i)) columns)

let setup_layers inputs (t : Spans.totals) =
  [
    ("sim.tran_s", t.Spans.self_s.(k_tran));
    ("sim.points", float_of_int inputs.points);
    ("sim.dropped", float_of_int inputs.dropped);
    ("colstore.pack_s", t.Spans.self_s.(k_pack));
    ("colstore.bytes", float_of_int inputs.bytes);
    ("colstore.open_s", t.Spans.self_s.(k_open));
  ]

let spec ~seed ~jobs =
  {
    Fits.label = "wave_fit";
    settings =
      {
        Fits.config =
          Config.scaled ~pop_size ~generations ~jobs Config.paper;
        eval_cache = Caffeine.Eval_cache.Off;
      };
    setup_every = 2;
    lead_passes = 3;
    setup = setup ~seed;
    make_tasks;
    var_names = feature_names;
    train_rows = train_matrix;
    setup_layers;
  }
