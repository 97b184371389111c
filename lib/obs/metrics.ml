(* Registration is mutex-protected (cold: once per metric name, normally at
   module or pool initialization on the main domain); every operation on a
   registered handle is a single Atomic read-modify-write, so updates from
   pool worker domains need no locks and lose no counts.  Gauges hold a
   boxed float behind an Atomic reference: [set_gauge] publishes a fresh
   box, which the OCaml 5 memory model makes safe for concurrent readers
   (last write wins, no torn values). *)

type counter = int Atomic.t
type gauge = float Atomic.t

type timer = {
  spans : int Atomic.t;
  total_ns : int Atomic.t;
}

type histogram = {
  bounds : float array;  (* strictly increasing, upper-inclusive *)
  counts : int Atomic.t array;  (* length (Array.length bounds) + 1: last = overflow *)
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_timer of timer
  | M_histogram of histogram

type t = {
  mutex : Mutex.t;
  table : (string, metric) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); table = Hashtbl.create 32 }
let default = create ()

let register registry name make check =
  Mutex.lock registry.mutex;
  let metric =
    match Hashtbl.find_opt registry.table name with
    | Some existing -> (
        match check existing with
        | Some handle -> handle
        | None ->
            Mutex.unlock registry.mutex;
            invalid_arg
              (Printf.sprintf "Metrics: %S is already registered as a different metric kind" name))
    | None ->
        let handle = make () in
        Hashtbl.replace registry.table name handle;
        handle
  in
  Mutex.unlock registry.mutex;
  metric

let counter registry name =
  match
    register registry name
      (fun () -> M_counter (Atomic.make 0))
      (function M_counter _ as m -> Some m | _ -> None)
  with
  | M_counter c -> c
  | _ -> assert false

let incr counter = ignore (Atomic.fetch_and_add counter 1)
let add counter n = ignore (Atomic.fetch_and_add counter n)
let counter_value = Atomic.get

let gauge registry name =
  match
    register registry name
      (fun () -> M_gauge (Atomic.make 0.))
      (function M_gauge _ as m -> Some m | _ -> None)
  with
  | M_gauge g -> g
  | _ -> assert false

let set_gauge gauge value = Atomic.set gauge value
let gauge_value = Atomic.get

let timer registry name =
  match
    register registry name
      (fun () -> M_timer { spans = Atomic.make 0; total_ns = Atomic.make 0 })
      (function M_timer _ as m -> Some m | _ -> None)
  with
  | M_timer t -> t
  | _ -> assert false

let now_ns () = Monotonic_clock.now ()

let record_span timer ~start_ns ~stop_ns =
  let elapsed = Int64.to_int (Int64.sub stop_ns start_ns) in
  ignore (Atomic.fetch_and_add timer.spans 1);
  ignore (Atomic.fetch_and_add timer.total_ns (Stdlib.max 0 elapsed))

let time timer f =
  let start_ns = now_ns () in
  Fun.protect ~finally:(fun () -> record_span timer ~start_ns ~stop_ns:(now_ns ())) f

let timer_count timer = Atomic.get timer.spans
let timer_total_ns timer = Atomic.get timer.total_ns

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: no buckets";
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done

let histogram registry ~buckets name =
  check_bounds buckets;
  match
    register registry name
      (fun () ->
        M_histogram
          {
            bounds = Array.copy buckets;
            counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          })
      (function
        | M_histogram h as m -> if h.bounds = buckets then Some m else None | _ -> None)
  with
  | M_histogram h -> h
  | _ -> assert false

(* First bucket whose (upper-inclusive) bound admits [v]; NaN and anything
   above the last bound land in the overflow bucket. *)
let bucket_index bounds v =
  let k = Array.length bounds in
  if Float.is_nan v then k
  else begin
    (* Binary search for the smallest i with v <= bounds.(i). *)
    let lo = ref 0 and hi = ref k in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe histogram v =
  ignore (Atomic.fetch_and_add histogram.counts.(bucket_index histogram.bounds v) 1)

let bucket_bounds histogram = Array.copy histogram.bounds
let bucket_counts histogram = Array.map Atomic.get histogram.counts

type value =
  | Counter of int
  | Gauge of float
  | Timer of { count : int; total_ns : int }
  | Histogram of { bounds : float array; counts : int array }

let snapshot registry =
  Mutex.lock registry.mutex;
  let entries =
    Hashtbl.fold
      (fun name metric acc ->
        let value =
          match metric with
          | M_counter c -> Counter (Atomic.get c)
          | M_gauge g -> Gauge (Atomic.get g)
          | M_timer t -> Timer { count = Atomic.get t.spans; total_ns = Atomic.get t.total_ns }
          | M_histogram h ->
              Histogram { bounds = Array.copy h.bounds; counts = Array.map Atomic.get h.counts }
        in
        (name, value) :: acc)
      registry.table []
  in
  Mutex.unlock registry.mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let reset registry =
  Mutex.lock registry.mutex;
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | M_counter c -> Atomic.set c 0
      | M_gauge g -> Atomic.set g 0.
      | M_timer t ->
          Atomic.set t.spans 0;
          Atomic.set t.total_ns 0
      | M_histogram h -> Array.iter (fun c -> Atomic.set c 0) h.counts)
    registry.table;
  Mutex.unlock registry.mutex

let render entries =
  let buffer = Buffer.create 512 in
  List.iter
    (fun (name, value) ->
      let line =
        match value with
        | Counter n -> Printf.sprintf "%-36s %d" name n
        | Gauge v ->
            (* A gauge holding a count (the dataset cache gauges) prints
               every digit, as a counter does. *)
            if Float.is_integer v && Float.abs v < 0x1p53 then Printf.sprintf "%-36s %.0f" name v
            else Printf.sprintf "%-36s %g" name v
        | Timer { count; total_ns } ->
            let total_s = float_of_int total_ns /. 1e9 in
            let mean_us =
              if count = 0 then 0. else float_of_int total_ns /. float_of_int count /. 1e3
            in
            Printf.sprintf "%-36s %d spans, %.3f s total, %.1f us mean" name count total_s mean_us
        | Histogram { bounds; counts } ->
            let cells =
              Array.to_list
                (Array.mapi
                   (fun i count ->
                     if i < Array.length bounds then Printf.sprintf "<=%g:%d" bounds.(i) count
                     else Printf.sprintf ">%g:%d" bounds.(Array.length bounds - 1) count)
                   counts)
            in
            Printf.sprintf "%-36s %s" name (String.concat " " cells)
      in
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n')
    entries;
  Buffer.contents buffer
