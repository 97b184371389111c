type integration =
  | Backward_euler
  | Trapezoidal

type waveform = {
  times : float array;
  voltages : float array array;
}

let node_waveform w node = Array.map (fun row -> row.(node)) w.voltages

let simulate_stream ?(integration = Trapezoidal) ?stimulus ?initial ~circuit ~step ~duration
    ~on_step () =
  if step <= 0. || duration <= 0. then invalid_arg "Tran.simulate: step and duration must be positive";
  let system = Dc.compile circuit in
  let n = Circuit.num_nodes circuit in
  let elements = Circuit.elements circuit in
  let names, dc_values =
    List.split
      (List.filter_map
         (function
           | Circuit.Vsource { name; dc; _ } -> Some (name, dc)
           | Circuit.Resistor _ | Circuit.Capacitor _ | Circuit.Isource _ | Circuit.Vccs _
           | Circuit.Mosfet _ -> None)
         elements)
  in
  let names = Array.of_list names and dc_values = Array.of_list dc_values in
  let sources = Array.copy dc_values in
  (* Each source's value at [time]: the stimulus's, or its DC value. *)
  let drive time =
    match stimulus with
    | None -> ()
    | Some f ->
        for k = 0 to Array.length names - 1 do
          sources.(k) <- (match f names.(k) time with Some v -> v | None -> dc_values.(k))
        done
  in
  let operating_point =
    match initial with
    | Some solution -> Ok (Array.copy solution.Dc.voltages)
    | None -> (
        drive 0.;
        let voltages = Array.make (n + 1) 0. in
        match Dc.newton system ~sources ~start:(Array.make (n + 1) 0.) ~voltages with
        | Ok (_ : int) -> Ok voltages
        | Error _ as e -> e)
  in
  match operating_point with
  | Error msg -> Error ("transient: no operating point: " ^ msg)
  | Ok first ->
      let caps =
        Array.of_list
          (List.filter_map
             (function
               | Circuit.Capacitor { n1; n2; farads; _ } -> Some (n1, n2, farads)
               | Circuit.Resistor _ | Circuit.Vsource _ | Circuit.Isource _ | Circuit.Vccs _
               | Circuit.Mosfet _ -> None)
             elements)
      in
      let n1 = Array.map (fun (a, _, _) -> a) caps and n2 = Array.map (fun (_, b, _) -> b) caps in
      (* Companion conductances: backward Euler's and the trapezoidal rule's. *)
      let euler = Array.map (fun (_, _, farads) -> farads /. step) caps in
      let trapezoid = Array.map (fun (_, _, farads) -> 2. *. farads /. step) caps in
      let count = Array.length caps in
      let companions = { Dc.conductance = Array.make count 0.; current = Array.make count 0. } in
      let num_steps = int_of_float (ceil (duration /. step)) in
      on_step ~k:0 ~time:0. first;
      (* Per-capacitor branch current, needed by the trapezoidal companion;
         zero at the operating point. *)
      let cap_currents = Array.make count 0. in
      let failed = ref None in
      (* Two voltage buffers, the previous step's and the one being
         solved, swapped after every step: [on_step] may not keep its
         array. *)
      let previous = ref first and spare = ref (Array.make (n + 1) 0.) in
      let k = ref 1 in
      while !failed = None && !k <= num_steps do
        let prev = !previous and fresh = !spare in
        (* The very first step always uses backward Euler (standard SPICE
           practice after a breakpoint): it needs no capacitor-current
           history, which is unknown or discontinuous at t = 0. *)
        let trapezoidal = !k > 1 && integration = Trapezoidal in
        (* A caller's [initial] of the wrong width fails here, before the
           companions read it, as {!Dc.newton} would fail on it. *)
        if Array.length prev <> n + 1 then
          invalid_arg "Dc.solve: initial must have num_nodes + 1 entries";
        for c = 0 to count - 1 do
          let v_prev = prev.(n1.(c)) -. prev.(n2.(c)) in
          if trapezoidal then begin
            let geq = trapezoid.(c) in
            companions.conductance.(c) <- geq;
            companions.current.(c) <- (geq *. v_prev) +. cap_currents.(c)
          end
          else begin
            let geq = euler.(c) in
            companions.conductance.(c) <- geq;
            companions.current.(c) <- geq *. v_prev
          end
        done;
        let time = float_of_int !k *. step in
        drive time;
        match Dc.newton ~companions system ~sources ~start:prev ~voltages:fresh with
        | Error msg -> failed := Some (Printf.sprintf "t = %g s: %s" time msg)
        | Ok (_ : int) ->
            for c = 0 to count - 1 do
              let v_new = fresh.(n1.(c)) -. fresh.(n2.(c)) in
              let v_prev = prev.(n1.(c)) -. prev.(n2.(c)) in
              cap_currents.(c) <-
                (if trapezoidal then (trapezoid.(c) *. (v_new -. v_prev)) -. cap_currents.(c)
                 else euler.(c) *. (v_new -. v_prev))
            done;
            on_step ~k:!k ~time fresh;
            previous := fresh;
            spare := prev;
            incr k
      done;
      (match !failed with Some msg -> Error msg | None -> Ok num_steps)

let simulate ?integration ?stimulus ?initial ~circuit ~step ~duration () =
  if step <= 0. || duration <= 0. then invalid_arg "Tran.simulate: step and duration must be positive";
  let num_steps = int_of_float (ceil (duration /. step)) in
  let times = Array.init (num_steps + 1) (fun k -> float_of_int k *. step) in
  let rows = Array.make (num_steps + 1) [||] in
  match
    simulate_stream ?integration ?stimulus ?initial ~circuit ~step ~duration
      ~on_step:(fun ~k ~time:_ voltages -> rows.(k) <- Array.copy voltages)
      ()
  with
  | Error _ as e -> e
  | Ok (_ : int) -> Ok { times; voltages = rows }

let slew_rates waveform ~node =
  let trace = node_waveform waveform node in
  let n = Array.length trace in
  if n < 2 then invalid_arg "Tran.slew_rates: need at least two time points";
  let rising = ref Float.neg_infinity and falling = ref Float.infinity in
  for k = 1 to n - 1 do
    let dt = waveform.times.(k) -. waveform.times.(k - 1) in
    if dt > 0. then begin
      let rate = (trace.(k) -. trace.(k - 1)) /. dt in
      rising := Float.max !rising rate;
      falling := Float.min !falling rate
    end
  done;
  (!rising, !falling)

let settling_time waveform ~node ~target ~tolerance =
  let trace = node_waveform waveform node in
  let n = Array.length trace in
  let rec last_violation k best =
    if k < 0 then best
    else if Float.abs (trace.(k) -. target) > tolerance then k
    else last_violation (k - 1) best
  in
  let violation = last_violation (n - 1) (-1) in
  if violation < 0 then Some waveform.times.(0)
  else if violation = n - 1 then None
  else Some waveform.times.(violation + 1)
