(* Reference properties for the simulator's compiled kernels.

   The complex solver, the AC sweep with its per-frequency stamp builder,
   the DC Newton solve with its per-iteration stamp builder and the
   transient loop, as they read before the simulator moved onto compiled
   plans and preallocated, unboxed systems.  They are kept verbatim (boxed
   [Complex] arithmetic, a fresh matrix stamped from the element list at
   every frequency and every Newton iteration) so the properties below can
   pin the compiled kernels to them word for word.  The real LU solve they
   factor with is [Test_linalg.Reference.lu_solve], the verbatim copy that
   pins [Decomp.lu_solve].  Finite words must be equal bit for bit, a NaN
   must meet a NaN (no output encodes NaN payloads), and iteration counts,
   exceptions and error texts must be equal. *)

module Cmatrix = Caffeine_linalg.Cmatrix
module Decomp = Caffeine_linalg.Decomp
module Matrix = Caffeine_linalg.Matrix
module Circuit = Caffeine_spice.Circuit
module Mos = Caffeine_spice.Mos
module Dc = Caffeine_spice.Dc
module Ac = Caffeine_spice.Ac
module Tran = Caffeine_spice.Tran
module Netlist = Caffeine_spice.Netlist
module Ota = Caffeine_ota.Ota
module Doe = Caffeine_doe.Doe
module Rng = Caffeine_util.Rng

module Reference = struct
  module Cmatrix = struct
    type t = { rows : int; cols : int; data : Complex.t array }

    let create rows cols =
      if rows <= 0 || cols <= 0 then invalid_arg "Cmatrix.create: dimensions must be positive";
      { rows; cols; data = Array.make (rows * cols) Complex.zero }

    let rows m = m.rows
    let cols m = m.cols

    let check_bounds m i j =
      if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Cmatrix: index out of bounds"

    let get m i j =
      check_bounds m i j;
      m.data.((i * m.cols) + j)

    let set m i j z =
      check_bounds m i j;
      m.data.((i * m.cols) + j) <- z

    let add_entry m i j z = set m i j (Complex.add (get m i j) z)

    let copy m = { m with data = Array.copy m.data }

    let mul_vec m v =
      if m.cols <> Array.length v then invalid_arg "Cmatrix.mul_vec: dimension mismatch";
      Array.init m.rows (fun i ->
          let acc = ref Complex.zero in
          for j = 0 to m.cols - 1 do
            acc := Complex.add !acc (Complex.mul m.data.((i * m.cols) + j) v.(j))
          done;
          !acc)

    let solve m b =
      let n = m.rows in
      if m.cols <> n || Array.length b <> n then invalid_arg "Cmatrix.solve: dimension mismatch";
      let work = copy m in
      let rhs = Array.copy b in
      for k = 0 to n - 1 do
        let best = ref k in
        for i = k + 1 to n - 1 do
          if Complex.norm (get work i k) > Complex.norm (get work !best k) then best := i
        done;
        if !best <> k then begin
          for j = 0 to n - 1 do
            let tmp = get work k j in
            set work k j (get work !best j);
            set work !best j tmp
          done;
          let tmp = rhs.(k) in
          rhs.(k) <- rhs.(!best);
          rhs.(!best) <- tmp
        end;
        let pivot = get work k k in
        if Complex.norm pivot < 1e-300 then raise Decomp.Singular;
        for i = k + 1 to n - 1 do
          let factor = Complex.div (get work i k) pivot in
          if Complex.norm factor > 0. then begin
            for j = k to n - 1 do
              set work i j (Complex.sub (get work i j) (Complex.mul factor (get work k j)))
            done;
            rhs.(i) <- Complex.sub rhs.(i) (Complex.mul factor rhs.(k))
          end
        done
      done;
      let x = Array.make n Complex.zero in
      for i = n - 1 downto 0 do
        let acc = ref rhs.(i) in
        for j = i + 1 to n - 1 do
          acc := Complex.sub !acc (Complex.mul (get work i j) x.(j))
        done;
        x.(i) <- Complex.div !acc (get work i i)
      done;
      x
  end

  module Dc = struct
    type mos_bias = Dc.mos_bias = {
      name : string;
      vgs : float;
      vds : float;
      vbs : float;
      op : Mos.operating_point;
    }

    type solution = Dc.solution = {
      voltages : float array;
      branch_currents : (string * float) list;
      iterations : int;
      mos_biases : mos_bias list;
    }

    let mos_bias sol name = List.find (fun b -> b.name = name) sol.mos_biases

    let stamp_system ?vsource_value ?extra_stamp circuit x =
      let n = Circuit.num_nodes circuit in
      let sources = Circuit.vsource_names circuit in
      let m = List.length sources in
      let size = n + m in
      let g = Matrix.create (max size 1) (max size 1) in
      let b = Array.make (max size 1) 0. in
      let voltage node = if node = 0 then 0. else x.(node - 1) in
      let add_g row col value =
        if row > 0 && col > 0 then Matrix.set g (row - 1) (col - 1) (Matrix.get g (row - 1) (col - 1) +. value)
      in
      let add_branch_g row branch value =
        (* [branch] indexes rows/columns past the node block; always present. *)
        if row > 0 then begin
          Matrix.set g (row - 1) (n + branch) (Matrix.get g (row - 1) (n + branch) +. value);
          Matrix.set g (n + branch) (row - 1) (Matrix.get g (n + branch) (row - 1) +. value)
        end
      in
      let add_b row value = if row > 0 then b.(row - 1) <- b.(row - 1) +. value in
      let branch = ref 0 in
      List.iter
        (fun element ->
          match element with
          | Circuit.Resistor { n1; n2; ohms; _ } ->
              let conductance = 1. /. ohms in
              add_g n1 n1 conductance;
              add_g n2 n2 conductance;
              add_g n1 n2 (-.conductance);
              add_g n2 n1 (-.conductance)
          | Circuit.Capacitor _ -> ()
          | Circuit.Vsource { name; pos; neg; dc; _ } ->
              add_branch_g pos !branch 1.;
              add_branch_g neg !branch (-1.);
              let value =
                match vsource_value with
                | None -> dc
                | Some override -> ( match override name with Some v -> v | None -> dc)
              in
              b.(n + !branch) <- value;
              incr branch
          | Circuit.Isource { from_node; to_node; amps; _ } ->
              add_b from_node (-.amps);
              add_b to_node amps
          | Circuit.Vccs { out_pos; out_neg; in_pos; in_neg; gm; _ } ->
              add_g out_pos in_pos gm;
              add_g out_pos in_neg (-.gm);
              add_g out_neg in_pos (-.gm);
              add_g out_neg in_neg gm
          | Circuit.Mosfet { drain; gate; source; bulk; params; w; l; _ } ->
              let vgs = voltage gate -. voltage source in
              let vds = voltage drain -. voltage source in
              let vbs = voltage bulk -. voltage source in
              let op = Mos.evaluate params ~w ~l ~vgs ~vds ~vbs in
              (* Companion model: I_d(v) ≈ ids + gm Δvgs + gds Δvds + gmb Δvbs. *)
              add_g drain gate op.gm;
              add_g drain drain op.gds;
              add_g drain bulk op.gmb;
              add_g drain source (-.(op.gm +. op.gds +. op.gmb));
              add_g source gate (-.op.gm);
              add_g source drain (-.op.gds);
              add_g source bulk (-.op.gmb);
              add_g source source (op.gm +. op.gds +. op.gmb);
              let equivalent = op.ids -. (op.gm *. vgs) -. (op.gds *. vds) -. (op.gmb *. vbs) in
              add_b drain (-.equivalent);
              add_b source equivalent)
        (Circuit.elements circuit);
      (match extra_stamp with
      | None -> ()
      | Some stamp -> stamp ~add_g ~add_b);
      (g, b, size)

    let mos_biases_of circuit x =
      let voltage node = if node = 0 then 0. else x.(node - 1) in
      List.filter_map
        (fun element ->
          match element with
          | Circuit.Mosfet { name; drain; gate; source; bulk; params; w; l } ->
              let vgs = voltage gate -. voltage source in
              let vds = voltage drain -. voltage source in
              let vbs = voltage bulk -. voltage source in
              Some { name; vgs; vds; vbs; op = Mos.evaluate params ~w ~l ~vgs ~vds ~vbs }
          | Circuit.Resistor _ | Circuit.Capacitor _ | Circuit.Vsource _ | Circuit.Isource _
          | Circuit.Vccs _ -> None)
        (Circuit.elements circuit)

    (* Damping limit per Newton update.  Square-law devices have polynomial
       currents (no exponentials), so generous steps are safe; the limit only
       prevents wild excursions from a poor starting point. *)
    let max_step = 2.0

    let solve_with ?(max_iterations = 300) ?(tolerance = 1e-9) ?initial ?vsource_value ?extra_stamp
        circuit =
      let n = Circuit.num_nodes circuit in
      let sources = Circuit.vsource_names circuit in
      let m = List.length sources in
      let size = n + m in
      let x =
        match initial with
        | None -> Array.make (max size 1) 0.
        | Some given ->
            if Array.length given <> n + 1 then
              invalid_arg "Dc.solve: initial must have num_nodes + 1 entries";
            Array.init (max size 1) (fun i -> if i < n then given.(i + 1) else 0.)
      in
      let rec iterate iteration =
        if iteration > max_iterations then Error (Printf.sprintf "no convergence in %d iterations" max_iterations)
        else begin
          let g, b, _ = stamp_system ?vsource_value ?extra_stamp circuit x in
          match Test_linalg.Reference.lu_solve g b with
          | exception Decomp.Singular -> Error "singular MNA system"
          | fresh ->
              (* Damp: limit each node-voltage move to [max_step]. *)
              let worst = ref 0. in
              for i = 0 to size - 1 do
                let delta = fresh.(i) -. x.(i) in
                let damped =
                  if i < n then Float.max (-.max_step) (Float.min max_step delta) else delta
                in
                if i < n then worst := Float.max !worst (Float.abs damped);
                x.(i) <- x.(i) +. damped
              done;
              if !worst < tolerance then begin
                let voltages = Array.init (n + 1) (fun i -> if i = 0 then 0. else x.(i - 1)) in
                let branch_currents = List.mapi (fun k name -> (name, x.(n + k))) sources in
                Ok { voltages; branch_currents; iterations = iteration; mos_biases = mos_biases_of circuit x }
              end
              else iterate (iteration + 1)
        end
      in
      iterate 1

    let solve ?max_iterations ?tolerance ?initial circuit =
      solve_with ?max_iterations ?tolerance ?initial circuit

    let sweep ?max_iterations ?tolerance ~circuit ~source ~values () =
      if Array.length values = 0 then invalid_arg "Dc.sweep: empty value list";
      (match Circuit.vsource_index circuit source with
      | _ -> ()
      | exception Not_found -> invalid_arg ("Dc.sweep: unknown voltage source " ^ source));
      let results = Array.make (Array.length values) None in
      let previous = ref None in
      let failed = ref None in
      Array.iteri
        (fun k value ->
          if !failed = None then begin
            let vsource_value name = if name = source then Some value else None in
            match solve_with ?max_iterations ?tolerance ?initial:!previous ~vsource_value circuit with
            | Error msg -> failed := Some (Printf.sprintf "at %s = %g: %s" source value msg)
            | Ok solution ->
                previous := Some solution.voltages;
                results.(k) <- Some (value, solution)
          end)
        values;
      match !failed with
      | Some msg -> Error msg
      | None ->
          Ok
            (Array.map
               (fun entry -> match entry with Some pair -> pair | None -> assert false)
               results)
  end

  module Ac = struct
    type point = Ac.point = { freq_hz : float; response : Complex.t }

    (* Linearized stamps for one frequency.  Same unknown layout as Dc. *)
    let stamp_ac circuit dc omega =
      let n = Circuit.num_nodes circuit in
      let sources = Circuit.vsource_names circuit in
      let m = List.length sources in
      let size = n + m in
      let y = Cmatrix.create (max size 1) (max size 1) in
      let rhs = Array.make (max size 1) Complex.zero in
      let add_y row col value = if row > 0 && col > 0 then Cmatrix.add_entry y (row - 1) (col - 1) value in
      let real g = { Complex.re = g; im = 0. } in
      let imaginary c = { Complex.re = 0.; im = c } in
      let add_conductance n1 n2 g =
        add_y n1 n1 (real g);
        add_y n2 n2 (real g);
        add_y n1 n2 (real (-.g));
        add_y n2 n1 (real (-.g))
      in
      let add_capacitance n1 n2 c =
        let admittance = omega *. c in
        add_y n1 n1 (imaginary admittance);
        add_y n2 n2 (imaginary admittance);
        add_y n1 n2 (imaginary (-.admittance));
        add_y n2 n1 (imaginary (-.admittance))
      in
      let add_vccs out_pos out_neg in_pos in_neg gm =
        add_y out_pos in_pos (real gm);
        add_y out_pos in_neg (real (-.gm));
        add_y out_neg in_pos (real (-.gm));
        add_y out_neg in_neg (real gm)
      in
      let branch = ref 0 in
      List.iter
        (fun element ->
          match element with
          | Circuit.Resistor { n1; n2; ohms; _ } -> add_conductance n1 n2 (1. /. ohms)
          | Circuit.Capacitor { n1; n2; farads; _ } -> add_capacitance n1 n2 farads
          | Circuit.Vsource { pos; neg; ac; _ } ->
              let k = n + !branch in
              if pos > 0 then begin
                Cmatrix.add_entry y (pos - 1) k Complex.one;
                Cmatrix.add_entry y k (pos - 1) Complex.one
              end;
              if neg > 0 then begin
                Cmatrix.add_entry y (neg - 1) k { Complex.re = -1.; im = 0. };
                Cmatrix.add_entry y k (neg - 1) { Complex.re = -1.; im = 0. }
              end;
              rhs.(k) <- { Complex.re = ac; im = 0. };
              incr branch
          | Circuit.Isource _ -> ()
          | Circuit.Vccs { out_pos; out_neg; in_pos; in_neg; gm; _ } ->
              add_vccs out_pos out_neg in_pos in_neg gm
          | Circuit.Mosfet { name; drain; gate; source; bulk; params; w; l } ->
              let bias = Dc.mos_bias dc name in
              let op = bias.Dc.op in
              add_vccs drain source gate source op.Mos.gm;
              add_conductance drain source op.Mos.gds;
              add_vccs drain source bulk source op.Mos.gmb;
              add_capacitance gate source (Mos.cgs params ~w ~l);
              add_capacitance gate drain (Mos.cgd params ~w);
              add_capacitance drain bulk (Mos.cdb params ~w);
              add_capacitance source bulk (Mos.cdb params ~w))
        (Circuit.elements circuit);
      (y, rhs, size)

    let transfer ~circuit ~dc ~input ~output ~freqs =
      let input_index =
        match Circuit.vsource_index circuit input with
        | index -> index
        | exception Not_found -> invalid_arg ("Ac.transfer: unknown voltage source " ^ input)
      in
      if output <= 0 || output > Circuit.num_nodes circuit then
        invalid_arg "Ac.transfer: output node out of range";
      (* Drive the chosen source with unit AC; silence the others. *)
      let adjusted =
        Circuit.make
          (List.map
             (fun element ->
               match element with
               | Circuit.Vsource ({ name; _ } as v) ->
                   Circuit.Vsource { v with ac = (if Circuit.vsource_index circuit name = input_index then 1. else 0.) }
               | Circuit.Resistor _ | Circuit.Capacitor _ | Circuit.Isource _ | Circuit.Vccs _
               | Circuit.Mosfet _ -> element)
             (Circuit.elements circuit))
      in
      Array.map
        (fun freq_hz ->
          let omega = 2. *. Float.pi *. freq_hz in
          let y, rhs, _ = stamp_ac adjusted dc omega in
          let solution = Cmatrix.solve y rhs in
          { freq_hz; response = solution.(output - 1) })
        freqs
  end

  module Tran = struct
    type integration = Tran.integration =
      | Backward_euler
      | Trapezoidal

    type capacitor = { n1 : int; n2 : int; farads : float }

    let capacitors_of circuit =
      List.filter_map
        (fun element ->
          match element with
          | Circuit.Capacitor { n1; n2; farads; _ } -> Some { n1; n2; farads }
          | Circuit.Resistor _ | Circuit.Vsource _ | Circuit.Isource _ | Circuit.Vccs _
          | Circuit.Mosfet _ -> None)
        (Circuit.elements circuit)

    let simulate_stream ?(integration = Trapezoidal) ?stimulus ?initial ~circuit ~step ~duration
        ~on_step () =
      if step <= 0. || duration <= 0. then invalid_arg "Tran.simulate: step and duration must be positive";
      let vsource_value time =
        match stimulus with
        | None -> fun _ -> None
        | Some f -> fun name -> f name time
      in
      let operating_point =
        match initial with
        | Some solution -> Ok solution
        | None -> Dc.solve_with ~vsource_value:(vsource_value 0.) circuit
      in
      match operating_point with
      | Error msg -> Error ("transient: no operating point: " ^ msg)
      | Ok start ->
          let caps = capacitors_of circuit in
          let num_steps = int_of_float (ceil (duration /. step)) in
          let first = Array.copy start.Dc.voltages in
          on_step ~k:0 ~time:0. first;
          (* Per-capacitor branch current, needed by the trapezoidal companion;
             zero at the operating point. *)
          let cap_currents = Array.make (List.length caps) 0. in
          let failed = ref None in
          let previous = ref first in
          let k = ref 1 in
          while !failed = None && !k <= num_steps do
            let prev = !previous in
            (* The very first step always uses backward Euler (standard SPICE
               practice after a breakpoint): it needs no capacitor-current
               history, which is unknown or discontinuous at t = 0. *)
            let integration = if !k = 1 then Backward_euler else integration in
            let companion ~add_g ~add_b =
              List.iteri
                (fun index { n1; n2; farads } ->
                  let v_prev = prev.(n1) -. prev.(n2) in
                  match integration with
                  | Backward_euler ->
                      let geq = farads /. step in
                      add_g n1 n1 geq;
                      add_g n2 n2 geq;
                      add_g n1 n2 (-.geq);
                      add_g n2 n1 (-.geq);
                      add_b n1 (geq *. v_prev);
                      add_b n2 (-.(geq *. v_prev))
                  | Trapezoidal ->
                      let geq = 2. *. farads /. step in
                      let ieq = (geq *. v_prev) +. cap_currents.(index) in
                      add_g n1 n1 geq;
                      add_g n2 n2 geq;
                      add_g n1 n2 (-.geq);
                      add_g n2 n1 (-.geq);
                      add_b n1 ieq;
                      add_b n2 (-.ieq))
                caps
            in
            let time = float_of_int !k *. step in
            (match
               Dc.solve_with ~initial:prev ~vsource_value:(vsource_value time) ~extra_stamp:companion
                 circuit
             with
            | Error msg -> failed := Some (Printf.sprintf "t = %g s: %s" time msg)
            | Ok solution ->
                let fresh = solution.Dc.voltages in
                List.iteri
                  (fun index { n1; n2; farads } ->
                    let v_new = fresh.(n1) -. fresh.(n2) in
                    let v_prev = prev.(n1) -. prev.(n2) in
                    let current =
                      match integration with
                      | Backward_euler -> farads /. step *. (v_new -. v_prev)
                      | Trapezoidal ->
                          (2. *. farads /. step *. (v_new -. v_prev)) -. cap_currents.(index)
                    in
                    cap_currents.(index) <- current)
                  caps;
                on_step ~k:!k ~time fresh;
                previous := fresh;
                incr k);
            ()
          done;
          (match !failed with Some msg -> Error msg | None -> Ok num_steps)
  end
end

(* --- comparisons ------------------------------------------------------------ *)

let same_word a b =
  (Float.is_nan a && Float.is_nan b) || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_words a b = Array.length a = Array.length b && Array.for_all2 same_word a b
let same_complex (a : Complex.t) (b : Complex.t) = same_word a.re b.re && same_word a.im b.im

let same_complexes a b = Array.length a = Array.length b && Array.for_all2 same_complex a b

(* Same value or the same exception: the kernels must also fail alike. *)
let same_outcome eq f g =
  match f () with
  | x -> ( match g () with y -> eq x y | exception _ -> false)
  | exception e1 -> ( match g () with _ -> false | exception e2 -> e1 = e2)

let same_sweep (a : Ac.sweep) (b : Ac.sweep) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (p : Ac.point) (q : Ac.point) ->
         same_word p.freq_hz q.freq_hz && same_complex p.response q.response)
       a b

let same_op (a : Mos.operating_point) (b : Mos.operating_point) =
  same_word a.ids b.ids && same_word a.gm b.gm && same_word a.gds b.gds && same_word a.gmb b.gmb
  && a.region = b.region

let same_solution (a : Dc.solution) (b : Dc.solution) =
  same_words a.voltages b.voltages
  && List.equal
       (fun (n1, i1) (n2, i2) -> n1 = n2 && same_word i1 i2)
       a.branch_currents b.branch_currents
  && a.iterations = b.iterations
  && List.equal
       (fun (p : Dc.mos_bias) (q : Dc.mos_bias) ->
         p.name = q.name && same_word p.vgs q.vgs && same_word p.vds q.vds && same_word p.vbs q.vbs
         && same_op p.op q.op)
       a.mos_biases b.mos_biases

let same_result eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

(* --- complex systems --------------------------------------------------------- *)

(* Systems of 1-10 unknowns with the cells that decide pivots and skips:
   ±0 parts, purely real or imaginary cells, magnitudes near 1e±300, a
   rare infinite or NaN part, ties in modulus within a column (parts
   swapped or negated), exact zeros below the diagonal, and singular
   systems (a zero column, a repeated row, a row below the pivot
   threshold). *)
let complex_system seed =
  let rng = Rng.create ~seed () in
  let n = 1 + Rng.int rng 10 in
  let part () =
    match Rng.int rng 14 with
    | 0 -> 0.
    | 1 -> -0.
    | 2 -> Rng.range rng (-1.) 1. *. 1e300
    | 3 -> Rng.range rng (-1.) 1. *. 1e-300
    | 4 when Rng.int rng 6 = 0 -> if Rng.bool rng then Float.infinity else Float.nan
    | _ -> Rng.range rng (-3.) 3.
  in
  let cell () =
    match Rng.int rng 4 with
    | 0 -> { Complex.re = part (); im = 0. }
    | 1 -> { Complex.re = 0.; im = part () }
    | _ -> { Complex.re = part (); im = part () }
  in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> cell ())) in
  for _ = 1 to Rng.int rng 4 do
    let j = Rng.int rng n and i1 = Rng.int rng n and i2 = Rng.int rng n in
    let z = a.(i1).(j) in
    a.(i2).(j) <-
      (match Rng.int rng 3 with
      | 0 -> { Complex.re = z.im; im = z.re }
      | 1 -> { z with re = -.z.re }
      | _ -> { z with im = -.z.im })
  done;
  for _ = 1 to Rng.int rng (n + 1) do
    let j = Rng.int rng n in
    if j < n - 1 then begin
      let i = j + 1 + Rng.int rng (n - j - 1) in
      let zero () = if Rng.bool rng then 0. else -0. in
      a.(i).(j) <- { Complex.re = zero (); im = zero () }
    end
  done;
  (match Rng.int rng 8 with
  | 0 ->
      let j = Rng.int rng n in
      Array.iter (fun row -> row.(j) <- Complex.zero) a
  | 1 ->
      let i = Rng.int rng n and k = Rng.int rng n in
      a.(k) <- Array.copy a.(i)
  | 2 ->
      let i = Rng.int rng n in
      a.(i) <- Array.init n (fun _ -> { Complex.re = Rng.range rng (-1.) 1. *. 1e-301; im = 0. })
  | _ -> ());
  (a, Array.init n (fun _ -> cell ()))

let complex_matrix a =
  let n = Array.length a in
  let m = Cmatrix.create n n and r = Reference.Cmatrix.create n n in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j z ->
          Cmatrix.set m i j z;
          Reference.Cmatrix.set r i j z)
        row)
    a;
  (m, r)

let complex_outcome seed =
  let a, b = complex_system seed in
  let m, _ = complex_matrix a in
  match Cmatrix.solve m b with _ -> `Solved | exception Decomp.Singular -> `Singular

(* --- drawn circuits ------------------------------------------------------------ *)

let nmos = Mos.default_nmos
let pmos = Mos.default_pmos

(* A circuit on 2-6 nodes: 1-3 voltage sources (the first drives node 1),
   a resistor from every other node to a lower one, then up to eight more
   elements drawn from resistors, capacitors, VCCSs, current sources and
   MOSFETs between random nodes.  Shorted or looped sources and floating
   nodes make some systems singular. *)
let drawn_circuit ?(mosfets = true) rng =
  let nodes = 2 + Rng.int rng 5 in
  let node () = Rng.int rng (nodes + 1) in
  let count = ref 0 in
  let name prefix =
    incr count;
    Printf.sprintf "%s%d" prefix !count
  in
  let elements = ref [] in
  let add e = elements := e :: !elements in
  for s = 1 to 1 + Rng.int rng 3 do
    let pos = if s = 1 then 1 else node () and neg = if s = 1 then 0 else node () in
    add
      (Circuit.Vsource
         { name = name "v"; pos; neg; dc = Rng.range rng 0. 5.; ac = Rng.range rng (-1.) 1. })
  done;
  let resistor n1 n2 =
    Circuit.Resistor { name = name "r"; n1; n2; ohms = 10. ** Rng.range rng 2. 6. }
  in
  for k = 2 to nodes do
    add (resistor k (Rng.int rng k))
  done;
  for _ = 1 to Rng.int rng 9 do
    match Rng.int rng (if mosfets then 6 else 3) with
    | 0 -> add (resistor (node ()) (node ()))
    | 1 | 2 ->
        let farads = 10. ** Rng.range rng (-15.) (-9.) in
        add (Circuit.Capacitor { name = name "c"; n1 = node (); n2 = node (); farads })
    | 3 ->
        add
          (Circuit.Vccs
             {
               name = name "g";
               out_pos = node ();
               out_neg = node ();
               in_pos = node ();
               in_neg = node ();
               gm = Rng.range rng (-1e-3) 1e-3;
             })
    | 4 ->
        let amps = Rng.range rng (-1e-4) 1e-4 in
        add (Circuit.Isource { name = name "i"; from_node = node (); to_node = node (); amps })
    | _ ->
        add
          (Circuit.Mosfet
             {
               name = name "m";
               drain = node ();
               gate = node ();
               source = node ();
               bulk = node ();
               params = (if Rng.bool rng then nmos else pmos);
               w = 10. ** Rng.range rng (-6.) (-4.);
               l = 10. ** Rng.range rng (-6.5) (-5.5);
             })
  done;
  Circuit.make (List.rev !elements)

(* A DC solution to linearize at: the solve's, or when it fails every
   MOSFET biased at drawn terminal voltages. *)
let bias_point rng circuit =
  match Dc.solve circuit with
  | Ok solution -> solution
  | Error _ ->
      let n = Circuit.num_nodes circuit in
      let voltages = Array.init (n + 1) (fun i -> if i = 0 then 0. else Rng.range rng (-3.) 3.) in
      let v node = voltages.(node) in
      {
        Dc.voltages;
        branch_currents = [];
        iterations = 0;
        mos_biases =
          List.filter_map
            (function
              | Circuit.Mosfet { name; drain; gate; source; bulk; params; w; l } ->
                  let vgs = v gate -. v source and vds = v drain -. v source in
                  let vbs = v bulk -. v source in
                  Some { Dc.name; vgs; vds; vbs; op = Mos.evaluate params ~w ~l ~vgs ~vds ~vbs }
              | _ -> None)
            (Circuit.elements circuit);
      }

let example_deck name =
  let path = Filename.concat "../examples/netlists" name in
  match Netlist.parse_file path with
  | Ok deck -> deck.Netlist.circuit
  | Error msg -> Alcotest.failf "%s: %s" path msg

(* Every [on_step] call, copied, then the result. *)
let record_stream simulate =
  let steps = ref [] in
  let on_step ~k ~time voltages = steps := (k, time, Array.copy voltages) :: !steps in
  let result = simulate ~on_step in
  (List.rev !steps, result)

let same_stream (steps_a, result_a) (steps_b, result_b) =
  List.equal
    (fun (k1, t1, v1) (k2, t2, v2) -> k1 = k2 && same_word t1 t2 && same_words v1 v2)
    steps_a steps_b
  && same_result Int.equal result_a result_b

let transient_case seed =
  let rng = Rng.create ~seed () in
  let circuit =
    match Rng.int rng 5 with
    | 0 -> example_deck "cs_amp.sp"
    | 1 -> example_deck "mirror.sp"
    | _ -> drawn_circuit ~mosfets:(Rng.bool rng) rng
  in
  let integration = if Rng.bool rng then Tran.Backward_euler else Tran.Trapezoidal in
  let names = Array.of_list (Circuit.vsource_names circuit) in
  let driven = if Array.length names = 0 then "" else names.(Rng.int rng (Array.length names)) in
  let level = Rng.range rng 0. 3. and swing = Rng.range rng 0.1 2. in
  let period = 10. ** Rng.range rng (-9.) (-6.) and after = 10. ** Rng.range rng (-9.) (-7.) in
  let stimulus =
    match Rng.int rng 4 with
    | 0 -> None
    | 1 ->
        let wave t = level +. (swing *. sin (t /. period)) in
        Some (fun name t -> if name = driven then Some (wave t) else None)
    | 2 -> Some (fun name t -> if name = driven && t > after then Some (level +. swing) else None)
    | _ ->
        (* A source that turns NaN: the step cannot converge. *)
        Some (fun name t -> if name = driven && t > after then Some Float.nan else None)
  in
  let step = 10. ** Rng.range rng (-10.) (-7.) in
  let duration = step *. float_of_int (1 + Rng.int rng 48) in
  let initial =
    if Rng.int rng 4 = 0 then
      match Reference.Dc.solve circuit with Ok solution -> Some solution | Error _ -> None
    else None
  in
  (circuit, integration, stimulus, step, duration, initial)

(* --- properties ---------------------------------------------------------------- *)

let property_tests =
  [
    QCheck.Test.make ~count:3000 QCheck.int
      ~name:"reference: Cmatrix.solve and mul_vec IEEE-identical to boxed Complex arithmetic"
      (fun seed ->
        let a, b = complex_system seed in
        let m, r = complex_matrix a in
        same_outcome same_complexes
          (fun () -> Cmatrix.solve m b)
          (fun () -> Reference.Cmatrix.solve r b)
        && same_complexes (Cmatrix.mul_vec m b) (Reference.Cmatrix.mul_vec r b));
    QCheck.Test.make ~count:400 QCheck.int
      ~name:"reference: Ac.transfer IEEE-identical to stamping every frequency afresh" (fun seed ->
        let rng = Rng.create ~seed () in
        let circuit = drawn_circuit rng in
        let dc = bias_point rng circuit in
        let names = Array.of_list (Circuit.vsource_names circuit) in
        let input = if Rng.int rng 20 = 0 then "nosuch" else Rng.choose rng names in
        let output =
          if Rng.int rng 20 = 0 then 0 else 1 + Rng.int rng (Circuit.num_nodes circuit)
        in
        let freqs = Array.init (Rng.int rng 24) (fun _ -> 10. ** Rng.range rng (-3.) 12.) in
        same_outcome same_sweep
          (fun () -> Ac.transfer ~circuit ~dc ~input ~output ~freqs)
          (fun () -> Reference.Ac.transfer ~circuit ~dc ~input ~output ~freqs));
    QCheck.Test.make ~count:400 QCheck.int
      ~name:"reference: Dc.solve and Dc.sweep IEEE-identical, iterations and errors too"
      (fun seed ->
        let rng = Rng.create ~seed () in
        let circuit = drawn_circuit rng in
        let n = Circuit.num_nodes circuit in
        let max_iterations = if Rng.int rng 4 = 0 then Some (1 + Rng.int rng 4) else None in
        let initial =
          if Rng.bool rng then
            Some (Array.init (n + 1) (fun i -> if i = 0 then 0. else Rng.range rng (-1.) 5.))
          else None
        in
        let names = Array.of_list (Circuit.vsource_names circuit) in
        let swept = Rng.choose rng names in
        let values = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.range rng (-2.) 5.) in
        same_outcome (same_result same_solution)
          (fun () -> Dc.solve ?max_iterations ?initial circuit)
          (fun () -> Reference.Dc.solve ?max_iterations ?initial circuit)
        && same_outcome
             (same_result (fun a b ->
                  Array.length a = Array.length b
                  && Array.for_all2
                       (fun (v1, s1) (v2, s2) -> same_word v1 v2 && same_solution s1 s2)
                       a b))
             (fun () -> Dc.sweep ?max_iterations ~circuit ~source:swept ~values ())
             (fun () -> Reference.Dc.sweep ?max_iterations ~circuit ~source:swept ~values ()));
    QCheck.Test.make ~count:200 QCheck.int
      ~name:"reference: Tran.simulate_stream IEEE-identical under both integrations" (fun seed ->
        let circuit, integration, stimulus, step, duration, initial = transient_case seed in
        same_outcome same_stream
          (fun () ->
            record_stream (fun ~on_step ->
                Tran.simulate_stream ~integration ?stimulus ?initial ~circuit ~step ~duration
                  ~on_step ()))
          (fun () ->
            record_stream (fun ~on_step ->
                Reference.Tran.simulate_stream ~integration ?stimulus ?initial ~circuit ~step
                  ~duration ~on_step ())));
  ]

(* --- fixed cases ------------------------------------------------------------------ *)

let test_complex_draw_reaches_both_outcomes () =
  let outcomes = List.init 400 complex_outcome in
  Alcotest.(check bool) "some drawn systems are singular" true (List.mem `Singular outcomes);
  Alcotest.(check bool) "some drawn systems solve" true (List.mem `Solved outcomes)

(* The example decks and two decks that fail, each under both integrations:
   a node held only by a capacitor has no DC operating point, and a source
   that turns NaN stops the run at a step that cannot converge. *)
let test_transient_decks () =
  let floating =
    Circuit.make
      [
        Circuit.Vsource { name = "vin"; pos = 1; neg = 0; dc = 1.; ac = 0. };
        Circuit.Capacitor { name = "c1"; n1 = 1; n2 = 2; farads = 1e-12 };
      ]
  in
  let driven name t = if name = "VIN" then Some (1.1 +. (0.2 *. sin (t *. 1e8))) else None in
  let nan_after name t = if name = "VIN" && t > 5e-9 then Some Float.nan else None in
  let cs_amp = example_deck "cs_amp.sp" in
  let cases =
    [
      ("cs_amp", cs_amp, None, None);
      ("cs_amp driven", cs_amp, Some driven, None);
      ("mirror", example_deck "mirror.sp", None, None);
      ("floating node", floating, None, Some "transient: no operating point: singular MNA system");
      ("NaN source", cs_amp, Some nan_after, Some "t = 6e-09 s: no convergence in 300 iterations");
    ]
  in
  let step = 1e-9 and duration = 2e-8 in
  List.iter
    (fun (label, circuit, stimulus, failure) ->
      List.iter
        (fun integration ->
          let got =
            record_stream (fun ~on_step ->
                Tran.simulate_stream ~integration ?stimulus ~circuit ~step ~duration ~on_step ())
          in
          let expected =
            record_stream (fun ~on_step ->
                Reference.Tran.simulate_stream ~integration ?stimulus ~circuit ~step ~duration
                  ~on_step ())
          in
          Alcotest.(check bool) (label ^ ": same words") true (same_stream got expected);
          match (failure, snd got) with
          | None, Ok steps -> Alcotest.(check int) (label ^ ": every step") 20 steps
          | Some text, Error msg -> Alcotest.(check string) (label ^ ": error") text msg
          | None, Error msg -> Alcotest.failf "%s: %s" label msg
          | Some text, Ok _ -> Alcotest.failf "%s: expected %s" label text)
        [ Tran.Backward_euler; Tran.Trapezoidal ])
    cases;
  (* A caller's operating point of the wrong width fails alike. *)
  let short = { Dc.voltages = [| 0. |]; branch_currents = []; iterations = 0; mos_biases = [] } in
  Alcotest.(check bool) "wrong-width initial: the same failure" true
    (same_outcome same_stream
       (fun () ->
         record_stream (fun ~on_step ->
             Tran.simulate_stream ~initial:short ~circuit:cs_amp ~step ~duration ~on_step ()))
       (fun () ->
         record_stream (fun ~on_step ->
             Reference.Tran.simulate_stream ~initial:short ~circuit:cs_amp ~step ~duration
               ~on_step ())))

(* The training and test DOEs, and the wide one where evaluation drops
   most points: the same points kept, with the same simulated ALF, fu and
   PM words as the reference kernels give.  (voffset and the slew rates
   are closed forms of the bias and are not simulated.) *)
let test_doe_matches_reference () =
  let freqs = Ac.log_frequencies ~start_hz:100. ~stop_hz:1e10 ~points_per_decade:12 in
  let reference x =
    match Ota.small_signal_circuit x with
    | Error _ -> None
    | Ok circuit -> (
        let dc =
          match Reference.Dc.solve circuit with
          | Ok solution -> solution
          | Error _ ->
              {
                Dc.voltages = Array.make (Circuit.num_nodes circuit + 1) 0.;
                branch_currents = [];
                iterations = 0;
                mos_biases = [];
              }
        in
        let sweep = Reference.Ac.transfer ~circuit ~dc ~input:"vin" ~output:7 ~freqs in
        match (Ac.unity_gain_frequency sweep, Ac.phase_margin_deg sweep) with
        | Some fu, Some pm when pm > 0. -> Some (x, [| Ac.low_frequency_gain_db sweep; fu; pm |])
        | _ -> None)
  in
  List.iter
    (fun (dx, kept) ->
      let design = Doe.orthogonal_array ~runs_exponent:5 ~factors:Ota.dims in
      let points = Doe.scale_levels ~center:Ota.nominal ~dx design in
      let expected = List.filter_map reference (Array.to_list points) in
      let got = Ota.doe_dataset ~dx in
      let label = Printf.sprintf "dx %.2f" dx in
      Alcotest.(check int) (label ^ ": points kept") kept (Array.length got.Ota.inputs);
      Alcotest.(check int) (label ^ ": as the reference keeps") (List.length expected)
        (Array.length got.Ota.inputs);
      List.iteri
        (fun i (x, simulated) ->
          let row = got.Ota.outputs.(i) in
          if not (same_words x got.Ota.inputs.(i) && same_words simulated (Array.sub row 0 3)) then
            Alcotest.failf "%s: row %d differs from the reference" label i)
        expected)
    [ (0.03, 243); (0.10, 243); (0.30, 72) ]

let suite =
  [
    Alcotest.test_case "complex draws reach singular and solved systems" `Quick
      test_complex_draw_reaches_both_outcomes;
    Alcotest.test_case "transient decks match the reference, failures included" `Quick
      test_transient_decks;
    Alcotest.test_case "OTA DOEs match the reference kernels word for word" `Quick
      test_doe_matches_reference;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
