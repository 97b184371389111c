(* Postfix tape lowering of canonical-form bases.

   The tape is evaluated with an explicit stack.  Instructions mirror the
   interpreter's evaluation order exactly so results (including NaN and
   infinity cases) are bit-identical:

     basis      ->  VC (or CONST 1)  factor_1 MUL ... factor_k MUL
     wsum       ->  CONST bias  (basis_1 FMA w_1) ... (basis_m FMA w_m)
     Unary      ->  wsum UNARY
     Binary     ->  arg_1 arg_2 BINARY
     Lte        ->  test threshold less otherwise LTE
     Const arg  ->  CONST w

   [Lte] evaluates all four operands eagerly and selects per sample; the
   interpreter only evaluates the taken branch, but expressions are pure so
   the values agree. *)

type instr =
  | Iconst of float  (* push a constant column *)
  | Ivc of int array * int array  (* push a monomial column: (vars, exponents) *)
  | Iunary of Op.unary  (* replace top *)
  | Ibinary of Op.binary  (* pop y, pop x, push op(x, y) *)
  | Ilte  (* pop otherwise/less/threshold/test, push select *)
  | Imul  (* pop y, pop x, push x *. y *)
  | Ifma of float  (* pop b, top <- top +. (w *. b) *)

type t = { code : instr array; max_stack : int }

let length t = Array.length t.code
let max_stack t = t.max_stack

let compile basis =
  let code = ref [] in
  let depth = ref 0 in
  let deepest = ref 0 in
  let emit instr delta =
    code := instr :: !code;
    depth := !depth + delta;
    if !depth > !deepest then deepest := !depth
  in
  let emit_vc exponents =
    let vars = ref [] and exps = ref [] in
    Array.iteri
      (fun v e ->
        if e <> 0 then begin
          vars := v :: !vars;
          exps := e :: !exps
        end)
      exponents;
    match !vars with
    | [] -> emit (Iconst 1.) 1
    | _ ->
        emit
          (Ivc (Array.of_list (List.rev !vars), Array.of_list (List.rev !exps)))
          1
  in
  let rec basis_code b =
    (match b.Expr.vc with None -> emit (Iconst 1.) 1 | Some exponents -> emit_vc exponents);
    List.iter
      (fun f ->
        factor_code f;
        emit Imul (-1))
      b.Expr.factors
  and factor_code = function
    | Expr.Unary (op, ws) ->
        wsum_code ws;
        emit (Iunary op) 0
    | Expr.Binary (op, a1, a2) ->
        arg_code a1;
        arg_code a2;
        emit (Ibinary op) (-1)
    | Expr.Lte { test; threshold; less; otherwise } ->
        wsum_code test;
        arg_code threshold;
        arg_code less;
        arg_code otherwise;
        emit Ilte (-3)
  and arg_code = function
    | Expr.Const w -> emit (Iconst w) 1
    | Expr.Sum ws -> wsum_code ws
  and wsum_code ws =
    emit (Iconst ws.Expr.bias) 1;
    List.iter
      (fun (w, b) ->
        basis_code b;
        emit (Ifma w) (-1))
      ws.Expr.terms
  in
  basis_code basis;
  { code = Array.of_list (List.rev !code); max_stack = !deepest }

(* --- point evaluation --- *)

let eval_point t x =
  let stack = Array.make (Stdlib.max 1 t.max_stack) 0. in
  let sp = ref 0 in
  Array.iter
    (fun instr ->
      match instr with
      | Iconst w ->
          stack.(!sp) <- w;
          incr sp
      | Ivc (vars, exps) ->
          let acc = ref 1. in
          for k = 0 to Array.length vars - 1 do
            acc := !acc *. Expr.int_pow x.(vars.(k)) exps.(k)
          done;
          stack.(!sp) <- !acc;
          incr sp
      | Iunary op -> stack.(!sp - 1) <- Op.apply_unary op stack.(!sp - 1)
      | Ibinary op ->
          stack.(!sp - 2) <- Op.apply_binary op stack.(!sp - 2) stack.(!sp - 1);
          decr sp
      | Ilte ->
          let test = stack.(!sp - 4)
          and threshold = stack.(!sp - 3)
          and less = stack.(!sp - 2)
          and otherwise = stack.(!sp - 1) in
          stack.(!sp - 4) <-
            (if Float.is_nan test || Float.is_nan threshold then Float.nan
             else if test <= threshold then less
             else otherwise);
          sp := !sp - 3
      | Imul ->
          stack.(!sp - 2) <- stack.(!sp - 2) *. stack.(!sp - 1);
          decr sp
      | Ifma w ->
          stack.(!sp - 2) <- stack.(!sp - 2) +. (w *. stack.(!sp - 1));
          decr sp)
    t.code;
  stack.(0)

(* --- column evaluation --- *)

type scratch = { mutable bufs : float array array; mutable samples : int }

let scratch () = { bufs = [||]; samples = 0 }

let ensure scratch ~slots ~n =
  if scratch.samples < n then begin
    (* Sample count grew: all existing buffers are too short. *)
    scratch.bufs <- Array.init (Stdlib.max slots (Array.length scratch.bufs)) (fun _ -> Array.make n 0.);
    scratch.samples <- n
  end
  else if Array.length scratch.bufs < slots then begin
    let fresh = Array.init slots (fun _ -> Array.make scratch.samples 0.) in
    Array.blit scratch.bufs 0 fresh 0 (Array.length scratch.bufs);
    scratch.bufs <- fresh
  end

(* Monomials and operators run the allocation-free array kernels
   ([Expr.mul_int_pow_into], [Op.unary_into], [Op.binary_into]) that
   Fused's tiles also run, so the operator semantics live in [Op] and
   [Expr] for both tapes. *)

let fill_vc buf ~n ~columns vars exps =
  Array.fill buf 0 n 1.;
  for k = 0 to Array.length vars - 1 do
    Expr.mul_int_pow_into ~dst:buf ~src:columns.(vars.(k)) ~off:0 ~e:exps.(k) ~len:n
  done

(* Runs the column tape and leaves the result in [scratch.bufs.(0)]
   (first [n] cells); the public entry points copy it out. *)
let eval_columns_core t ~scratch ~columns ~n =
  ensure scratch ~slots:(Stdlib.max 1 t.max_stack) ~n;
  let bufs = scratch.bufs in
  let sp = ref 0 in
  Array.iter
    (fun instr ->
      match instr with
      | Iconst w ->
          Array.fill bufs.(!sp) 0 n w;
          incr sp
      | Ivc (vars, exps) ->
          fill_vc bufs.(!sp) ~n ~columns vars exps;
          incr sp
      | Iunary op ->
          let buf = bufs.(!sp - 1) in
          Op.unary_into op ~src:buf ~dst:buf ~len:n
      | Ibinary op ->
          let x = bufs.(!sp - 2) in
          Op.binary_into op ~a:x ~b:bufs.(!sp - 1) ~dst:x ~len:n;
          decr sp
      | Ilte ->
          let test = bufs.(!sp - 4)
          and threshold = bufs.(!sp - 3)
          and less = bufs.(!sp - 2)
          and otherwise = bufs.(!sp - 1) in
          for i = 0 to n - 1 do
            test.(i) <-
              (if Float.is_nan test.(i) || Float.is_nan threshold.(i) then Float.nan
               else if test.(i) <= threshold.(i) then less.(i)
               else otherwise.(i))
          done;
          sp := !sp - 3
      | Imul ->
          let x = bufs.(!sp - 2) and y = bufs.(!sp - 1) in
          for i = 0 to n - 1 do
            x.(i) <- x.(i) *. y.(i)
          done;
          decr sp
      | Ifma w ->
          let acc = bufs.(!sp - 2) and b = bufs.(!sp - 1) in
          for i = 0 to n - 1 do
            acc.(i) <- acc.(i) +. (w *. b.(i))
          done;
          decr sp)
    t.code

let eval_columns t ~scratch ~columns ~n =
  eval_columns_core t ~scratch ~columns ~n;
  Array.sub scratch.bufs.(0) 0 n

let eval_columns_into t ~scratch ~columns ~n ~out =
  if Array.length out < n then
    invalid_arg "Compiled.eval_columns_into: output buffer shorter than n";
  eval_columns_core t ~scratch ~columns ~n;
  Array.blit scratch.bufs.(0) 0 out 0 n

(* --- probe-subsample evaluation --- *)

(* Per-sample probing reuses the scalar stack evaluator: [eval_point] and
   [eval_columns] agree bit for bit with the interpreter (module contract),
   so probing through either path yields the same IEEE words.  Indexing
   into the stored columns avoids materializing the design point row. *)

let eval_probe t ~columns ~indices =
  let stack = Array.make (Stdlib.max 1 t.max_stack) 0. in
  let out = Array.make (Array.length indices) 0. in
  Array.iteri
    (fun j i ->
      let sp = ref 0 in
      Array.iter
        (fun instr ->
          match instr with
          | Iconst w ->
              stack.(!sp) <- w;
              incr sp
          | Ivc (vars, exps) ->
              let acc = ref 1. in
              for k = 0 to Array.length vars - 1 do
                acc := !acc *. Expr.int_pow columns.(vars.(k)).(i) exps.(k)
              done;
              stack.(!sp) <- !acc;
              incr sp
          | Iunary op -> stack.(!sp - 1) <- Op.apply_unary op stack.(!sp - 1)
          | Ibinary op ->
              stack.(!sp - 2) <- Op.apply_binary op stack.(!sp - 2) stack.(!sp - 1);
              decr sp
          | Ilte ->
              let test = stack.(!sp - 4)
              and threshold = stack.(!sp - 3)
              and less = stack.(!sp - 2)
              and otherwise = stack.(!sp - 1) in
              stack.(!sp - 4) <-
                (if Float.is_nan test || Float.is_nan threshold then Float.nan
                 else if test <= threshold then less
                 else otherwise);
              sp := !sp - 3
          | Imul ->
              stack.(!sp - 2) <- stack.(!sp - 2) *. stack.(!sp - 1);
              decr sp
          | Ifma w ->
              stack.(!sp - 2) <- stack.(!sp - 2) +. (w *. stack.(!sp - 1));
              decr sp)
        t.code;
      out.(j) <- stack.(0))
    indices;
  out

(* --- structural hashing --- *)

(* A fold over every node: unlike [Hashtbl.hash] (which stops after a
   bounded number of meaningful words, so deep bases with a shared prefix
   all collide) this visits the whole tree.  Weights hash by their IEEE
   bits so any weight mutation changes the key. *)

let combine h k = (h * 0x01000193) + k (* FNV-ish multiply-and-add, wraps *)
let combine_float h f = combine h (Int64.to_int (Int64.bits_of_float f))

let rec hash_basis_acc h (b : Expr.basis) =
  let h =
    match b.Expr.vc with
    | None -> combine h 0x11
    | Some exponents -> Array.fold_left combine (combine h 0x12) exponents
  in
  combine (List.fold_left hash_factor_acc (combine h 0x13) b.Expr.factors) 0x14

and hash_factor_acc h = function
  | Expr.Unary (op, ws) -> hash_wsum_acc (combine (combine h 0x21) (Hashtbl.hash op)) ws
  | Expr.Binary (op, a1, a2) ->
      hash_arg_acc (hash_arg_acc (combine (combine h 0x22) (Hashtbl.hash op)) a1) a2
  | Expr.Lte { test; threshold; less; otherwise } ->
      hash_arg_acc
        (hash_arg_acc (hash_arg_acc (hash_wsum_acc (combine h 0x23) test) threshold) less)
        otherwise

and hash_arg_acc h = function
  | Expr.Const w -> combine_float (combine h 0x31) w
  | Expr.Sum ws -> hash_wsum_acc (combine h 0x32) ws

and hash_wsum_acc h (ws : Expr.wsum) =
  let h = combine_float (combine h 0x41) ws.Expr.bias in
  combine
    (List.fold_left (fun h (w, b) -> hash_basis_acc (combine_float h w) b) h ws.Expr.terms)
    0x42

let hash_basis b = hash_basis_acc 0x1505 b land max_int

module Key = struct
  type t = Expr.basis

  let equal = Expr.equal_basis
  let hash = hash_basis
end

module Tbl = Hashtbl.Make (Key)
