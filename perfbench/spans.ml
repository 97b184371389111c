(* In-memory span recorder for the traced runs.

   A span is one call into a layer's public function, timed from the
   benchmark's side: kind, start, stop (monotonic ns), the enclosing span
   on the same domain, and the domain.  Each domain appends to its own
   buffer, so recording takes no lock.  With recording off, [span] is a
   single branch around the call. *)

let names : string array ref = ref [||]

(* Span kinds are registered at module initialisation, before any worker
   domain exists. *)
let kind name =
  let k = Array.length !names in
  names := Array.append !names [| name |];
  k

type buf = {
  domain : int;
  mutable kinds : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable len : int;
  mutable top : int;  (** index of the innermost open span, -1 when none *)
}

let bufs : buf list ref = ref []
let bufs_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let cap = 1024 in
      let b =
        {
          domain = (Domain.self () :> int);
          kinds = Array.make cap 0;
          starts = Array.make cap 0;
          stops = Array.make cap 0;
          parents = Array.make cap 0;
          len = 0;
          top = -1;
        }
      in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

let recording = Atomic.make false
let set_recording on = Atomic.set recording on

let grow b =
  let cap = 2 * Array.length b.kinds in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.kinds <- extend b.kinds;
  b.starts <- extend b.starts;
  b.stops <- extend b.stops;
  b.parents <- extend b.parents

let span kind f =
  if not (Atomic.get recording) then f ()
  else begin
    let b = Domain.DLS.get key in
    if b.len = Array.length b.kinds then grow b;
    let i = b.len in
    b.kinds.(i) <- kind;
    b.parents.(i) <- b.top;
    b.len <- i + 1;
    b.top <- i;
    b.starts.(i) <- Util.now_ns ();
    let close () =
      b.stops.(i) <- Util.now_ns ();
      b.top <- b.parents.(i)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* --- aggregation ---------------------------------------------------------- *)

type totals = {
  self_s : float array;  (** by kind: self time on the calling domain *)
  busy_s : float array;  (** by kind: self time on every other domain *)
  calls : int array;  (** by kind, all domains *)
  top_s : float;  (** calling domain: time covered by outermost spans *)
  direct_child_s : (int * int, float) Hashtbl.t;
      (** calling domain: (parent kind, child kind) -> summed duration *)
}

(* Totals over the spans that started inside [t0, t1]; [caller] is the
   domain whose timeline the wall time is checked against. *)
let totals ~caller ~t0 ~t1 =
  let nk = Array.length !names in
  let self_s = Array.make nk 0. and busy_s = Array.make nk 0. and calls = Array.make nk 0 in
  let top_s = ref 0. in
  let direct_child_s = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let children = Array.make b.len 0 in
      for i = 0 to b.len - 1 do
        let p = b.parents.(i) in
        if p >= 0 then children.(p) <- children.(p) + (b.stops.(i) - b.starts.(i))
      done;
      for i = 0 to b.len - 1 do
        if b.starts.(i) >= t0 && b.starts.(i) < t1 then begin
          let k = b.kinds.(i) and dur = b.stops.(i) - b.starts.(i) in
          let self = float_of_int (dur - children.(i)) *. 1e-9 in
          calls.(k) <- calls.(k) + 1;
          if b.domain = caller then begin
            self_s.(k) <- self_s.(k) +. self;
            let p = b.parents.(i) in
            if p < 0 then top_s := !top_s +. (float_of_int dur *. 1e-9)
            else begin
              let edge = (b.kinds.(p), k) in
              let prev = Option.value ~default:0. (Hashtbl.find_opt direct_child_s edge) in
              Hashtbl.replace direct_child_s edge (prev +. (float_of_int dur *. 1e-9))
            end
          end
          else busy_s.(k) <- busy_s.(k) +. self
        end
      done)
    !bufs;
  { self_s; busy_s; calls; top_s = !top_s; direct_child_s }

let direct_child t ~parent ~child =
  Option.value ~default:0. (Hashtbl.find_opt t.direct_child_s (parent, child))

(* Every recorded span, one line each: domain, kind, start, stop (ns) and
   the index of the enclosing span in the same domain's list. *)
let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun b ->
          for i = 0 to b.len - 1 do
            Printf.fprintf oc "%d %s %d %d %d\n" b.domain !names.(b.kinds.(i)) b.starts.(i)
              b.stops.(i) b.parents.(i)
          done)
        !bufs)
