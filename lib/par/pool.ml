(* A reusable pool of worker domains.

   The submitter publishes a batch (a work-stealing thunk every domain
   runs) with a single atomic epoch bump; a worker that finds the epoch
   unchanged sleeps on a mutex + condition until it moves, and the
   submitter sleeps the same way until the last worker finishes.  (A
   spin before each sleep measured as noise end to end on the search
   workloads, so there is none.)
   The epoch is an [Atomic], so its bump publishes the submitter's plain
   writes (batch closure, input array) to any worker that observes it, per
   the OCaml 5 memory model; the completion countdown publishes the
   workers' result writes back to the submitter the same way.

   Work distribution inside a batch is an atomic chunk index over [0, n):
   each domain repeatedly claims the next chunk of indices and writes
   results to its own slots, so the result array is position-for-position
   what the sequential map would produce. *)

module Metrics = Caffeine_obs.Metrics

(* Handles into the default registry, created eagerly at module
   initialization on the main domain ([Lazy] would be unsafe to force from
   several domains at once).  Updates are single atomic operations on the
   hot path. *)
let m_batches = Metrics.counter Metrics.default "pool.batches"
let m_tasks = Metrics.counter Metrics.default "pool.tasks"
let m_sequential_fallbacks = Metrics.counter Metrics.default "pool.sequential_fallbacks"
let m_tasks_abandoned = Metrics.counter Metrics.default "pool.tasks_abandoned"
let m_task_imbalance = Metrics.gauge Metrics.default "pool.task_imbalance"
let m_batch_timer = Metrics.timer Metrics.default "pool.batch"
let m_env_invalid = Metrics.counter Metrics.default "pool.env_jobs_invalid"

type t = {
  size : int;  (* total parallelism, including the submitting domain *)
  mutable workers : unit Domain.t array;
  mutex : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  epoch : int Atomic.t;  (* bumped once per batch; publishes [batch] *)
  mutable batch : (unit -> unit) option;  (* never raises *)
  active : int Atomic.t;  (* workers still inside the current batch *)
  sleepers : int Atomic.t;  (* workers blocked on [work_ready] *)
  stopping : bool Atomic.t;
  busy : bool Atomic.t;  (* a batch is in flight: nested calls go sequential *)
}

(* OCaml 5 domains oversubscribe badly: every domain joins every minor GC
   synchronization, so running more domains than cores makes the whole
   program slower, not just the pool (BENCH_parallel.json on a 1-core host
   showed jobs=8 running 7x slower than jobs=1).  Every jobs request is
   therefore clamped to the hardware before any domain is spawned. *)

(* An invalid CAFFEINE_JOBS is a misconfiguration the user should hear
   about once, not a silent fall-through to all cores: the warning goes to
   stderr immediately, bumps [pool.env_jobs_invalid], and is parked for a
   caller that owns a trace sink to surface as a [Trace.Warning]
   ({!take_env_warning}).  Deduplicated per value so a long run does not
   repeat itself on every pool creation. *)
let env_warned : string option Atomic.t = Atomic.make None
let env_warning : string option Atomic.t = Atomic.make None

let take_env_warning () = Atomic.exchange env_warning None

let env_jobs cores =
  match Sys.getenv_opt "CAFFEINE_JOBS" with
  | None -> None
  | Some value -> (
      match int_of_string_opt (String.trim value) with
      | Some jobs when jobs >= 1 -> Some jobs
      | Some _ | None ->
          if Atomic.get env_warned <> Some value then begin
            Atomic.set env_warned (Some value);
            let message =
              Printf.sprintf "CAFFEINE_JOBS=%S is not a positive integer; using all %d core(s)"
                value cores
            in
            Metrics.incr m_env_invalid;
            Atomic.set env_warning (Some message);
            Printf.eprintf "caffeine: warning: %s\n%!" message
          end;
          None)

let effective_jobs requested =
  let cores = Domain.recommended_domain_count () in
  let requested =
    if requested >= 1 then requested
    else
      (* 0 (or negative) = auto: CAFFEINE_JOBS when set, else all cores. *)
      match env_jobs cores with Some jobs -> jobs | None -> cores
  in
  Stdlib.max 1 (Stdlib.min requested cores)

let default_jobs () = effective_jobs 0

let worker_loop pool =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    if Atomic.get pool.epoch = !seen && not (Atomic.get pool.stopping) then begin
      Mutex.lock pool.mutex;
      Atomic.incr pool.sleepers;
      while Atomic.get pool.epoch = !seen && not (Atomic.get pool.stopping) do
        Condition.wait pool.work_ready pool.mutex
      done;
      Atomic.decr pool.sleepers;
      Mutex.unlock pool.mutex
    end;
    if Atomic.get pool.stopping then running := false
    else begin
      seen := Atomic.get pool.epoch;
      let batch = Option.get pool.batch in
      batch ();
      if Atomic.fetch_and_add pool.active (-1) = 1 then begin
        (* Last worker out: the submitter may already be blocked, so take
           the mutex before signalling — a broadcast outside it could slip
           between the submitter's check and its wait. *)
        Mutex.lock pool.mutex;
        Condition.broadcast pool.batch_done;
        Mutex.unlock pool.mutex
      end
    end
  done

let create ?jobs () =
  let size = effective_jobs (match jobs with Some j -> j | None -> 0) in
  let pool =
    {
      size;
      workers = [||];
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      epoch = Atomic.make 0;
      batch = None;
      active = Atomic.make 0;
      sleepers = Atomic.make 0;
      stopping = Atomic.make false;
      busy = Atomic.make false;
    }
  in
  if size > 1 then
    pool.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.size

let shutdown pool =
  let workers = pool.workers in
  if Array.length workers > 0 then begin
    Atomic.set pool.stopping true;
    Mutex.lock pool.mutex;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    pool.workers <- [||];
    Array.iter Domain.join workers
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let with_optional_pool ?jobs f =
  let jobs = effective_jobs (match jobs with Some j -> j | None -> 0) in
  if jobs <= 1 then f None else with_pool ~jobs (fun pool -> f (Some pool))

(* Run [batch] on every domain of the pool (workers + caller) and wait for
   all of them to finish.  [batch] must not raise. *)
let run_batch pool batch =
  pool.batch <- Some batch;
  Atomic.set pool.active (Array.length pool.workers);
  Atomic.incr pool.epoch;
  (* Only wake domains that actually went to sleep; a worker still
     finishing the previous batch sees the epoch move when it comes back.
     A worker between its epoch check and its sleep rechecks the epoch
     under the mutex after bumping [sleepers], so reading [sleepers = 0]
     here never strands it. *)
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex
  end;
  batch ();
  if Atomic.get pool.active > 0 then begin
    Mutex.lock pool.mutex;
    while Atomic.get pool.active > 0 do
      Condition.wait pool.batch_done pool.mutex
    done;
    Mutex.unlock pool.mutex
  end;
  pool.batch <- None

let parallel_map pool f input =
  let n = Array.length input in
  if n <= 1 then Array.map f input
  else if Array.length pool.workers = 0 then Array.map f input
  else if not (Atomic.compare_and_set pool.busy false true) then begin
    (* Nested call from inside a batch, or concurrent submitter: run on
       the calling domain. *)
    Metrics.incr m_sequential_fallbacks;
    Array.map f input
  end
  else begin
    let results = Array.make n None in
    let failure = Atomic.make None in
    let next = Atomic.make 0 in
    let chunk = Stdlib.max 1 (n / (pool.size * 8)) in
    (* One slot per participating domain (workers + submitter), claimed at
       batch entry; per-slot tallies feed the imbalance gauge. *)
    let slots = Atomic.make 0 in
    let processed = Array.init pool.size (fun _ -> Atomic.make 0) in
    let batch () =
      let slot = Atomic.fetch_and_add slots 1 in
      let mine = ref 0 in
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= n || Atomic.get failure <> None then continue := false
        else
          let stop = Stdlib.min n (start + chunk) in
          let i = ref start in
          while !i < stop && Atomic.get failure = None do
            (match f input.(!i) with
            | value ->
                results.(!i) <- Some value;
                incr mine
            | exception exn ->
                let backtrace = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set failure None (Some (exn, backtrace))));
            incr i
          done
      done;
      Atomic.set processed.(slot) !mine
    in
    let start_ns = Metrics.now_ns () in
    run_batch pool batch;
    Metrics.record_span m_batch_timer ~start_ns ~stop_ns:(Metrics.now_ns ());
    Atomic.set pool.busy false;
    Metrics.incr m_batches;
    let completed = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 processed in
    Metrics.add m_tasks completed;
    let most = Array.fold_left (fun acc c -> Stdlib.max acc (Atomic.get c)) 0 processed in
    let least = Array.fold_left (fun acc c -> Stdlib.min acc (Atomic.get c)) max_int processed in
    (* 0 = every domain processed the same share; k = the spread between the
       busiest and idlest domain was k ideal shares. *)
    Metrics.set_gauge m_task_imbalance
      (float_of_int (most - least) *. float_of_int pool.size /. float_of_int n);
    match Atomic.get failure with
    | Some (exn, backtrace) ->
        (* Everything not completed by the time the workers drained is
           abandoned: at least the failing element itself. *)
        Metrics.add m_tasks_abandoned (n - completed);
        Printexc.raise_with_backtrace exn backtrace
    | None -> Array.map (function Some value -> value | None -> assert false) results
  end

let parallel_init pool n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  parallel_map pool f (Array.init n Fun.id)
