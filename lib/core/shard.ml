module Json = Caffeine_obs.Json
module Trace = Caffeine_obs.Trace
module Metrics = Caffeine_obs.Metrics

exception Worker_failed of string

type event =
  | Record of Trace.record
  | Progress_saved of int
  | Done_saved

type run_island =
  emit:(Trace.record -> unit) ->
  progress:(gen:int -> rng:Caffeine_util.Rng.state -> population:Checkpoint.population -> unit) ->
  island:int ->
  Checkpoint.island ->
  Model.t list

type worker = string

let m_workers = Metrics.counter Metrics.default "shard.workers_spawned"
let m_migrations = Metrics.counter Metrics.default "shard.migrations"
let m_bytes = Metrics.counter Metrics.default "shard.bytes_exchanged"

(* A worker is this executable started again with [worker_env] naming its
   entry and [worker_flag] as its only argument. *)
let worker_env = "CAFFEINE_SHARD_WORKER"
let worker_flag = "--caffeine-shard-worker"

(* Workers to kill and scratch files to remove when the coordinator leaves
   through [Stdlib.exit] from inside a user callback (the CLI's
   --kill-after does exactly that): [Fun.protect] does not run across
   [exit], this hook does. *)
let live_children : int list ref = ref []
let scratch_files : string list ref = ref []

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let cleanup () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live_children;
  List.iter remove_quietly !scratch_files

let () = at_exit cleanup

(* Death by SIGTERM or SIGINT runs no [at_exit] hook either.  While a
   store is held, a signal left at its default disposition runs the
   cleanup, then restores the default and raises itself again, so the
   process still dies of it and its exit status says so. *)
let cleanup_signals = [ Sys.sigterm; Sys.sigint ]

let die_cleanly signal =
  cleanup ();
  Sys.set_signal signal Sys.Signal_default;
  Unix.kill (Unix.getpid ()) signal

let with_scratch_file ~suffix f =
  let path = Filename.temp_file "caffeine_shard" suffix in
  scratch_files := path :: !scratch_files;
  let handled =
    List.filter
      (fun signal ->
        match Sys.signal signal (Sys.Signal_handle die_cleanly) with
        | Sys.Signal_default -> true
        | previous ->
            Sys.set_signal signal previous;
            false)
      cleanup_signals
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun signal -> Sys.set_signal signal Sys.Signal_default) handled;
      remove_quietly path;
      scratch_files := List.filter (fun other -> other <> path) !scratch_files)
    (fun () -> f path)

(* --- EINTR-safe syscall wrappers ---------------------------------------- *)

let rec retry_read fd bytes pos len =
  match Unix.read fd bytes pos len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_read fd bytes pos len

let rec retry_select read_fds =
  match Unix.select read_fds [] [] (-1.) with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_select read_fds

let rec retry_waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_waitpid pid

let write_all fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    match Unix.write fd bytes !written (len - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Metrics.add m_bytes len

(* --- wire helpers -------------------------------------------------------- *)

let hello_line ~job islands =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "shard_hello");
         ("version", Json.int Checkpoint.version);
         ("islands", Json.int islands);
         ("job", Json.Str job);
       ])

let error_line message =
  Json.to_string (Json.Obj [ ("type", Json.Str "shard_error"); ("message", Json.Str message) ])

(* --- worker side --------------------------------------------------------- *)

exception Cannot_load of string

(* The job from the hello line, then every assignment.  The socket is
   drained to EOF before any work starts: the coordinator writes
   everything up front and then shuts down its sending side, so this
   cannot deadlock, and it frees the coordinator to enter its read
   loop. *)
let read_assignments ic =
  let hello = Json.obj (Json.parse_exn (input_line ic)) in
  if Json.str_of hello "type" <> "shard_hello" then
    raise (Json.Parse_error "expected a shard_hello line first");
  let version = Json.int_of hello "version" in
  if version <> Checkpoint.version then
    raise
      (Json.Parse_error
         (Printf.sprintf "coordinator speaks version %d, this worker %d" version
            Checkpoint.version));
  let job = Json.str_of hello "job" in
  let assignments = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         assignments := Checkpoint.island_of_json (Json.parse_exn line) :: !assignments
     done
   with End_of_file -> ());
  let expected = Json.int_of hello "islands" in
  if List.length !assignments <> expected then
    raise
      (Json.Parse_error
         (Printf.sprintf "received %d of %d island lines" (List.length !assignments) expected));
  (job, List.rev !assignments)

(* The whole life of a worker process: assignments in and results out on
   the socket that is its stdin, then exit.  Its stdout is left to
   whatever module initialisation prints. *)
let serve load =
  let ic = Unix.in_channel_of_descr Unix.stdin in
  let oc = Unix.out_channel_of_descr Unix.stdin in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let work () =
    let job, assignments =
      try read_assignments ic with
      | End_of_file -> raise (Cannot_load "received no assignments")
      | Json.Parse_error message | Sys_error message ->
          raise (Cannot_load ("cannot read its assignments: " ^ message))
    in
    let run_island =
      try load job
      with exn -> raise (Cannot_load ("cannot load its job: " ^ Printexc.to_string exn))
    in
    let emit record = send (Trace.to_line record) in
    List.iter
      (fun (index, state) ->
        let progress ~gen ~rng ~population =
          send (Checkpoint.island_to_line ~index (Checkpoint.In_progress { gen; rng; population }))
        in
        let front = run_island ~emit ~progress ~island:index state in
        send (Checkpoint.island_to_line ~index (Checkpoint.Done front)))
      assignments
  in
  let code =
    match work () with
    | () -> 0
    | exception exn ->
        let message =
          match exn with Cannot_load message -> message | exn -> Printexc.to_string exn
        in
        (try send (error_line message) with _ -> ());
        10
  in
  (try flush oc with _ -> ());
  exit code

let registered : (string, unit) Hashtbl.t = Hashtbl.create 4

let worker name load =
  if Hashtbl.mem registered name then invalid_arg ("Shard.worker: entry registered twice: " ^ name);
  Hashtbl.replace registered name ();
  if
    Array.length Sys.argv = 2 && Sys.argv.(1) = worker_flag
    && Sys.getenv_opt worker_env = Some name
  then serve load;
  name

(* --- coordinator side ---------------------------------------------------- *)

type worker_process = {
  pid : int;
  shard : int;
  fd : Unix.file_descr;  (* our end of the worker's socket *)
  buf : Buffer.t;
  mutable scanned : int;  (* buffer prefix known to hold no newline *)
  mutable pending : int list;  (* assigned islands not yet done, in order *)
  mutable eof : bool;
  mutable error : string option;
}

let fate = function
  | Unix.WEXITED 0 -> None
  | Unix.WEXITED code -> Some (Printf.sprintf "exited with code %d" code)
  | Unix.WSIGNALED signal -> Some (Printf.sprintf "killed by signal %d" signal)
  | Unix.WSTOPPED signal -> Some (Printf.sprintf "stopped by signal %d" signal)

(* Start this executable as worker [name]: its stdin is the far end of a
   fresh socket pair, its stdout and stderr are our stderr.  Both ends
   are close-on-exec, so no later worker inherits a copy that would mask
   this one's EOF. *)
let spawn ~shard name =
  let ours, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let prefix = worker_env ^ "=" in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun entry -> not (String.starts_with ~prefix entry))
            (Array.to_list (Unix.environment ()))))
      [| prefix ^ name |]
  in
  match
    Unix.create_process_env Sys.executable_name [| Sys.executable_name; worker_flag |] env theirs
      Unix.stderr Unix.stderr
  with
  | pid ->
      Unix.close theirs;
      (pid, ours)
  | exception Unix.Unix_error (err, _, _) ->
      Unix.close theirs;
      Unix.close ours;
      raise
        (Worker_failed
           (Printf.sprintf "shard: cannot start worker %d (%s): %s" shard Sys.executable_name
              (Unix.error_message err)))

let run_islands ~shards ?on_progress ?on_done ?(deliver = fun ~island:_ _ -> ()) ~worker ~job
    islands =
  let n = Array.length islands in
  let results =
    Array.map (function Checkpoint.Done front -> Some front | _ -> None) islands
  in
  let todo =
    Array.to_list (Array.init n Fun.id)
    |> List.filter (fun k -> match islands.(k) with Checkpoint.Done _ -> false | _ -> true)
  in
  if todo = [] then Array.map (function Some front -> front | None -> assert false) results
  else begin
    let shards = Stdlib.max 1 (Stdlib.min shards (List.length todo)) in
    (* Unfinished islands are dealt round-robin: the island at position p
       of the remaining work goes to worker [p mod shards]. *)
    let assigned = Array.make shards [] in
    List.iteri (fun p k -> assigned.(p mod shards) <- k :: assigned.(p mod shards)) todo;
    let assigned = Array.map List.rev assigned in
    (* Ordered delivery: worker output arrives in any interleaving, so
       events queue per island and are released in island order. *)
    let queues = Array.make n [] in
    let finished =
      Array.map (function Checkpoint.Done _ -> true | _ -> false) islands
    in
    let cursor = ref 0 in
    let flush_queue k =
      let events = List.rev queues.(k) in
      queues.(k) <- [];
      List.iter (fun ev -> deliver ~island:k ev) events
    in
    let rec advance () =
      if !cursor < n then begin
        flush_queue !cursor;
        if finished.(!cursor) then begin
          incr cursor;
          advance ()
        end
      end
    in
    let enqueue k ev = if k = !cursor then deliver ~island:k ev else queues.(k) <- ev :: queues.(k) in
    let mark_done k =
      finished.(k) <- true;
      if k = !cursor then advance ()
    in
    (* A worker that dies before reading its assignments must still kill
       the run, not hang it: writes to its closed socket would raise
       SIGPIPE and take the coordinator down before the EPIPE/EOF handling
       gets a chance. *)
    let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let workers = ref [] in
    let statuses = ref [] in
    let reaped = ref false in
    let reap ~kill =
      if not !reaped then begin
        reaped := true;
        if kill then
          List.iter
            (fun w -> try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
            !workers;
        List.iter
          (fun w -> if not w.eof then try Unix.close w.fd with Unix.Unix_error _ -> ())
          !workers;
        statuses := List.map (fun w -> (w, retry_waitpid w.pid)) !workers;
        let pids = List.map (fun w -> w.pid) !workers in
        live_children := List.filter (fun pid -> not (List.mem pid pids)) !live_children
      end
    in
    Fun.protect
      ~finally:(fun () ->
        reap ~kill:true;
        Sys.set_signal Sys.sigpipe previous_sigpipe)
    @@ fun () ->
    (* Start every worker first, so they initialise side by side, then
       feed each its assignments: a worker reads to EOF before computing,
       so these writes drain without deadlock however large a resumed
       population is. *)
    for shard = 0 to shards - 1 do
      let pid, fd = spawn ~shard worker in
      live_children := pid :: !live_children;
      Metrics.incr m_workers;
      let worker =
        {
          pid;
          shard;
          fd;
          buf = Buffer.create 4096;
          scanned = 0;
          pending = assigned.(shard);
          eof = false;
          error = None;
        }
      in
      workers := worker :: !workers
    done;
    let workers = List.rev !workers in
    List.iter
      (fun w ->
        (try
           write_all w.fd (hello_line ~job (List.length w.pending));
           List.iter
             (fun k -> write_all w.fd (Checkpoint.island_to_line ~index:k islands.(k)))
             w.pending
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
           w.error <- Some "died before receiving its assignments");
        try Unix.shutdown w.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      workers;
    let handle_island w line json =
      let index, state = Checkpoint.island_of_json json in
      match state with
      | Checkpoint.Pending _ -> w.error <- Some "sent a pending island line"
      | Checkpoint.In_progress { gen; _ } -> (
          islands.(index) <- state;
          match on_progress with
          | Some f ->
              f ~island:index ~gen;
              enqueue index (Progress_saved gen)
          | None -> ())
      | Checkpoint.Done front ->
          islands.(index) <- state;
          results.(index) <- Some front;
          Metrics.incr m_migrations;
          enqueue index
            (Record
               (Trace.Migration
                  {
                    island = index;
                    shard = w.shard;
                    models = List.length front;
                    bytes = String.length line;
                  }));
          (match on_done with
          | Some f ->
              f ~island:index;
              enqueue index Done_saved
          | None -> ());
          w.pending <- List.filter (fun k -> k <> index) w.pending;
          mark_done index
    in
    let handle_line w line =
      if String.trim line <> "" then begin
        Metrics.add m_bytes (String.length line);
        match Json.parse_exn line with
        | exception Json.Parse_error message ->
            w.error <- Some (Printf.sprintf "sent an unparsable line: %s" message)
        | json -> (
            let fields = Json.obj json in
            match Json.str_of fields "type" with
            | "island" -> handle_island w line json
            | "shard_error" -> w.error <- Some (Json.str_of fields "message")
            | _ -> (
                match Trace.of_line line with
                | Ok record -> (
                    match w.pending with
                    | k :: _ -> enqueue k (Record record)
                    | [] -> w.error <- Some "sent a trace record after finishing its islands")
                | Error message ->
                    w.error <- Some (Printf.sprintf "sent an unknown record: %s" message)))
      end
    in
    let drain_lines w =
      let length = Buffer.length w.buf in
      let last_newline = ref (-1) in
      for i = w.scanned to length - 1 do
        if Buffer.nth w.buf i = '\n' then last_newline := i
      done;
      if !last_newline < 0 then w.scanned <- length
      else begin
        let complete = Buffer.sub w.buf 0 !last_newline in
        let rest = Buffer.sub w.buf (!last_newline + 1) (length - !last_newline - 1) in
        Buffer.clear w.buf;
        Buffer.add_string w.buf rest;
        w.scanned <- String.length rest;
        List.iter (fun line -> handle_line w line) (String.split_on_char '\n' complete)
      end
    in
    let chunk = Bytes.create 65536 in
    let rec pump () =
      let open_fds = List.filter_map (fun w -> if w.eof then None else Some w.fd) workers in
      if open_fds <> [] then begin
        let readable = retry_select open_fds in
        List.iter
          (fun fd ->
            let w = List.find (fun w -> w.fd = fd) workers in
            let count =
              try retry_read fd chunk 0 (Bytes.length chunk)
              with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
            in
            if count = 0 then begin
              w.eof <- true;
              Unix.close fd
            end
            else begin
              Buffer.add_subbytes w.buf chunk 0 count;
              drain_lines w
            end)
          readable;
        pump ()
      end
    in
    pump ();
    reap ~kill:false;
    let failures =
      List.concat_map
        (fun (w, status) ->
          let fate_message = fate status in
          let leftover = w.pending in
          let problems =
            (match w.error with Some message -> [ message ] | None -> [])
            @ (match fate_message with Some message -> [ message ] | None -> [])
            @
            if leftover <> [] && w.error = None && fate_message = None then
              [ "closed its socket" ]
            else []
          in
          if problems = [] && leftover = [] then []
          else
            [
              Printf.sprintf "worker %d (pid %d) %s%s" w.shard w.pid
                (String.concat "; " (if problems = [] then [ "misbehaved" ] else problems))
                (if leftover = [] then ""
                 else
                   Printf.sprintf " with island(s) %s unfinished"
                     (String.concat ", " (List.map string_of_int leftover)));
            ])
        !statuses
    in
    if failures <> [] then raise (Worker_failed ("shard: " ^ String.concat "; " failures));
    advance ();
    Array.map (function Some front -> front | None -> assert false) results
  end
