(* Shared plumbing of the benchmark: clocks, order statistics, process
   and host probes, and the output directory. *)

module Metrics = Caffeine_obs.Metrics

let now_ns () = Int64.to_int (Metrics.now_ns ())
let seconds_between a b = float_of_int (b - a) *. 1e-9

let time f =
  let t0 = now_ns () in
  let result = f () in
  (result, seconds_between t0 (now_ns ()))

(* Quantile by linear interpolation between order statistics (the
   "inclusive" definition: q = 0 is the minimum, q = 1 the maximum). *)
let quantile q values =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median values = quantile 0.5 values

(* The samples behind a reported figure, for the log. *)
let print_samples name values =
  Printf.printf "samples %s [%s]\n" name
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") values)))
let mean values = Array.fold_left ( +. ) 0. values /. float_of_int (Array.length values)

(* --- scratch files -------------------------------------------------------- *)

(* Everything the benchmark writes goes under this directory of the
   checkout it runs in (ignored by git). *)
let out_dir = ".perfbench_out"

let out_path name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Replace [dst] by a copy of [src] in one rename, so a reader sees the old
   file or the new one, never half of one. *)
let replace_file ~src dst =
  let tmp = dst ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc (read_file src));
  Unix.rename tmp dst

(* --- process probes ------------------------------------------------------ *)

(* Peak resident set (VmHWM in /proc/<pid>/status) of a process, in MB;
   nan where unavailable. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Restart this process's peak resident set (VmHWM) from its current
   resident set; a no-op where /proc does not allow it. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* User + system CPU seconds of this process, all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- host envelope ------------------------------------------------------- *)

(* Total CPU steal of the machine so far, in jiffies (the 8th value of the
   aggregate "cpu" line of /proc/stat); 0 where unavailable. *)
let steal_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      let fields = List.filter (( <> ) "") (String.split_on_char ' ' line) in
      (match fields with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> (
          match int_of_string_opt steal with Some v -> v | None -> 0)
      | _ -> 0)

(* A fixed memory-bound kernel: strided read-modify-write sweeps over a
   32 MB array, far beyond any cache, so its time tracks the memory
   bandwidth neighbours leave us.  Median of three sweeps, in ms. *)
let calibrate_ms =
  let words = 4 * 1024 * 1024 in
  fun () ->
    let a = Array.make words 1.0 in
    let sweep () =
      let t0 = now_ns () in
      for pass = 0 to 3 do
        let stride = 8 + pass in
        for start = 0 to stride - 1 do
          let i = ref start in
          while !i < words do
            Array.unsafe_set a !i (Array.unsafe_get a !i +. 1.0);
            i := !i + stride
          done
        done
      done;
      seconds_between t0 (now_ns ()) *. 1e3
    in
    let times = Array.init 3 (fun _ -> sweep ()) in
    ignore (Sys.opaque_identity a);
    median times

type host = {
  nproc : int;
  ocaml : string;
  steal_start : int;
  calib_start_ms : float;
}

let host_start () =
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    steal_start = steal_jiffies ();
    calib_start_ms = calibrate_ms ();
  }

(* One line describing the host during the run, printed before the
   result so a run taken during a contention wave can be told apart. *)
let host_line host =
  Printf.sprintf
    "host {\"nproc\": %d, \"ocaml\": %S, \"steal_jiffies\": %d, \"calib_ms_start\": %.3f, \
     \"calib_ms_end\": %.3f}"
    host.nproc host.ocaml
    (steal_jiffies () - host.steal_start)
    host.calib_start_ms (calibrate_ms ())
