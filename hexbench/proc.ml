(* Timing and child-process helpers shared by the workloads. *)

let now = Hexbench.Clock.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU seconds, user and system, used by this process's children that
   have ended and been waited for, with their own waited-for children. *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Fill the memoised micro-benchmark calibration for every architecture
   and the given stencils: the set-up a process pays before its first
   model evaluation. *)
let calibrate stencils =
  List.iter
    (fun arch ->
      ignore (Hextime_harness.Microbench.params arch);
      List.iter (fun s -> ignore (Hextime_harness.Microbench.citer arch s)) stencils)
    Hextime_gpu.Arch.presets

(* Run this executable again with [args] and return its standard output.
   The child's standard error passes through. *)
let self_output args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ ->
      failwith
        (Printf.sprintf "child %s exited with an error"
           (String.concat " " args))

(* One set-up probe: [calibrate] in a fresh process, which times its own
   calibration (process start-up left out). *)
let calibration_probe ~workload =
  float_of_string (String.trim (self_output [ "calibrate"; workload ]))

(* Set-up probes spread over a batch run, one before every [probe_every]-th
   unit of work and outside its timing, so the median set-up time sees the
   same spread of the host's speed as the work does (back to back, 25
   probes swung 1.7x between runs). *)
let probe_every = 16

let probe_setup ~workload probes i =
  if i mod probe_every = 0 then probes := calibration_probe ~workload :: !probes

(* 25 probes back to back; the median. *)
let calibration_s ~workload =
  Hexbench.Pct.median_of (List.init 25 (fun _ -> calibration_probe ~workload))
