(* sweep-paper: cold model-baseline sweeps (Sweep.run, sweep cache off) of
   the 128-experiment paper grid, serially and on the domains backend at 2
   jobs, plus one sweep of the 12-experiment CI grid on the fork backend
   at 2 jobs (the fork pool runs about twenty times fewer points per
   second, so the full grid would not fit a run).  Each serial experiment sweep is one latency
   sample, in microseconds per configuration.

   The fork phase runs first: OCaml 5 forbids fork once a domain has been
   spawned. *)

open Hexbench
module Sweep = Hextime_harness.Sweep
module Experiments = Hextime_harness.Experiments
module Parsweep = Hextime_parsweep.Parsweep

let fork_exec = { Parsweep.serial with jobs = 2; backend = `Fork }
let domains_exec = { Parsweep.serial with jobs = 2; backend = `Domains }

(* Seconds one round (serial grid, then domains grid) takes on a 2-core
   machine.  It only fixes the number of rounds from --seconds, so a run
   does the same work however fast the program is.  The fork slice runs
   once per run: its file-system-bound time varies too much to size a run
   by. *)
let round_estimate_s = 3.5

type phase = {
  label : string;
  exec : Parsweep.exec;
  grid : Experiments.t list;
  mutable points : int;
  mutable elapsed_s : float;
  mutable samples : float list;  (** us per configuration, per sweep *)
  mutable stats : Parsweep.stats list;
  mutable digests : string list list;
      (** per round, newest first: each experiment's [Checks.sweep_digest] *)
}

let phase label exec grid =
  { label; exec; grid; points = 0; elapsed_s = 0.0; samples = []; stats = []; digests = [] }

(* One round: a cold sweep of every experiment of the phase's grid.  Each
   sweep is digested outside its timed call; set-up probes go to
   [setup]. *)
let round ~setup p =
  p.digests <-
    List.mapi
      (fun i e ->
        Proc.probe_setup ~workload:"sweep-paper" setup i;
        let (sweep, st), dt =
          Proc.timed (fun () ->
              Spans.with_ ("sweep.run/" ^ p.label) (fun () -> Sweep.run ~exec:p.exec e))
        in
        p.points <- p.points + st.Parsweep.total;
        p.elapsed_s <- p.elapsed_s +. dt;
        p.samples <- (dt *. 1e6 /. float_of_int st.Parsweep.total) :: p.samples;
        p.stats <- st :: p.stats;
        Checks.sweep_digest sweep)
      p.grid
    :: p.digests

(* Every round of [phase] gives the same results, experiment by
   experiment, as [want] (one digest per experiment of the grid). *)
let compare_rounds ~what want phase =
  Checks.all
    (List.mapi
       (fun r got ->
         Checks.all
           (List.map2
              (fun (e, w) g ->
                if String.equal w g then Ok ()
                else
                  Error
                    (Printf.sprintf "%s: round %d, %s: points or drops differ at %%.17g"
                       what (r + 1)
                       (Experiments.id e)))
              (List.combine phase.grid want) got))
       (List.rev phase.digests))

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let run ~seed ~seconds =
  let st = Inputs.rng seed in
  let grid = Inputs.shuffle st (Inputs.paper_grid ()) in
  let slice = Inputs.shuffle st (Inputs.ci_grid ()) in
  let rounds = max 1 (int_of_float (Float.round (seconds /. round_estimate_s))) in
  let setup = ref [] in
  let fork = phase "fork" fork_exec slice in
  let serial = phase "serial" Parsweep.serial grid in
  let domains = phase "domains" domains_exec grid in
  round ~setup fork;
  (* serial and domains rounds alternate, so both backends see the same
     spread of the host's speed over the run *)
  for _ = 1 to rounds do
    round ~setup serial;
    round ~setup domains
  done;
  let phases = [ fork; serial; domains ] in
  let all_stats = List.concat_map (fun p -> p.stats) phases in
  let stat f = sum f all_stats in
  (* The gated rate and latency leave the fork phase out: its throughput
     swings twofold from run to run with the host's file-system latency
     (the pool writes a flight-recorder file per task), beyond any bound a
     gate can hold; it is reported beside them.  Latency is taken on the
     serial sweeps alone: a parallel sweep's time depends on whether the
     second core is free, and mixing backends would put the median
     between their clusters.  Both pool the whole run: the host's speed
     changes within seconds, and pooling averages that out. *)
  let rate =
    float_of_int (serial.points + domains.points) /. (serial.elapsed_s +. domains.elapsed_s)
  in
  let lat = Pct.summarize ~tail_p:90.0 serial.samples in
  (* checks, after the timed phase *)
  let slice_serial, slice_serial_s =
    Proc.timed (fun () -> List.map (fun e -> Sweep.baseline e) slice)
  in
  let first_serial = List.hd (List.rev serial.digests) in
  let checks =
    Checks.all
      [
        compare_rounds ~what:"serial vs serial" first_serial serial;
        compare_rounds ~what:"domains vs serial" first_serial domains;
        compare_rounds ~what:"fork vs serial" (List.map Checks.sweep_digest slice_serial) fork;
      ]
  in
  let pps p = float_of_int p.points /. p.elapsed_s in
  let count f = float_of_int (stat f) in
  let m = Report.m in
  let info =
    [
      m "sweep_serial_pts_per_s" "1/s" (pps serial);
      m "sweep_domains_pts_per_s" "1/s" (pps domains);
      m "sweep_fork_pts_per_s" "1/s" (pps fork);
      m "dpool.speedup_vs_serial" "x" (pps domains /. pps serial);
      (* worker time per point beyond what the same points cost serially *)
      m "pool.overhead_us_per_point" "us"
        (((fork.elapsed_s *. 2.0) -. slice_serial_s) *. 1e6 /. float_of_int fork.points);
      m "parsweep.computed" "count" (count (fun s -> s.Parsweep.computed));
      m "parsweep.crashed" "count" (count (fun s -> s.Parsweep.crashed));
      m "parsweep.retried" "count" (count (fun s -> s.Parsweep.retried));
      m "parsweep.failed" "count" (count (fun s -> s.Parsweep.failed));
      m "rounds" "count" (float_of_int rounds);
    ]
  in
  ( {
      Report.setup_s = Pct.median_of !setup;
      rate_per_s = rate;
      lat_us = lat;
      attempted = sum (fun p -> p.points) phases;
      failed = stat (fun s -> s.Parsweep.failed);
      lat_of = "one serial experiment sweep, per configuration";
      checks;
      residual_frac = None;
    },
    info )
