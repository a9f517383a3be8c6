(* argmin-solve: Advisor.solve, one problem at a time, over the paper grid
   plus seeded off-grid problems covering all eleven stencils and both
   architectures.  Each solve is one latency sample. *)

open Hexbench
module Experiments = Hextime_harness.Experiments
module Microbench = Hextime_harness.Microbench
module Advisor = Hextime_serve.Advisor
module Model = Hextime_core.Model
module Optimizer = Hextime_tileopt.Optimizer

let off_grid_count = 200

(* Seconds one pass over the problem set takes on a 2-core machine; it
   only fixes the number of passes from --seconds. *)
let pass_estimate_s = 10.0

let problems seed =
  let st = Inputs.rng seed in
  let off = Inputs.off_grid st off_grid_count in
  Inputs.shuffle st (Inputs.paper_grid () @ off)

(* The answer's checks against the model and the exhaustive arg-min;
   [Ok true] when the answer is below the exhaustive minimum. *)
let check (e : Experiments.t) (a : Advisor.answer) =
  let arch = e.Experiments.arch and problem = e.Experiments.problem in
  let params = Microbench.params arch in
  let citer = Microbench.citer arch problem.Hextime_stencil.Problem.stencil in
  let what = Experiments.id e in
  match Model.predict params ~citer problem a.Advisor.a_config with
  | Error msg -> Error (Printf.sprintf "%s: Model.predict: %s" what msg)
  | Ok p -> (
      match Optimizer.evaluate_space params ~citer problem with
      | [] -> Error (what ^ ": empty shape space")
      | space ->
          let best = (Optimizer.best space).Optimizer.prediction.Model.talg in
          Checks.argmin_answer ~what ~predicted:p.Model.talg ~exhaustive:best a)

let run ~seed ~seconds =
  let problems = problems seed in
  let passes = max 1 (int_of_float (Float.round (seconds /. pass_estimate_s))) in
  let setup = ref [] in
  let failed = ref [] and answers = ref [] in
  let samples = ref [] and elapsed = ref 0.0 in
  for pass = 1 to passes do
    List.iteri
      (fun i (e : Experiments.t) ->
        Proc.probe_setup ~workload:"argmin-solve" setup i;
        let r, dt =
          Proc.timed (fun () ->
              Spans.with_ "advisor.solve" (fun () ->
                  Advisor.solve e.Experiments.arch e.Experiments.problem))
        in
        elapsed := !elapsed +. dt;
        samples := (dt *. 1e6) :: !samples;
        match r with
        | Ok a -> answers := (pass, e, a) :: !answers
        | Error msg -> failed := (Experiments.id e ^ ": " ^ msg) :: !failed)
      problems
  done;
  let attempted = passes * List.length problems in
  (* the last pass's answers are checked against the model and the
     exhaustive minimum, every earlier pass's against the last pass's *)
  let last = Hashtbl.create 512 in
  List.iter
    (fun (pass, e, a) -> if pass = passes then Hashtbl.replace last (Experiments.id e) a)
    !answers;
  let verdicts =
    List.filter_map (fun (pass, e, a) -> if pass = passes then Some (check e a) else None) !answers
  in
  let repeats =
    List.filter_map
      (fun (pass, e, a) ->
        let what = Experiments.id e in
        if pass = passes then None
        else
          match Hashtbl.find_opt last what with
          | Some b -> Some (Checks.same_answer ~what a b)
          | None -> Some (Error (what ^ ": no answer in the last pass")))
      !answers
  in
  let wins = List.length (List.filter (fun v -> v = Ok true) verdicts) in
  let checks =
    Checks.all
      ((match !failed with
       | [] -> Ok ()
       | f :: _ -> Error ("Advisor.solve failed: " ^ f))
      :: (repeats @ List.map (Result.map ignore) verdicts))
  in
  let m = Report.m in
  let lat = Pct.summarize ~tail_p:90.0 !samples in
  ( {
      Report.setup_s = Pct.median_of !setup;
      rate_per_s = float_of_int attempted /. !elapsed;
      lat_us = lat;
      attempted;
      failed = List.length !failed;
      lat_of = "one solve";
      checks;
      residual_frac = None;
    },
    [
      m "solve_ms_p50" "ms" (lat.Pct.p50 /. 1000.0);
      m "solve_ms_p90" "ms" (lat.Pct.tail /. 1000.0);
      m "advisor.offgrid_wins" "count" (float_of_int wins);
      m "problems" "count" (float_of_int (List.length problems));
      m "passes" "count" (float_of_int passes);
    ] )
