(* Self-tests of the benchmark's own machinery: the percentile rule, the
   open-loop schedule and its lateness accounting, span self times, and
   each output check rejecting a deliberately perturbed result. *)

open Hexbench
module Sweep = Hextime_harness.Sweep
module Experiments = Hextime_harness.Experiments
module Microbench = Hextime_harness.Microbench
module Model = Hextime_core.Model
module Optimizer = Hextime_tileopt.Optimizer
module Advisor = Hextime_serve.Advisor
module Index = Hextime_serve.Index
module Proto = Hextime_serve.Proto
module Minijson = Hextime_prelude.Minijson

let ok what = function
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: unexpected rejection: %s" what msg

let rejected what = function
  | Ok _ -> Alcotest.failf "%s: perturbed result accepted" what
  | Error _ -> ()

let feq = Alcotest.(check (float 1e-12))

(* --- percentiles ---------------------------------------------------------- *)

let test_nearest_rank () =
  let a = Pct.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  feq "p50" 50.0 (Pct.at a 50.0);
  feq "p90" 90.0 (Pct.at a 90.0);
  feq "p100" 100.0 (Pct.at a 100.0);
  feq "p0" 1.0 (Pct.at a 0.0);
  Alcotest.(check int) "beyond p90 of 100" 10 (Pct.beyond 100 90.0)

let test_tail_rule () =
  let tail n = Pct.highest_tail n in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "19 samples: none" None (tail 19);
  Alcotest.check opt "20 samples: p50" (Some 50.0) (tail 20);
  Alcotest.check opt "100 samples: p90" (Some 90.0) (tail 100);
  Alcotest.check opt "999 samples: p95" (Some 95.0) (tail 999);
  Alcotest.check opt "1000 samples: p99" (Some 99.0) (tail 1000);
  Alcotest.check opt "100000 samples: p99.99" (Some 99.99) (tail 100_000)

let test_summarize () =
  let xs = List.init 1000 float_of_int in
  let s = Pct.summarize ~tail_p:99.0 xs in
  feq "tail" 989.0 s.Pct.tail;
  Alcotest.(check int) "n" 1000 s.Pct.n;
  match Pct.summarize ~tail_p:99.0 (List.init 999 float_of_int) with
  | _ -> Alcotest.fail "p99 of 999 samples has nine beyond it; must refuse"
  | exception Failure _ -> ()

let test_windows () =
  let calm = List.init 1000 float_of_int in
  let stalled = List.init 1000 (fun i -> float_of_int i +. 1e6) in
  let s = Pct.summarize_windows ~tail_p:99.0 [ calm; stalled; calm ] in
  feq "median of window p50s" 499.0 s.Pct.p50;
  feq "median of window tails" 989.0 s.Pct.tail;
  Alcotest.(check int) "samples" 3000 s.Pct.n;
  match Pct.summarize_windows ~tail_p:99.0 [ calm; List.init 500 float_of_int ] with
  | _ -> Alcotest.fail "a window too small for p99 must be refused"
  | exception Failure _ -> ()

(* --- open-loop schedule ---------------------------------------------------- *)

let test_schedule () =
  let s = Sched.make ~rate:1000.0 ~seconds:2.0 in
  Alcotest.(check int) "count" 2000 s.Sched.count;
  feq "due 0" 0.0 (Sched.due s 0);
  feq "due 250" 0.25 (Sched.due s 250);
  Alcotest.(check int) "due by t=0" 1 (Sched.due_by s ~elapsed:0.0);
  Alcotest.(check int) "due by 2.5 ms" 3 (Sched.due_by s ~elapsed:0.0025);
  Alcotest.(check int) "due by the end" 2000 (Sched.due_by s ~elapsed:60.0)

let test_lateness () =
  let g = Sched.gen () in
  (* three asks sent in a burst 5 ms after the first was due *)
  List.iter (fun i -> Sched.note_send g ~due_s:(0.001 *. float_of_int i) ~now_s:0.005) [ 0; 1; 2 ];
  feq "late max" 0.005 g.Sched.late_max_s;
  Alcotest.(check int) "backlog" 3 g.Sched.backlog_max;
  (* the latency counts from the due time, not the late send *)
  feq "latency" 0.010 (Sched.note_reply g ~due_s:0.0 ~now_s:0.010);
  Sched.note_send g ~due_s:0.003 ~now_s:0.011;
  Alcotest.(check int) "backlog after a reply" 3 g.Sched.backlog_max;
  feq "late max" 0.008 g.Sched.late_max_s

(* --- spans ------------------------------------------------------------------- *)

let test_self_times () =
  let sp id parent name t0 t1 = { Spans.id; parent; name; t0; t1 } in
  let spans =
    [ sp 1 0 "point" 0.0 10.0; sp 2 1 "predict" 1.0 3.0; sp 3 1 "measure" 4.0 8.0;
      sp 4 3 "compile" 4.0 5.0 ]
  in
  let get name = List.assoc name (Spans.self_times spans) in
  let _, total, self = get "point" in
  feq "point total" 10.0 total;
  feq "point self" 4.0 self;
  let _, _, self = get "measure" in
  feq "measure self" 3.0 self

(* --- output checks ------------------------------------------------------------ *)

let experiment = List.hd (Inputs.ci_grid ())

(* The sweep check compares digests: equal for a fresh sweep of the same
   experiment, different for any perturbed point, lost point or drop. *)
let test_sweep_digest () =
  let sweep = Sweep.baseline ~limit:40 experiment in
  let same what b =
    Alcotest.(check bool) what true
      (String.equal (Checks.sweep_digest sweep) (Checks.sweep_digest b))
  and differs what b =
    Alcotest.(check bool) what false
      (String.equal (Checks.sweep_digest sweep) (Checks.sweep_digest b))
  in
  same "a fresh sweep" (Sweep.baseline ~limit:40 experiment);
  let bump (p : Sweep.point) =
    { p with
      Sweep.predicted =
        { p.Sweep.predicted with Model.talg = Float.succ p.Sweep.predicted.Model.talg } }
  in
  differs "one ulp off"
    { sweep with Sweep.points = List.mapi (fun i p -> if i = 7 then bump p else p) sweep.Sweep.points };
  differs "a point lost" { sweep with Sweep.points = List.tl sweep.Sweep.points };
  differs "model drops differ"
    { sweep with Sweep.infeasible_model = sweep.Sweep.infeasible_model + 1 };
  differs "runner drops differ"
    { sweep with Sweep.infeasible_runner = sweep.Sweep.infeasible_runner + 1 }

let solved =
  lazy
    (let arch = experiment.Experiments.arch and problem = experiment.Experiments.problem in
     match Advisor.solve arch problem with
     | Error msg -> failwith msg
     | Ok a -> a)

let test_argmin_answer () =
  let arch = experiment.Experiments.arch and problem = experiment.Experiments.problem in
  let params = Microbench.params arch in
  let citer = Microbench.citer arch problem.Hextime_stencil.Problem.stencil in
  let a = Lazy.force solved in
  let predicted =
    match Model.predict params ~citer problem a.Advisor.a_config with
    | Ok p -> p.Model.talg
    | Error msg -> failwith msg
  in
  let exhaustive =
    (Optimizer.best (Optimizer.evaluate_space params ~citer problem)).Optimizer.prediction.Model.talg
  in
  ok "answer" (Checks.argmin_answer ~what:"t" ~predicted ~exhaustive a);
  rejected "Talg one ulp up"
    (Checks.argmin_answer ~what:"t" ~predicted ~exhaustive
       { a with Advisor.a_talg = Float.succ a.Advisor.a_talg });
  rejected "above the exhaustive minimum"
    (Checks.argmin_answer ~what:"t" ~predicted ~exhaustive:(Float.pred a.Advisor.a_talg) a);
  ok "same answer" (Checks.same_answer ~what:"t" a a);
  rejected "another pass one ulp off"
    (Checks.same_answer ~what:"t" a { a with Advisor.a_talg = Float.succ a.Advisor.a_talg })

let test_served () =
  let arch = experiment.Experiments.arch and problem = experiment.Experiments.problem in
  let expected = Index.entry_of_answer arch problem (Lazy.force solved) in
  let answer entry source =
    { Proto.source; entry; latency_us = 5.0; req_id = "r000001"; server = [] }
  in
  ok "warm" (Checks.served ~what:"t" ~expected ~expected_source:Proto.Warm (answer expected Proto.Warm));
  rejected "talg perturbed"
    (Checks.served ~what:"t" ~expected ~expected_source:Proto.Warm
       (answer { expected with Index.e_talg = expected.Index.e_talg *. 1.01 } Proto.Warm));
  rejected "cold where warm was due"
    (Checks.served ~what:"t" ~expected ~expected_source:Proto.Warm (answer expected Proto.Cold));
  (* the wire round trip preserves the entry exactly *)
  let wire =
    Proto.reply_to_json (Proto.Answer (answer expected Proto.Cold))
    |> Minijson.render_compact |> Minijson.parse
    |> Fun.flip Result.bind Proto.reply_of_json
  in
  match wire with
  | Ok (Proto.Answer a) -> ok "after the wire" (Checks.served ~what:"t" ~expected ~expected_source:Proto.Cold a)
  | _ -> Alcotest.fail "reply did not round-trip"

let test_drift_alarm () =
  let stats v =
    Minijson.Obj [ ("gauges", Minijson.Obj [ ("serve.drift_alarm", Minijson.Num v) ]) ]
  in
  ok "clear" (Checks.drift_alarm_clear (stats 0.0));
  rejected "tripped" (Checks.drift_alarm_clear (stats 1.0));
  rejected "missing" (Checks.drift_alarm_clear (Minijson.Obj []))

let () =
  Alcotest.run "hexbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "summarize refuses thin tails" `Quick test_summarize;
          Alcotest.test_case "median over windows" `Quick test_windows;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "schedule" `Quick test_schedule;
          Alcotest.test_case "lateness and backlog" `Quick test_lateness;
        ] );
      ("spans", [ Alcotest.test_case "self times" `Quick test_self_times ]);
      ( "checks",
        [
          Alcotest.test_case "sweep identity" `Quick test_sweep_digest;
          Alcotest.test_case "arg-min answer" `Quick test_argmin_answer;
          Alcotest.test_case "served entry" `Quick test_served;
          Alcotest.test_case "drift alarm" `Quick test_drift_alarm;
        ] );
    ]
