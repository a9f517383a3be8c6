(* The per-layer census of a traced run.  It runs in a fresh process (so
   the fork-free, domain-free state of a new process holds) on a seeded
   sample of the workload's own problems, and calls each layer's public
   functions directly, batch by batch, each batch inside one span.  Per
   call it reports time and minor-heap words; the layers are then set
   against the end-to-end unit they make up (a sweep point, a solve) and
   what the named layers do not cover is the residual.

   Every layer is measured on every workload's problems, so a layer's cost
   is comparable across workloads; which layers a workload actually runs
   is stated with the workload (BENCHMARK.json). *)

open Hexbench
module Simulator = Hextime_gpu.Simulator
module Problem = Hextime_stencil.Problem
module Lower = Hextime_tiling.Lower
module Model = Hextime_core.Model
module Hexabs = Hextime_analysis.Hexabs
module Runner = Hextime_tileopt.Runner
module Space = Hextime_tileopt.Space
module Descent = Hextime_tileopt.Descent
module Optimizer = Hextime_tileopt.Optimizer
module Baseline = Hextime_tileopt.Baseline
module Experiments = Hextime_harness.Experiments
module Microbench = Hextime_harness.Microbench
module Sweep = Hextime_harness.Sweep
module Advisor = Hextime_serve.Advisor
module Index = Hextime_serve.Index
module Proto = Hextime_serve.Proto
module Minijson = Hextime_prelude.Minijson

let sample_size = 6

(* Each timed batch repeats until it has run at least this long, so clock
   resolution and one-off stalls stay small against it. *)
let min_batch_s = 0.05

type batch = { calls : int; seconds : float; words : float }

(* Run [f] over [xs] inside one span, repeating the whole list until the
   batch is long enough.  Reports per-call figures. *)
let batch name xs f =
  let n = List.length xs in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let reps = ref 0 in
  Spans.with_ name (fun () ->
      while !reps = 0 || Clock.now () -. t0 < min_batch_s do
        List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
        incr reps
      done);
  let seconds = Clock.now () -. t0 in
  { calls = n * !reps; seconds; words = Gc.minor_words () -. w0 }

let per_call_us b = b.seconds *. 1e6 /. float_of_int b.calls
let per_call_words b = b.words /. float_of_int b.calls

type acc = (string, float list) Hashtbl.t

let note (acc : acc) name v =
  Hashtbl.replace acc name (v :: Option.value ~default:[] (Hashtbl.find_opt acc name))

let mean (acc : acc) name =
  match Hashtbl.find_opt acc name with
  | Some (_ :: _ as xs) -> Hextime_prelude.Stats.mean xs
  | _ -> Float.nan

let ok_exn what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

(* A sweep point's layers: Model.predict, then Runner.measure, which is
   Lower.compile + Simulator pricing + the min-of-five replay. *)
let sweep_layers acc (e : Experiments.t) =
  let arch = e.Experiments.arch and problem = e.Experiments.problem in
  let params = Microbench.params arch in
  let citer = Microbench.citer arch problem.Problem.stencil in
  (* the points a sweep of [e] prices: its baseline configurations that
     the model accepts *)
  let all_configs = Baseline.data_points params problem in
  let configs =
    List.filter (fun c -> Result.is_ok (Model.predict params ~citer problem c)) all_configs
  in
  let compiled =
    List.filter_map (fun c -> Result.to_option (Lower.compile problem c)) configs
  in
  let sequences = List.map Lower.kernel_sequence compiled in
  let priced =
    List.filter_map
      (fun k -> Result.to_option (Simulator.price_sequence arch k))
      sequences
  in
  let predict = batch "model.predict" all_configs (Model.predict params ~citer problem) in
  let attribution =
    batch "model.attribution" configs (Model.attribution params ~citer problem)
  in
  let compile = batch "lower.compile" configs (Lower.compile problem) in
  let inv0 = Simulator.invocations () in
  let price = batch "simulator.price" sequences (Simulator.price_sequence arch) in
  let pricings = Simulator.invocations () - inv0 in
  let replay = batch "simulator.replay" priced (Simulator.measure_priced arch) in
  let measure = batch "runner.measure" configs (Runner.measure arch problem) in
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let sweep = batch "sweep.run" [ e ] Sweep.run in
  let minor = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
  let points = float_of_int (sweep.calls * List.length all_configs) in
  let point_us = sweep.seconds *. 1e6 /. points in
  (* what the named layers cost per point of this sweep: every point is
     predicted, the model-feasible ones are also measured *)
  let layers_us =
    ((per_call_us predict *. float_of_int (List.length all_configs))
    +. (per_call_us measure *. float_of_int (List.length configs)))
    /. float_of_int (List.length all_configs)
  in
  note acc "model.predict_us" (per_call_us predict);
  note acc "model.predict_words" (per_call_words predict);
  note acc "model.attribution_us" (per_call_us attribution);
  note acc "lower.compile_us" (per_call_us compile);
  note acc "lower.compile_words" (per_call_words compile);
  note acc "simulator.price_ns" (per_call_us price *. 1000.0);
  note acc "simulator.prices_per_point" (float_of_int pricings /. float_of_int price.calls);
  note acc "simulator.replay_ns" (per_call_us replay *. 1000.0);
  note acc "runner.measure_us" (per_call_us measure);
  note acc "runner.measure_words" (per_call_words measure);
  note acc "runner.self_us"
    (per_call_us measure -. per_call_us compile -. per_call_us price
    -. per_call_us replay);
  note acc "sweep.point_us" point_us;
  note acc "sweep.words_per_point" (sweep.words /. points);
  note acc "sweep.glue_us_per_point" (point_us -. layers_us);
  note acc "sweep.residual_frac" ((point_us -. layers_us) /. point_us);
  note acc "gc.minor_collections_per_kpt" (float_of_int minor /. (points /. 1000.0))

(* A solve's layers: Hexabs branch-and-bound seeds the Descent polish;
   Model.attribution prices the answer; the exhaustive Optimizer sweep is
   what a drift audit runs. *)
let solve_layers acc (e : Experiments.t) =
  let arch = e.Experiments.arch and problem = e.Experiments.problem in
  let params = Microbench.params arch in
  let citer = Microbench.citer arch problem.Problem.stencil in
  let tt, ts = Space.axes problem in
  let lattice = Hexabs.lattice ~tt ~ts in
  let bnb = ref None and sol = ref None and answer = ref None in
  let hexabs =
    batch "hexabs.minimize" [ () ] (fun () ->
        bnb := Some (ok_exn "Hexabs.minimize" (Hexabs.minimize params ~citer problem lattice)))
  in
  let descent =
    batch "descent.solve" [ () ] (fun () ->
        sol := Some (ok_exn "Descent.solve" (Descent.solve ~seed_mode:`Symbolic params ~citer problem)))
  in
  let space = ref [] in
  let evaluate =
    batch "optimizer.evaluate_space" [ () ] (fun () ->
        space := Optimizer.evaluate_space params ~citer problem)
  in
  let solve =
    batch "advisor.solve" [ () ] (fun () ->
        answer := Some (ok_exn "Advisor.solve" (Advisor.solve arch problem)))
  in
  let a = Option.get !answer in
  let attribution =
    batch "model.attribution" [ a.Advisor.a_config ]
      (Model.attribution params ~citer problem)
  in
  let b = Option.get !bnb and s = Option.get !sol in
  let ms x = per_call_us x /. 1000.0 in
  note acc "hexabs.minimize_ms" (ms hexabs);
  note acc "hexabs.evals_concrete" (float_of_int b.Hexabs.bnb_evals_concrete);
  note acc "hexabs.evals_bound" (float_of_int b.Hexabs.bnb_evals_bound);
  note acc "hexabs.boxes_pruned" (float_of_int b.Hexabs.bnb_boxes_pruned);
  note acc "descent.polish_ms" (ms descent -. ms hexabs);
  note acc "descent.evals" (float_of_int s.Descent.evaluations);
  note acc "optimizer.evaluate_space_ms" (ms evaluate);
  note acc "advisor.solve_ms" (ms solve);
  note acc "advisor.glue_ms" (ms solve -. ms descent -. ms attribution);
  note acc "solve.residual_frac"
    ((ms solve -. ms hexabs -. (ms descent -. ms hexabs) -. ms attribution) /. ms solve);
  let best = (Optimizer.best !space).Optimizer.prediction.Model.talg in
  note acc "advisor.offgrid_wins" (if a.Advisor.a_talg < best then 1.0 else 0.0);
  (a, Advisor.request_key arch problem)

(* The serve path's in-process layers on the sample's answers: request
   keys, index lookups and snapshots at [index_size] entries, and the
   wire encoding of an ask and its answer. *)
let serve_layers acc ~work ~index_size samples =
  let index = Index.create () in
  let entries =
    List.map
      (fun ((e : Experiments.t), (a, key)) ->
        let entry = Index.entry_of_answer e.Experiments.arch e.Experiments.problem a in
        assert (entry.Index.e_key = key);
        entry)
      samples
  in
  let n = List.length entries in
  List.iteri
    (fun i entry ->
      Index.add index { entry with Index.e_key = Printf.sprintf "%s#%d" entry.Index.e_key i })
    (List.init (max 0 (index_size - n)) (fun i -> List.nth entries (i mod n)));
  List.iter (Index.add index) entries;
  let keys = List.map (fun e -> e.Index.e_key) entries in
  let request_key =
    batch "advisor.request_key" samples (fun ((e : Experiments.t), _) ->
        Advisor.request_key e.Experiments.arch e.Experiments.problem)
  in
  let find = batch "index.find" keys (Index.find index) in
  let path = Filename.concat work "census-index.json" in
  let saves =
    List.init 5 (fun _ ->
        (batch "index.save" [ () ] (fun () -> ok_exn "Index.save" (Index.save index ~path)))
          .seconds)
  in
  let asks = List.map (fun (e, _) -> Proto.request_to_json (Inputs.ask_of e)) samples in
  let answers =
    List.map
      (fun entry ->
        Proto.reply_to_json
          (Proto.Answer
             { source = Proto.Warm; entry; latency_us = 100.0; req_id = "r000001";
               server = [ ("uptime_s", 1.0) ] }))
      entries
  in
  let wire = List.combine asks answers in
  let encode =
    batch "proto.encode" wire (fun (q, a) ->
        (Minijson.render_compact q, Minijson.render_compact a))
  in
  let texts =
    List.map (fun (q, a) -> (Minijson.render_compact q, Minijson.render_compact a)) wire
  in
  let decode =
    batch "proto.decode" texts (fun (q, a) ->
        ( Result.bind (Minijson.parse q) Proto.request_of_json,
          Result.bind (Minijson.parse a) Proto.reply_of_json ))
  in
  note acc "advisor.request_key_us" (per_call_us request_key);
  note acc "index.find_ns" (per_call_us find *. 1000.0);
  note acc "index.save_ms" (Pct.median_of saves *. 1000.0);
  note acc "proto.encode_us" (per_call_us encode);
  note acc "proto.decode_us" (per_call_us decode)

let names =
  [
    ("lower.compile_us", "us"); ("lower.compile_words", "words");
    ("model.predict_us", "us"); ("model.predict_words", "words");
    ("model.attribution_us", "us");
    ("simulator.price_ns", "ns"); ("simulator.prices_per_point", "count");
    ("simulator.replay_ns", "ns");
    ("runner.measure_us", "us"); ("runner.measure_words", "words");
    ("runner.self_us", "us");
    ("sweep.point_us", "us"); ("sweep.words_per_point", "words");
    ("sweep.glue_us_per_point", "us"); ("sweep.residual_frac", "frac");
    ("gc.minor_collections_per_kpt", "count");
    ("hexabs.minimize_ms", "ms"); ("hexabs.evals_concrete", "count");
    ("hexabs.evals_bound", "count"); ("hexabs.boxes_pruned", "count");
    ("descent.polish_ms", "ms"); ("descent.evals", "count");
    ("optimizer.evaluate_space_ms", "ms");
    ("advisor.solve_ms", "ms"); ("advisor.glue_ms", "ms");
    ("solve.residual_frac", "frac");
    ("advisor.offgrid_wins", "count");
    ("advisor.request_key_us", "us"); ("index.find_ns", "ns");
    ("index.save_ms", "ms"); ("proto.encode_us", "us");
    ("proto.decode_us", "us");
  ]

(* Census of a sample of [problems]; prints the span table on standard
   error and returns the per-layer metrics. *)
let run ~seed ~work ~index_size problems =
  Spans.enable ();
  let st = Inputs.rng (seed + 1) in
  let sample = List.filteri (fun i _ -> i < sample_size) (Inputs.shuffle st problems) in
  let acc = Hashtbl.create 64 in
  List.iter (sweep_layers acc) sample;
  let solved = List.map (fun e -> (e, solve_layers acc e)) sample in
  serve_layers acc ~work ~index_size solved;
  Hashtbl.replace acc "advisor.offgrid_wins"
    [ List.fold_left ( +. ) 0.0 (Hashtbl.find acc "advisor.offgrid_wins") ];
  List.map (fun (name, unit_) -> Report.m name unit_ (mean acc name)) names
