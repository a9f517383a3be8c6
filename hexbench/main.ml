(* hexbench: one workload per process.

     main.exe run --workload W --seed N --seconds S --trace 0|1
                  --hextime PATH --work DIR --out DIR
     main.exe calibrate W        (set-up probe in a fresh process; prints
                                 the seconds it took)
     main.exe census W SEED WORK INDEX_SIZE   (per-layer census, ditto)

   hexbench/run.py builds this executable and the hextime CLI and runs it;
   see BENCHMARK.json for the workloads and metrics. *)

open Hexbench
module Stencil = Hextime_stencil.Stencil
module Minijson = Hextime_prelude.Minijson

let workloads = [ "sweep-paper"; "argmin-solve"; "serve-mixed" ]

let stencils_of = function
  | "sweep-paper" -> Stencil.benchmarks_2d @ Stencil.benchmarks_3d
  | _ -> Stencil.all_benchmarks

let problems_of workload seed =
  match workload with
  | "sweep-paper" -> Inputs.paper_grid ()
  | "argmin-solve" -> W_argmin.problems seed
  | _ ->
      (* serve-mixed: the index, plus a few off-grid problems like its cold
         asks *)
      Inputs.paper_grid () @ Inputs.off_grid (Inputs.rng seed) 22

let census workload seed work index_size =
  let metrics =
    Census.run ~seed ~work ~index_size (problems_of workload seed)
  in
  Printf.eprintf "-- census spans (self time)\n";
  Report.span_table stderr (Spans.all ());
  Minijson.Obj (List.map (fun (x : Report.metric) -> (x.Report.name, Minijson.Num x.Report.value)) metrics)
  |> Minijson.render_compact |> print_endline

let read_census ~workload ~seed ~work ~index_size =
  let out =
    Proc.self_output
      [ "census"; workload; string_of_int seed; work; string_of_int index_size ]
  in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  match Minijson.parse last with
  | Ok (Minijson.Obj kvs) ->
      List.map
        (fun (name, unit_) ->
          match List.assoc_opt name kvs with
          | Some (Minijson.Num v) -> Report.m name unit_ v
          | _ -> failwith ("census: missing " ^ name))
        Census.names
  | _ -> failwith "census: unreadable output"

let run ~workload ~seed ~seconds ~trace ~hextime ~work ~out =
  if trace then Spans.enable ();
  let t0 = Proc.now () in
  let outcome, info =
    match workload with
    | "sweep-paper" -> W_sweep.run ~seed ~seconds
    | "argmin-solve" -> W_argmin.run ~seed ~seconds
    | "serve-mixed" -> W_serve.run ~seed ~seconds ~hextime ~work
    | w -> failwith ("unknown workload " ^ w)
  in
  let wall_s = Proc.now () -. t0 in
  let open Report in
  line "hexbench %s  seed %d  seconds %g  trace %b" workload seed seconds trace;
  section "end to end";
  List.iter
    (fun x ->
      let note =
        match x.name with
        | "p50_us" | "tail_us" ->
            let l = outcome.lat_us in
            Printf.sprintf "(%s; tail = %s; %s, %d samples)" outcome.lat_of
              (Pct.label l.Pct.tail_p)
              (if l.Pct.windows = 1 then "pooled over the run"
               else Printf.sprintf "median over %d windows" l.Pct.windows)
              l.Pct.n
        | _ -> ""
      in
      row ~note x)
    (e2e outcome);
  text "attempted / failed" (Printf.sprintf "%d / %d" outcome.attempted outcome.failed);
  (* reported in the JSON result as attempted and failed *)
  row
    (m "failed_frac" "frac"
       (float_of_int outcome.failed /. float_of_int outcome.attempted));
  section "workload figures";
  List.iter row info;
  section "output checks";
  (match outcome.checks with
  | Ok () -> text "checks" "pass"
  | Error msg -> text "checks" ("FAIL: " ^ msg));
  let correct = Result.is_ok outcome.checks in
  if not trace then
    result ~correct ~attempted:outcome.attempted ~failed:outcome.failed (e2e outcome)
  else begin
    let spans = Spans.all () in
    let overhead = float_of_int (List.length spans) *. Spans.cost_per_span () /. wall_s in
    (try Sys.mkdir out 0o755 with Sys_error _ -> ());
    Spans.write_chrome
      (Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" workload seed))
      spans;
    section "workload spans (self time)";
    span_table stdout spans;
    let index_size =
      match List.find_opt (fun x -> x.name = "index.final_size") info with
      | Some x -> int_of_float x.value
      | None -> 128
    in
    let layers = read_census ~workload ~seed ~work ~index_size in
    let find name = (List.find (fun x -> x.name = name) layers).value in
    let residual =
      match (outcome.residual_frac, workload) with
      | Some r, _ -> r
      | None, "sweep-paper" -> find "sweep.residual_frac"
      | None, _ -> find "solve.residual_frac"
    in
    let per_layer =
      layers
      @ [
          m "trace.overhead_frac" "frac" overhead;
          m "trace.residual_frac" "frac" residual;
        ]
    in
    section "per layer (census on this workload's problems)";
    List.iter row per_layer;
    row (m "trace.spans" "count" (float_of_int (List.length spans)));
    result ~correct ~attempted:outcome.attempted ~failed:outcome.failed per_layer
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "calibrate" :: [ w ] ->
      Printf.printf "%.9f\n" (snd (Proc.timed (fun () -> Proc.calibrate (stencils_of w))))
  | _ :: "census" :: [ w; seed; work; size ] ->
      census w (int_of_string seed) work (int_of_string size)
  | _ :: "run" :: rest ->
      let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
      let trace = ref 0 and hextime = ref "" and work = ref "" and out = ref "" in
      let spec =
        [
          ("--workload", Arg.Set_string workload, "W");
          ("--seed", Arg.Set_int seed, "N");
          ("--seconds", Arg.Set_float seconds, "S");
          ("--trace", Arg.Set_int trace, "0|1");
          ("--hextime", Arg.Set_string hextime, "PATH");
          ("--work", Arg.Set_string work, "DIR");
          ("--out", Arg.Set_string out, "DIR");
        ]
      in
      Arg.parse_argv (Array.of_list ("main" :: rest)) spec
        (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
        "main.exe run";
      if not (List.mem !workload workloads) then (
        prerr_endline ("unknown workload " ^ !workload);
        exit 2);
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~hextime:!hextime ~work:!work ~out:!out
  | _ ->
      prerr_endline "usage: main.exe run|calibrate|census ...";
      exit 2
