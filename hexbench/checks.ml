(* Output checks.  Each one holds on the unmodified program for every
   seed, and each is run after the timed phase of its workload.  A check
   returns [Error] with the first mismatch it finds. *)

module Sweep = Hextime_harness.Sweep
module Config = Hextime_tiling.Config
module Model = Hextime_core.Model
module Runner = Hextime_tileopt.Runner
module Advisor = Hextime_serve.Advisor
module Index = Hextime_serve.Index
module Proto = Hextime_serve.Proto
module Minijson = Hextime_prelude.Minijson

let g = Printf.sprintf "%.17g"

let point_line (p : Sweep.point) =
  String.concat " "
    [
      Config.id p.Sweep.config;
      g p.Sweep.predicted.Model.talg;
      g p.Sweep.measured.Runner.time_s;
      g p.Sweep.measured.Runner.gflops;
      string_of_int p.Sweep.measured.Runner.resident_blocks;
      string_of_int p.Sweep.measured.Runner.spilled_regs;
    ]

(* A digest of a sweep: its drop counts and every point's line at %.17g.
   Two sweeps of the same experiment agree point for point, with the same
   point and drop counts, exactly when their digests are equal; a digest
   lets every round of a long run be checked without keeping its
   results. *)
let sweep_digest (s : Sweep.sweep) =
  let b = Buffer.create 65536 in
  Printf.bprintf b "%d %d\n" s.Sweep.infeasible_model s.Sweep.infeasible_runner;
  List.iter
    (fun p ->
      Buffer.add_string b (point_line p);
      Buffer.add_char b '\n')
    s.Sweep.points;
  Digest.string (Buffer.contents b)

(* An arg-min answer's Talg is exactly the model's prediction for its own
   configuration, and never above the exhaustive minimum over the shape
   space.  It may be below it: the descent polish can leave the grid
   that exhaustive enumeration covers.  Returns whether it was below. *)
let argmin_answer ~what ~predicted ~exhaustive (a : Advisor.answer) =
  if Int64.bits_of_float a.Advisor.a_talg <> Int64.bits_of_float predicted then
    Error
      (Printf.sprintf "%s: answer Talg %s but Model.predict gives %s" what
         (g a.Advisor.a_talg) (g predicted))
  else if not (a.Advisor.a_talg <= exhaustive) then
    Error
      (Printf.sprintf "%s: answer Talg %s above the exhaustive minimum %s" what
         (g a.Advisor.a_talg) (g exhaustive))
  else Ok (a.Advisor.a_talg < exhaustive)

(* Two solves of the same problem give the same configuration and the
   same Talg, bit for bit. *)
let same_answer ~what (a : Advisor.answer) (b : Advisor.answer) =
  let ca = Config.id a.Advisor.a_config and cb = Config.id b.Advisor.a_config in
  if String.equal ca cb && Int64.bits_of_float a.Advisor.a_talg = Int64.bits_of_float b.Advisor.a_talg
  then Ok ()
  else
    Error
      (Printf.sprintf "%s: answers differ between passes: %s %s vs %s %s" what ca
         (g a.Advisor.a_talg) cb (g b.Advisor.a_talg))

let entry_text e = Minijson.render_compact (Index.entry_to_json e)

(* A served answer carries exactly the offline entry for its problem, from
   the expected source. *)
let served ~what ~(expected : Index.entry) ~expected_source (a : Proto.answer) =
  if a.Proto.source <> expected_source then
    Error
      (Printf.sprintf "%s: served %s, expected %s" what
         (Proto.source_to_string a.Proto.source)
         (Proto.source_to_string expected_source))
  else
    let want = entry_text expected and got = entry_text a.Proto.entry in
    if String.equal want got then Ok ()
    else Error (Printf.sprintf "%s: served %s, offline solve gives %s" what got want)

(* The server's drift alarm gauge, read from a [stats] snapshot. *)
let drift_alarm_clear stats =
  match
    Option.bind (Minijson.member "gauges" stats) (fun gs ->
        Option.bind (Minijson.member "serve.drift_alarm" gs) Minijson.number)
  with
  | Some 0.0 -> Ok ()
  | Some v -> Error (Printf.sprintf "serve.drift_alarm is %g at shutdown" v)
  | None -> Error "stats snapshot has no serve.drift_alarm gauge"

let all results =
  List.fold_left
    (fun acc r -> match (acc, r) with Ok (), r -> r | (Error _ as e), _ -> e)
    (Ok ()) results
