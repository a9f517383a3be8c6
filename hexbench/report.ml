(* What a run prints: a human-readable table of every figure it measured,
   then, as the last line of standard output, one JSON object with the
   metrics BENCHMARK.json names for the run's mode. *)

module Minijson = Hextime_prelude.Minijson

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let line fmt = Printf.printf (fmt ^^ "\n%!")

let section title = line "-- %s" title

let row ?(note = "") (x : metric) =
  line "  %-34s %16.6g %-6s %s" x.name x.value x.unit_ note

let text name value = line "  %-34s %s" name value

(* Per-span-name calls, total and self time. *)
let span_table oc spans =
  List.iter
    (fun (name, (calls, total, self)) ->
      Printf.fprintf oc "  %-34s %8d calls %12.3f ms total %12.3f ms self\n%!" name
        calls (total *. 1e3) (self *. 1e3))
    (Hexbench.Spans.self_times spans)

let result ~correct ~attempted ~failed metrics =
  let num v = Minijson.Num v in
  Minijson.Obj
    [
      ("correct", Minijson.Bool correct);
      ("attempted", num (float_of_int attempted));
      ("failed", num (float_of_int failed));
      ( "metrics",
        Minijson.Obj
          (List.map
             (fun x ->
               ( x.name,
                 Minijson.Obj
                   [ ("value", num x.value); ("unit", Minijson.Str x.unit_) ] ))
             metrics) );
    ]
  |> Minijson.render_compact |> print_endline

(* One workload run's end-to-end outcome. *)
type outcome = {
  setup_s : float;  (** median set-up time *)
  rate_per_s : float;  (** units of work completed per second *)
  lat_us : Hexbench.Pct.summary;  (** per-unit latency, microseconds *)
  lat_of : string;  (** what one latency sample is *)
  attempted : int;
  failed : int;
  checks : (unit, string) result;
  residual_frac : float option;
      (** share of the unit cost outside every named layer, when the
          workload itself can measure it (the serve workloads) *)
}

let e2e (o : outcome) =
  [
    m "setup_s" "s" o.setup_s;
    m "rate_per_s" "1/s" o.rate_per_s;
    m "p50_us" "us" o.lat_us.Hexbench.Pct.p50;
    m "tail_us" "us" o.lat_us.Hexbench.Pct.tail;
  ]
