(* The benchmark's own span recorder.  Spans wrap the benchmark's calls
   into the program's layers; they stay in memory and are written out when
   the run ends.  The program's own tracer stays off, so a traced run adds
   exactly the spans below and nothing inside the program.

   A span's self time is its duration minus the time its child spans
   cover (children never overlap: the recorder is single-threaded). *)

type span = {
  id : int;
  parent : int;  (** [0] for a root span *)
  name : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let next_id = ref 0
let stack : int list ref = ref []
let recorded : span list ref = ref []

let enable () = on := true

let now = Clock.now

let with_ name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      recorded := { id; parent; name; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !recorded

(* Per name: (calls, total seconds, self seconds), sorted by name. *)
let self_times spans =
  let child_cover = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_cover s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_cover s.parent)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self =
        dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_cover s.id)
      in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (n + 1, tot +. dur, slf +. self))
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Cost of recording one span, measured on 20,000 empty spans; the
   traced run reports spans x this cost as its tracing overhead. *)
let cost_per_span () =
  let n = 20_000 in
  let saved_on = !on and saved_next = !next_id and saved = !recorded in
  on := true;
  let t0 = now () in
  for _ = 1 to n do
    with_ "probe" ignore
  done;
  let dt = now () -. t0 in
  on := saved_on;
  next_id := saved_next;
  recorded := saved;
  dt /. float_of_int n

(* Chrome trace-event JSON, through the program's own exporter. *)
let write_chrome path spans =
  let events =
    List.map
      (fun s ->
        Hextime_obs.Trace.make ~cat:"hexbench" ~ph:"X"
          ~args:[ ("id", string_of_int s.id); ("parent", string_of_int s.parent) ]
          ~dur_us:((s.t1 -. s.t0) *. 1e6)
          ~ts_us:(s.t0 *. 1e6) s.name)
      spans
  in
  Hextime_obs.Trace.write_file path events
