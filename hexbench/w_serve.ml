(* serve-mixed: a `hextime serve` process answering asks on a Unix-domain
   socket from an index of the paper grid (128 keys).

   The server runs as its own process with the sweep cache off, one
   in-process job and no ledger, so a "cold" ask is a real solve on every
   run and nothing is written outside the run's work directory.

   Traffic is an open loop at a fixed rate over one connection: a seeded
   Zipf mix of indexed asks with a 0.5% share of cold asks for fresh
   problems that are not in the index, and drift audits on a fixed share
   of warm answers.  Cold solves, index write-back and audits all run
   inline in the server's select loop, so they delay the warm asks queued
   behind them; every latency is measured from the ask's due time. *)

open Hexbench
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Experiments = Hextime_harness.Experiments
module Parsweep = Hextime_parsweep.Parsweep
module Advisor = Hextime_serve.Advisor
module Index = Hextime_serve.Index
module Proto = Hextime_serve.Proto
module Client = Hextime_serve.Client
module Minijson = Hextime_prelude.Minijson

let mixed_rate = 1000.0
(* One ask in 200 is cold.  One in 100 kept the server about 60% busy;
   near that load a host 10% slower made cold and warm latencies 27%
   worse (queueing delay grows as load / (1 - load)), past any bound a
   gate can hold.  At one in 200 the server is about a third busy. *)
let cold_share = 0.005
let audit_rate = 50

(* Seconds to wait for outstanding replies once the schedule has ended. *)
let drain_s = 20.0

(* Latency figures are taken per window of this many seconds of the
   schedule, then the median over windows, so bursts of host stalls (the
   virtual CPUs lose milliseconds at a time under load) move a few
   windows and not the reported figures.  A window holds 4975 warm and 25
   cold asks: ten or more beyond each tail percentile. *)
let window_s = 5.0

let domains2 = { Parsweep.serial with jobs = 2; backend = `Domains }

let key (e : Experiments.t) = Advisor.request_key e.Experiments.arch e.Experiments.problem


(* Offline answers: Advisor.solve in this process. *)
let solve_all ~exec (es : Experiments.t list) =
  let outcomes, _ =
    Parsweep.map exec ~key
      ~f:(fun (e : Experiments.t) -> Advisor.solve e.Experiments.arch e.Experiments.problem)
      es
  in
  List.map2
    (fun (e : Experiments.t) r ->
      match r with
      | Ok (Ok a) -> Index.entry_of_answer e.Experiments.arch e.Experiments.problem a
      | Ok (Error msg) | Error msg -> failwith (Experiments.id e ^ ": " ^ msg))
    es outcomes

type server = { pid : int; fd : Unix.file_descr }

let ask_exn fd (e : Experiments.t) =
  let arch, stencil, space, time = Inputs.ask_fields e in
  match Client.ask fd ~arch ~stencil ~space ~time with
  | Ok a -> a
  | Error msg -> failwith ("ask: " ^ msg)

(* Start the server and wait for its first answer: the set-up a user pays
   before the service is useful. *)
let start ~hextime ~work ~probe =
  let socket = Filename.concat work "serve.sock" in
  let log = Unix.openfile (Filename.concat work "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let args =
    [ hextime; "serve"; "--index"; Filename.concat work "index.json"; "--socket"; socket;
      "--no-cache"; "--jobs"; "1"; "--backend"; "fork"; "--no-ledger";
      "--audit-rate"; string_of_int audit_rate; "--audit-cold" ]
  in
  let pid = Unix.create_process hextime (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  match Client.connect ~attempts:2000 ~delay_s:0.005 ~socket_path:socket () with
  | Error msg ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith ("serve: " ^ msg)
  | Ok fd ->
      ignore (ask_exn fd probe : Proto.answer);
      { pid; fd }

(* Shut the server down and return its exit code. *)
let stop s =
  (match Client.shutdown s.fd with Ok () -> () | Error _ -> ());
  Client.close s.fd;
  match Unix.waitpid [] s.pid with
  | _, Unix.WEXITED c -> c
  | _ -> -1

(* Served answers per key, deduplicated, for the checks after the run. *)
type served = (string, Experiments.t * Proto.source * Proto.answer list) Hashtbl.t

let note_served (tbl : served) (e : Experiments.t) ~expected (a : Proto.answer) =
  let k = a.Proto.entry.Index.e_key in
  match Hashtbl.find_opt tbl k with
  | None -> Hashtbl.replace tbl k (e, expected, [ a ])
  | Some (e0, x, seen) ->
      if not (List.exists (fun b -> b.Proto.entry = a.Proto.entry && b.Proto.source = a.Proto.source) seen)
      then Hashtbl.replace tbl k (e0, x, a :: seen)

let check_served (tbl : served) (offline : (string, Index.entry) Hashtbl.t) =
  Checks.all
    (Hashtbl.fold
       (fun k (e, expected_source, answers) acc ->
         let what = Experiments.id e in
         let r =
           if k <> key e then Error (what ^ ": served entry for another problem")
           else
             match Hashtbl.find_opt offline k with
             | None -> Error (what ^ ": no offline answer")
             | Some expected ->
                 Checks.all
                   (List.map (Checks.served ~what ~expected ~expected_source) answers)
         in
         r :: acc)
       tbl [])

type traffic = {
  warm_us : float list array;  (** warm latencies, per window *)
  cold_us : float list array;  (** cold latencies, per window *)
  server_us : float list;  (** the answers' server-side latency *)
  transport_us : float list;  (** round trip from send minus server latency *)
  replies : int;  (** replies, and asks that got none *)
  errors : string list;  (** one per error reply *)
  lost : int;  (** asks with no reply within [drain_s] of the schedule's end *)
  reply_rate : float;  (** replies per second of schedule: the offered rate *)
  gen : Sched.gen;
}

type kind = Warm of Experiments.t | Cold of Experiments.t

(* The open-loop schedule's asks: Zipf over the index, and one cold ask in
   every block of [1 / cold_share] asks, at a seeded position in the
   block's middle half so cold asks never arrive back to back.  Cold asks
   are fresh problems whose keys are neither in the index nor asked
   before, drawn like the off-grid problems of argmin-solve
   ([Inputs.off_grid]), so each run solves the same mix of problem kinds
   and sizes. *)
let mixed_asks ~seed ~seconds ~grid =
  let st = Inputs.rng (seed + 3) in
  let by_rank = Array.of_list (Inputs.shuffle st grid) in
  let draw = Inputs.zipf (Array.length by_rank) in
  let sched = Sched.make ~rate:mixed_rate ~seconds in
  let block = int_of_float (Float.round (1.0 /. cold_share)) in
  let used = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace used (key e) ()) grid;
  let colds = ref (Inputs.off_grid st ((sched.Sched.count + block - 1) / block)) in
  (* a draw that repeats a key already used is replaced by a random one *)
  let rec fresh (e : Experiments.t) =
    let k = key e in
    if Hashtbl.mem used k then
      fresh
        { e with
          Experiments.problem =
            Inputs.off_grid_problem e.Experiments.problem.Problem.stencil
              (Array.init 4 (fun _ -> Random.State.float st 1.0)) }
    else (
      Hashtbl.replace used k ();
      e)
  in
  let next_cold () =
    match !colds with
    | e :: rest ->
        colds := rest;
        fresh e
    | [] -> assert false
  in
  let cold_at = ref 0 in
  ( sched,
    Array.init sched.Sched.count (fun i ->
        if i mod block = 0 then cold_at := i + (block / 4) + Random.State.int st (block / 2);
        if i = !cold_at then Cold (next_cold ()) else Warm by_rank.(draw st)) )

let frame_of json =
  let payload = Minijson.render_compact json in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

(* Open loop.  The socket is non-blocking: the loop writes only when the
   socket accepts bytes and reads every reply as soon as it is ready, so it
   never blocks on a write while replies are pending (a blocking client and
   a blocking server can otherwise fill each other's buffers and stall). *)
let open_loop ~windows (sched : Sched.t) asks fd (served : served) =
  let gen = Sched.gen () in
  let pending = Queue.create () in
  let out = Buffer.create 65536 in
  let inbuf = ref (Bytes.create 65536) and inlen = ref 0 in
  let warm = Array.make windows [] and cold = Array.make windows [] in
  let server = ref [] and transport = ref [] in
  let errors = ref [] and replies = ref 0 in
  let next = ref 0 in
  Unix.set_nonblock fd;
  let t_start = Proc.now () in
  let deadline = t_start +. Sched.due sched (sched.Sched.count - 1) +. drain_s in
  let last_reply = ref t_start in
  let handle_reply payload =
    let now = Proc.now () in
    let i, sent = Queue.pop pending in
    let latency_s = Sched.note_reply gen ~due_s:(Sched.due sched i) ~now_s:(now -. t_start) in
    incr replies;
    last_reply := now;
    let reply =
      Spans.with_ "proto.decode" (fun () ->
          Result.bind (Minijson.parse payload) Proto.reply_of_json)
    in
    let e, expected =
      match asks.(i) with Warm e -> (e, Proto.Warm) | Cold e -> (e, Proto.Cold)
    in
    match reply with
    | Ok (Proto.Answer a) ->
        let us = latency_s *. 1e6 in
        let w = i * windows / sched.Sched.count in
        if expected = Proto.Warm then warm.(w) <- us :: warm.(w)
        else cold.(w) <- us :: cold.(w);
        server := a.Proto.latency_us :: !server;
        transport := (((now -. sent) *. 1e6) -. a.Proto.latency_us) :: !transport;
        note_served served e ~expected a
    | Ok (Proto.Error_reply msg) -> errors := msg :: !errors
    | Ok _ -> errors := "unexpected reply kind" :: !errors
    | Error msg -> errors := msg :: !errors
  in
  let rec parse_frames off =
    if !inlen - off >= 4 then
      let n = Int32.to_int (Bytes.get_int32_be !inbuf off) in
      if !inlen - off - 4 >= n then begin
        handle_reply (Bytes.sub_string !inbuf (off + 4) n);
        parse_frames (off + 4 + n)
      end
      else off
    else off
  in
  let read_ready () =
    if Bytes.length !inbuf - !inlen < 4096 then begin
      let b = Bytes.create (2 * Bytes.length !inbuf) in
      Bytes.blit !inbuf 0 b 0 !inlen;
      inbuf := b
    end;
    match Unix.read fd !inbuf !inlen (Bytes.length !inbuf - !inlen) with
    | 0 -> failwith "server closed the connection"
    | k ->
        inlen := !inlen + k;
        let used = parse_frames 0 in
        Bytes.blit !inbuf used !inbuf 0 (!inlen - used);
        inlen := !inlen - used
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let write_ready () =
    let s = Buffer.contents out in
    match Unix.write_substring fd s 0 (String.length s) with
    | k ->
        Buffer.clear out;
        Buffer.add_substring out s k (String.length s - k)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  while (!next < sched.Sched.count || not (Queue.is_empty pending)) && Proc.now () < deadline do
    let elapsed = Proc.now () -. t_start in
    let due_now = Sched.due_by sched ~elapsed in
    while !next < due_now do
      let i = !next in
      let e = match asks.(i) with Warm e | Cold e -> e in
      Spans.with_ "proto.encode" (fun () ->
          Buffer.add_bytes out (frame_of (Proto.request_to_json (Inputs.ask_of e))));
      let now = Proc.now () in
      Sched.note_send gen ~due_s:(Sched.due sched i) ~now_s:(now -. t_start);
      Queue.push (i, now) pending;
      incr next
    done;
    if Buffer.length out > 0 then write_ready ();
    let timeout =
      if !next < sched.Sched.count then
        Float.max 0.0 (Sched.due sched !next -. (Proc.now () -. t_start))
      else Float.max 0.0 (deadline -. Proc.now ())
    in
    let wr = if Buffer.length out > 0 then [ fd ] else [] in
    match Unix.select [ fd ] wr [] timeout with
    | r, w, _ ->
        if w <> [] then write_ready ();
        if r <> [] then read_ready ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  Unix.clear_nonblock fd;
  let lost = Queue.length pending in
  {
    warm_us = warm; cold_us = cold; server_us = !server; transport_us = !transport;
    replies = !replies + lost; errors = !errors; lost; gen;
    reply_rate = float_of_int !replies /. (!last_reply -. t_start);
  }

let counter stats name =
  match
    Option.bind (Minijson.member "counters" stats) (fun c ->
        Option.bind (Minijson.member name c) Minijson.number)
  with
  | Some v -> v
  | None -> 0.0

let run ~seed ~seconds ~hextime ~work =
  let grid = Inputs.paper_grid () in
  (* set-up: calibration (25 fresh processes, median), the index build
     (three times, median) and the server start (three times, median) *)
  let calibration_s = Proc.calibration_s ~workload:"serve-mixed" in
  (* this process's own calibration comes before any parallel solve: the
     calibration tables are plain hash tables, so they are filled serially *)
  Proc.calibrate Stencil.all_benchmarks;
  let builds =
    List.init 3 (fun _ ->
        Proc.timed (fun () ->
            let index = Index.create () in
            List.iter (Index.add index) (solve_all ~exec:Parsweep.serial grid);
            (match Index.save index ~path:(Filename.concat work "index.json") with
            | Ok () -> ()
            | Error msg -> failwith msg);
            index))
  in
  let index = fst (List.hd builds) in
  let build_s = Pct.median_of (List.map snd builds) in
  let probe = List.hd grid in
  (* The first two servers only start, answer the probe and stop; their
     CPU time is what the third server spends outside the traffic. *)
  let starts =
    List.init 3 (fun i ->
        let cpu0 = Proc.children_cpu_s () in
        let s, dt = Proc.timed (fun () -> start ~hextime ~work ~probe) in
        (if i < 2 then
           let code = stop s in
           if code <> 0 then failwith (Printf.sprintf "serve exited with %d" code));
        (s, dt, Proc.children_cpu_s () -. cpu0, cpu0))
  in
  let srv, _, _, srv_cpu0 = List.nth starts 2 in
  let start_s = Pct.median_of (List.map (fun (_, dt, _, _) -> dt) starts) in
  let idle_cpu_s =
    Pct.median_of (List.filteri (fun i _ -> i < 2) (List.map (fun (_, _, c, _) -> c) starts))
  in
  let setup_s = calibration_s +. build_s +. start_s in
  let served : served = Hashtbl.create 256 in
  let traffic =
    let sched, asks = mixed_asks ~seed ~seconds ~grid in
    open_loop ~windows:(max 1 (int_of_float (seconds /. window_s))) sched asks srv.fd served
  in
  let stats =
    match Client.stats srv.fd with Ok (s, _) -> s | Error msg -> failwith ("stats: " ^ msg)
  in
  let code = stop srv in
  (* the server's CPU time on the traffic: what answering the asks cost it,
     whatever rate they were offered at *)
  let traffic_cpu_s = Proc.children_cpu_s () -. srv_cpu0 -. idle_cpu_s in
  (* checks, after the timed phase *)
  let offline = Hashtbl.create 512 in
  List.iter (fun e -> Hashtbl.replace offline e.Index.e_key e) (Index.entries index);
  let cold_problems =
    Hashtbl.fold
      (fun _ (e, src, _) acc -> if src = Proto.Cold then e :: acc else acc)
      served []
  in
  List.iter (fun e -> Hashtbl.replace offline e.Index.e_key e) (solve_all ~exec:domains2 cold_problems);
  let checks =
    Checks.all
      [
        check_served served offline;
        Checks.drift_alarm_clear stats;
        (if code = 0 then Ok () else Error (Printf.sprintf "serve exited with %d" code));
        (match traffic.errors with [] -> Ok () | e :: _ -> Error ("serve error: " ^ e));
        (if traffic.lost = 0 then Ok ()
         else Error (Printf.sprintf "%d asks got no reply within %.0f s" traffic.lost drain_s));
      ]
  in
  let warm_lat = Pct.summarize_windows ~tail_p:99.0 (Array.to_list traffic.warm_us) in
  (* the reported median is the cold asks', beside the warm asks' p99:
     most warm asks find the server idle, and their median is mostly the
     two processes' wake-up and socket time, which moves with the host's
     load more than with the program's cost *)
  let cold_lat = Pct.summarize_windows ~tail_p:50.0 (Array.to_list traffic.cold_us) in
  let lat = { warm_lat with Pct.p50 = cold_lat.Pct.p50; n = warm_lat.Pct.n + cold_lat.Pct.n } in
  let pct tail_p xs = Pct.summarize ~tail_p xs in
  let srv_lat = pct 99.0 traffic.server_us in
  let transport = Pct.median (Pct.sorted traffic.transport_us) in
  let rt = Pct.median (Pct.sorted (List.map2 ( +. ) traffic.transport_us traffic.server_us)) in
  let m = Report.m in
  let failed = List.length traffic.errors + traffic.lost in
  let answered = traffic.replies - failed in
  let info =
    [
      m "reply_rps" "1/s" traffic.reply_rate;
      m "server.cpu_s" "s" traffic_cpu_s;
      m "warm_us_p50" "us" warm_lat.Pct.p50;
      m "warm_us_p99" "us" warm_lat.Pct.tail;
      m "warm_samples" "count" (float_of_int warm_lat.Pct.n);
    ]
    @ [
        m "cold_ms_p50" "ms" (cold_lat.Pct.p50 /. 1000.0);
        (* over the whole run; ten or more beyond it from 20 s up *)
        m "cold_ms_p90" "ms"
          (Pct.at (Pct.sorted (List.concat (Array.to_list traffic.cold_us))) 90.0 /. 1000.0);
        m "cold_samples" "count" (float_of_int cold_lat.Pct.n);
        m "setup.calibration_s" "s" calibration_s;
        m "setup.index_build_s" "s" build_s;
        m "setup.server_start_s" "s" start_s;
        m "server.latency_us_p50" "us" srv_lat.Pct.p50;
        m "server.latency_us_p99" "us" srv_lat.Pct.tail;
        m "transport_us_p50" "us" transport;
        m "serve.warm_hits" "count" (counter stats "serve.warm_hits");
        m "serve.cold_misses" "count" (counter stats "serve.cold_misses");
        m "serve.audits" "count" (counter stats "serve.audits");
        m "serve.errors" "count" (counter stats "serve.errors");
        m "index.final_size" "count" (float_of_int (Index.size index + List.length cold_problems));
        m "gen.late_us_p50" "us" (Pct.median_of traffic.gen.Sched.late_s *. 1e6);
        m "gen.late_ms_max" "ms" (traffic.gen.Sched.late_max_s *. 1000.0);
        m "gen.backlog_max" "count" (float_of_int traffic.gen.Sched.backlog_max);
      ]
  in
  ( {
      Report.setup_s;
      rate_per_s = float_of_int answered /. traffic_cpu_s;
      lat_us = lat;
      lat_of = "p50: a cold ask, tail: a warm ask, from the due time";
      attempted = traffic.replies;
      failed;
      checks;
      residual_frac = Some (transport /. rt);
    },
    info )
