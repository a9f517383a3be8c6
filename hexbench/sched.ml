(* Open-loop load generation: requests are due on a fixed-rate schedule
   whether or not earlier replies have arrived, as independent users
   would send them.  Every latency is measured from the request's due
   time, not from when the generator got round to sending it, so a stall
   anywhere (server or generator) is charged to every request it
   delayed.  The generator's own lateness and backlog are tracked so a
   reader can tell whether the schedule was actually kept. *)

type t = { rate : float; count : int }

let make ~rate ~seconds =
  if rate <= 0.0 || seconds <= 0.0 then invalid_arg "Sched.make";
  { rate; count = max 1 (int_of_float (Float.round (rate *. seconds))) }

(* Offset of request [i] from the schedule's start, in seconds. *)
let due t i = float_of_int i /. t.rate

(* Requests due at or before [elapsed] seconds into the schedule. *)
let due_by t ~elapsed =
  if elapsed < 0.0 then 0
  else min t.count (int_of_float (Float.floor (elapsed *. t.rate)) + 1)

type gen = {
  mutable sent : int;
  mutable replied : int;
  mutable late_max_s : float;  (** worst send time minus due time *)
  mutable late_s : float list;  (** every send's lateness *)
  mutable backlog_max : int;  (** most requests sent but not yet answered *)
}

let gen () = { sent = 0; replied = 0; late_max_s = 0.0; late_s = []; backlog_max = 0 }

let note_send g ~due_s ~now_s =
  g.sent <- g.sent + 1;
  g.late_max_s <- Float.max g.late_max_s (now_s -. due_s);
  g.late_s <- (now_s -. due_s) :: g.late_s;
  g.backlog_max <- max g.backlog_max (g.sent - g.replied)

(* Records the reply and returns its latency, measured from the due time. *)
let note_reply g ~due_s ~now_s =
  g.replied <- g.replied + 1;
  now_s -. due_s
