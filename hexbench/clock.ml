(* Seconds on the monotonic clock, at nanosecond resolution: latencies of
   a few microseconds must not be quantised to the microsecond, and wall
   clock adjustments must not leak into a measurement. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
