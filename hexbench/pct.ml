(* Percentiles over timing samples.

   Nearest-rank: the p-th percentile of n sorted samples is the sample at
   rank ceil(p/100 * n), so exactly [n - rank] samples lie beyond it.  A
   tail percentile is only reported when at least ten samples lie beyond
   it; fewer would make it the reading of one or two outliers. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank n p = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let beyond n p = n - max 1 (rank n p)

let at (a : float array) p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.at: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Pct.at: percentile out of range";
  a.(min (n - 1) (max 1 (rank n p) - 1))

let median a = at a 50.0

let ladder = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 99.99 ]

(* The highest percentile of [ladder] with at least ten samples beyond it;
   [None] below twenty samples, where not even the median qualifies. *)
let highest_tail n =
  List.fold_left
    (fun acc p -> if beyond n p >= 10 then Some p else acc)
    None ladder

let label p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p

type summary = {
  n : int;  (** samples in all windows *)
  windows : int;
  p50 : float;
  tail_p : float;
  tail : float;
}

let median_of xs = median (sorted xs)

(* Median plus the workload's fixed tail percentile, each taken per window
   of the run and then the median over windows, so one window disturbed
   by something outside the program moves neither figure.  Raises when a
   window is too small for the tail to be trusted, so a run can never
   quietly report a tail that rests on fewer than ten samples. *)
let summarize_windows ~tail_p windows =
  let per =
    List.map
      (fun xs ->
        let a = sorted xs in
        let n = Array.length a in
        match highest_tail n with
        | Some p when p >= tail_p -> (n, median a, at a tail_p)
        | _ ->
            failwith
              (Printf.sprintf
                 "%s needs at least ten samples beyond it; a window has %d"
                 (label tail_p) n))
      windows
  in
  if per = [] then invalid_arg "Pct.summarize_windows: no windows";
  {
    n = List.fold_left (fun acc (n, _, _) -> acc + n) 0 per;
    windows = List.length per;
    p50 = median_of (List.map (fun (_, m, _) -> m) per);
    tail_p;
    tail = median_of (List.map (fun (_, _, t) -> t) per);
  }

let summarize ~tail_p xs = summarize_windows ~tail_p [ xs ]
