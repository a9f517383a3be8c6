module type S = sig
  type int_t
  type float_t

  val int : int -> int_t
  val float : float -> float_t
  val ( + ) : int_t -> int_t -> int_t
  val ( - ) : int_t -> int_t -> int_t
  val ( * ) : int_t -> int_t -> int_t
  val ceil_div : int_t -> int_t -> int_t
  val tdiv : int_t -> int_t -> int_t
  val trem : int_t -> int_t -> int_t
  val imin : int_t -> int_t -> int_t
  val imax : int_t -> int_t -> int_t
  val to_float : int_t -> float_t
  val ( +. ) : float_t -> float_t -> float_t
  val ( *. ) : float_t -> float_t -> float_t
  val fdiv : float_t -> float_t -> float_t
  val fmax : float_t -> float_t -> float_t
  val fceil_to_int : float_t -> int_t
  val row_sum :
    rows:int_t -> base:int_t -> step:int -> inner:int_t -> lanes:int -> int_t

  val if_eq :
    int_t -> int -> then_:(unit -> float_t) -> else_:(int_t -> float_t) ->
    float_t
end

(* Stdlib.min/max are polymorphic: without flambda every call goes to the
   C comparison routine.  Ints use Int.min/max; these are Stdlib's float
   expressions at a fixed type, not Float.min/max, which differ on NaN and
   on signed zeros. *)
let float_min (a : float) b = if a <= b then a else b
let float_max (a : float) b = if a >= b then a else b

module Scalar = struct
  type int_t = int
  type float_t = float

  let int n = n
  let float x = x
  let ( + ) = Stdlib.( + )
  let ( - ) = Stdlib.( - )
  let ( * ) = Stdlib.( * )
  let ceil_div = Hextime_prelude.Ints.ceil_div
  let tdiv = Stdlib.( / )
  let trem a b = Stdlib.(a mod b)
  let imin = Int.min
  let imax = Int.max
  let to_float = float_of_int
  let ( +. ) = Stdlib.( +. )
  let ( *. ) = Stdlib.( *. )
  let fdiv = Stdlib.( /. )
  let fmax = float_max
  let fceil_to_int x = int_of_float (ceil x)

  let row_sum ~rows ~base ~step ~inner ~lanes =
    let acc = ref 0 in
    for d = 0 to rows - 1 do
      acc := !acc + ceil_div ((base + (step * d)) * inner) lanes
    done;
    !acc

  let if_eq v n ~then_ ~else_ = if Stdlib.(v = n) then then_ () else else_ v
end

module Int_interval = struct
  type t = { ilo : int; ihi : int }

  let v lo hi =
    if lo > hi then invalid_arg "Arith.Int_interval.v: lo > hi";
    { ilo = lo; ihi = hi }

  let singleton n = { ilo = n; ihi = n }
  let hull a b = { ilo = Int.min a.ilo b.ilo; ihi = Int.max a.ihi b.ihi }
  let mem x t = t.ilo <= x && x <= t.ihi
end

module Float_interval = struct
  type t = { flo : float; fhi : float }

  let v lo hi =
    if not (lo <= hi) then invalid_arg "Arith.Float_interval.v: lo > hi";
    { flo = lo; fhi = hi }

  let singleton x = { flo = x; fhi = x }
  let hull a b = { flo = float_min a.flo b.flo; fhi = float_max a.fhi b.fhi }
  let mem x t = t.flo <= x && x <= t.fhi
end

module Interval = struct
  type int_t = Int_interval.t
  type float_t = Float_interval.t

  open Int_interval
  open Float_interval

  let nonneg what (a : int_t) =
    if a.ilo < 0 then
      invalid_arg (Printf.sprintf "Arith.Interval.%s: negative operand" what)

  let pos what (a : int_t) =
    if a.ilo <= 0 then
      invalid_arg (Printf.sprintf "Arith.Interval.%s: non-positive operand" what)

  let int n = Int_interval.singleton n
  let float x = Float_interval.singleton x
  let ( + ) a b = { ilo = Stdlib.(a.ilo + b.ilo); ihi = Stdlib.(a.ihi + b.ihi) }
  let ( - ) a b = { ilo = Stdlib.(a.ilo - b.ihi); ihi = Stdlib.(a.ihi - b.ilo) }

  let ( * ) a b =
    let p1 = Stdlib.(a.ilo * b.ilo)
    and p2 = Stdlib.(a.ilo * b.ihi)
    and p3 = Stdlib.(a.ihi * b.ilo)
    and p4 = Stdlib.(a.ihi * b.ihi) in
    {
      ilo = Int.min (Int.min p1 p2) (Int.min p3 p4);
      ihi = Int.max (Int.max p1 p2) (Int.max p3 p4);
    }

  (* ceil_div is monotone increasing in the dividend and decreasing in the
     divisor (both non-negative / positive), so the extreme quotients sit
     at opposite corners *)
  let ceil_div a b =
    nonneg "ceil_div" a;
    pos "ceil_div" b;
    {
      ilo = Hextime_prelude.Ints.ceil_div a.ilo b.ihi;
      ihi = Hextime_prelude.Ints.ceil_div a.ihi b.ilo;
    }

  let tdiv a b =
    nonneg "tdiv" a;
    pos "tdiv" b;
    { ilo = Stdlib.(a.ilo / b.ihi); ihi = Stdlib.(a.ihi / b.ilo) }

  (* a mod b over a box.  Exact when the divisor is a single value and the
     dividend range stays inside one quotient block; otherwise the sound
     coarse enclosure [0, min a_hi (b_hi - 1)]. *)
  let trem a b =
    nonneg "trem" a;
    pos "trem" b;
    if Stdlib.(b.ilo = b.ihi) then begin
      let m = b.ilo in
      if Stdlib.(a.ilo / m = a.ihi / m) then
        { ilo = Stdlib.(a.ilo mod m); ihi = Stdlib.(a.ihi mod m) }
      else { ilo = 0; ihi = Int.min a.ihi Stdlib.(m - 1) }
    end
    else { ilo = 0; ihi = Int.min a.ihi Stdlib.(b.ihi - 1) }

  let imin a b = { ilo = Int.min a.ilo b.ilo; ihi = Int.min a.ihi b.ihi }
  let imax a b = { ilo = Int.max a.ilo b.ilo; ihi = Int.max a.ihi b.ihi }
  let to_float a = { flo = float_of_int a.ilo; fhi = float_of_int a.ihi }

  (* every float the model feeds these operations is non-negative (times,
     counts, latencies), so endpoint-wise evaluation is the exact hull;
     the assertions keep the instance honest if a term ever changes sign *)
  let fnonneg what (a : float_t) =
    if Stdlib.(a.flo < 0.0) then
      invalid_arg (Printf.sprintf "Arith.Interval.%s: negative operand" what)

  let ( +. ) a b =
    { flo = Stdlib.(a.flo +. b.flo); fhi = Stdlib.(a.fhi +. b.fhi) }

  let ( *. ) a b =
    fnonneg "( *. )" a;
    fnonneg "( *. )" b;
    { flo = Stdlib.(a.flo *. b.flo); fhi = Stdlib.(a.fhi *. b.fhi) }

  let fdiv a b =
    fnonneg "fdiv" a;
    if Stdlib.(b.flo <= 0.0) then
      invalid_arg "Arith.Interval.fdiv: non-positive divisor";
    { flo = Stdlib.(a.flo /. b.fhi); fhi = Stdlib.(a.fhi /. b.flo) }

  let fmax a b = { flo = float_max a.flo b.flo; fhi = float_max a.fhi b.fhi }

  let fceil_to_int a =
    fnonneg "fceil_to_int" a;
    { ilo = int_of_float (ceil a.flo); ihi = int_of_float (ceil a.fhi) }

  (* every term is non-negative and increasing in base and inner, so the
     tightest enclosure sums the low-corner terms over the fewest rows and
     the high-corner terms over the most; the sums are integers, hence
     exact *)
  let row_sum ~rows ~base ~step ~inner ~lanes =
    nonneg "row_sum(rows)" rows;
    nonneg "row_sum(base)" base;
    nonneg "row_sum(inner)" inner;
    if Stdlib.(step < 0 || lanes <= 0) then
      invalid_arg "Arith.Interval.row_sum: negative step or non-positive lanes";
    {
      ilo =
        Scalar.row_sum ~rows:rows.ilo ~base:base.ilo ~step ~inner:inner.ilo
          ~lanes;
      ihi =
        Scalar.row_sum ~rows:rows.ihi ~base:base.ihi ~step ~inner:inner.ihi
          ~lanes;
    }

  let if_eq v n ~then_ ~else_ =
    if Stdlib.(v.ilo = n && v.ihi = n) then then_ ()
    else if Stdlib.(n < v.ilo || n > v.ihi) then else_ v
    else
      (* the box straddles the test: hull both branches, refining the else
         operand when [n] sits at an endpoint (the model only compares
         against the bottom of a count's range) *)
      let refined =
        if Stdlib.(v.ilo = n) then { v with ilo = Stdlib.(n + 1) }
        else if Stdlib.(v.ihi = n) then { v with ihi = Stdlib.(n - 1) }
        else v
      in
      Float_interval.hull (then_ ()) (else_ refined)
end
