(** Arithmetic signatures for evaluating the model's term structure under
    different interpretations.

    {!Model.Calc} is a functor over {!S}: instantiated with {!Scalar} it
    reproduces today's concrete evaluation bit for bit (the scalar
    operations are the plain [int]/[float] primitives, applied to the same
    expression trees in the same order); instantiated with {!Interval} it
    evaluates the same terms over boxes of inputs and returns certified
    enclosures.

    Soundness of the interval instance does not require outward rounding:
    every float operation the model uses ([+.], [*.], [/.], [max], [ceil],
    [float_of_int]) is deterministic and monotone in each argument under
    round-to-nearest, so evaluating the endpoints with the {e same} float
    operations bounds every concrete float evaluation the scalar instance
    can produce inside the box.  The enclosure is on the model's computed
    floats, not on real arithmetic — which is exactly what the certificate
    needs, because the sweep and the optimizer consume the computed
    floats. *)

module type S = sig
  type int_t
  type float_t

  val int : int -> int_t
  (** Inject a concrete integer constant. *)

  val float : float -> float_t
  (** Inject a concrete float constant. *)

  val ( + ) : int_t -> int_t -> int_t
  val ( - ) : int_t -> int_t -> int_t
  val ( * ) : int_t -> int_t -> int_t

  val ceil_div : int_t -> int_t -> int_t
  (** [ceil_div a b] with [a >= 0], [b > 0] (the model's only division
      pattern; {!Hextime_prelude.Ints.ceil_div} on scalars). *)

  val tdiv : int_t -> int_t -> int_t
  (** Truncating division, both operands non-negative, divisor positive. *)

  val trem : int_t -> int_t -> int_t
  (** Remainder, both operands non-negative, divisor positive. *)

  val imin : int_t -> int_t -> int_t
  val imax : int_t -> int_t -> int_t

  val to_float : int_t -> float_t
  (** [float_of_int]; exact for the magnitudes the model produces. *)

  val ( +. ) : float_t -> float_t -> float_t
  val ( *. ) : float_t -> float_t -> float_t

  val fdiv : float_t -> float_t -> float_t
  (** Float division, both operands positive (the rank-3 chunk ratio). *)

  val fmax : float_t -> float_t -> float_t

  val fceil_to_int : float_t -> int_t
  (** [int_of_float (ceil x)] with [x >= 0]. *)

  val row_sum :
    rows:int_t -> base:int_t -> step:int -> inner:int_t -> lanes:int -> int_t
  (** [row_sum ~rows ~base ~step ~inner ~lanes] is
      [Σ_{d < rows} ceil_div ((base + step * d) * inner) lanes], the
      model's hexagon-row compute sum (Equations 9 / 15 / 27).  Requires
      [rows], [base], [inner] and [step] non-negative and [lanes]
      positive; the interval instance raises [Invalid_argument] otherwise.
      Every term is then non-negative and increasing in [base] and
      [inner], so the interval instance sums the low-corner terms over
      [rows.ilo] rows and the high-corner terms over [rows.ihi] rows, in
      two plain integer loops.  The sums are integers, so the enclosure is
      exact: a singleton box gives the scalar sum. *)

  val if_eq :
    int_t -> int -> then_:(unit -> float_t) -> else_:(int_t -> float_t) ->
    float_t
  (** [if_eq v n ~then_ ~else_] is the model's [if v = n] branch.  The
      scalar instance picks a branch; the interval instance picks a branch
      when the comparison is decided over the whole box, and otherwise
      returns the hull of both branches, passing [else_] the operand
      refined to exclude [n] when [n] is an endpoint. *)
end

(** {2 Monomorphic comparisons}

    [Stdlib.min] and [Stdlib.max] are polymorphic: built without flambda,
    every call goes through the C comparison routine, and the interval
    instance makes six of them per multiply.  The instances use
    [Int.min]/[Int.max] on ints and these fixed-type versions on floats.
    They are Stdlib's own expressions ([if a <= b then a else b],
    [if a >= b then a else b]), so they return the same value as
    [Stdlib.min]/[Stdlib.max] for every pair of arguments, NaN and signed
    zeros included.  [Float.min]/[Float.max] are not used: they return NaN
    when either argument is NaN and order [-0.] below [+0.], where
    [Stdlib.max] keeps the left operand, so they could move a
    prediction. *)

val float_min : float -> float -> float
val float_max : float -> float -> float

module Scalar : S with type int_t = int and type float_t = float
(** The concrete instance: plain machine arithmetic.  {!Model.predict}
    evaluates through this instance, which is what makes the refactor
    bit-identical — the operations are the same primitives the inline code
    used, applied in the same order. *)

(** Closed integer intervals. *)
module Int_interval : sig
  type t = { ilo : int; ihi : int }

  val v : int -> int -> t
  (** [v lo hi]; raises [Invalid_argument] if [lo > hi]. *)

  val singleton : int -> t
  val hull : t -> t -> t
  val mem : int -> t -> bool
end

(** Closed float intervals. *)
module Float_interval : sig
  type t = { flo : float; fhi : float }

  val v : float -> float -> t
  val singleton : float -> t
  val hull : t -> t -> t
  val mem : float -> t -> bool
end

module Interval :
  S with type int_t = Int_interval.t and type float_t = Float_interval.t
(** The abstract instance: every operation returns an enclosure of the
    scalar instance's results over all inputs drawn from the operand
    intervals (under the non-negativity preconditions stated in {!S},
    which the model's terms satisfy and the operations assert). *)
