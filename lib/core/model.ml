module Ints = Hextime_prelude.Ints
module Problem = Hextime_stencil.Problem
module Stencil = Hextime_stencil.Stencil
module Config = Hextime_tiling.Config
module Footprint = Hextime_tiling.Footprint
module Hexgeom = Hextime_tiling.Hexgeom

type prediction = {
  talg : float;
  t_tile : float;
  m_transfer : float;
  c_compute : float;
  k : int;
  n_wavefronts : int;
  wavefront_blocks : int;
  sm_rounds : int;
  shared_words : int;
  io_words : int;
  chunks : int;
}

let hyperthreading_factor (p : Params.t) ~shared_words =
  if shared_words <= 0 then p.max_blocks_per_sm
  else min p.max_blocks_per_sm (p.shared_mem_per_sm / shared_words)

let footprint_of (problem : Problem.t) (cfg : Config.t) =
  Footprint.of_problem problem cfg

let feasible (p : Params.t) (problem : Problem.t) (cfg : Config.t) =
  if Config.rank cfg <> problem.stencil.Stencil.rank then
    Error "configuration rank /= problem rank"
  else
    let fp = footprint_of problem cfg in
    if fp.Footprint.shared_words > p.shared_mem_per_block then
      Error
        (Printf.sprintf "M_tile = %d words exceeds per-block cap of %d"
           fp.Footprint.shared_words p.shared_mem_per_block)
    else if Array.exists2 (fun ts s -> ts > s) cfg.t_s problem.space then
      Error "tile size exceeds problem extent"
    else Ok ()

type variant = Refined | Paper_verbatim

(* The whole term structure of Equations 3-30, written once against the
   arithmetic signature.  [Calc (Arith.Scalar)] is today's concrete
   evaluation — the scalar operations are the same primitives the inline
   code used, applied to the same expression trees in the same order, so
   the floats are bit-identical (the golden test freezes them).
   [Calc (Arith.Interval)] evaluates the same terms over boxes of
   (t_T, t_S) and returns certified enclosures; Hexabs builds its
   feasibility certificates and branch-and-bound pruner on top.

   The footprint and wavefront geometry (Footprint.of_problem,
   Hexgeom.wavefront_width / num_wavefronts) are restated here in the
   generic arithmetic rather than called, because their closed forms must
   be evaluated over abstract operands; the conformance tests pin the two
   sides together. *)
module Calc (A : Arith.S) = struct
  type terms = {
    c_talg : A.float_t;
    c_t_tile : A.float_t;
    c_m_transfer : A.float_t;
    c_c_compute : A.float_t;
    c_k : A.int_t;
    c_n_wavefronts : A.int_t;
    c_wavefront_blocks : A.int_t;
    c_sm_rounds : A.int_t;
    c_shared_words : A.int_t;
    c_io_words : A.int_t;
    c_chunks : A.int_t;
  }

  open A

  let product arr lo len =
    let acc = ref (int 1) in
    for i = lo to Stdlib.( + ) lo (Stdlib.( - ) len 1) do
      acc := !acc * arr.(i)
    done;
    !acc

  let evaluate ?(variant = Refined) (p : Params.t) ~citer ~order ~word_factor
      ~(space : int array) ~time ~(t_t : A.int_t) ~(t_s : A.int_t array) =
    let rank = Array.length t_s in
    let inner = product t_s 1 (Stdlib.( - ) rank 1) in
    (* Footprint.of_problem's fields, restated generically *)
    let mi_cross = t_s.(0) + (int (Stdlib.( * ) 2 order) * t_t) in
    let m = mi_cross * inner in
    let io_words = (m * int word_factor) + (m * int word_factor) in
    let shared_words =
      int 2
      * product (Array.map (fun s -> s + (int order * t_t) + int 1) t_s) 0 rank
      * int word_factor
    in
    let skew_span d = int space.(d) + (int order * t_t) in
    let chunks =
      match rank with
      | 1 -> int 1
      | 2 -> ceil_div (skew_span 1) t_s.(1)
      | 3 ->
          let r d = fdiv (to_float (skew_span d)) (to_float t_s.(d)) in
          fceil_to_int (r 1 *. r 2)
      | _ -> invalid_arg "Model.Calc: rank must be 1..3"
    in
    (* m': Equations 8 / 14 / 25 *)
    let m_transfer =
      (to_float io_words *. float p.l_word) +. (float 2.0 *. float p.tau_sync)
    in
    (* c: Equations 9 / 15 / 27.  The hexagon rows come in equal-width
       pairs (factor 2); row d is x = base + 2*order*d points wide, and
       each row of x points over the inner extents costs
       ceil(x * inner / nV) * C_iter, plus one synchronisation per row.

       [Paper_verbatim] sums the widths of Equation 4's idealised hexagon,
       starting at x = t_s.  The two staggered tile families are not
       congruent in the exact lattice: one family's base is wider by
       2*order, so the verbatim sum undercounts the computation by a factor
       (pitch - 2*order) / pitch — negligible for realistic tiles but a
       spurious 2x at degenerate shapes (t_s = 1, t_t = 2), which would
       hand the optimizer a false minimum.  [Refined] (the default)
       therefore uses the mean width of the two families, x + order. *)
    let base =
      match variant with
      | Paper_verbatim -> t_s.(0)
      | Refined -> t_s.(0) + int order
    in
    let sum =
      row_sum ~rows:(tdiv t_t (int 2)) ~base ~step:(Stdlib.( * ) 2 order)
        ~inner ~lanes:p.n_vector
    in
    let c_compute =
      (float 2.0 *. float citer *. to_float sum)
      +. (to_float t_t *. float p.tau_sync)
    in
    (* Equation 5: w = ceil(S1 / pitch), pitch = 2 t_S1 + order t_T *)
    let wavefront_blocks =
      ceil_div (int space.(0)) ((int 2 * t_s.(0)) + (int order * t_t))
    in
    (* Equation 11 bounds k by resources; a wavefront of w blocks can
       additionally keep at most ceil(w / nSM) blocks per SM resident (the
       paper's derivation assumes w >> k * nSM, where the clamp is
       inactive).  shared_words >= 2 always, so hyperthreading_factor's
       zero-guard is dead here. *)
    let k =
      imax (int 1)
        (imin
           (imin (int p.max_blocks_per_sm)
              (tdiv (int p.shared_mem_per_sm) shared_words))
           (ceil_div wavefront_blocks (int p.n_sm)))
    in
    (* T_tile(j): Equations 10/12 (1D) and 16/28/29 (2D/3D) at
       hyper-threading factor j *)
    let cf = to_float chunks in
    let t_tile_at j =
      if Stdlib.( = ) rank 1 then
        if_eq j 1
          ~then_:(fun () -> m_transfer +. c_compute (* Equation 10 *))
          ~else_:(fun j ->
            (* Equation 12 *)
            m_transfer +. c_compute
            +. (to_float (j - int 1) *. fmax m_transfer c_compute))
      else
        if_eq j 1
          ~then_:(fun () ->
            (m_transfer +. c_compute) *. cf (* Equations 16 / 28 *))
          ~else_:(fun j ->
            (* Equations 16 / 29 *)
            m_transfer +. (to_float j *. fmax m_transfer c_compute *. cf))
    in
    let t_tile = t_tile_at k in
    (* Equation 3 *)
    let n_wavefronts = int 2 * ceil_div (int time) t_t in
    let sm_rounds = ceil_div (ceil_div wavefront_blocks k) (int p.n_sm) in
    (* Per-wavefront tile time.  Paper_verbatim applies Equation 2's
       double ceiling, which charges the ragged final round as a full
       k-deep round; Refined charges the final round at its actual depth,
       which matters once k exceeds 2 (see the bench ablation). *)
    let per_wavefront =
      match variant with
      | Paper_verbatim -> t_tile *. to_float sm_rounds
      | Refined ->
          let capacity = k * int p.n_sm in
          let full = tdiv wavefront_blocks capacity in
          let remainder = trem wavefront_blocks capacity in
          let last =
            if_eq remainder 0
              ~then_:(fun () -> float 0.0)
              ~else_:(fun r -> t_tile_at (ceil_div r (int p.n_sm)))
          in
          (to_float full *. t_tile) +. last
    in
    (* Equations 6 / 17 / 30 *)
    let c_talg = to_float n_wavefronts *. (per_wavefront +. float p.t_sync) in
    {
      c_talg;
      c_t_tile = t_tile;
      c_m_transfer = m_transfer;
      c_c_compute = c_compute;
      c_k = k;
      c_n_wavefronts = n_wavefronts;
      c_wavefront_blocks = wavefront_blocks;
      c_sm_rounds = sm_rounds;
      c_shared_words = shared_words;
      c_io_words = io_words;
      c_chunks = chunks;
    }
end

module Scalar_calc = Calc (Arith.Scalar)

let predict ?variant (p : Params.t) ~citer (problem : Problem.t) (cfg : Config.t) =
  match feasible p problem cfg with
  | Error _ as e -> e
  | Ok () ->
      if citer <= 0.0 then Error "citer must be positive"
      else
        let order = problem.stencil.Stencil.order in
        let t =
          Scalar_calc.evaluate ?variant p ~citer ~order
            ~word_factor:(Problem.word_factor problem) ~space:problem.space
            ~time:problem.time ~t_t:cfg.t_t ~t_s:cfg.t_s
        in
        Ok
          {
            talg = t.Scalar_calc.c_talg;
            t_tile = t.Scalar_calc.c_t_tile;
            m_transfer = t.Scalar_calc.c_m_transfer;
            c_compute = t.Scalar_calc.c_c_compute;
            k = t.Scalar_calc.c_k;
            n_wavefronts = t.Scalar_calc.c_n_wavefronts;
            wavefront_blocks = t.Scalar_calc.c_wavefront_blocks;
            sm_rounds = t.Scalar_calc.c_sm_rounds;
            shared_words = t.Scalar_calc.c_shared_words;
            io_words = t.Scalar_calc.c_io_words;
            chunks = t.Scalar_calc.c_chunks;
          }

(* --- cost attribution ----------------------------------------------------- *)

(* Decompose talg into the paper's Section 5 component terms.  Every
   combinator in [predict] is linear in (m', c) once the max(m', c) branch
   decisions are fixed, so we mirror those decisions to obtain coefficients
   (a, b) with T_tile(j) = a m' + b c, fold them through the per-wavefront
   form, and then split m' and c themselves into their traffic and barrier
   parts (m' = m_io L + 2 tau_sync; c = 2 C_iter sum + t_T tau_sync).  The
   resulting components rebuild talg exactly up to float rounding — the
   profile test asserts 1e-9 relative — without re-deriving any equation.
   Shared-memory traffic has no time term of its own in the model (M_tile
   only bounds k via Equation 11), so that component is zero here;
   [Simulator.attribute_priced] is the measured-side counterpart. *)
let attribution_of_prediction ?(variant = Refined) (p : Params.t) ~rank ~t_t
    (pr : prediction) =
  let m' = pr.m_transfer and c = pr.c_compute in
  let cf = float_of_int pr.chunks in
  (* (a, b) with T_tile(j) = a m' + b c, mirroring t_tile_at's branches —
     including that OCaml's [max] keeps the left operand on ties *)
  let coeffs j =
    match (rank, j) with
    | 1, 1 -> (1.0, 1.0)
    | 1, _ ->
        if m' >= c then (float_of_int j, 1.0) else (1.0, float_of_int j)
    | _, 1 -> (cf, cf)
    | _, _ ->
        if m' >= c then (1.0 +. (float_of_int j *. cf), 0.0)
        else (1.0, float_of_int j *. cf)
  in
  let a, b =
    match variant with
    | Paper_verbatim ->
        let ak, bk = coeffs pr.k in
        let r = float_of_int pr.sm_rounds in
        (r *. ak, r *. bk)
    | Refined ->
        let capacity = pr.k * p.n_sm in
        let full = float_of_int (pr.wavefront_blocks / capacity) in
        let remainder = pr.wavefront_blocks mod capacity in
        let al, bl =
          if remainder = 0 then (0.0, 0.0)
          else coeffs (Ints.ceil_div remainder p.n_sm)
        in
        let ak, bk = coeffs pr.k in
        ((full *. ak) +. al, (full *. bk) +. bl)
  in
  let nw = float_of_int pr.n_wavefronts in
  let sync_in_m = 2.0 *. p.tau_sync in
  let sync_in_c = float_of_int t_t *. p.tau_sync in
  {
    Hextime_obs.Attribution.compute = nw *. b *. (c -. sync_in_c);
    global_mem = nw *. a *. (m' -. sync_in_m);
    shared_mem = 0.0;
    sync = nw *. ((a *. sync_in_m) +. (b *. sync_in_c));
    launch = nw *. p.t_sync;
    jitter = 0.0;
  }

let attribution ?variant (p : Params.t) ~citer (problem : Problem.t)
    (cfg : Config.t) =
  match predict ?variant p ~citer problem cfg with
  | Error _ as e -> e
  | Ok pr ->
      Ok
        (pr, attribution_of_prediction ?variant p ~rank:(Config.rank cfg) ~t_t:cfg.t_t pr)

type schedule_counts = {
  sched_io_words : int;
  sched_shared_words : int;
  sched_chunks : int;
  sched_syncs_per_chunk : int;
  sched_wavefronts : int;
  sched_wavefront_blocks : int;
}

(* The model charges tau_sync once per compute row (Equations 9/15/27) and
   twice per chunk for the staging barriers (Equations 8/14/25), so any
   schedule it prices must execute exactly t_T + 2 barriers per chunk. *)
let scheduled_counts pr ~t_t =
  {
    sched_io_words = pr.io_words;
    sched_shared_words = pr.shared_words;
    sched_chunks = pr.chunks;
    sched_syncs_per_chunk = t_t + 2;
    sched_wavefronts = pr.n_wavefronts;
    sched_wavefront_blocks = pr.wavefront_blocks;
  }

let pp_prediction ppf pr =
  Format.fprintf ppf
    "Talg=%.4es (Ttile=%.3es, m'=%.3es, c=%.3es, k=%d, Nw=%d, w=%d, rounds=%d, \
     Mtile=%dw, mio=%dw, chunks=%d)"
    pr.talg pr.t_tile pr.m_transfer pr.c_compute pr.k pr.n_wavefronts
    pr.wavefront_blocks pr.sm_rounds pr.shared_words pr.io_words pr.chunks

let explain (p : Params.t) ~citer (problem : Problem.t) (cfg : Config.t) =
  match predict p ~citer problem cfg with
  | Error _ as e -> e
  | Ok pr ->
      let order = problem.stencil.Stencil.order in
      let b = Buffer.create 1024 in
      let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      pf "T_alg derivation for %s, %s on %s\n" (Problem.id problem)
        (Config.id cfg) p.arch_name;
      pf "  eq 3   N_w   = 2 * ceil(T / t_T) = 2 * ceil(%d / %d) = %d\n"
        problem.time cfg.t_t pr.n_wavefronts;
      pf "  eq 5   w     = ceil(S1 / (2 t_S1 + %d t_T)) = ceil(%d / %d) = %d\n"
        order problem.space.(0)
        ((2 * cfg.t_s.(0)) + (order * cfg.t_t))
        pr.wavefront_blocks;
      pf "  eq 7+  m_io  = %d words  ->  m' = m_io L + 2 tau = %.3e s\n"
        pr.io_words pr.m_transfer;
      pf "  eq 9+  c     = 2 C_iter sum ceil(x_r * inner / n_V) + t_T tau = %.3e s\n"
        pr.c_compute;
      pf "         M_tile = %d words (cap %d); chunks = %d\n" pr.shared_words
        p.shared_mem_per_block pr.chunks;
      pf "  eq 11  k     = min(MTB_SM, M_SM / M_tile, ceil(w / n_SM)) = %d\n"
        pr.k;
      pf "  eq 12/16/29  T_tile(k) = %.3e s\n" pr.t_tile;
      pf "  eq 2   rounds = ceil(ceil(w / k) / n_SM) = %d\n" pr.sm_rounds;
      pf "  eq 6/17/30   T_alg = N_w (per-wavefront + T_sync) = %.4e s\n"
        pr.talg;
      pf "  dominant term: %s-bound (m' %s c)\n"
        (if pr.m_transfer > pr.c_compute then "transfer" else "compute")
        (if pr.m_transfer > pr.c_compute then ">" else "<=");
      Ok (Buffer.contents b)
