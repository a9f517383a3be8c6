module Ints = Hextime_prelude.Ints
module Problem = Hextime_stencil.Problem
module Stencil = Hextime_stencil.Stencil
module Config = Hextime_tiling.Config
module Footprint = Hextime_tiling.Footprint
module Regalloc = Hextime_tiling.Regalloc
module Params = Hextime_core.Params
module Model = Hextime_core.Model
module Arith = Hextime_core.Arith
module Arch = Hextime_gpu.Arch
module Metrics = Hextime_obs.Metrics
module II = Arith.Int_interval
module FI = Arith.Float_interval
module ICalc = Model.Calc (Arith.Interval)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let c_boxes_feasible = Metrics.counter "hexabs.boxes_proven_feasible"
let c_boxes_infeasible = Metrics.counter "hexabs.boxes_proven_infeasible"
let c_boxes_split = Metrics.counter "hexabs.boxes_split"
let c_points_proven = Metrics.counter "hexabs.points_proven"
let c_points_enumerated = Metrics.counter "hexabs.points_enumerated"
let c_bound_evals = Metrics.counter "hexabs.bnb.evals_bound"
let c_concrete_evals = Metrics.counter "hexabs.bnb.evals_concrete"
let c_bnb_pruned = Metrics.counter "hexabs.bnb.boxes_pruned"
let c_lint_clean = Metrics.counter "hexabs.lint.boxes_proven_clean"

(* ------------------------------------------------------------------ *)
(* Lattice, boxes, congruence                                         *)
(* ------------------------------------------------------------------ *)

type axis = int array
type lattice = { tt_axis : axis; ts_axes : axis array }
type slice = { lo : int; hi : int }
type box = { b_tt : slice; b_ts : slice array }
type congruence = { modulus : int; residue : int }

let check_axis name (a : axis) =
  if Array.length a = 0 then
    invalid_arg (Printf.sprintf "Hexabs.lattice: empty %s axis" name);
  if a.(0) < 1 then
    invalid_arg (Printf.sprintf "Hexabs.lattice: non-positive %s value" name);
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then
      invalid_arg
        (Printf.sprintf "Hexabs.lattice: %s axis not strictly increasing" name)
  done

let lattice ~tt ~ts =
  check_axis "t_t" tt;
  let rank = Array.length ts in
  if rank < 1 || rank > 3 then invalid_arg "Hexabs.lattice: rank must be 1..3";
  Array.iteri (fun d a -> check_axis (Printf.sprintf "t_s%d" d) a) ts;
  Array.iter
    (fun t ->
      if t mod 2 <> 0 then
        invalid_arg "Hexabs.lattice: t_t candidates must be even")
    tt;
  { tt_axis = Array.copy tt; ts_axes = Array.map Array.copy ts }

let rank l = Array.length l.ts_axes

let full_slice (a : axis) = { lo = 0; hi = Array.length a - 1 }

let full_box l =
  { b_tt = full_slice l.tt_axis; b_ts = Array.map full_slice l.ts_axes }

let slice_points s = s.hi - s.lo + 1

let box_points b =
  Array.fold_left (fun acc s -> acc * slice_points s) (slice_points b.b_tt) b.b_ts

let slice_range (a : axis) s = (a.(s.lo), a.(s.hi))

let value_ranges l b =
  (slice_range l.tt_axis b.b_tt, Array.mapi (fun d s -> slice_range l.ts_axes.(d) s) b.b_ts)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* the best congruence class covering the slice: residues of all members
   agree modulo the gcd of their differences.  A singleton slice is the
   constant congruence (modulus 0 by convention). *)
let congruence_of (a : axis) s =
  if s.lo = s.hi then { modulus = 0; residue = a.(s.lo) }
  else begin
    let v0 = a.(s.lo) in
    let g = ref 0 in
    for i = s.lo + 1 to s.hi do
      g := gcd !g (a.(i) - v0)
    done;
    let m = !g in
    { modulus = m; residue = ((v0 mod m) + m) mod m }
  end

(* does every member of the congruence class lie in residue class r mod m? *)
let congruence_implies c ~modulus ~residue =
  if modulus <= 0 then invalid_arg "Hexabs.congruence_implies";
  if c.modulus = 0 then c.residue mod modulus = residue
  else c.modulus mod modulus = 0 && c.residue mod modulus = residue

(* split the widest axis (most candidate indices) at its midpoint *)
let split b =
  let widest = ref (-1) and width = ref 1 in
  if slice_points b.b_tt > !width then begin
    widest := -1;
    width := slice_points b.b_tt
  end;
  Array.iteri
    (fun d s ->
      if slice_points s > !width then begin
        widest := d;
        width := slice_points s
      end)
    b.b_ts;
  if !width <= 1 then None
  else
    let halve s =
      let mid = (s.lo + s.hi) / 2 in
      ({ s with hi = mid }, { s with lo = mid + 1 })
    in
    Metrics.incr c_boxes_split;
    if !widest < 0 then
      let a, b' = halve b.b_tt in
      Some ({ b with b_tt = a }, { b with b_tt = b' })
    else
      let a, b' = halve b.b_ts.(!widest) in
      let left = Array.copy b.b_ts and right = Array.copy b.b_ts in
      left.(!widest) <- a;
      right.(!widest) <- b';
      Some ({ b with b_ts = left }, { b with b_ts = right })

type point = { p_tt : int; p_ts : int array }

let members l b =
  let tts = List.init (slice_points b.b_tt) (fun i -> l.tt_axis.(b.b_tt.lo + i)) in
  let dims =
    Array.to_list
      (Array.mapi
         (fun d s ->
           List.init (slice_points s) (fun i -> l.ts_axes.(d).(s.lo + i)))
         b.b_ts)
  in
  let rec product = function
    | [] -> [ [] ]
    | axis :: rest ->
        let tails = product rest in
        List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) axis
  in
  List.concat_map
    (fun p_tt ->
      List.map (fun tl -> { p_tt; p_ts = Array.of_list tl }) (product dims))
    tts

let index_of (a : axis) v =
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then Some mid
      else if a.(mid) < v then go (mid + 1) hi
      else go lo (mid - 1)
  in
  go 0 (Array.length a - 1)

let contains l b ~t_t ~t_s =
  Array.length t_s = rank l
  && (match index_of l.tt_axis t_t with
     | Some i -> b.b_tt.lo <= i && i <= b.b_tt.hi
     | None -> false)
  &&
  let ok = ref true in
  Array.iteri
    (fun d v ->
      match index_of l.ts_axes.(d) v with
      | Some i -> if not (b.b_ts.(d).lo <= i && i <= b.b_ts.(d).hi) then ok := false
      | None -> ok := false)
    t_s;
  !ok

let box_id l b =
  let (tt_lo, tt_hi), ts = value_ranges l b in
  Printf.sprintf "tT[%d..%d]-tS%s" tt_lo tt_hi
    (String.concat "x"
       (Array.to_list (Array.map (fun (lo, hi) -> Printf.sprintf "[%d..%d]" lo hi) ts)))

(* ------------------------------------------------------------------ *)
(* Symbolic feasibility (Model.feasible over a box)                   *)
(* ------------------------------------------------------------------ *)

type verdict = Feasible | Infeasible of string | Mixed of string

let verdict_name = function
  | Feasible -> "feasible"
  | Infeasible _ -> "infeasible"
  | Mixed _ -> "mixed"

let verdict_constraint = function
  | Feasible -> None
  | Infeasible c | Mixed c -> Some c

(* a corner of the box, read straight off the lattice *)
let ts_corner l b ~high =
  let c = Array.make (Array.length b.b_ts) 0 in
  for d = 0 to Array.length c - 1 do
    let s = b.b_ts.(d) in
    c.(d) <- l.ts_axes.(d).(if high then s.hi else s.lo)
  done;
  c

let exceeds_extent (t_s : int array) (space : int array) =
  let over = ref false in
  for d = 0 to Array.length t_s - 1 do
    if t_s.(d) > space.(d) then over := true
  done;
  !over

(* Model.feasible's constraints, decided over the whole box where the
   monotone structure allows.  M_tile = 2 * prod (t_s_d + order t_T + 1) *
   word_factor is strictly increasing in every coordinate, so its range
   over the box is exactly [value at the low corner, value at the high
   corner]; likewise t_s <= space is monotone per axis.  A constraint that
   holds at the worst corner holds everywhere; one violated at the best
   corner is violated everywhere. *)
let feasible_box (p : Params.t) (problem : Problem.t) l b =
  let stencil = problem.Problem.stencil in
  if rank l <> stencil.Stencil.rank then
    Infeasible "configuration rank /= problem rank"
  else begin
    let order = stencil.Stencil.order in
    let word_factor = Problem.word_factor problem in
    let space = problem.Problem.space in
    let ts_lo = ts_corner l b ~high:false in
    let ts_hi = ts_corner l b ~high:true in
    let cap = p.Params.shared_mem_per_block in
    let smem_min =
      Footprint.shared_words_of ~word_factor ~order
        ~t_t:l.tt_axis.(b.b_tt.lo) ts_lo
    and smem_max =
      Footprint.shared_words_of ~word_factor ~order
        ~t_t:l.tt_axis.(b.b_tt.hi) ts_hi
    in
    if smem_min > cap then Infeasible "shared-memory cap (Equation 19)"
    else if exceeds_extent ts_lo space then
      Infeasible "tile size exceeds problem extent"
    else if smem_max > cap then Mixed "shared-memory cap (Equation 19)"
    else if exceeds_extent ts_hi space then
      Mixed "tile size exceeds problem extent"
    else Feasible
  end

(* ------------------------------------------------------------------ *)
(* Interval-lifted model evaluation                                   *)
(* ------------------------------------------------------------------ *)

let interval_inputs l b =
  ( II.v l.tt_axis.(b.b_tt.lo) l.tt_axis.(b.b_tt.hi),
    Array.mapi
      (fun d s -> II.v l.ts_axes.(d).(s.lo) l.ts_axes.(d).(s.hi))
      b.b_ts )

let model_terms ?variant (p : Params.t) ~citer (problem : Problem.t) l b =
  if citer <= 0.0 then invalid_arg "Hexabs.model_terms: citer must be positive";
  let t_t, t_s = interval_inputs l b in
  Metrics.incr c_bound_evals;
  ICalc.evaluate ?variant p ~citer
    ~order:problem.Problem.stencil.Stencil.order
    ~word_factor:(Problem.word_factor problem) ~space:problem.Problem.space
    ~time:problem.Problem.time ~t_t ~t_s

let talg_bounds ?variant p ~citer problem l b =
  let t = model_terms ?variant p ~citer problem l b in
  (t.ICalc.c_talg.FI.flo, t.ICalc.c_talg.FI.fhi)

(* ------------------------------------------------------------------ *)
(* Feasible-region certificate                                        *)
(* ------------------------------------------------------------------ *)

type region = {
  r_box : box;
  r_verdict : verdict;
  r_points : int;
  r_members : (point * bool) list;
      (* per-point feasibility; non-empty iff the region was enumerated *)
}

type certificate = {
  cert_total_points : int;
  cert_feasible_points : int;
  cert_proven_points : int;
  cert_enumerated_points : int;
  cert_boxes_feasible : int;
  cert_boxes_infeasible : int;
  cert_boxes_enumerated : int;
  cert_splits : int;
  cert_regions : region list;
}

let point_feasible (p : Params.t) (problem : Problem.t) pt =
  match Config.make ~t_t:pt.p_tt ~t_s:pt.p_ts ~threads:[| 128 |] with
  | Error _ -> false
  | Ok cfg -> ( match Model.feasible p problem cfg with Ok () -> true | Error _ -> false)

let prove ?(leaf = 4) (p : Params.t) (problem : Problem.t) l =
  let regions = ref [] and splits = ref 0 in
  let rec go b =
    match feasible_box p problem l b with
    | Feasible as v ->
        Metrics.incr c_boxes_feasible;
        Metrics.incr ~by:(box_points b) c_points_proven;
        regions := { r_box = b; r_verdict = v; r_points = box_points b; r_members = [] } :: !regions
    | Infeasible _ as v ->
        Metrics.incr c_boxes_infeasible;
        Metrics.incr ~by:(box_points b) c_points_proven;
        regions := { r_box = b; r_verdict = v; r_points = box_points b; r_members = [] } :: !regions
    | Mixed _ as v -> (
        if box_points b <= leaf then enumerate b v
        else
          match split b with
          | Some (x, y) ->
              incr splits;
              go x;
              go y
          | None -> enumerate b v)
  and enumerate b v =
    let pts =
      List.map (fun pt -> (pt, point_feasible p problem pt)) (members l b)
    in
    Metrics.incr ~by:(List.length pts) c_points_enumerated;
    regions := { r_box = b; r_verdict = v; r_points = box_points b; r_members = pts } :: !regions
  in
  go (full_box l);
  let regions = List.rev !regions in
  let total = box_points (full_box l) in
  let feasible_points =
    List.fold_left
      (fun acc r ->
        match r.r_verdict with
        | Feasible -> acc + r.r_points
        | Infeasible _ -> acc
        | Mixed _ ->
            acc + List.length (List.filter (fun (_, f) -> f) r.r_members))
      0 regions
  in
  let count pred = List.length (List.filter pred regions) in
  {
    cert_total_points = total;
    cert_feasible_points = feasible_points;
    cert_proven_points =
      List.fold_left
        (fun acc r -> if r.r_members = [] then acc + r.r_points else acc)
        0 regions;
    cert_enumerated_points =
      List.fold_left (fun acc r -> acc + List.length r.r_members) 0 regions;
    cert_boxes_feasible = count (fun r -> r.r_verdict = Feasible);
    cert_boxes_infeasible =
      count (fun r -> match r.r_verdict with Infeasible _ -> true | _ -> false);
    cert_boxes_enumerated = count (fun r -> r.r_members <> []);
    cert_splits = !splits;
    cert_regions = regions;
  }

let certificate_feasible cert l ~t_t ~t_s =
  let covering =
    List.find_opt (fun r -> contains l r.r_box ~t_t ~t_s) cert.cert_regions
  in
  match covering with
  | None -> None
  | Some r -> (
      match r.r_verdict with
      | Feasible -> Some true
      | Infeasible _ -> Some false
      | Mixed _ ->
          List.find_map
            (fun (pt, f) -> if pt.p_tt = t_t && pt.p_ts = t_s then Some f else None)
            r.r_members)

(* ------------------------------------------------------------------ *)
(* Verified branch-and-bound over certified Talg lower bounds         *)
(* ------------------------------------------------------------------ *)

(* Binary min-heap keyed by (bound, insertion sequence number).  The
   sequence number makes the order total and stable: equal bounds pop in
   insertion order, the order a stable sort by bound gives.  A NaN bound
   orders after every number. *)
module Worklist = struct
  type 'a entry = { key : float; seq : int; item : 'a }
  type 'a t = { mutable heap : 'a entry array; mutable size : int; mutable next : int }

  let create () = { heap = [||]; size = 0; next = 0 }

  let before a b =
    if a.key < b.key then true
    else if a.key = b.key then a.seq < b.seq
    else if Float.is_nan a.key then Float.is_nan b.key && a.seq < b.seq
    else Float.is_nan b.key

  (* move the hole at [i] up until [e] fits, then fill it *)
  let rec sift_up h i e =
    let parent = (i - 1) / 2 in
    if i > 0 && before e h.(parent) then begin
      h.(i) <- h.(parent);
      sift_up h parent e
    end
    else h.(i) <- e

  (* move the hole at [i] down (within [n] entries) until [e] fits *)
  let rec sift_down h n i e =
    let l = (2 * i) + 1 in
    let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
    if l < n && before h.(c) e then begin
      h.(i) <- h.(c);
      sift_down h n c e
    end
    else h.(i) <- e

  let push w key item =
    let e = { key; seq = w.next; item } in
    w.next <- w.next + 1;
    if w.size = Array.length w.heap then begin
      let grown = Array.make (max 16 (2 * w.size)) e in
      Array.blit w.heap 0 grown 0 w.size;
      w.heap <- grown
    end;
    w.size <- w.size + 1;
    sift_up w.heap (w.size - 1) e

  let pop w =
    if w.size = 0 then None
    else begin
      let top = w.heap.(0) in
      w.size <- w.size - 1;
      if w.size > 0 then sift_down w.heap w.size 0 w.heap.(w.size);
      Some (top.key, top.item)
    end

  let to_sorted_list w =
    let rest = Array.sub w.heap 0 w.size in
    Array.sort (fun a b -> if before a b then -1 else if before b a then 1 else 0) rest;
    Array.to_list (Array.map (fun e -> (e.key, e.item)) rest)
end

type bnb = {
  bnb_best : point;
  bnb_talg : float;
  bnb_evals_concrete : int;
  bnb_evals_bound : int;
  bnb_boxes_pruned : int;
  bnb_boxes_enumerated : int;
  bnb_live : box list;
}

let point_talg ?variant (p : Params.t) ~citer problem pt =
  match Config.make ~t_t:pt.p_tt ~t_s:pt.p_ts ~threads:[| 128 |] with
  | Error _ -> None
  | Ok cfg -> (
      match Model.predict ?variant p ~citer problem cfg with
      | Ok pr -> Some pr.Model.talg
      | Error _ -> None)

(* representative member for incumbent seeding: the index-midpoint *)
let representative l b =
  let mid s = (s.lo + s.hi) / 2 in
  {
    p_tt = l.tt_axis.(mid b.b_tt);
    p_ts = Array.mapi (fun d s -> l.ts_axes.(d).(mid s)) b.b_ts;
  }

(* Best-first search on the certified lower bounds.  The key property
   making this exact with almost no concrete evaluations: at a singleton
   box every interval collapses and the interval evaluation IS the scalar
   evaluation (both endpoints run the same float primitives), so a
   singleton's lower bound equals its concrete Talg bit for bit.  Popping
   boxes in ascending bound order therefore terminates the moment a
   singleton surfaces at the head: its exact Talg is <= the lower bound of
   every remaining box, hence <= every remaining member's Talg.  The one
   concrete Model.predict call is a cross-check (and produces the
   prediction the caller wants). *)
let minimize ?variant ?(slack = 0.25) (p : Params.t) ~citer
    (problem : Problem.t) l =
  if citer <= 0.0 then Error "citer must be positive"
  else begin
    let evals_concrete = ref 0 and evals_bound = ref 0 in
    let pruned = ref 0 and popped = ref 0 in
    let bound b =
      incr evals_bound;
      fst (talg_bounds ?variant p ~citer problem l b)
    in
    let wl = Worklist.create () in
    let enqueue b =
      match feasible_box p problem l b with
      | Infeasible _ ->
          Metrics.incr c_boxes_infeasible;
          incr pruned;
          Metrics.incr c_bnb_pruned
      | Feasible | Mixed _ -> Worklist.push wl (bound b) b
    in
    let rec drain () =
      match Worklist.pop wl with
      | None -> Error "no feasible point in the lattice"
      | Some (lb, b) ->
          incr popped;
          if box_points b = 1 then begin
            (* exact: lb is this point's Talg and no remaining box can
               beat it.  feasible_box is corner-exact on singletons, so
               the point passed enqueue's feasibility gate. *)
            let pt = representative l b in
            incr evals_concrete;
            Metrics.incr c_concrete_evals;
            match point_talg ?variant p ~citer problem pt with
            | None -> Error "hexabs: singleton argmin rejected by the model"
            | Some talg ->
                if talg <> lb then
                  Error "hexabs: singleton bound differs from Model.predict"
                else
                  let live =
                    b
                    :: List.filter_map
                         (fun (lb, b) ->
                           if lb <= talg *. (1.0 +. slack) then Some b
                           else begin
                             incr pruned;
                             Metrics.incr c_bnb_pruned;
                             None
                           end)
                         (Worklist.to_sorted_list wl)
                  in
                  Ok
                    {
                      bnb_best = pt;
                      bnb_talg = talg;
                      bnb_evals_concrete = !evals_concrete;
                      bnb_evals_bound = !evals_bound;
                      bnb_boxes_pruned = !pruned;
                      bnb_boxes_enumerated = !popped;
                      bnb_live = live;
                    }
          end
          else
            match split b with
            | None -> assert false (* box_points > 1 always splits *)
            | Some (x, y) ->
                enqueue y;
                enqueue x;
                drain ()
    in
    enqueue (full_box l);
    drain ()
  end

(* ------------------------------------------------------------------ *)
(* Symbolic lint: resources + bounds passes over boxes                *)
(* ------------------------------------------------------------------ *)

type lint_verdict = Clean | Dirty of string | Unresolved of string

let lint_verdict_name = function
  | Clean -> "clean"
  | Dirty _ -> "dirty"
  | Unresolved _ -> "unresolved"

(* The bounds pass (B2..B6) is finding-free for every Lower-generated
   kernel on any lattice with t_s >= 1 and even t_t >= 2:

   - B2: Lower allocates smem_words = 2 * word_factor * prod smem_ext by
     the same closed form the pass recomputes — margin identically 0.
   - B3: the widest row is t_s0 + 2*order*(t_t/2 - 1) (Green; Yellow adds
     its extra to both sides), and smem_ext0 = t_s0 + order*t_t + 1, so
     (smem_ext0 - 1) - (width + 2*order) = 0 — tight but never negative.
   - B5: smem_ext_d - (t_s_d + 2*order) = order*(t_t - 2) + 1 >= 1.
   - B4: staged words (t_s0 + 2*order*t_t) * prod_inner t_s_d * wf versus
     the allocation 2 * prod (t_s_d + order*t_t + 1) * wf: the leading
     factor alone satisfies 2*(t_s0 + order*t_t + 1) > t_s0 + 2*order*t_t,
     and every inner factor dominates its counterpart.
   - B6: clipping only shrinks rows (Hexgeom.rows_clipped filters and
     clamps), so no clipped row exceeds the widest unclipped row + extra.

   B1 (tap offsets within the order-halo) is the one stencil-dependent
   check, decided concretely once per problem.  The parity precondition is
   discharged with the congruence domain; the QCheck soundness suite
   cross-checks box verdicts against per-config Hexlint runs. *)
let bounds_clean_box (problem : Problem.t) l =
  let stencil = problem.Problem.stencil in
  let order = stencil.Stencil.order in
  let tt_c = congruence_of l.tt_axis (full_slice l.tt_axis) in
  if not (congruence_implies tt_c ~modulus:2 ~residue:0) then
    Unresolved "bounds: t_t axis not provably even"
  else
    let bad_offset =
      List.exists
        (fun off ->
          Array.length off <> stencil.Stencil.rank
          || Array.exists (fun o -> abs o > order) off)
        (Stencil.offsets stencil)
    in
    if bad_offset then Dirty "bounds: tap offset beyond the order halo"
    else Clean

(* Resource-pass findings over a box, at a thread-count slice of the given
   axis.  Every quantity is evaluated with the same interval arithmetic the
   model uses; the congruence domain discharges the warp-multiple warning
   for the whole thread axis at once. *)
let resources_clean_box (arch : Arch.t) (problem : Problem.t) l b
    ~(threads_axis : axis) ~(threads : slice) =
  let module A = Arith.Interval in
  let stencil = problem.Problem.stencil in
  let order = stencil.Stencil.order in
  let word_factor = Problem.word_factor problem in
  let t_t, t_s = interval_inputs l b in
  let thr = II.v threads_axis.(threads.lo) threads_axis.(threads.hi) in
  let thr_c = congruence_of threads_axis threads in
  (* M_tile, as the resources pass sees it (Lower's allocation) *)
  let smem =
    A.( * )
      (A.( * ) (A.int 2)
         (Array.fold_left
            (fun acc s ->
              A.( * ) acc
                (A.( + ) (A.( + ) s (A.( * ) (A.int order) t_t)) (A.int 1)))
            (A.int 1) t_s))
      (A.int word_factor)
  in
  (* Regalloc.per_thread at the Yellow family's widest row (the worst of
     the two family kernels: base is wider by 2*order) *)
  let inner =
    Array.fold_left (fun acc s -> A.( * ) acc s) (A.int 1)
      (Array.sub t_s 1 (Array.length t_s - 1))
  in
  let widest_base = A.( + ) t_s.(0) (A.int (2 * order)) in
  let max_row_points =
    A.imax (A.int 1)
      (A.( * )
         (A.( + ) widest_base
            (A.( * ) (A.int (2 * order))
               (A.( - ) (A.tdiv t_t (A.int 2)) (A.int 1))))
         inner)
  in
  let regs =
    A.( + )
      (A.int (14 + (2 * stencil.Stencil.loads) + (3 * stencil.Stencil.rank)))
      (A.( * ) (A.int 2) (A.ceil_div max_row_points thr))
  in
  let regs_held = A.imin regs (A.int arch.Arch.max_regs_per_thread) in
  let regs_per_sm = A.( * ) regs_held thr in
  let thr_lo = thr.II.ilo and thr_hi = thr.II.ihi in
  if thr_hi > arch.Arch.max_threads_per_block then
    if thr_lo > arch.Arch.max_threads_per_block then
      Dirty "resources: threads exceed the per-block cap"
    else Unresolved "resources: threads straddle the per-block cap"
  else if not (congruence_implies thr_c ~modulus:arch.Arch.warp_size ~residue:0)
  then Unresolved "resources: threads not provably warp multiples"
  else if smem.II.ilo > arch.Arch.shared_mem_per_block then
    Dirty "resources: shared allocation exceeds the per-block cap"
  else if smem.II.ihi > arch.Arch.shared_mem_per_block then
    Unresolved "resources: shared allocation straddles the per-block cap"
  else if regs.II.ilo > 2 * arch.Arch.max_regs_per_thread then
    Dirty "resources: register demand beyond twice the architectural cap"
  else if regs.II.ihi > 2 * arch.Arch.max_regs_per_thread then
    Unresolved "resources: register demand straddles twice the cap"
  else if thr_hi > arch.Arch.max_threads_per_sm then
    Unresolved "resources: threads beyond the per-SM thread slots"
  else if smem.II.ihi > arch.Arch.shared_mem_per_sm then
    Dirty "resources: zero occupancy (shared memory)"
  else if regs_per_sm.II.ihi > arch.Arch.registers_per_sm then
    Unresolved "resources: occupancy may hit the register file"
  else Clean

let lint_clean_box arch problem l b ~threads_axis ~threads =
  match bounds_clean_box problem l with
  | Clean -> (
      match resources_clean_box arch problem l b ~threads_axis ~threads with
      | Clean ->
          Metrics.incr c_lint_clean;
          Clean
      | v -> v)
  | v -> v

let prove_clean ?(leaf = 4) arch problem l ~threads_axis ~threads =
  let rec go b acc =
    match lint_clean_box arch problem l b ~threads_axis ~threads with
    | Clean -> (b, Clean) :: acc
    | Dirty _ as v -> (b, v) :: acc
    | Unresolved _ as v -> (
        if box_points b <= leaf then (b, v) :: acc
        else
          match split b with
          | None -> (b, v) :: acc
          | Some (x, y) ->
              Metrics.incr c_boxes_split;
              go y (go x acc))
  in
  List.rev (go (full_box l) [])

(* the congruence-domain bank-stride fact: the inner-dimension row stride
   (t_s_inner + order * t_t) * word_factor + 1 of every member config.
   With a warp-multiple inner axis and an even t_t axis the class is odd,
   i.e. coprime to the 32 banks — the whole box is conflict-free. *)
let stride_congruence (problem : Problem.t) l b =
  let stencil = problem.Problem.stencil in
  let order = stencil.Stencil.order in
  let word_factor = Problem.word_factor problem in
  let r = rank l in
  let inner_c = congruence_of l.ts_axes.(r - 1) b.b_ts.(r - 1) in
  let tt_c = congruence_of l.tt_axis b.b_tt in
  let combine a b =
    (* congruence of a + b *)
    if a.modulus = 0 && b.modulus = 0 then
      { modulus = 0; residue = a.residue + b.residue }
    else
      let m = gcd a.modulus b.modulus in
      let m = if m = 0 then max a.modulus b.modulus else m in
      { modulus = m; residue = (((a.residue + b.residue) mod m) + m) mod m }
  in
  let scale k c =
    if c.modulus = 0 then { modulus = 0; residue = k * c.residue }
    else { modulus = k * c.modulus; residue = k * c.residue mod (k * c.modulus) }
  in
  let base = combine inner_c (scale order tt_c) in
  let scaled = scale word_factor base in
  combine scaled { modulus = 0; residue = 1 }
