(* Seeded workload inputs.  The program only ever sees the problems and
   asks generated here; the same seed gives the same inputs. *)

module Arch = Hextime_gpu.Arch
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module Experiments = Hextime_harness.Experiments

let rng seed = Random.State.make [| 0x68657862; seed |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The paper's 128-experiment grid, and the 12-experiment CI grid. *)
let paper_grid () = Experiments.all Experiments.Paper
let ci_grid () = Experiments.all Experiments.Ci

(* [level lo hi step u]: the value at quantile [u] of lo, lo + step, ..., hi. *)
let level lo hi step u =
  let n = ((hi - lo) / step) + 1 in
  lo + (step * min (n - 1) (int_of_float (u *. float_of_int n)))

(* One problem off the paper grid, its sizes and step count read off the
   quantiles [u] (four numbers in [0, 1)): ranges wide enough to move the
   feasible tile space, and large enough that every stencil has a
   non-empty one. *)
let off_grid_problem (stencil : Stencil.t) (u : float array) =
  match stencil.Stencil.rank with
  | 1 ->
      Problem.make stencil
        ~space:[| level 65536 4194304 65536 u.(0) |]
        ~time:(level 512 16384 512 u.(1))
  | 2 ->
      Problem.make stencil
        ~space:[| level 1024 8192 256 u.(0); level 1024 8192 256 u.(1) |]
        ~time:(level 256 16384 256 u.(2))
  | _ ->
      let space = Array.init 3 (fun i -> level 192 640 32 u.(i)) in
      Problem.make stencil ~space
        ~time:(level 64 (Array.fold_left min max_int space) 32 u.(3))

(* [n] Latin-hypercube quantile vectors: in every coordinate, each of [n]
   equal strata holds exactly one draw.  Seeds vary the problems but not
   how their sizes spread, so a run's timing percentiles do not move with
   the luck of the draw. *)
let latin st n =
  let column () =
    let strata = Array.of_list (shuffle st (List.init n Fun.id)) in
    Array.map (fun k -> (float_of_int k +. Random.State.float st 1.0) /. float_of_int n) strata
  in
  let cols = Array.init 4 (fun _ -> column ()) in
  Array.init n (fun j -> Array.init 4 (fun c -> cols.(c).(j)))

(* The stencil mix of off-grid problems: every stencil once, and the five
   first-order 2D stencils (the paper's main case) twice more.  Solve
   times fall in two clusters (2D first-order problems take 20-60 ms, the
   rest 1-15 ms); with every stencil weighted equally the median solve
   would sit on the boundary between them and jump from seed to seed. *)
let stencil_mix =
  Stencil.all_benchmarks
  @ List.concat_map
      (fun s -> [ s; s ])
      (Stencil.benchmarks_2d @ [ Stencil.advection2d ])

(* [n] off-grid experiments cycling through [stencil_mix] on both
   architectures, so every (stencil, architecture) pair appears; each
   stencil's sizes are Latin-hypercube draws. *)
let off_grid st n =
  let stencils = Array.of_list stencil_mix in
  let archs = Array.of_list Arch.presets in
  let ns = Array.length stencils in
  let kinds =
    List.init n (fun i -> (archs.(i / ns mod Array.length archs), stencils.(i mod ns)))
  in
  let draws = Hashtbl.create 16 in
  List.iter
    (fun (s : Stencil.t) ->
      if not (Hashtbl.mem draws s.Stencil.name) then
        let count = List.length (List.filter (fun (_, t) -> t == s) kinds) in
        Hashtbl.replace draws s.Stencil.name (ref 0, latin st count))
    (List.map snd kinds);
  List.map
    (fun (arch, (stencil : Stencil.t)) ->
      let next, us = Hashtbl.find draws stencil.Stencil.name in
      let u = us.(!next) in
      incr next;
      { Experiments.arch; problem = off_grid_problem stencil u })
    kinds

(* Zipf(1) popularity over [n] items: item [k] is drawn with weight
   1/(k+1). *)
let zipf n =
  let w = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cdf.(i) <- !acc)
    w;
  fun st ->
    let u = Random.State.float st 1.0 in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* An ask's wire fields: architecture, stencil, extents, time steps. *)
let ask_fields (e : Experiments.t) =
  ( e.Experiments.arch.Arch.name,
    e.Experiments.problem.Problem.stencil.Stencil.name,
    e.Experiments.problem.Problem.space,
    e.Experiments.problem.Problem.time )

let ask_of e =
  let arch, stencil, space, time = ask_fields e in
  Hextime_serve.Proto.Ask { arch; stencil; space; time }
