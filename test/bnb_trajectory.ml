(* The whole observable result of Hexabs.minimize and Advisor.solve over a
   fixed problem set, rendered one line per problem.  test/golden_bnb.ml
   holds these lines as recorded before the branch-and-bound worklist
   became a heap; test_hexabs compares a fresh rendering against them. *)

module Hexabs = Hextime_analysis.Hexabs
module Space = Hextime_tileopt.Space
module Advisor = Hextime_serve.Advisor
module Config = Hextime_tiling.Config
module Arch = Hextime_gpu.Arch
module Stencil = Hextime_stencil.Stencil
module Problem = Hextime_stencil.Problem
module H = Hextime_harness

(* off the paper grid: every rank, both architectures, both precisions,
   first- and second-order stencils *)
let off_grid =
  let e arch ?precision stencil space time =
    {
      H.Experiments.arch;
      problem = Problem.make ?precision stencil ~space ~time;
    }
  in
  [
    e Arch.gtx980 Stencil.jacobi1d [| 720896 |] 2560;
    e Arch.titanx Stencil.jacobi1d [| 2949120 |] 9728;
    e Arch.gtx980 Stencil.heat2d [| 1536; 2816 |] 768;
    e Arch.titanx Stencil.laplacian2d [| 3072; 1280 |] 2304;
    e Arch.titanx ~precision:Problem.F64 Stencil.gradient2d [| 1024; 1792 |] 512;
    e Arch.gtx980 Stencil.jacobi2d_order2 [| 2048; 2048 |] 1280;
    e Arch.titanx Stencil.advection2d [| 1792; 4608 |] 512;
    e Arch.gtx980 Stencil.heat3d_order2 [| 224; 320; 288 |] 96;
    e Arch.titanx Stencil.jacobi3d [| 384; 192; 256 |] 160;
    e Arch.gtx980 ~precision:Problem.F64 Stencil.laplacian3d [| 320; 320; 192 |] 64;
  ]

let problems () = H.Experiments.all H.Experiments.Ci @ off_grid

let point_id (pt : Hexabs.point) =
  Printf.sprintf "tT%d-tS%s" pt.Hexabs.p_tt
    (String.concat "x" (Array.to_list (Array.map string_of_int pt.Hexabs.p_ts)))

(* The live list is pinned whole, in order, through its digest; its
   length and end entries are spelled out so a drift reads at a glance. *)
let minimize_line (e : H.Experiments.t) =
  let params = H.Microbench.params e.arch in
  let citer = H.Microbench.citer e.arch e.problem.Problem.stencil in
  let tt, ts = Space.axes e.problem in
  let l = Hexabs.lattice ~tt ~ts in
  match Hexabs.minimize params ~citer e.problem l with
  | Error msg -> Printf.sprintf "%s|minimize|error %s" (H.Experiments.id e) msg
  | Ok r ->
      let live = List.map (Hexabs.box_id l) r.Hexabs.bnb_live in
      let ends =
        match live with
        | [] -> "-|-"
        | first :: _ -> first ^ "|" ^ List.nth live (List.length live - 1)
      in
      Printf.sprintf "%s|minimize|%s|%.17g|%d|%d|%d|%d|%d|%s|%s"
        (H.Experiments.id e) (point_id r.Hexabs.bnb_best) r.Hexabs.bnb_talg
        r.Hexabs.bnb_evals_concrete r.Hexabs.bnb_evals_bound
        r.Hexabs.bnb_boxes_pruned r.Hexabs.bnb_boxes_enumerated
        (List.length live)
        (Digest.to_hex (Digest.string (String.concat ";" live)))
        ends

let advisor_line (e : H.Experiments.t) =
  match Advisor.solve e.arch e.problem with
  | Error msg -> Printf.sprintf "%s|advisor|error %s" (H.Experiments.id e) msg
  | Ok a ->
      Printf.sprintf "%s|advisor|%s|%.17g" (H.Experiments.id e)
        (Config.id a.Advisor.a_config) a.Advisor.a_talg

let lines () =
  List.concat_map (fun e -> [ minimize_line e; advisor_line e ]) (problems ())
