(* 2D heat diffusion — the workload class the paper's introduction
   motivates (iterative PDE solvers dominated by stencil sweeps).

   A Gaussian hot spot diffuses on a plate with fixed-temperature
   boundaries (explicit Euler, 5-point Laplacian). We build the stencil
   directly through the library API, run it with high-degree temporal
   blocking (bT = 8) on the simulated V100, and report the physics
   (peak/total temperature) plus what the blocking bought: the global
   memory traffic versus a step-by-step solver, and the modeled speedup
   at the paper's full problem size.

   Run with: dune exec examples/heat_diffusion.exe *)

open An5d_core

(* u' = u + alpha * (u_N + u_S + u_E + u_W - 4u)  with alpha = 0.2 *)
let heat_pattern =
  let alpha = 0.2 in
  let cell o = Stencil.Sexpr.Cell o in
  let term c o = Stencil.Sexpr.Mul (Stencil.Sexpr.Const c, cell o) in
  let expr =
    List.fold_left
      (fun acc t -> Stencil.Sexpr.Add (acc, t))
      (term (1.0 -. (4.0 *. alpha)) [| 0; 0 |])
      [ term alpha [| -1; 0 |]; term alpha [| 1; 0 |];
        term alpha [| 0; -1 |]; term alpha [| 0; 1 |] ]
  in
  Stencil.Pattern.make ~name:"heat2d" ~dims:2 ~params:[] expr

let dims = [| 96; 96 |]

let initial_plate () =
  let cx = 48.0 and cy = 48.0 in
  Stencil.Grid.init dims (fun idx ->
      let dx = float idx.(0) -. cx and dy = float idx.(1) -. cy in
      300.0 +. (400.0 *. exp (-.((dx *. dx) +. (dy *. dy)) /. 50.0)))

let stats label g =
  let hot = Stencil.Grid.fold Float.max neg_infinity g in
  let mean = Stencil.Grid.fold ( +. ) 0.0 g /. float (Stencil.Grid.size g) in
  Fmt.pr "%-22s peak %.1f K, mean %.2f K@." label hot mean

let () =
  let plate = initial_plate () in
  stats "initial plate:" plate;
  let steps = 64 in

  (* temporally blocked solve: 8 combined time-steps per global sweep *)
  let config = Config.make ~bt:8 ~bs:[| 48 |] () in
  let em = Execmodel.make heat_pattern config dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let blocked, launch = Blocking.run_cfg Run_config.default em ~machine ~steps plate in
  stats (Fmt.str "after %d steps:" steps) blocked;
  Fmt.pr "launch: %a@." Blocking.pp_launch_stats launch;

  (* same solve, one kernel per step (the loop-tiling baseline) *)
  let naive_machine = Gpu.Machine.create Gpu.Device.v100 in
  let naive = Baselines.Loop_tiling.run heat_pattern ~machine:naive_machine ~steps plate in
  let exact = Stencil.Grid.max_abs_diff blocked naive = 0.0 in
  Fmt.pr "bit-exact vs per-step solver: %b@." exact;
  if not exact then exit 1;
  let gm b = Gpu.Counters.gm_words b.Gpu.Machine.counters in
  Fmt.pr "global memory words: blocked %d vs per-step %d (%.1fx reduction)@."
    (gm machine) (gm naive_machine)
    (float (gm naive_machine) /. float (gm machine));

  (* what the model says this buys at the paper's production scale *)
  let full = [| 16384; 16384 |] in
  let tuned =
    Model.Tuner.tune_cfg Gpu.Device.v100 ~prec:Stencil.Grid.F64 heat_pattern
      ~dims_sizes:full ~steps:1000
  in
  let base =
    Baselines.Loop_tiling.predict Gpu.Device.v100 ~prec:Stencil.Grid.F64 heat_pattern
      ~dims:full ~steps:1000 ()
  in
  Fmt.pr "at 16384^2 x 1000 steps on V100 (double): AN5D %a -> %.0f GFLOP/s,@."
    Config.pp tuned.Model.Tuner.best tuned.Model.Tuner.tuned.Model.Measure.gflops;
  Fmt.pr "per-step tiling %.0f GFLOP/s: %.1fx from temporal blocking@."
    base.Baselines.Loop_tiling.gflops
    (tuned.Model.Tuner.tuned.Model.Measure.gflops /. base.Baselines.Loop_tiling.gflops)
