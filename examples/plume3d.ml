(* 3D pollutant plume dispersion — a star3d1r workload with an
   anisotropic diffusion-advection kernel, showing the 2.5D streaming
   path (two blocked dimensions, one streamed) and the 3D tuning
   trade-off: unlike 2D stencils, the best temporal degree is small.

   Run with: dune exec examples/plume3d.exe *)

open An5d_core

(* Advection up the z axis (dimension 0 = streaming) plus diffusion:
   c' = c + d * Laplacian(c) + w * (c_below - c)  -- all coefficients
   folded into a 7-point weighted sum. *)
let plume_pattern =
  let d = 0.10 and w = 0.15 in
  let term c o = Stencil.Sexpr.Mul (Stencil.Sexpr.Const c, Stencil.Sexpr.Cell o) in
  let expr =
    List.fold_left
      (fun acc t -> Stencil.Sexpr.Add (acc, t))
      (term (1.0 -. (6.0 *. d) -. w) [| 0; 0; 0 |])
      [
        term (d +. w) [| -1; 0; 0 |];
        term d [| 1; 0; 0 |];
        term d [| 0; -1; 0 |];
        term d [| 0; 1; 0 |];
        term d [| 0; 0; -1 |];
        term d [| 0; 0; 1 |];
      ]
  in
  Stencil.Pattern.make ~name:"plume3d" ~dims:3 ~params:[] expr

let dims = [| 40; 24; 24 |]

let initial () =
  (* point release near the bottom of the domain *)
  Stencil.Grid.init dims (fun idx ->
      let dz = float idx.(0) -. 6.0
      and dx = float idx.(1) -. 12.0
      and dy = float idx.(2) -. 12.0 in
      100.0 *. exp (-.((dz *. dz) +. (dx *. dx) +. (dy *. dy)) /. 6.0))

let centroid_z g =
  let num = ref 0.0 and den = ref 0.0 in
  Poly.Box.iter
    (fun idx ->
      let v = Stencil.Grid.get g idx in
      num := !num +. (v *. float idx.(0));
      den := !den +. v)
    (Stencil.Grid.domain g);
  !num /. !den

let () =
  let c0 = initial () in
  Fmt.pr "release centroid at z = %.2f@." (centroid_z c0);
  let steps = 40 in
  let config = Config.make ~bt:2 ~bs:[| 16; 16 |] ~hs:(Some 20) () in
  let em = Execmodel.make plume_pattern config dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let dispersed, launch = Blocking.run_cfg Run_config.default em ~machine ~steps c0 in
  Fmt.pr "after %d steps the plume centroid rose to z = %.2f@." steps
    (centroid_z dispersed);
  Fmt.pr "launch: %a@." Blocking.pp_launch_stats launch;
  let reference = Stencil.Reference.run plume_pattern ~steps c0 in
  let exact = Stencil.Grid.max_abs_diff reference dispersed = 0.0 in
  Fmt.pr "bit-exact vs reference: %b@." exact;
  if not exact then exit 1;

  (* 3D tuning: the sweet spot is a low temporal degree (Fig 8 right) *)
  Fmt.pr "@.tuning at 512^3 x 1000 steps (V100, float):@.";
  let r =
    Model.Tuner.tune_cfg Gpu.Device.v100 ~prec:Stencil.Grid.F32 plume_pattern
      ~dims_sizes:[| 512; 512; 512 |] ~steps:1000
  in
  List.iter
    (fun c ->
      Fmt.pr "  candidate %a -> %.0f GFLOP/s predicted@." Config.pp
        c.Model.Tuner.config c.Model.Tuner.predicted.Model.Predict.gflops)
    r.Model.Tuner.top;
  Fmt.pr "chosen: %a (tuned %.0f GFLOP/s; best bT stays low for 3D)@." Config.pp
    r.Model.Tuner.best r.Model.Tuner.tuned.Model.Measure.gflops
