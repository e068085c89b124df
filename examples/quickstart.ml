(* Quickstart: the complete AN5D pipeline in thirty lines.

   Takes the j2d5pt C source of the paper's Fig 4, detects the stencil,
   generates CUDA, and runs the temporally-blocked schedule on the
   simulated V100, verifying bit-exactness against the naive reference.

   Run with: dune exec examples/quickstart.exe *)

let c_source =
  {|
#define SB 128
void j2d5pt(double a[2][SB][SB], double c0, int timesteps) {
  for (int t = 0; t < timesteps; t++)
    for (int i = 1; i < SB - 1; i++)
      for (int j = 1; j < SB - 1; j++)
        a[(t+1)%2][i][j] = (0.25 * a[t%2][i][j]
            + 0.20 * a[t%2][i-1][j] + 0.15 * a[t%2][i+1][j]
            + 0.20 * a[t%2][i][j-1] + 0.20 * a[t%2][i][j+1]) / c0;
}
|}

let () =
  (* 1. compile: parse the C, detect the stencil, pick a configuration *)
  let config = An5d_core.Config.make ~bt:4 ~bs:[| 32 |] () in
  let job =
    An5d_core.Framework.compile ~param_values:[ ("c0", 2.0) ] ~config
      (An5d_core.Framework.source_of_string c_source)
  in
  Fmt.pr "detected: %a@." Stencil.Pattern.pp (An5d_core.Framework.pattern job);

  (* 2. generate CUDA (host + kernels for every needed temporal degree) *)
  let cuda = An5d_core.Framework.cuda_source job in
  Fmt.pr "generated %d bytes of CUDA; first kernel line:@." (String.length cuda);
  String.split_on_char '\n' cuda
  |> List.find (fun l -> String.length l > 10 && String.sub l 0 10 = "__global__")
  |> print_endline;

  (* 3. simulate the blocked schedule on a V100 and verify it *)
  let grid = Stencil.Grid.init_random job.An5d_core.Framework.dims in
  let outcome =
    An5d_core.Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps:20 job grid
  in
  Fmt.pr "launch:  %a@." An5d_core.Blocking.pp_launch_stats outcome.An5d_core.Framework.stats;
  Fmt.pr "traffic: %a@." Gpu.Counters.pp outcome.An5d_core.Framework.counters;
  match outcome.An5d_core.Framework.verified with
  | Ok () -> Fmt.pr "verified: blocked execution is bit-exact vs the reference@."
  | Error d ->
      Fmt.pr "verification FAILED: max deviation %.3e@." d;
      exit 1
