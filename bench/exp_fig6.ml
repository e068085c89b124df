(* Fig 6: performance comparison of loop tiling, hybrid tiling,
   STENCILGEN, AN5D (Sconf), AN5D (Tuned) and the model prediction, on
   both GPUs and both precisions, over the whole benchmark suite
   (GFLOP/s; STENCILGEN only where its kernels were released). *)

let run_setting st =
  Output.section
    (Printf.sprintf "Fig 6 -- performance on %s, GFLOP/s" (Exp_common.setting_name st));
  let rows =
    List.map
      (fun b ->
        let loop = Exp_common.loop_tiling_measure st b in
        let hybrid = Exp_common.hybrid_measure st b in
        let sg = Exp_common.stencilgen_measure st b in
        let sconf = Exp_common.an5d_sconf_measure st b in
        let tuned = Exp_common.an5d_tuned st b in
        [
          b.Bench_defs.Benchmarks.name;
          Output.gflops loop;
          Output.gflops hybrid;
          (match sg with Some g -> Output.gflops g | None -> "-");
          Output.gflops sconf;
          Output.gflops tuned.Model.Tuner.tuned.Model.Measure.gflops;
          Output.gflops tuned.Model.Tuner.model_gflops;
        ])
      (Bench_defs.Benchmarks.all ())
  in
  Output.table
    ~header:[ "stencil"; "Loop"; "Hybrid"; "STENCILGEN"; "AN5D Sconf"; "AN5D Tuned"; "Model" ]
    ~rows

let run () = List.iter run_setting Exp_common.settings
