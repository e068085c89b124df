(* Bechamel micro-benchmarks: one Test.make per table/figure, timing the
   computation that regenerates it (scaled down so a run stays fast). *)

open Bechamel
open Toolkit

let star2d1r = (Option.get (Bench_defs.Benchmarks.find "star2d1r")).Bench_defs.Benchmarks.pattern

let j2d5pt = Option.get (Bench_defs.Benchmarks.find "j2d5pt")

let v100 = Gpu.Device.v100

let f32 = Stencil.Grid.F32

let table1 =
  Test.make ~name:"table1_smem_formulas" (Staged.stage (fun () ->
      let cfg = An5d_core.Config.make ~bt:8 ~bs:[| 256 |] () in
      let em = An5d_core.Execmodel.make star2d1r cfg [| 4096; 4096 |] in
      ignore (An5d_core.Execmodel.smem_words em);
      ignore (Baselines.Stencilgen.smem_words em)))

let table2 =
  Test.make ~name:"table2_smem_access_counts" (Staged.stage (fun () ->
      let cfg = An5d_core.Config.make ~bt:2 ~bs:[| 16 |] () in
      let em = An5d_core.Execmodel.make star2d1r cfg [| 24; 24 |] in
      ignore (An5d_core.Execmodel.smem_reads_practical em);
      ignore (Model.Thread_class.for_run em ~steps:1)))

let table3 =
  Test.make ~name:"table3_flop_counting" (Staged.stage (fun () ->
      List.iter
        (fun b -> ignore (Stencil.Pattern.flops_per_cell b.Bench_defs.Benchmarks.pattern))
        (Bench_defs.Benchmarks.all ())))

let table4 =
  Test.make ~name:"table4_bandwidth_procedure" (Staged.stage (fun () ->
      ignore (Gpu.Bandwidth.babelstream_triad ~n:4096 v100 f32)))

let table5 =
  Test.make ~name:"table5_tuner_search" (Staged.stage (fun () ->
      ignore
        (Model.Tuner.rank v100 ~prec:f32 star2d1r ~dims_sizes:[| 16384; 16384 |]
           ~steps:100)))

let fig6 =
  Test.make ~name:"fig6_framework_comparison" (Staged.stage (fun () ->
      let st = { Exp_common.device = v100; prec = f32 } in
      ignore (Exp_common.loop_tiling_measure st j2d5pt);
      ignore (Exp_common.hybrid_measure st j2d5pt);
      ignore (Exp_common.stencilgen_measure st j2d5pt)))

let fig7 =
  Test.make ~name:"fig7_register_model" (Staged.stage (fun () ->
      ignore (An5d_core.Registers.an5d ~prec:f32 ~bt:4 ~rad:1 ~reg_limit:(Some 32));
      ignore (An5d_core.Registers.stencilgen ~prec:f32 ~bt:4 ~rad:1 ~reg_limit:(Some 32))))

let fig8 =
  Test.make ~name:"fig8_bt_sweep_point" (Staged.stage (fun () ->
      let cfg = An5d_core.Config.make ~hs:(Some 256) ~bt:8 ~bs:[| 256 |] () in
      let em = An5d_core.Execmodel.make star2d1r cfg [| 16384; 16384 |] in
      ignore (Model.Measure.run v100 ~prec:f32 em ~steps:100)))

let fig9 =
  Test.make ~name:"fig9_blocked_simulation" (Staged.stage (fun () ->
      let cfg = An5d_core.Config.make ~bt:2 ~bs:[| 16 |] () in
      let em = An5d_core.Execmodel.make star2d1r cfg [| 30; 30 |] in
      let machine = Gpu.Machine.create v100 in
      let g = Stencil.Grid.init_random [| 30; 30 |] in
      ignore (An5d_core.Blocking.run_cfg An5d_core.Run_config.default em ~machine ~steps:4 g)))

let all_tests =
  Test.make_grouped ~name:"an5d"
    [ table1; table2; table3; table4; table5; fig6; fig7; fig8; fig9 ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  results

let print_results results =
  Output.section "Bechamel micro-benchmarks (time per reproduction kernel)";
  Hashtbl.iter
    (fun _instance tbl ->
      let rows =
        Hashtbl.fold
          (fun name result acc ->
            let estimate =
              match Bechamel.Analyze.OLS.estimates result with
              | Some [ e ] -> Printf.sprintf "%.0f ns" e
              | _ -> "-"
            in
            [ name; estimate ] :: acc)
          tbl []
        |> List.sort compare
      in
      Output.table ~header:[ "micro-benchmark"; "monotonic clock" ] ~rows)
    results

let run () = print_results (benchmark ())
