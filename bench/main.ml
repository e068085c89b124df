(* Experiment harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation (plus the ablations and the artifact-style verification)
   and finishes with the Bechamel micro-benchmarks. Individual
   experiments can be selected by name:

     dune exec bench/main.exe -- table5 fig8 *)

open Cmdliner

let experiments =
  [
    ("shard", Exp_shard.run, "halo-exchange sharding: cadence and pool throughput");
    ("table1", Exp_table1.run, "smem footprint, AN5D vs STENCILGEN");
    ("table2", Exp_table2.run, "smem accesses per thread");
    ("table3", Exp_table3.run, "benchmark suite and FLOP/cell");
    ("table4", Exp_table4.run, "GPU specifications and bandwidths");
    ("fig6", Exp_fig6.run, "framework comparison, 2 GPUs x 2 precisions");
    ("table5", Exp_table5.run, "tuned configurations and model accuracy");
    ("fig7", Exp_fig7.run, "register usage, STENCILGEN vs AN5D");
    ("fig8", Exp_fig8.run, "scaling with temporal blocking degree");
    ("fig9", Exp_fig9.run, "scaling with stencil order");
    ("ablation", Exp_ablation.run, "design-choice ablations");
    ("ptx", Exp_ptx.run, "PTX-lite instruction analysis and interpreted runs");
    ("verify", Exp_verify.run, "blocked executor vs CPU reference");
    ("validate", Exp_validate.run, "model totals vs simulator counters, exact");
    ("scaling", Exp_scaling.run, "multicore block-parallel executor scaling");
    ("throughput", Exp_throughput.run, "streaming vs reference sweep vs the C reference loop, cells/s");
    ("serve", Exp_serve.run, "batch serving layer: cold vs warm vs coalesced");
    ("micro", Micro.run, "bechamel micro-benchmarks");
  ]

(* The [--quick] smoke subset: experiments fast enough for CI once
   [Exp_common.quick] shrinks their grids. *)
let smoke = [ "throughput"; "serve"; "shard" ]

(* [Run_config.with_obs] writes and validates the Chrome trace and
   prints the metrics snapshot — CI fails the run if the exporter ever
   emits a file Perfetto could not load. *)
let main csv quick cfg selected =
  Output.set_csv_dir csv;
  Exp_common.quick := quick;
  Exp_common.run_config := cfg;
  let selected =
    match selected with
    | [] when quick ->
        Printf.printf "AN5D reproduction -- quick smoke subset\n";
        List.filter_map
          (fun (name, run, _) -> if List.mem name smoke then Some run else None)
          experiments
    | [] ->
        Printf.printf
          "AN5D reproduction -- regenerating all tables and figures (simulated \
           P100/V100)\n";
        List.map (fun (_, run, _) -> run) experiments
    | selected -> selected
  in
  An5d_core.Run_config.with_obs cfg (fun () -> List.iter (fun run -> run ()) selected)

let cmd =
  let csv =
    let doc = "Also write every table as a CSV file into $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let quick =
    let doc =
      "Smoke mode: shrink grids and timing floors; with no experiment named, \
       run only " ^ String.concat ", " smoke ^ "."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let selected =
    let doc = "Experiments to run (default: all of them); see EXPERIMENTS." in
    let experiment = Arg.enum (List.map (fun (name, run, _) -> (name, run)) experiments) in
    Arg.(value & pos_all experiment [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let man =
    `S "EXPERIMENTS" :: List.map (fun (name, _, doc) -> `I (name, doc)) experiments
  in
  Cmd.v
    (Cmd.info "main.exe" ~doc:"Regenerate the paper's tables and figures." ~man)
    Term.(const main $ csv $ quick $ An5d_cli.Run_args.term $ selected)

let () = exit (Cmd.eval ~catch:false cmd)
