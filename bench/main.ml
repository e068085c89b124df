(* Experiment harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation (plus the ablations and the artifact-style verification)
   and finishes with the Bechamel micro-benchmarks. Individual
   experiments can be selected by name:

     dune exec bench/main.exe -- table5 fig8 *)

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
    ("throughput", Exp_throughput.run, "streaming vs checked compiled plan vs reference, cells/s");
    ("serve", Exp_serve.run, "batch serving layer: cold vs warm vs coalesced");
    ("micro", Micro.run, "bechamel micro-benchmarks");
  ]

(* The [--quick] smoke subset: experiments fast enough for CI once
   [Exp_common.quick] shrinks their grids. *)
let smoke = [ "throughput"; "serve"; "shard" ]

let usage () =
  print_endline "usage: main.exe [--csv DIR] [--quick] [run flags] [experiment...]";
  print_endline "run flags (shared with the an5d CLI):";
  print_string An5d_core.Run_args.usage;
  print_endline "experiments:";
  List.iter (fun (name, _, doc) -> Printf.printf "  %-8s %s\n" name doc) experiments

(* Strip the harness-specific options; the cross-cutting run flags
   ([--domains], [--trace], [--metrics], ...) are handled afterwards by
   [Run_args.parse] — one parser shared with the [an5d] CLI. *)
let rec parse_options = function
  | "--csv" :: dir :: rest ->
      Output.set_csv_dir (Some dir);
      parse_options rest
  | "--quick" :: rest ->
      Exp_common.quick := true;
      parse_options rest
  | arg :: rest -> arg :: parse_options rest
  | [] -> []

(* [Run_config.with_obs] writes and validates the Chrome trace and
   prints the metrics snapshot — CI fails the run if the exporter ever
   emits a file Perfetto could not load. *)
let run_all selected =
  An5d_core.Run_config.with_obs !Exp_common.run_config (fun () ->
      List.iter (fun run -> run ()) selected)

let () =
  let argv = parse_options (List.tl (Array.to_list Sys.argv)) in
  let argv =
    match An5d_core.Run_args.parse argv with
    | Ok (cfg, rest) ->
        Exp_common.run_config := cfg;
        rest
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        usage ();
        exit 1
  in
  match argv with
  | [] when !Exp_common.quick ->
      Printf.printf "AN5D reproduction -- quick smoke subset\n";
      run_all
        (List.filter_map
           (fun (name, run, _) -> if List.mem name smoke then Some run else None)
           experiments)
  | [] ->
      Printf.printf
        "AN5D reproduction -- regenerating all tables and figures (simulated \
         P100/V100)\n";
      run_all (List.map (fun (_, run, _) -> run) experiments)
  | args ->
      if List.mem "--help" args || List.mem "-h" args then usage ()
      else
        run_all
          (List.map
             (fun name ->
               match List.find_opt (fun (n, _, _) -> n = name) experiments with
               | Some (_, run, _) -> run
               | None ->
                   Printf.eprintf "unknown experiment %s\n" name;
                   usage ();
                   exit 1)
             args)
