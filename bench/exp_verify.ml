(* Artifact-style verification sweep (§A.6): run every Table 3 benchmark
   through the blocked executor on the simulated GPU and compare against
   the CPU reference, printing the maximum error. AN5D preserves the
   exact operation order per cell, so the expected error is 0. *)

open An5d_core

let verify b =
  let p = b.Bench_defs.Benchmarks.pattern in
  let rad = p.Stencil.Pattern.radius in
  let dims = Bench_defs.Benchmarks.test_dims b in
  let bt = if rad = 1 then 2 else 1 in
  let bs =
    if p.Stencil.Pattern.dims = 2 then [| (2 * bt * rad) + 8 |]
    else [| (2 * bt * rad) + 4; (2 * bt * rad) + 4 |]
  in
  let cfg = Config.make ~bt ~bs () in
  let em = Execmodel.make p cfg dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let g = Stencil.Grid.init_random dims in
  let steps = 4 in
  let reference = Stencil.Reference.run p ~steps g in
  let out, stats = Blocking.run_cfg !Exp_common.run_config em ~machine ~steps g in
  (Stencil.Grid.max_abs_diff reference out, stats, machine.Gpu.Machine.counters)

(* Partial-sums mode reassociates the arithmetic (the §4.1 associative
   dataflow); the artifact reports exactly this kind of small GPU-vs-CPU
   error (§A.6). *)
let verify_partial_sums b =
  let p = b.Bench_defs.Benchmarks.pattern in
  let rad = p.Stencil.Pattern.radius in
  let dims = Bench_defs.Benchmarks.test_dims b in
  let bs =
    if p.Stencil.Pattern.dims = 2 then [| (2 * rad) + 8 |]
    else [| (2 * rad) + 4; (2 * rad) + 4 |]
  in
  let em = Execmodel.make p (Config.make ~bt:1 ~bs ()) dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let g = Stencil.Grid.init_random dims in
  let reference = Stencil.Reference.run p ~steps:4 g in
  let out, _ =
    Blocking.run_cfg
      (Run_config.with_mode Run_config.Partial_sums !Exp_common.run_config)
      em ~machine ~steps:4 g
  in
  Stencil.Grid.rel_l2_error reference out

let run () =
  Output.section "Verification -- blocked executor vs CPU reference (4 steps, small grids)";
  let rows =
    List.map
      (fun b ->
        let err, stats, counters = verify b in
        let psum_err = verify_partial_sums b in
        [
          b.Bench_defs.Benchmarks.name;
          Printf.sprintf "%.1e" err;
          (if err = 0.0 then "PASS" else "FAIL");
          Printf.sprintf "%.1e" psum_err;
          (if psum_err < 1e-12 then "PASS" else "FAIL");
          string_of_int stats.Blocking.kernel_calls;
          string_of_int counters.Gpu.Counters.gm_reads;
          string_of_int counters.Gpu.Counters.sm_reads;
        ])
      (Bench_defs.Benchmarks.all ())
  in
  Output.table
    ~header:
      [
        "stencil"; "direct err"; ""; "partial-sum err"; ""; "calls"; "gm reads";
        "sm reads";
      ]
    ~rows;
  print_endline
    "\nDirect mode preserves the reference's operation order (error 0);\n\
     partial-sums mode reassociates like the real generated kernels and shows\n\
     the artifact's reported last-bit deviations (A.6)."
