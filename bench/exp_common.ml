(* Shared machinery of the experiment harness: the per-framework
   measurement entry points used by Fig 6, Table 5, and the scaling
   figures. *)

open An5d_core

type setting = {
  device : Gpu.Device.t;
  prec : Stencil.Grid.precision;
}

let settings =
  [
    { device = Gpu.Device.v100; prec = Stencil.Grid.F32 };
    { device = Gpu.Device.v100; prec = Stencil.Grid.F64 };
    { device = Gpu.Device.p100; prec = Stencil.Grid.F32 };
    { device = Gpu.Device.p100; prec = Stencil.Grid.F64 };
  ]

let setting_name s =
  Printf.sprintf "%s (%s)"
    (if s.device == Gpu.Device.v100 then "V100" else "P100")
    (Stencil.Grid.precision_to_string s.prec)

(* The paper's measurement length (§6.1). The analytic totals are exact
   for any step count, so we use the real 1000. *)
let steps = 1000

(* The cross-cutting run flags ([--domains N], [--mode],
   [--trace FILE], [--metrics], [--no-verify]), parsed off the harness
   command line by {!An5d_core.Run_args.parse} — the same parser the
   [an5d] CLI terms are built from. [main] applies the trace/metrics
   sinks via [Run_config.with_obs] around the whole harness run; CI
   runs the quick subset with [--trace] and uploads the file as a
   workflow artifact. *)
let run_config = ref Run_config.default

(* Smoke mode ([--quick]): shrink grids and timing floors so the
   harness finishes in seconds; used by CI. *)
let quick = ref false

(* Sconf (§6.3): STENCILGEN's published parameters, with the temporal
   degree reduced where the halo would swallow the block (high-order 3D
   stencils, which STENCILGEN never published kernels for). *)
let sconf pattern =
  let dims = pattern.Stencil.Pattern.dims in
  let rad = pattern.Stencil.Pattern.radius in
  let base = Baselines.Stencilgen.sconf ~dims in
  let rec fit bt =
    if bt <= 1 then 1
    else if Array.for_all (fun b -> b > 2 * bt * rad) base.Config.bs then bt
    else fit (bt - 1)
  in
  { base with Config.bt = fit base.Config.bt }

let an5d_sconf_measure st b =
  let pattern = b.Bench_defs.Benchmarks.pattern in
  let cfg = sconf pattern in
  let em = Execmodel.make pattern cfg b.Bench_defs.Benchmarks.full_dims in
  let _, m =
    Model.Measure.with_reg_limit_search ~limits:[ None; Some 32; Some 64 ] st.device
      ~prec:st.prec em ~steps
  in
  m.Model.Measure.gflops

let an5d_tuned st b =
  Model.Tuner.tune_cfg st.device ~prec:st.prec b.Bench_defs.Benchmarks.pattern
    ~dims_sizes:b.Bench_defs.Benchmarks.full_dims ~steps

let stencilgen_measure st b =
  if not b.Bench_defs.Benchmarks.stencilgen_available then None
  else begin
    let pattern = b.Bench_defs.Benchmarks.pattern in
    let em = Execmodel.make pattern (sconf pattern) b.Bench_defs.Benchmarks.full_dims in
    Option.map
      (fun m -> m.Model.Measure.gflops)
      (Baselines.Stencilgen.measure_best st.device ~prec:st.prec em ~steps)
  end

let hybrid_measure st b =
  (Baselines.Hybrid.tune st.device ~prec:st.prec b.Bench_defs.Benchmarks.pattern
     ~dims:b.Bench_defs.Benchmarks.full_dims ~steps)
    .Baselines.Hybrid.gflops

let loop_tiling_measure st b =
  (Baselines.Loop_tiling.predict st.device ~prec:st.prec
     b.Bench_defs.Benchmarks.pattern ~dims:b.Bench_defs.Benchmarks.full_dims ~steps ())
    .Baselines.Loop_tiling.gflops

let config_to_cells (c : Config.t) =
  ( string_of_int c.Config.bt,
    String.concat "x" (Array.to_list (Array.map string_of_int c.Config.bs)),
    (match c.Config.hs with Some h -> string_of_int h | None -> "-"),
    match c.Config.reg_limit with Some r -> string_of_int r | None -> "-" )
