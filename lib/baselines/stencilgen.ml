(** Baseline: the STENCILGEN strategy (Rawat et al. [24, 26]; paper §3,
    Table 1).

    STENCILGEN implements the same N.5D schedule as AN5D but with the
    two resource choices Table 1 contrasts:

    - *shifting* register allocation: every sub-plane advance moves
      [1 + 2*rad] values through the register window (extra register
      pressure and data movement, Fig 7);
    - one shared-memory buffer *per combined time-step*:
      [n_thr * bT * n_word] bytes per block (times [1 + 2*rad] for
      non-associative stencils) instead of AN5D's two buffers.

    Numerically the schedule is identical to AN5D's (both compute the
    same overlapped N.5D tiling), so only the resource accounting — and
    hence occupancy and measured performance — is modelled here.
    Published results scale only to [bT <= 4] ([scaling_limit]). *)

open An5d_core

let scaling_limit = 4

(** Shared-memory footprint per block in words (Table 1, left column). *)
let smem_words (em : Execmodel.t) =
  let cfg = em.Execmodel.config in
  let n_thr = Config.n_thr cfg in
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let per_step =
    match Config.effective_class cfg em.Execmodel.pattern with
    | Stencil.Pattern.Diag_free | Stencil.Pattern.Associative -> n_thr
    | Stencil.Pattern.General_box -> n_thr * (1 + (2 * rad))
  in
  cfg.Config.bt * per_step

let smem_bytes em ~prec = smem_words em * Stencil.Grid.bytes_per_word prec

(** The Sconf configuration (§6.3): STENCILGEN's published kernel
    parameters — [bT = 4], [h = 128], 1D blocks of 128 threads for 2D
    stencils and 32x32 tiles for 3D. *)
let sconf ~dims =
  if dims <= 2 then
    Config.make ~bt:4 ~bs:[| 128 |] ~hs:(Some 128) ~assoc_opt:false ()
  else Config.make ~bt:4 ~bs:[| 32; 32 |] ~hs:None ()

(** Simulated measurement with STENCILGEN's resource profile: same
    traffic as the N.5D model, occupancy from multi-buffered shared
    memory and shifting registers, plus the data-movement overhead of
    register shifting ([1 + 2*rad] stores per sub-plane update instead
    of 1, §4.2) applied to the compute term. *)
let measure (dev : Gpu.Device.t) ~prec (em : Execmodel.t) ~steps =
  let cfg = em.Execmodel.config in
  let pattern = em.Execmodel.pattern in
  let rad = pattern.Stencil.Pattern.radius in
  let model = Model.Predict.evaluate dev ~prec em ~steps in
  let registers =
    Registers.stencilgen ~prec ~bt:cfg.Config.bt ~rad ~reg_limit:cfg.Config.reg_limit
  in
  let req =
    {
      Gpu.Occupancy.n_thr = Config.n_thr cfg;
      smem_bytes = smem_bytes em ~prec;
      regs_per_thread = registers.Registers.used;
    }
  in
  let occupancy = Gpu.Occupancy.analyze dev req in
  if
    occupancy.Gpu.Occupancy.resident_blocks = 0
    || req.Gpu.Occupancy.smem_bytes > dev.Gpu.Device.smem_per_sm
  then None
  else begin
    let n_tb =
      model.Model.Predict.totals.Model.Thread_class.thread_blocks
      / max 1 model.Model.Predict.totals.Model.Thread_class.kernel_launches
    in
    let eff_sm =
      Gpu.Occupancy.eff_sm dev req ~n_tb
      *. Model.Measure.occupancy_derate occupancy.Gpu.Occupancy.occupancy
    in
    let smem_eff = Gpu.Device.by_prec prec dev.Gpu.Device.smem_efficiency in
    let time_sm = model.Model.Predict.time_sm /. smem_eff in
    (* register shifting: every sub-plane update moves 2*rad extra values *)
    let shift_overhead = 1.0 +. (0.08 *. float (2 * rad)) in
    let div_pen = Model.Measure.fp64_division_penalty dev ~prec pattern in
    let time_comp =
      model.Model.Predict.time_comp *. div_pen *. shift_overhead
      /. Model.Measure.alu_achievable
    in
    let raw = Float.max time_comp (Float.max model.Model.Predict.time_gm time_sm) in
    let spill =
      if registers.Registers.spills then Model.Measure.spill_penalty else 1.0
    in
    let seconds =
      Float.max (raw /. eff_sm *. spill) model.Model.Predict.seconds
    in
    let gflops = Model.Predict.reported_flops em ~steps /. seconds /. 1e9 in
    Some
      {
        Model.Measure.seconds;
        gflops;
        occupancy;
        registers;
        model;
      }
  end

(** Best STENCILGEN result over its register-limit choices (§6.3 applies
    the same {none, 32, 64} search to every framework). *)
let measure_best (dev : Gpu.Device.t) ~prec (em : Execmodel.t) ~steps =
  Obs.Trace.with_span "baseline.stencilgen_measure"
    ~attrs:
      [ ("pattern", Obs.Trace.Str em.Execmodel.pattern.Stencil.Pattern.name) ]
  @@ fun () ->
  [ None; Some 32; Some 64 ]
  |> List.filter_map (fun reg_limit ->
         let cfg = { em.Execmodel.config with Config.reg_limit } in
         measure dev ~prec { em with Execmodel.config = cfg } ~steps)
  |> List.fold_left
       (fun acc m ->
         match acc with
         | Some best when best.Model.Measure.gflops >= m.Model.Measure.gflops -> acc
         | _ -> Some m)
       None
