(** The N.5D blocked executor — AN5D's execution model (§4.1) run on the
    simulated GPU.

    One kernel call advances the solution by [b <= bT] time-steps. Each
    thread block owns a spatial block of [n_thr] threads (one cell per
    thread per sub-plane) and streams sub-planes along dimension 0,
    accompanied by [b] computational streams with a lag of [rad]
    sub-planes between consecutive time-steps (Fig 1). Per time-step and
    thread, [1 + 2*rad] sub-plane values live in a *fixed* register file
    (Fig 3b); neighbor values of other threads go through the
    double-buffered shared memory tile (Fig 3a).

    Boundary handling follows §4.1 exactly: threads whose cell sits on
    the grid boundary (or in a halo region) overwrite their destination
    register with the previous time-step's value instead of branching
    around the update, so boundary sub-planes propagate through the
    register pipeline without global memory re-loads.

    Every kernel call runs off the per-call {!Plan}, whose lowering
    already settles the execution mode, on the sliding-window
    {!Stream_exec} kernels. The differential tests bit-compare the
    grids against {!Stencil.Reference} (and, in [Partial_sums] mode,
    against a per-cell partial-sums sweep) and assert the counters
    field for field equal to the §5 closed form
    ({!Model.Thread_class.counters}). *)

(** How CALC evaluates the update:
    - [Direct]: the expression as written (bit-identical to the
      reference — what the diagonal-access-free path does);
    - [Partial_sums]: the §4.1 associative dataflow — per-plane partial
      sums accumulated in ascending plane order as source sub-planes
      stream by. Reassociates the arithmetic, so results differ from
      the reference in the last bits (like the artifact's GPU-vs-CPU
      error, §A.6). Lowers as [Direct] for non-associative
      expressions. Canonically defined in {!Run_config} (the unified
    request API); re-exported here so executor call sites keep reading
    [Blocking.Direct]. *)
type exec_mode = Run_config.exec_mode = Direct | Partial_sums

type launch_stats = {
  n_tb : int;  (** thread blocks per kernel call (spatial) *)
  n_stream_blocks : int;
  n_thr : int;
  smem_bytes : int;
  regs_per_thread : int;
  kernel_calls : int;
}

let pp_launch_stats ppf s =
  Fmt.pf ppf "%d calls x %d blocks (%d stream) x %d threads, smem %dB, regs %d"
    s.kernel_calls (s.n_tb * s.n_stream_blocks) s.n_stream_blocks s.n_thr
    s.smem_bytes s.regs_per_thread

(* Thread-block geometry lives in {!Plan}; re-exported here for the
   warp analysis and the PTX interpreter. *)
type geometry = Plan.geometry = {
  bs : int array;
  coords : int array array;  (** per thread *)
  strides : int array;
}

let make_geometry = Plan.make_geometry

let neighbor_thread = Plan.neighbor_thread

(* ------------------------------------------------------------------ *)
(* One kernel call                                                     *)
(* ------------------------------------------------------------------ *)

(* Observability: one [chunk] span and counter tick per temporal chunk,
   one [kernel] span per launch (docs/OBSERVABILITY.md). *)
let m_chunks_executed = Obs.Metrics.counter "chunks_executed"

(* Per-kernel streaming dispatch counters ([streaming_dispatch_fused5pt],
   ...): one tick per kernel call that takes the sliding-window path,
   keyed by {!Stream_exec.kernel_name}, the kernel that call runs
   ([generic] for a lowering with no linear form, every [Partial_sums]
   grouped sum among them). Counters are interned by name, so the
   per-call lookup is a hash probe — docs/OBSERVABILITY.md lists the
   names. *)
let kernel_call ?(mode = Direct) ?pool (em : Execmodel.t)
    ~(machine : Gpu.Machine.t) ~degree:b ~(src : Stencil.Grid.t)
    ~(dst : Stencil.Grid.t) =
  if
    src.Stencil.Grid.dims <> em.Execmodel.dims
    || dst.Stencil.Grid.dims <> em.Execmodel.dims
  then invalid_arg "Blocking.kernel_call: grid dims do not match execution model";
  let prec = src.Stencil.Grid.prec in
  let plan = Plan.get em ~degree:b ~prec ~mode in
  (* Resource checks once per call. *)
  if plan.Plan.smem_bytes > machine.Gpu.Machine.device.Gpu.Device.smem_per_sm then
    raise
      (Gpu.Machine.Launch_failure
         (Fmt.str "AN5D kernel needs %d bytes of shared memory, SM has %d"
            plan.Plan.smem_bytes machine.Gpu.Machine.device.Gpu.Device.smem_per_sm));
  if plan.Plan.regs > machine.Gpu.Machine.device.Gpu.Device.max_regs_per_thread then
    raise
      (Gpu.Machine.Launch_failure
         (Fmt.str "AN5D kernel needs %d registers per thread, limit is %d"
            plan.Plan.regs machine.Gpu.Machine.device.Gpu.Device.max_regs_per_thread));
  (* The dispatch is recorded per kernel shape so the bench and CI can
     prove a gated stencil really took its specialized kernel. *)
  Obs.Metrics.incr
    (Obs.Metrics.counter ("streaming_dispatch_" ^ Stream_exec.kernel_name plan.Plan.low));
  let block = Stream_exec.execute_block plan ~degree:b ~src ~dst in
  let n_blocks = plan.Plan.n_sb * plan.Plan.spatial_blocks in
  Obs.Trace.with_span "kernel"
    ~attrs:
      [ ("degree", Obs.Trace.Int b); ("blocks", Obs.Trace.Int n_blocks);
        ("threads", Obs.Trace.Int plan.Plan.n_thr) ]
    (fun () -> Gpu.Machine.launch ?pool machine ~n_blocks ~n_thr:plan.Plan.n_thr block)

(* ------------------------------------------------------------------ *)
(* Sharded halo-exchange run                                           *)
(* ------------------------------------------------------------------ *)

(* Extents of equal length share compiled plans through the
   process-wide memo cache. *)
let shard_layout (em : Execmodel.t) ~shards =
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let bt = em.Execmodel.config.Config.bt in
  let decomp = Shard.make ~shards ~halo:(bt * rad) ~l:em.Execmodel.dims.(0) in
  let ems =
    Array.init shards (fun k ->
        let lo, hi = Shard.extent decomp k in
        let sdims = Array.copy em.Execmodel.dims in
        sdims.(0) <- hi - lo;
        Execmodel.make em.Execmodel.pattern em.Execmodel.config sdims)
  in
  (decomp, ems)

let sharded_stats (em : Execmodel.t) ~prec ems ~chunks =
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let bt = em.Execmodel.config.Config.bt in
  {
    n_tb = Execmodel.n_tb em;
    n_stream_blocks =
      Array.fold_left (fun acc sem -> acc + Execmodel.n_stream_blocks sem) 0 ems;
    n_thr = Config.n_thr em.Execmodel.config;
    smem_bytes = Execmodel.smem_bytes em ~prec;
    regs_per_thread = Registers.an5d_required ~prec ~bt ~rad;
    kernel_calls = chunks * Array.length ems;
  }

(** Communication-avoiding sharded execution (docs/SHARDING.md):
    decompose the grid along the streaming dimension into [cfg.shards]
    subgrids with ghost zones of width [bt * rad], advance every shard
    one temporal chunk per round through the ordinary {!kernel_call} —
    each shard on its own {!Gpu.Pool} lane — and refresh the ghosts
    between rounds with zero-copy sub-view blits ({!Shard.run}). One
    exchange buys a whole chunk: a degree-[b] call invalidates at most
    [b * rad <= bt * rad] planes inward from a subgrid edge, so every
    owned plane stays bit-correct until the next refresh.

    Result grids are bit-identical to the resident path in both modes
    (differentially fuzzed in test/test_shard.ml). Counters are the
    merge of the per-shard machines: for [shards = 1] they equal the
    resident run's exactly; for [shards > 1] they are the sum of the
    shard models' closed forms, the redundant ghost-zone compute the
    decomposition trades for fewer synchronizations included. [stats] reports the per-chunk stream blocks summed
    over shards and [kernel_calls = chunks * shards]. *)
let run_sharded ?pool (cfg : Run_config.t) (em : Execmodel.t)
    ~(machine : Gpu.Machine.t) ~steps (g : Stencil.Grid.t) =
  if g.Stencil.Grid.dims <> em.Execmodel.dims then
    invalid_arg "Blocking.run: grid dims do not match execution model";
  let shards = cfg.Run_config.shards in
  let bt = em.Execmodel.config.Config.bt in
  let decomp, ems = shard_layout em ~shards in
  let chunks = Execmodel.time_chunks ~bt ~it:steps in
  let mode = cfg.Run_config.mode in
  (* Per-shard machines (same device and precision, private counters):
     lanes never share mutable counter state; merged below, the same
     discipline as {!Gpu.Machine.launch}. *)
  let machines =
    Array.init shards (fun _ ->
        Gpu.Machine.create ~prec:machine.Gpu.Machine.prec
          machine.Gpu.Machine.device)
  in
  let advance ~shard ~degree ~src ~dst =
    kernel_call ~mode ems.(shard) ~machine:machines.(shard) ~degree ~src ~dst
  in
  let execute pool = Shard.run ?pool decomp ~chunks ~grid:g ~advance in
  let result =
    Obs.Trace.with_span "execute"
      ~attrs:
        [ ("pattern", Obs.Trace.Str em.Execmodel.pattern.Stencil.Pattern.name);
          ("steps", Obs.Trace.Int steps);
          ("bt", Obs.Trace.Int bt);
          ("shards", Obs.Trace.Int shards) ]
      (fun () ->
        match pool with
        | Some _ -> execute pool
        | None -> Gpu.Pool.with_pool ~domains:cfg.Run_config.domains execute)
  in
  Array.iter
    (fun (m : Gpu.Machine.t) ->
      Gpu.Counters.add_into m.Gpu.Machine.counters
        ~into:machine.Gpu.Machine.counters)
    machines;
  Obs.Metrics.add m_chunks_executed (List.length chunks);
  ( result,
    sharded_stats em ~prec:g.Stencil.Grid.prec ems
      ~chunks:(List.length chunks) )

(* ------------------------------------------------------------------ *)
(* Full temporal-blocking run                                          *)
(* ------------------------------------------------------------------ *)

(** Advance [steps] time-steps with temporal blocking, chunked per §4.3.
    Returns the final grid and launch statistics. Both buffers start as
    copies of [g], matching the double-buffered host initialization of
    the C pattern.

    The unified-API entrypoint: [cfg] carries mode, domains and shards
    ([cfg.verify]/[cfg.trace]/[cfg.metrics] are the caller's concern —
    this layer only executes). [cfg.domains > 1] fans the independent
    thread blocks of every kernel call out over that many domains (one
    pool, reused across the calls); passing an existing [pool] instead
    reuses it and takes precedence. Output grids and counters are
    bit-identical to the sequential run in both execution modes. *)
let run_cfg ?pool (cfg : Run_config.t) (em : Execmodel.t)
    ~(machine : Gpu.Machine.t) ~steps (g : Stencil.Grid.t) =
  if cfg.Run_config.shards <> 1 then
    run_sharded ?pool cfg em ~machine ~steps g
  else begin
  if g.Stencil.Grid.dims <> em.Execmodel.dims then
    invalid_arg "Blocking.run: grid dims do not match execution model";
  let mode = cfg.Run_config.mode in
  let chunks = Execmodel.time_chunks ~bt:em.Execmodel.config.Config.bt ~it:steps in
  let a = Stencil.Grid.copy g and b = Stencil.Grid.copy g in
  let cur = ref a and nxt = ref b in
  let exec pool =
    List.iter
      (fun degree ->
        Obs.Trace.with_span "chunk" ~attrs:[ ("degree", Obs.Trace.Int degree) ]
          (fun () ->
            kernel_call ~mode ?pool em ~machine ~degree ~src:!cur ~dst:!nxt);
        Obs.Metrics.incr m_chunks_executed;
        let t = !cur in
        cur := !nxt;
        nxt := t)
      chunks
  in
  Obs.Trace.with_span "execute"
    ~attrs:
      [ ("pattern", Obs.Trace.Str em.Execmodel.pattern.Stencil.Pattern.name);
        ("steps", Obs.Trace.Int steps);
        ("bt", Obs.Trace.Int em.Execmodel.config.Config.bt) ]
    (fun () ->
      match pool with
      | Some _ -> exec pool
      | None -> Gpu.Pool.with_pool ~domains:cfg.Run_config.domains exec);
  (!cur, sharded_stats em ~prec:g.Stencil.Grid.prec [| em |]
           ~chunks:(List.length chunks))
  end
