(** The N.5D blocked executor — AN5D's execution model (§4.1) run on the
    simulated GPU.

    One kernel call advances the solution by [b <= bT] time-steps: each
    thread block streams sub-planes along dimension 0 accompanied by [b]
    computational streams lagging [rad] planes apart (Fig 1), with a
    fixed per-time-step register file (Fig 3b) and double-buffered
    shared memory for in-plane neighbor exchange (Fig 3a). Boundary
    sub-planes propagate through the register pipeline without global
    re-loads; halo and boundary threads overwrite their destination with
    the previous value instead of branching (§4.1).

    Kernel calls run off a memoized {!Plan} (compiled once per
    [(pattern, config, dims, precision, degree)]). The executor follows
    from the plan: the sliding-window {!Stream_exec} kernels wherever
    {!Plan.unsafe_capable} holds, the checked compiled path for
    [Partial_sums] and non-linear forms. The two are proven
    bit-identical — grids and counters — by the differential test
    suite; numerics are also bit-compared against {!Stencil.Reference}
    and the traffic counters against the §5 closed forms. *)

(** How CALC evaluates the update: [Direct] (the expression as written;
    bit-identical to the reference) or [Partial_sums] (the §4.1
    associative dataflow — per-plane partial sums accumulated in
    ascending plane order; reassociates the arithmetic like the real
    generated kernels, so results differ from the reference in the last
    bits — the artifact's reported GPU-vs-CPU error, §A.6). Falls back
    to [Direct] for non-associative expressions. Canonically defined in
    {!Run_config}; re-exported here for executor call sites. *)
type exec_mode = Run_config.exec_mode = Direct | Partial_sums

(** Thread-block geometry: the mapping between flat thread ids and
    block-local coordinates along the blocked dimensions (defined in
    {!Plan}; re-exported for the {!Warp} analysis and the PTX
    interpreter). *)
type geometry = Plan.geometry = {
  bs : int array;
  coords : int array array;  (** per thread *)
  strides : int array;
}

val make_geometry : int array -> geometry

val neighbor_thread : geometry -> int -> int array -> int
(** Thread id of the block-local neighbor at the in-plane part of a
    full stencil offset (entry 0, the streaming delta, is skipped),
    clamped to the block edge. *)

type launch_stats = {
  n_tb : int;  (** spatial thread blocks per kernel call *)
  n_stream_blocks : int;
  n_thr : int;
  smem_bytes : int;
  regs_per_thread : int;
  kernel_calls : int;
}

val pp_launch_stats : Format.formatter -> launch_stats -> unit

val kernel_call :
  ?mode:exec_mode ->
  ?checked:bool ->
  ?pool:Gpu.Pool.t ->
  Execmodel.t ->
  machine:Gpu.Machine.t ->
  degree:int ->
  src:Stencil.Grid.t ->
  dst:Stencil.Grid.t ->
  unit
(** One temporal-blocking advancement of [degree] steps: reads [src],
    writes updated planes of [dst] (which must be pre-initialized with
    the boundary values, e.g. as a copy of the initial grid). The plan
    is fetched from the memo cache (compiled on first use). The
    sliding-window path runs wherever {!Plan.unsafe_capable} holds
    (ticking [streaming_dispatch_<kernel>]), the checked compiled path
    elsewhere (ticking [streaming_dispatch_fallback]); [checked]
    (default [false]) forces the checked path without ticking either —
    the bit-identical oracle for tests and the throughput bench. A
    [pool] fans the independent thread blocks out over its domains
    with bit-identical results and counters.
    @raise Gpu.Machine.Launch_failure when shared memory or registers
    exceed the device limits.
    @raise Invalid_argument when a grid does not match the model. *)

val run_cfg :
  ?pool:Gpu.Pool.t ->
  ?checked:bool ->
  Run_config.t ->
  Execmodel.t ->
  machine:Gpu.Machine.t ->
  steps:int ->
  Stencil.Grid.t ->
  Stencil.Grid.t * launch_stats
(** Advance [steps] time-steps, chunked per §4.3's host logic; both
    internal buffers start as copies of the input (the double-buffered
    host initialization of the C pattern). All chunks of the run share
    one memoized plan. The config's [mode], [domains] and [shards]
    fields drive the executor ([verify]/[trace]/[metrics] are the
    caller's concern). [domains > 1] runs the thread blocks of every
    kernel call in parallel on a pool reused across the calls (default:
    sequential); an explicit [pool] is reused instead and takes
    precedence. Parallel runs are bit-identical to sequential ones —
    same grids, same counters — in both execution modes. [shards <> 1]
    dispatches to {!run_sharded}. [checked] (default [false]) forces
    the checked compiled path on every kernel call ({!kernel_call}); it
    is an internal oracle switch for tests and benches, deliberately
    not a {!Run_config} field.
    @raise Invalid_argument when the grid does not match the model. *)

val shard_layout : Execmodel.t -> shards:int -> Shard.t * Execmodel.t array
(** The decomposition of [em]'s streaming dimension into [shards]
    subgrids with ghost width [bt * rad], and one execution model per
    shard over its extended extent: the one geometry {!run_sharded} and
    the worker processes of a multi-process run share. *)

val sharded_stats :
  Execmodel.t ->
  prec:Stencil.Grid.precision ->
  Execmodel.t array ->
  chunks:int ->
  launch_stats
(** The analytic launch statistics of a run over the shard models of
    {!shard_layout} and [chunks] temporal chunks; a resident run's are
    [sharded_stats em ~prec [| em |] ~chunks]. *)

val run_sharded :
  ?pool:Gpu.Pool.t ->
  ?checked:bool ->
  Run_config.t ->
  Execmodel.t ->
  machine:Gpu.Machine.t ->
  steps:int ->
  Stencil.Grid.t ->
  Stencil.Grid.t * launch_stats
(** The communication-avoiding sharded schedule (docs/SHARDING.md):
    the grid is decomposed along the streaming dimension into
    [cfg.shards] subgrids with ghost zones of width [bt * rad]; every
    temporal chunk, all shards advance one {!kernel_call} on their own
    private buffer — fanned over the pool, one shard per lane — and
    ghost planes are refreshed between chunks by zero-copy
    {!Stencil.Grid.sub}/[blit] exchange ({!Shard.run}), so halo
    traffic scales as [steps / bt], not [steps].

    Result grids are bit-identical to {!run_cfg}'s resident path in
    both modes. Counters merge the per-shard
    machines: with [shards = 1] they equal the resident run's
    field-for-field (the schedule degenerates to it exactly — the
    differential fuzz in test/test_shard.ml pins both claims); with
    [shards > 1] they additionally count the redundant ghost-zone
    compute traded for fewer synchronizations, deterministically and
    equally on the streaming and [checked] paths. [stats] sums per-chunk stream blocks over shards
    and reports [kernel_calls = chunks * shards]. Normally reached via
    {!run_cfg}'s dispatch; exposed so tests and benches can force the
    shard machinery at [shards = 1].
    @raise Invalid_argument when the grid does not match the model, or
    when [cfg.shards < 1] or exceeds the streaming-dimension size. *)
