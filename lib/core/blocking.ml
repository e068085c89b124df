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
    {!Stream_exec} kernels. The checked compiled path below drives its
    inner loops off the same plan's flat tables and indexed closure,
    with analytic bulk counter updates; it is the oracle the
    differential tests force with [~checked:true]. The two are
    bit-identical — same grids, field-for-field equal counters. The
    numerics are also bit-compared against {!Stencil.Reference} (and, in
    [Partial_sums] mode, against a per-cell partial-sums sweep in the
    tests), and the traffic counters asserted against the §5 formulas. *)

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
(* Per-block state of the checked path                                 *)
(* ------------------------------------------------------------------ *)

(* Block-local scratch: per-thread global coordinates, membership
   flags and in-plane offsets, and the fixed register file. Blocks can
   run on different domains without sharing state; dst stores of
   distinct blocks are disjoint by construction. {!Stream_exec} derives
   the same masks as runs from boxes ({!Stream_exec.block_runs}) and
   reads none of it. *)
type block_state = {
  sb : int;  (** stream-block index *)
  gcoords : int array array;
  in_grid : bool array;
  inplane_interior : bool array;
  base : int array;  (** per-thread in-plane linear offset into the grids *)
  n_in_grid : int;
  n_interior : int;
  n_store : int;  (** threads with [in_grid && store_ok] *)
  reg_file : float array array array;  (** [.(tstep).(slot).(thread)] *)
}

let make_block_state (plan : Plan.t) ~degree:b block_id =
  let nb = plan.Plan.nb and n_thr = plan.Plan.n_thr and rad = plan.Plan.rad in
  let dims = plan.Plan.em.Execmodel.dims in
  let origin = Plan.block_origin plan ~degree:b block_id in
  let gcoords =
    Array.init n_thr (fun t -> Array.map2 ( + ) origin plan.Plan.geo.Plan.coords.(t))
  in
  (* every grid coordinate [g.(d)] in [[margin, dims_d - margin)] *)
  let inside margin =
    Array.map
      (fun g ->
        let ok = ref true in
        for d = 0 to nb - 1 do
          if g.(d) < margin || g.(d) >= dims.(d + 1) - margin then ok := false
        done;
        !ok)
      gcoords
  in
  let in_grid = inside 0 and inplane_interior = inside rad in
  (* In-plane part of the row-major linear index; only dereferenced for
     in-grid threads (out-of-bound threads get a meaningless value). *)
  let base =
    Array.map
      (fun g ->
        let off = ref 0 in
        for d = 0 to nb - 1 do
          off := !off + (g.(d) * plan.Plan.gstrides.(d + 1))
        done;
        !off)
      gcoords
  in
  let count f =
    let n = ref 0 in
    for t = 0 to n_thr - 1 do
      if f t then incr n
    done;
    !n
  in
  {
    sb = block_id / plan.Plan.spatial_blocks;
    gcoords;
    in_grid;
    inplane_interior;
    base;
    n_in_grid = count (fun t -> in_grid.(t));
    n_interior = count (fun t -> inplane_interior.(t));
    n_store = count (fun t -> in_grid.(t) && plan.Plan.store_ok.(t));
    reg_file = Plan.reg_file plan ~degree:b;
  }

(* ------------------------------------------------------------------ *)
(* The checked compiled path                                          *)
(* ------------------------------------------------------------------ *)

(* The checked path: the inner loops index the plan's flat tables,
   plane accesses go through the grid's bounds-checked linear accessors
   at precomputed base offsets, and the counters advance in per-plane
   bulk increments (per-thread membership counts are block-level
   constants, so a plane's traffic is known analytically). Bit-identity
   with {!Stream_exec} and counter equality are proven by the
   differential tests. *)
let compiled_block (plan : Plan.t) ~degree:b ~(src : Stencil.Grid.t)
    ~(dst : Stencil.Grid.t) ctx =
  let n_thr = plan.Plan.n_thr in
  let rad = plan.Plan.rad in
  let p = plan.Plan.p in
  let l = plan.Plan.l in
  let n_off = plan.Plan.n_off in
  let plane_e = plan.Plan.plane_e in
  let nbr = plan.Plan.nbr in
  let store_ok = plan.Plan.store_ok in
  let stride0 = plan.Plan.gstrides.(0) in
  let round = Stencil.Grid.round_to_prec plan.Plan.prec in
  let low = plan.Plan.low in
  let ops = plan.Plan.ops in
  let sm_writes_per_plane = n_thr * plan.Plan.sm_writes_per_cell in
  let sm_reads_per_cell = plan.Plan.sm_reads_per_cell in
  let barriers_per_plane =
    if plan.Plan.em.Execmodel.config.Config.double_buffer then 1 else 2
  in
  let counters = ctx.Gpu.Machine.machine.Gpu.Machine.counters in
  let st = make_block_state plan ~degree:b ctx.Gpu.Machine.block_id in
  let { in_grid; inplane_interior; base; reg_file; _ } = st in
  let s0, s1 = Execmodel.stream_range plan.Plan.em st.sb in
  (* Source sub-plane pointers for the current compute plane:
     [plane_ptr.(e)] is the register plane holding streaming delta
     [e - rad], refilled per plane so term reads are two array hops. *)
  let plane_ptr = Array.make p reg_file.(0).(0) in
  let load_plane i =
    let dst_plane = reg_file.(0).(i mod p) in
    let poff = i * stride0 in
    for t = 0 to n_thr - 1 do
      dst_plane.(t) <-
        (if in_grid.(t) then Stencil.Grid.get_lin src (base.(t) + poff) else 0.0)
    done;
    Gpu.Counters.add_gm_reads counters st.n_in_grid
  in
  let compute_plane tstep j =
    let dst_plane = reg_file.(tstep).(j mod p) in
    let src_planes = reg_file.(tstep - 1) in
    Gpu.Counters.add_sm_writes counters sm_writes_per_plane;
    Gpu.Counters.add_barriers counters barriers_per_plane;
    (* Every in-grid thread reads its column from the tile, interior or
       not. *)
    Gpu.Counters.add_sm_reads counters (sm_reads_per_cell * st.n_in_grid);
    if j < rad || j >= l - rad then begin
      (* Stream-boundary plane: every thread propagates the previous
         time-step's value (§4.1). *)
      let src_center = src_planes.(j mod p) in
      Array.blit src_center 0 dst_plane 0 n_thr
    end
    else begin
      let sb0 = (j - rad + p) mod p in
      for e = 0 to p - 1 do
        let s = sb0 + e in
        plane_ptr.(e) <- src_planes.(if s >= p then s - p else s)
      done;
      let src_center = plane_ptr.(rad) in
      (match low.Stencil.Sexpr.low_linear with
      | Some lf ->
          (* Flat weighted-sum path: same left-to-right accumulation as
             the compiled closure, so bit-identical. *)
          let lt_off = lf.Stencil.Sexpr.lt_off in
          let lt_off2 = lf.Stencil.Sexpr.lt_off2 in
          let lt_coef = lf.Stencil.Sexpr.lt_coef in
          let lt_scaled = lf.Stencil.Sexpr.lt_scaled in
          let n_terms = Array.length lt_off in
          for t = 0 to n_thr - 1 do
            if inplane_interior.(t) then begin
              let row = t * n_off in
              let k0 = lt_off.(0) in
              let v0 = plane_ptr.(plane_e.(k0)).(nbr.(row + k0)) in
              (* Folded pair (§4.2): the mirror read is added before the
                 scaling, as in the source [c * (a + b)]. *)
              let k2 = lt_off2.(0) in
              let v0 =
                if k2 >= 0 then v0 +. plane_ptr.(plane_e.(k2)).(nbr.(row + k2))
                else v0
              in
              let acc = ref (if lt_scaled.(0) then lt_coef.(0) *. v0 else v0) in
              for q = 1 to n_terms - 1 do
                let k = lt_off.(q) in
                let v = plane_ptr.(plane_e.(k)).(nbr.(row + k)) in
                let k2 = lt_off2.(q) in
                let v =
                  if k2 >= 0 then v +. plane_ptr.(plane_e.(k2)).(nbr.(row + k2))
                  else v
                in
                acc := !acc +. (if lt_scaled.(q) then lt_coef.(q) *. v else v)
              done;
              let value =
                match lf.Stencil.Sexpr.lt_post with
                | Stencil.Sexpr.Post_none -> !acc
                | Stencil.Sexpr.Post_div d -> !acc /. d
              in
              dst_plane.(t) <- round value
            end
            else dst_plane.(t) <- src_center.(t)
          done
      | None ->
          (* Any other lowering: the indexed closure (the per-cell
             compile, or §4.1's fold over per-group closures). *)
          let eval = low.Stencil.Sexpr.low_eval in
          for t = 0 to n_thr - 1 do
            if inplane_interior.(t) then begin
              let row = t * n_off in
              let read k = plane_ptr.(plane_e.(k)).(nbr.(row + k)) in
              dst_plane.(t) <- round (eval read)
            end
            else dst_plane.(t) <- src_center.(t)
          done);
      Gpu.Counters.add_ops_n counters ops st.n_interior;
      Gpu.Counters.add_cells_updated counters st.n_interior
    end
  in
  let store_plane j =
    let src_plane = reg_file.(b).(j mod p) in
    let poff = j * stride0 in
    for t = 0 to n_thr - 1 do
      if in_grid.(t) && store_ok.(t) then
        Stencil.Grid.set_lin dst (base.(t) + poff) src_plane.(t)
    done;
    Gpu.Counters.add_gm_writes counters st.n_store
  in
  let load_lo = s0 - (b * rad) and load_hi = s1 - 1 + (b * rad) in
  for i = load_lo to load_hi do
    if i >= 0 && i < l then load_plane i;
    for tstep = 1 to b do
      let j = i - (tstep * rad) in
      let lo = s0 - ((b - tstep) * rad) and hi = s1 - 1 + ((b - tstep) * rad) in
      if j >= lo && j <= hi && j >= 0 && j < l then begin
        compute_plane tstep j;
        if tstep = b && j >= s0 && j < s1 then store_plane j
      end
    done
  done

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
let kernel_call ?(mode = Direct) ?(checked = false) ?pool (em : Execmodel.t)
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
  (* The sliding-window path, or the checked compiled path — bit-identical
     by construction — when the caller asks for the oracle. The dispatch
     is recorded per kernel shape so the bench and CI can prove a gated
     stencil really took its specialized kernel. *)
  let block =
    if checked then compiled_block plan ~degree:b ~src ~dst
    else begin
      Obs.Metrics.incr
        (Obs.Metrics.counter
           ("streaming_dispatch_" ^ Stream_exec.kernel_name plan.Plan.low));
      Stream_exec.execute_block plan ~degree:b ~src ~dst
    end
  in
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
    resident run's exactly; for [shards > 1] they are deterministic,
    equal on the streaming and checked paths, but include the redundant
    ghost-zone compute the decomposition trades for fewer
    synchronizations. [stats] reports the per-chunk stream blocks summed
    over shards and [kernel_calls = chunks * shards]. *)
let run_sharded ?pool ?checked (cfg : Run_config.t) (em : Execmodel.t)
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
    kernel_call ~mode ?checked ems.(shard) ~machine:machines.(shard) ~degree
      ~src ~dst
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
    bit-identical to the sequential run in both execution modes, on the
    streaming and the [checked] path alike. *)
let run_cfg ?pool ?checked (cfg : Run_config.t) (em : Execmodel.t)
    ~(machine : Gpu.Machine.t) ~steps (g : Stencil.Grid.t) =
  if cfg.Run_config.shards <> 1 then
    run_sharded ?pool ?checked cfg em ~machine ~steps g
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
            kernel_call ~mode ?checked ?pool em ~machine ~degree ~src:!cur
              ~dst:!nxt);
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
