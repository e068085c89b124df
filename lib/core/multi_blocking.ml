(** Multi-output N.5D blocking — the §8 future-work prototype.

    Generalizes {!Blocking}'s streaming pipeline to stencil *systems*
    ({!Stencil.System}): every computational stream T updates all [S]
    components of a sub-plane before the next stream consumes it, so one
    round of global traffic advances the whole coupled system [bT]
    steps. The register file grows to [S * bT * (1 + 2*rad)] sub-plane
    values per thread and the shared tile to [S] buffers — the resource
    pressure that makes multi-output blocking interesting (and is why
    the paper left it as future work).

    Bit-compared against {!Stencil.System.run} in the test suite. *)

type launch_stats = {
  components : int;
  n_tb : int;
  n_thr : int;
  smem_bytes : int;
  regs_per_thread : int;
  kernel_calls : int;
}

let pp_launch_stats ppf s =
  Fmt.pf ppf "%d-component system: %d blocks x %d threads, smem %dB, regs %d, %d calls"
    s.components s.n_tb s.n_thr s.smem_bytes s.regs_per_thread s.kernel_calls

(** Shared tile words per block: one double-buffered tile per component
    ([1 + 2*rad] planes each when any in-plane diagonal access exists,
    mirroring Table 1's general row). *)
let smem_words (sys : Stencil.System.t) (cfg : Config.t) =
  let n_thr = Config.n_thr cfg in
  let rad = Stencil.System.radius sys in
  let all_offsets =
    List.concat_map (fun (_, e) -> Stencil.System.all_reads e) sys.Stencil.System.components
  in
  let per_tile =
    match Stencil.Shape.classify all_offsets with
    | Stencil.Shape.Star -> n_thr
    | Stencil.Shape.Box | Stencil.Shape.General -> n_thr * (1 + (2 * rad))
  in
  Stencil.System.n_components sys * 2 * per_tile

(** Per-thread registers: [S] sub-plane sets plus the §6.3 overhead. *)
let regs_required (sys : Stencil.System.t) ~prec ~bt =
  let rad = Stencil.System.radius sys in
  let s = Stencil.System.n_components sys in
  (s * bt * Registers.plane_regs prec rad) + bt + Registers.an5d_overhead prec

(* Everything about a system kernel that depends only on (sys, cfg,
   prec) — compiled geometry and update closures, resource footprint,
   per-cell traffic constants. Hoisted out of [kernel_call] so a run's
   chunks compile the system once (the single-output executor gets the
   same treatment from {!Plan}). *)
type prepared = {
  sys : Stencil.System.t;
  cfg : Config.t;
  prec : Stencil.Grid.precision;
  rad : int;
  s : int;  (** components *)
  geo : Blocking.geometry;
  n_thr : int;
  updates : ((int -> int array -> float) -> float) array;
  smem_bytes : int;
  regs : int;
  ops_per_cell : Stencil.Sexpr.ops;
  reads_per_cell : int;
}

let prepare (sys : Stencil.System.t) (cfg : Config.t) ~prec =
  {
    sys;
    cfg;
    prec;
    rad = Stencil.System.radius sys;
    s = Stencil.System.n_components sys;
    geo = Blocking.make_geometry cfg.Config.bs;
    n_thr = Config.n_thr cfg;
    updates = Array.of_list (Stencil.System.compile sys);
    smem_bytes = smem_words sys cfg * Stencil.Grid.bytes_per_word prec;
    regs = regs_required sys ~prec ~bt:cfg.Config.bt;
    (* ops: the whole system's per-cell FLOPs, charged once per cell (a
       prototype-level mix: no FMA classification for systems yet) *)
    ops_per_cell =
      {
        Stencil.Sexpr.fma = 0;
        mul = 0;
        add = Stencil.System.flops_per_cell sys;
        other = 0;
      };
    reads_per_cell =
      List.fold_left
        (fun acc (_, e) -> acc + List.length (Stencil.System.all_reads e))
        0 sys.Stencil.System.components;
  }

let kernel_call_prepared ?pool (pre : prepared) ~(machine : Gpu.Machine.t)
    ~degree:b ~(src : Stencil.Grid.t array) ~(dst : Stencil.Grid.t array) =
  let { sys; cfg; rad; s; geo; n_thr; updates; smem_bytes; ops_per_cell;
        reads_per_cell; _ } =
    pre
  in
  let dims = src.(0).Stencil.Grid.dims in
  let l = dims.(0) in
  let nb = Array.length cfg.Config.bs in
  let prec = pre.prec in
  if smem_bytes > machine.Gpu.Machine.device.Gpu.Device.smem_per_sm then
    raise
      (Gpu.Machine.Launch_failure
         (Fmt.str "multi-output kernel needs %d bytes of shared memory" smem_bytes));
  let regs = regs_required sys ~prec ~bt:b in
  if regs > machine.Gpu.Machine.device.Gpu.Device.max_regs_per_thread then
    raise
      (Gpu.Machine.Launch_failure
         (Fmt.str "multi-output kernel needs %d registers per thread" regs));
  let halo = b * rad in
  let blocks_per_dim =
    Array.init nb (fun i ->
        let w = cfg.Config.bs.(i) - (2 * halo) in
        if w <= 0 then invalid_arg "Multi_blocking: non-positive compute region";
        (dims.(i + 1) + w - 1) / w)
  in
  let spatial_blocks = Array.fold_left ( * ) 1 blocks_per_dim in
  let p = (2 * rad) + 1 in
  let slot j = ((j mod p) + p) mod p in
  let round = Stencil.Grid.round_to_prec prec in
  let simulate_block ctx =
    let machine = ctx.Gpu.Machine.machine in
    let counters = machine.Gpu.Machine.counters in
    let idx_buf = Array.make (nb + 1) 0 in
    let k = ref ctx.Gpu.Machine.block_id in
    let origins =
      Array.init nb (fun i ->
          let below =
            Array.fold_left ( * ) 1 (Array.sub blocks_per_dim (i + 1) (nb - i - 1))
          in
          let ki = !k / below in
          k := !k mod below;
          (ki * (cfg.Config.bs.(i) - (2 * halo))) - halo)
    in
    let gcoords = Array.init n_thr (fun t -> Array.map2 ( + ) origins geo.Blocking.coords.(t)) in
    let in_grid =
      Array.init n_thr (fun t ->
          let g = gcoords.(t) in
          let ok = ref true in
          for d = 0 to nb - 1 do
            if g.(d) < 0 || g.(d) >= dims.(d + 1) then ok := false
          done;
          !ok)
    in
    let inplane_interior =
      Array.init n_thr (fun t ->
          let g = gcoords.(t) in
          let ok = ref true in
          for d = 0 to nb - 1 do
            if g.(d) < rad || g.(d) >= dims.(d + 1) - rad then ok := false
          done;
          !ok)
    in
    (* reg_file.(component).(T).(slot).(thread) *)
    let reg_file =
      Array.init s (fun _ ->
          Array.init (b + 1) (fun _ -> Array.init p (fun _ -> Array.make n_thr 0.0)))
    in
    let load_plane i =
      for c = 0 to s - 1 do
        let dst_plane = reg_file.(c).(0).(slot i) in
        for t = 0 to n_thr - 1 do
          if in_grid.(t) then begin
            let g = gcoords.(t) in
            idx_buf.(0) <- i;
            for d = 0 to nb - 1 do
              idx_buf.(d + 1) <- g.(d)
            done;
            dst_plane.(t) <- Gpu.Machine.gm_read machine src.(c) idx_buf
          end
          else dst_plane.(t) <- 0.0
        done
      done
    in
    let compute_plane tstep j =
      let stream_boundary = j < rad || j >= l - rad in
      counters.Gpu.Counters.sm_writes <- counters.Gpu.Counters.sm_writes + (n_thr * s);
      counters.Gpu.Counters.barriers <- counters.Gpu.Counters.barriers + 1;
      for t = 0 to n_thr - 1 do
        if (not stream_boundary) && inplane_interior.(t) then begin
          let read c off =
            reg_file.(c).(tstep - 1).(slot (j + off.(0))).(Blocking.neighbor_thread geo t off)
          in
          (* all components of the plane advance together *)
          for c = 0 to s - 1 do
            reg_file.(c).(tstep).(slot j).(t) <- round (updates.(c) read)
          done;
          Gpu.Counters.add_ops counters ops_per_cell;
          counters.Gpu.Counters.cells_updated <- counters.Gpu.Counters.cells_updated + 1;
          counters.Gpu.Counters.sm_reads <-
            counters.Gpu.Counters.sm_reads + reads_per_cell
        end
        else
          for c = 0 to s - 1 do
            reg_file.(c).(tstep).(slot j).(t) <- reg_file.(c).(tstep - 1).(slot j).(t)
          done
      done
    in
    let compute_w = Array.init nb (fun d -> cfg.Config.bs.(d) - (2 * halo)) in
    let store_plane j =
      for t = 0 to n_thr - 1 do
        if in_grid.(t) then begin
          let in_compute = ref true in
          for d = 0 to nb - 1 do
            let u = geo.Blocking.coords.(t).(d) in
            if u < halo || u >= halo + compute_w.(d) then in_compute := false
          done;
          if !in_compute then begin
            let g = gcoords.(t) in
            idx_buf.(0) <- j;
            for d = 0 to nb - 1 do
              idx_buf.(d + 1) <- g.(d)
            done;
            for c = 0 to s - 1 do
              Gpu.Machine.gm_write machine dst.(c) idx_buf
                reg_file.(c).(b).(slot j).(t)
            done
          end
        end
      done
    in
    for i = -(b * rad) to l - 1 + (b * rad) do
      if i >= 0 && i < l then load_plane i;
      for tstep = 1 to b do
        let j = i - (tstep * rad) in
        if j >= 0 && j < l then begin
          compute_plane tstep j;
          if tstep = b then store_plane j
        end
      done
    done
  in
  Obs.Trace.with_span "kernel"
    ~attrs:
      [ ("degree", Obs.Trace.Int b); ("blocks", Obs.Trace.Int spatial_blocks);
        ("threads", Obs.Trace.Int n_thr); ("components", Obs.Trace.Int s) ]
    (fun () ->
      Gpu.Machine.launch ?pool machine ~n_blocks:spatial_blocks ~n_thr simulate_block)

let kernel_call ?pool (sys : Stencil.System.t) (cfg : Config.t)
    ~(machine : Gpu.Machine.t) ~degree ~(src : Stencil.Grid.t array)
    ~(dst : Stencil.Grid.t array) =
  let pre = prepare sys cfg ~prec:src.(0).Stencil.Grid.prec in
  kernel_call_prepared ?pool pre ~machine ~degree ~src ~dst

(** Advance the system [steps] time-steps with temporal chunks of
    [cfg.bt]; returns the final grids and launch statistics. The system
    is compiled once for the whole run (all chunks share one
    [prepared]). Of the {!Run_config} only [domains] matters to the
    prototype ([mode] has a single implementation here);
    [domains > 1] runs thread blocks in parallel (one pool reused
    across the kernel calls), bit-identically to the sequential
    path. *)
let m_chunks_executed = Obs.Metrics.counter "chunks_executed"

let run_cfg ?pool (rc : Run_config.t) (sys : Stencil.System.t) (cfg : Config.t)
    ~(machine : Gpu.Machine.t) ~steps (gs : Stencil.Grid.t list) =
  if List.length gs <> Stencil.System.n_components sys then
    invalid_arg "Multi_blocking.run: component count mismatch";
  let chunks = Execmodel.time_chunks ~bt:cfg.Config.bt ~it:steps in
  let pre = prepare sys cfg ~prec:(List.hd gs).Stencil.Grid.prec in
  let cur = ref (Array.of_list (List.map Stencil.Grid.copy gs)) in
  let nxt = ref (Array.of_list (List.map Stencil.Grid.copy gs)) in
  let exec pool =
    List.iter
      (fun degree ->
        Obs.Trace.with_span "chunk" ~attrs:[ ("degree", Obs.Trace.Int degree) ]
          (fun () ->
            kernel_call_prepared ?pool pre ~machine ~degree ~src:!cur ~dst:!nxt);
        Obs.Metrics.incr m_chunks_executed;
        let tmp = !cur in
        cur := !nxt;
        nxt := tmp)
      chunks
  in
  Obs.Trace.with_span "execute"
    ~attrs:
      [ ("system", Obs.Trace.Str sys.Stencil.System.name);
        ("components", Obs.Trace.Int (Stencil.System.n_components sys));
        ("steps", Obs.Trace.Int steps) ]
    (fun () ->
      match pool with
      | Some _ -> exec pool
      | None -> Gpu.Pool.with_pool ~domains:rc.Run_config.domains exec);
  let prec = (List.hd gs).Stencil.Grid.prec in
  let rad = Stencil.System.radius sys in
  let dims = (List.hd gs).Stencil.Grid.dims in
  let n_tb =
    Array.to_list (Array.mapi (fun i b -> (i, b)) cfg.Config.bs)
    |> List.fold_left
         (fun acc (i, bsz) ->
           let w = bsz - (2 * cfg.Config.bt * rad) in
           acc * ((dims.(i + 1) + w - 1) / w))
         1
  in
  let stats =
    {
      components = Stencil.System.n_components sys;
      n_tb;
      n_thr = Config.n_thr cfg;
      smem_bytes = smem_words sys cfg * Stencil.Grid.bytes_per_word prec;
      regs_per_thread = regs_required sys ~prec ~bt:cfg.Config.bt;
      kernel_calls = List.length chunks;
    }
  in
  (Array.to_list !cur, stats)
