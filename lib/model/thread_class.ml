(** Thread classification and traffic totals (§5, first half).

    The paper classifies threads into out-of-bound, boundary, redundant
    and valid, counts how many of each participate in computation,
    global and shared memory accesses, and derives total traffic. We
    compute the same totals in closed form (no per-cell enumeration) so
    a model evaluation costs microseconds; the test suite asserts these
    numbers equal the simulator's counters exactly. *)

open An5d_core

type totals = {
  gm_reads : int;
  gm_writes : int;
  sm_reads : int;
  sm_writes : int;
  cells_updated : int;  (** cell updates incl. redundant ones *)
  ops : Stencil.Sexpr.ops;  (** aggregate op mix over all updates *)
  kernel_launches : int;
  thread_blocks : int;  (** total thread blocks launched over the run *)
  barriers : int;  (** block barriers: per computed plane, 1 double-buffered, else 2 *)
}

let scale_ops k (o : Stencil.Sexpr.ops) =
  {
    Stencil.Sexpr.fma = k * o.Stencil.Sexpr.fma;
    mul = k * o.Stencil.Sexpr.mul;
    add = k * o.Stencil.Sexpr.add;
    other = k * o.Stencil.Sexpr.other;
  }

let add_ops (a : Stencil.Sexpr.ops) (b : Stencil.Sexpr.ops) =
  {
    Stencil.Sexpr.fma = a.Stencil.Sexpr.fma + b.Stencil.Sexpr.fma;
    mul = a.Stencil.Sexpr.mul + b.Stencil.Sexpr.mul;
    add = a.Stencil.Sexpr.add + b.Stencil.Sexpr.add;
    other = a.Stencil.Sexpr.other + b.Stencil.Sexpr.other;
  }

(* Spatial-block thread populations: for each thread block, how many of
   its threads fall inside the grid, and how many own interior cells (in
   the blocked dimensions). Out-of-bound threads are n_thr minus the
   former. *)
type block_population = { in_grid : int; inplane_interior : int; n_blocks : int }

let block_population (em : Execmodel.t) ~b =
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let nb = Array.length em.Execmodel.config.Config.bs in
  let grid_box =
    Poly.Box.make
      (List.init nb (fun i -> Poly.Interval.make 0 (em.Execmodel.dims.(i + 1) - 1)))
  in
  let interior_box = Poly.Box.shrink rad grid_box in
  let blocks_per_dim =
    Array.init nb (fun i ->
        let w = Execmodel.compute_width ~b em i in
        (em.Execmodel.dims.(i + 1) + w - 1) / w)
  in
  let n_blocks = Array.fold_left ( * ) 1 blocks_per_dim in
  let in_grid = ref 0 and inplane_interior = ref 0 in
  (* Enumerate block multi-indices (count is n_tb, typically small). *)
  let rec walk i idx =
    if i = nb then begin
      let block_box =
        Poly.Box.make
          (List.init nb (fun d ->
               let o = Execmodel.block_origin ~b em d idx.(d) in
               Poly.Interval.make o (o + em.Execmodel.config.Config.bs.(d) - 1)))
      in
      in_grid := !in_grid + Poly.Box.volume (Poly.Box.inter block_box grid_box);
      inplane_interior :=
        !inplane_interior + Poly.Box.volume (Poly.Box.inter block_box interior_box)
    end
    else
      for k = 0 to blocks_per_dim.(i) - 1 do
        idx.(i) <- k;
        walk (i + 1) idx
      done
  in
  walk 0 (Array.make nb 0);
  { in_grid = !in_grid; inplane_interior = !inplane_interior; n_blocks }

(* Planes processed by one stream block of one kernel call of degree [b]:
   for time-step [tstep], the computed range is
   [s0 - (b-T)*rad, s1 + (b-T)*rad) clamped to the grid; [interior]
   counts the sub-planes away from the stream boundary. *)
let plane_counts (em : Execmodel.t) ~b ~sb ~tstep =
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let l = em.Execmodel.dims.(0) in
  let s0, s1 = Execmodel.stream_range em sb in
  let lo = max 0 (s0 - ((b - tstep) * rad)) in
  let hi = min l (s1 + ((b - tstep) * rad)) in
  let computed = max 0 (hi - lo) in
  let ilo = max rad lo and ihi = min (l - rad) hi in
  let interior = max 0 (ihi - ilo) in
  (computed, interior)

(* Planes loaded (T = 0) by one stream block. *)
let planes_loaded (em : Execmodel.t) ~b ~sb =
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let l = em.Execmodel.dims.(0) in
  let s0, s1 = Execmodel.stream_range em sb in
  max 0 (min l (s1 + (b * rad)) - max 0 (s0 - (b * rad)))

(** Totals for one kernel call of degree [b]. *)
let per_call (em : Execmodel.t) ~b =
  let pop = block_population em ~b in
  let n_thr = Config.n_thr em.Execmodel.config in
  let n_sb = Execmodel.n_stream_blocks em in
  let wpc = Execmodel.smem_writes_per_cell em in
  let rpc = Execmodel.smem_reads_practical em in
  let ops1 = Stencil.Pattern.ops_per_cell em.Execmodel.pattern in
  let bpp = if em.Execmodel.config.Config.double_buffer then 1 else 2 in
  let l = em.Execmodel.dims.(0) in
  let blocked_cells =
    Array.fold_left ( * ) 1 (Array.sub em.Execmodel.dims 1 (Array.length em.Execmodel.dims - 1))
  in
  let gm_reads = ref 0
  and sm_reads = ref 0
  and sm_writes = ref 0
  and planes = ref 0
  and cells = ref 0 in
  for sb = 0 to n_sb - 1 do
    gm_reads := !gm_reads + (planes_loaded em ~b ~sb * pop.in_grid);
    for tstep = 1 to b do
      let computed, interior = plane_counts em ~b ~sb ~tstep in
      planes := !planes + computed;
      sm_writes := !sm_writes + (computed * pop.n_blocks * n_thr * wpc);
      sm_reads := !sm_reads + (computed * pop.in_grid * rpc);
      cells := !cells + (interior * pop.inplane_interior)
    done
  done;
  {
    gm_reads = !gm_reads;
    gm_writes = l * blocked_cells;
    sm_reads = !sm_reads;
    sm_writes = !sm_writes;
    cells_updated = !cells;
    ops = scale_ops !cells ops1;
    kernel_launches = 1;
    thread_blocks = pop.n_blocks * n_sb;
    barriers = !planes * pop.n_blocks * bpp;
  }

let zero =
  {
    gm_reads = 0;
    gm_writes = 0;
    sm_reads = 0;
    sm_writes = 0;
    cells_updated = 0;
    ops = Stencil.Sexpr.zero_ops;
    kernel_launches = 0;
    thread_blocks = 0;
    barriers = 0;
  }

let add a b =
  {
    gm_reads = a.gm_reads + b.gm_reads;
    gm_writes = a.gm_writes + b.gm_writes;
    sm_reads = a.sm_reads + b.sm_reads;
    sm_writes = a.sm_writes + b.sm_writes;
    cells_updated = a.cells_updated + b.cells_updated;
    ops = add_ops a.ops b.ops;
    kernel_launches = a.kernel_launches + b.kernel_launches;
    thread_blocks = a.thread_blocks + b.thread_blocks;
    barriers = a.barriers + b.barriers;
  }

let scale k t =
  {
    gm_reads = k * t.gm_reads;
    gm_writes = k * t.gm_writes;
    sm_reads = k * t.sm_reads;
    sm_writes = k * t.sm_writes;
    cells_updated = k * t.cells_updated;
    ops = scale_ops k t.ops;
    kernel_launches = k * t.kernel_launches;
    thread_blocks = k * t.thread_blocks;
    barriers = k * t.barriers;
  }

(** Totals for a full run of [steps] time-steps (host chunking
    included). Calls of equal degree have equal totals, so the chunk
    list is grouped by degree before evaluation. *)
let for_run (em : Execmodel.t) ~steps =
  let chunks =
    Execmodel.time_chunks ~bt:em.Execmodel.config.Config.bt ~it:steps
  in
  let degree_counts = Hashtbl.create 8 in
  List.iter
    (fun b ->
      Hashtbl.replace degree_counts b
        (1 + Option.value ~default:0 (Hashtbl.find_opt degree_counts b)))
    chunks;
  Hashtbl.fold
    (fun b count acc -> add acc (scale count (per_call em ~b)))
    degree_counts zero

(** The simulator's counters of a run with these totals, field for
    field: what every executor run must tick. *)
let counters t =
  {
    Gpu.Counters.gm_reads = t.gm_reads;
    gm_writes = t.gm_writes;
    sm_reads = t.sm_reads;
    sm_writes = t.sm_writes;
    fma = t.ops.Stencil.Sexpr.fma;
    mul = t.ops.Stencil.Sexpr.mul;
    add = t.ops.Stencil.Sexpr.add;
    other = t.ops.Stencil.Sexpr.other;
    kernel_launches = t.kernel_launches;
    barriers = t.barriers;
    cells_updated = t.cells_updated;
  }

(** Aggregate weighted FLOPs (FMA = 2), the paper's [total_comp]. *)
let total_comp t = Stencil.Sexpr.weighted_flops t.ops

let pp ppf t =
  Fmt.pf ppf "gm %d/%d sm %d/%d cells %d launches %d" t.gm_reads t.gm_writes
    t.sm_reads t.sm_writes t.cells_updated t.kernel_launches
