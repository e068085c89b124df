(** Compiled execution plans for the N.5D blocked executor.

    A plan flattens everything a kernel call's inner loops would
    otherwise recompute per cell into arrays indexed directly:

    - the update expression lowered to flat per-term
      [(plane-slot, neighbor-index, coefficient)] arrays, or a row
      program when the expression is not a plain weighted sum, via
      {!Stencil.Sexpr.lower} — or, in [Partial_sums] mode, the §4.1
      grouped sum of an associative expression as a row program, via
      {!Stencil.Sexpr.lower_partial_sums}: the mode is settled here,
      once, and no executor reads it;
    - one constant thread-id delta per offset and per linear term,
      checked at build time against the clamped {!neighbor_thread};
    - row-major grid strides so plane loads/stores use the unchecked
      linear accessors instead of bounds-checked multi-index math;
    - the per-call launch geometry, resource footprint and per-cell
      traffic constants.

    Plans are memoized on [(pattern, config, dims, prec, degree, mode)] —
    with [reg_limit] stripped from the config, since the register cap
    affects occupancy and spilling but not the executed schedule — so
    the chunks of one run, repeated runs, and the tuner's reg-limit
    variants all share one compilation. {!Stream_exec} runs every plan;
    in [Direct] mode it is bit-identical to {!Stencil.Reference}, and
    the differential test suites prove it. *)

(* ------------------------------------------------------------------ *)
(* Thread-block geometry                                               *)
(* ------------------------------------------------------------------ *)

(* Mapping between flat thread ids and block-local coordinates along
   the blocked dimensions (re-exported by {!Blocking} for the warp
   analysis and the PTX interpreter). *)
type geometry = {
  bs : int array;
  coords : int array array;  (** per thread *)
  strides : int array;
}

let make_geometry bs =
  let nb = Array.length bs in
  let strides = Array.make nb 1 in
  for d = nb - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * bs.(d + 1)
  done;
  let n_thr = Array.fold_left ( * ) 1 bs in
  let coords =
    Array.init n_thr (fun t ->
        Array.init nb (fun d -> t / strides.(d) mod bs.(d)))
  in
  { bs; coords; strides }

(* Thread id of the block-local neighbor at the in-plane part of a full
   stencil offset [off] (entry 0 is the streaming delta, skipped here),
   clamped to the block edge (edge threads of the halo read their own
   column; their values are invalid by then and never stored). *)
let neighbor_thread geo t off =
  let nb = Array.length geo.bs in
  let tid = ref 0 in
  for d = 0 to nb - 1 do
    let u = geo.coords.(t).(d) + off.(d + 1) in
    let u = if u < 0 then 0 else if u >= geo.bs.(d) then geo.bs.(d) - 1 else u in
    tid := !tid + (u * geo.strides.(d))
  done;
  !tid

(* Whether thread [t] is valid at time-step level [tstep] (§4.1): its
   block-local coordinate in every blocked dimension lies in
   [[tstep*rad, tstep*rad + valid_width)], the only threads whose value
   at that level can still reach a store. *)
let valid_at em geo ~tstep t =
  let lo = tstep * Execmodel.rad em in
  let ok = ref true in
  Array.iteri
    (fun d u ->
      if u < lo || u >= lo + Execmodel.valid_width em d ~tstep then ok := false)
    geo.coords.(t);
  !ok

(* ------------------------------------------------------------------ *)
(* The plan                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  em : Execmodel.t;
  degree : int;
  prec : Stencil.Grid.precision;
  (* geometry *)
  geo : geometry;
  nb : int;
  n_thr : int;
  rad : int;
  p : int;  (** register slots per time-step: [2*rad + 1] *)
  l : int;  (** streaming-dimension length *)
  (* flattened access patterns *)
  n_off : int;
  plane_e : int array;  (** per offset: streaming delta + rad, in [0, p) *)
  off_delta : int array;
      (** per offset: the in-plane neighbor of thread [t] is thread
          [t + off_delta.(k)], exact for every thread valid at level >= 1
          (checked at build time) *)
  (* term-major hoisted tables (empty when no linear form): the
     register plane slot [plane_e.(lt_off.(q))] resolved once per term,
     and the term's in-plane neighbor as a constant thread-id delta —
     exact for every thread valid at level >= 1, where the clamp in
     [neighbor_thread] never fires (checked at build time). *)
  t_plane : int array;  (** [n_terms] register plane slot of term [q] *)
  t_delta : int array;  (** [n_terms] neighbor thread of term [q] is [t + t_delta.(q)] *)
  t_plane2 : int array;  (** slot of the folded mirror read, [-1] unpaired *)
  t_delta2 : int array;  (** mirror read's thread delta; [0] when unpaired *)
  low : Stencil.Sexpr.lowered;
  (* per-cell traffic constants *)
  ops : Stencil.Sexpr.ops;
  sm_writes_per_cell : int;
  sm_reads_per_cell : int;
  (* launch geometry and resource footprint *)
  smem_bytes : int;
  regs : int;
  blocks_per_dim : int array;
  spatial_blocks : int;
  n_sb : int;
  halo_w : int;
  compute_w : int array;
  gstrides : int array;  (** row-major strides of the run grids *)
}

let build (em : Execmodel.t) ~degree:b ~prec ~mode =
  let pattern = em.Execmodel.pattern in
  let cfg = em.Execmodel.config in
  let dims = em.Execmodel.dims in
  let rad = pattern.Stencil.Pattern.radius in
  let nb = Array.length cfg.Config.bs in
  let geo = make_geometry cfg.Config.bs in
  let n_thr = Config.n_thr cfg in
  let low =
    match mode with
    | Run_config.Direct -> Stencil.Pattern.lower pattern
    | Run_config.Partial_sums ->
        Stencil.Sexpr.lower_partial_sums
          ~param:(Stencil.Pattern.param_value pattern)
          ~single:(prec = Stencil.Grid.F32) pattern.Stencil.Pattern.expr
  in
  let offs = low.Stencil.Sexpr.low_offsets in
  let n_off = Array.length offs in
  let plane_e = Array.map (fun o -> o.(0) + rad) offs in
  (* A thread valid at level 1 sits [rad] inside the tile in every
     blocked dimension, so its neighbors need no clamp and the constant
     delta must reproduce [neighbor_thread] exactly. *)
  let valid1 = Array.init n_thr (valid_at em geo ~tstep:1) in
  let off_delta =
    Array.init n_off (fun k ->
        let d = ref 0 in
        for i = 0 to nb - 1 do
          d := !d + (offs.(k).(i + 1) * geo.strides.(i))
        done;
        for t = 0 to n_thr - 1 do
          if valid1.(t) && neighbor_thread geo t offs.(k) <> t + !d then
            invalid_arg "Plan.build: offset delta disagrees with neighbor_thread"
        done;
        !d)
  in
  let t_plane, t_delta, t_plane2, t_delta2 =
    match low.Stencil.Sexpr.low_linear with
    | None -> ([||], [||], [||], [||])
    | Some lf ->
        ( Array.map (fun k -> plane_e.(k)) lf.Stencil.Sexpr.lt_off,
          Array.map (fun k -> off_delta.(k)) lf.Stencil.Sexpr.lt_off,
          Array.map
            (fun k2 -> if k2 >= 0 then plane_e.(k2) else -1)
            lf.Stencil.Sexpr.lt_off2,
          Array.map (fun k2 -> if k2 >= 0 then off_delta.(k2) else 0) lf.Stencil.Sexpr.lt_off2 )
  in
  let blocks_per_dim =
    Array.init nb (fun i ->
        let w = Execmodel.compute_width ~b em i in
        (dims.(i + 1) + w - 1) / w)
  in
  let halo_w = Execmodel.halo ~b em in
  let compute_w = Array.init nb (fun d -> Execmodel.compute_width ~b em d) in
  let n = Array.length dims in
  let gstrides = Array.make n 1 in
  for d = n - 2 downto 0 do
    gstrides.(d) <- gstrides.(d + 1) * dims.(d + 1)
  done;
  {
    em;
    degree = b;
    prec;
    geo;
    nb;
    n_thr;
    rad;
    p = (2 * rad) + 1;
    l = dims.(0);
    n_off;
    plane_e;
    off_delta;
    t_plane;
    t_delta;
    t_plane2;
    t_delta2;
    low;
    ops = Stencil.Pattern.ops_per_cell pattern;
    sm_writes_per_cell = Execmodel.smem_writes_per_cell em;
    sm_reads_per_cell = Execmodel.smem_reads_practical em;
    smem_bytes = Execmodel.smem_bytes em ~prec;
    regs = Registers.an5d_required ~prec ~bt:b ~rad;
    blocks_per_dim;
    spatial_blocks = Array.fold_left ( * ) 1 blocks_per_dim;
    n_sb = Execmodel.n_stream_blocks em;
    halo_w;
    compute_w;
    gstrides;
  }

(* ------------------------------------------------------------------ *)
(* Per-block pieces                                                    *)
(* ------------------------------------------------------------------ *)

let block_origin (plan : t) ~degree:b block_id =
  let nb = plan.nb in
  let origin = Array.make nb 0 in
  let k = ref (block_id mod plan.spatial_blocks) in
  for d = nb - 1 downto 0 do
    let n = plan.blocks_per_dim.(d) in
    origin.(d) <- Execmodel.block_origin ~b plan.em d (!k mod n);
    k := !k / n
  done;
  origin

let valid (plan : t) ~tstep t = valid_at plan.em plan.geo ~tstep t

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)
(* ------------------------------------------------------------------ *)

type key = {
  k_pattern : Stencil.Pattern.t;
  k_config : Config.t;
  k_dims : int array;
  k_prec : Stencil.Grid.precision;
  k_degree : int;
  k_mode : Run_config.exec_mode;
}

let cache : (key, t) Hashtbl.t = Hashtbl.create 64

let lock = Mutex.create ()

let hits = ref 0

let misses = ref 0

(* The same hit/miss tallies, mirrored into the process-wide metrics
   registry so trace-backed tests and the [--metrics] digests can
   assert on them without reaching into this module. *)
let m_hits = Obs.Metrics.counter "plan_cache_hits"

let m_misses = Obs.Metrics.counter "plan_cache_misses"

(* Resident-plan count, exported so cache growth shows up in bench
   JSON's embedded snapshot alongside the hit/miss counters. *)
let m_size = Obs.Metrics.gauge "plan_cache_size"

type cache_stats = { cache_hits : int; cache_misses : int; cache_size : int }

let cache_stats () =
  Mutex.protect lock (fun () ->
      { cache_hits = !hits; cache_misses = !misses; cache_size = Hashtbl.length cache })

let reset_cache () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset cache;
      hits := 0;
      misses := 0);
  Obs.Metrics.set_gauge m_size 0.0

(** The memoized plan for one kernel call. The key strips [reg_limit]
    (it affects occupancy, never the executed schedule), so a run's
    chunks, repeated runs, and the tuner's §6.3 register-limit variants
    share one compilation. Patterns and configurations are pure data,
    so structural equality is the right cache identity. *)
let get (em : Execmodel.t) ~degree ~prec ~mode =
  let key =
    {
      k_pattern = em.Execmodel.pattern;
      k_config = { em.Execmodel.config with Config.reg_limit = None };
      k_dims = em.Execmodel.dims;
      k_prec = prec;
      k_degree = degree;
      k_mode = mode;
    }
  in
  match
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt cache key with
        | Some plan ->
            incr hits;
            Some plan
        | None -> None)
  with
  | Some plan ->
      Obs.Metrics.incr m_hits;
      plan
  | None ->
      (* build outside the lock; a racing duplicate build is harmless *)
      let plan =
        Obs.Trace.with_span "plan_compile"
          ~attrs:
            [ ("pattern", Obs.Trace.Str em.Execmodel.pattern.Stencil.Pattern.name);
              ("degree", Obs.Trace.Int degree) ]
          (fun () -> build em ~degree ~prec ~mode)
      in
      let size =
        Mutex.protect lock (fun () ->
            incr misses;
            if not (Hashtbl.mem cache key) then Hashtbl.add cache key plan;
            Hashtbl.length cache)
      in
      Obs.Metrics.incr m_misses;
      Obs.Metrics.set_gauge m_size (float size);
      plan
