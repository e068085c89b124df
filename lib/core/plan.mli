(** Compiled execution plans for the N.5D blocked executor.

    A plan is everything about one kernel call that depends only on
    [(pattern, config, dims, precision, degree, mode)] — not on the
    grids or the stream position — compiled once and memoized: the
    thread-block geometry, the update expression lowered to flat
    per-term tables or a row program ({!Stencil.Sexpr.lower}; in
    [Partial_sums] mode the §4.1 grouped sum,
    {!Stencil.Sexpr.lower_partial_sums}), one constant neighbor delta
    per offset and per linear term, row-major grid strides for
    unchecked linear plane access, and the launch/resource/traffic
    constants. {!Stream_exec} drives its inner loops off these
    arrays. *)

(** Thread-block geometry: the mapping between flat thread ids and
    block-local coordinates along the blocked dimensions (re-exported
    by {!Blocking} for the warp analysis and the PTX interpreter). *)
type geometry = {
  bs : int array;
  coords : int array array;  (** per thread *)
  strides : int array;
}

val make_geometry : int array -> geometry

val neighbor_thread : geometry -> int -> int array -> int
(** Thread id of the block-local neighbor at the in-plane part of a
    full stencil offset (entry 0, the streaming delta, is skipped),
    clamped to the block edge. *)

type t = {
  em : Execmodel.t;
  degree : int;
  prec : Stencil.Grid.precision;
  geo : geometry;
  nb : int;  (** blocked (non-streaming) dimensions *)
  n_thr : int;
  rad : int;
  p : int;  (** register slots per time-step: [2*rad + 1] *)
  l : int;  (** streaming-dimension length *)
  n_off : int;
  plane_e : int array;  (** per offset: streaming delta + rad, in [0, p) *)
  off_delta : int array;
      (** per offset [k]: the in-plane neighbor of thread [t] is thread
          [t + off_delta.(k)], with
          [off_delta.(k) = sum_d off_(d+1) * geo.strides.(d)]. Exact for
          every thread valid at level [>= 1] ({!valid}), where the clamp
          in {!neighbor_thread} never fires; {!get} raises
          [Invalid_argument] if any such thread disagrees. The generic
          streaming kernel reads its loads through it. *)
  t_plane : int array;
      (** term-major: register plane slot of linear term [q]
          ([plane_e.(lt_off.(q))] hoisted at build time); empty when the
          plan has no linear form *)
  t_delta : int array;
      (** term-major: the in-plane neighbor of term [q] for thread [t] is
          thread [t + t_delta.(q)], [off_delta] of the term's offset.
          Threads outside the valid region never read through it. *)
  t_plane2 : int array;
      (** plane slot of the folded mirror read, [-1] when unpaired *)
  t_delta2 : int array;
      (** thread delta of the folded mirror read, as [t_delta]; [0] when
          unpaired *)
  low : Stencil.Sexpr.lowered;
  ops : Stencil.Sexpr.ops;
  sm_writes_per_cell : int;
  sm_reads_per_cell : int;
  smem_bytes : int;
  regs : int;
  blocks_per_dim : int array;
  spatial_blocks : int;
  n_sb : int;  (** stream blocks *)
  halo_w : int;
  compute_w : int array;
      (** per blocked dimension: the compute region, whose cells the
          call stores, is [[halo_w, halo_w + compute_w.(d))] *)
  gstrides : int array;  (** row-major strides of the run grids *)
}

val block_origin : t -> degree:int -> int -> int array
(** [block_origin plan ~degree block_id]: the grid coordinates of the
    block's tile origin, one per blocked dimension. The spatial part of
    [block_id] ([block_id mod spatial_blocks]) is read in mixed radix
    over [blocks_per_dim], dimension 0 most significant. *)

val valid : t -> tstep:int -> int -> bool
(** [valid plan ~tstep t]: thread [t]'s block-local coordinate in every
    blocked dimension lies in [[tstep*rad, bs_d - tstep*rad)]
    ({!Execmodel.valid_width}) — the threads whose level-[tstep] value
    can still reach a store (§4.1). At [tstep = degree] this is exactly
    the compute region. *)

val get :
  Execmodel.t ->
  degree:int ->
  prec:Stencil.Grid.precision ->
  mode:Run_config.exec_mode ->
  t
(** The memoized plan for one kernel call. [mode] chooses the lowering:
    in [Partial_sums] mode an associative expression lowers to §4.1's
    grouped sum (each group rounded to single when [prec] is [F32]),
    any other expression exactly as in [Direct] mode. A flat
    weighted-sum linear form (the shape of most paper benchmarks) runs
    on a specialized streaming kernel, every other lowering
    (gradient2d's [1/sqrt], or any grouped sum) on the generic kernel
    over its row program. The cache key strips the config's
    [reg_limit] (it affects occupancy, never the executed schedule), so
    a run's chunks, repeated runs, and the tuner's register-limit
    variants share one compilation. Thread-safe. *)

type cache_stats = { cache_hits : int; cache_misses : int; cache_size : int }

val cache_stats : unit -> cache_stats

val reset_cache : unit -> unit
