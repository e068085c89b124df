(** The N.5D execution-model formulas of §4.1/§4.2 — pure arithmetic on
    (pattern, configuration, grid sizes), shared by the blocked executor
    and the performance model so both stay consistent by construction. *)

type t = {
  pattern : Stencil.Pattern.t;
  config : Config.t;
  dims : int array;  (** grid sizes, index 0 = streaming dimension *)
}

val make : Stencil.Pattern.t -> Config.t -> int array -> t
(** @raise Invalid_argument on rank mismatches. *)

val rad : t -> int

val bt : t -> int

val n_thr : t -> int

val halo : ?b:int -> t -> int
(** Halo width per blocked dimension for a kernel of degree [b]
    (default: the configured [bt]). *)

val compute_width : ?b:int -> t -> int -> int
(** Threads per blocked dimension [i] that store: [bS_i - 2*b*rad]. *)

val n_tb : ?b:int -> t -> int
(** Thread blocks per kernel call (§4.1).
    @raise Invalid_argument on a non-positive compute region. *)

val n_stream_blocks : t -> int

val n_tb' : ?b:int -> t -> int
(** With stream division: [n_stream_blocks * n_tb] (§4.2). *)

val stream_overlap_planes : t -> int
(** Redundant sub-planes between consecutive stream blocks:
    [2 * sum_(T=0)^(bT-1) rad*(bT - T)] (§4.2). *)

val valid_width : t -> int -> tstep:int -> int
(** Valid-computation width along blocked dimension [i] at time-step
    [tstep] within a block: [bS_i - 2*tstep*rad]. *)

val block_origin : ?b:int -> t -> int -> int -> int
(** Origin of thread block [k] along blocked dimension [i]; negative
    and beyond-grid coordinates are the out-of-bound threads of §5. *)

val stream_range : t -> int -> int * int
(** Output plane range [(s0, s1)) of a stream block. *)

val time_chunks : bt:int -> it:int -> int list
(** Host-side kernel-call degrees for [it] time-steps (§4.3). Sums to
    [it]; each chunk in [1, bt]; the call count has the parity of [it]
    so the result lands in the buffer the original [t % 2] code
    expects. *)

val smem_tile_words : t -> int
(** Shared-memory tile entries per buffer (Table 1): [n_thr] for
    diagonal-access-free and associative stencils,
    [n_thr * (1 + 2*rad)] otherwise. *)

val smem_words : t -> int
(** Total per block: two tiles with double buffering, one without. *)

val smem_bytes : t -> prec:Stencil.Grid.precision -> int

val smem_writes_per_cell : t -> int
(** Stores per cell update (Table 1 bottom). *)

val smem_reads_expected : t -> int
(** Table 2 "expected": the stencil points with a nonzero in-plane
    component; the thread's own streaming column is served from its
    registers. For a full star, the points minus [2*rad + 1]. *)

val smem_reads_practical : t -> int
(** Table 2 "practical": after NVCC's register caching of shared-memory
    columns, box stencils read one value per column. *)
