(** Sliding-window streaming executor — the production path of
    {!Blocking.kernel_call}.

    The host-side realization of AN5D's streaming-dimension register
    reuse (§3–§4.2) on top of {!Plan}. As in AN5D's fixed register file
    (§4.1, Fig 3b), each time-step level keeps [p = 2*rad + 1] plane
    slots, here one flat [float array] of [p * n_thr] words with slot
    [k] at offset [k * n_thr]. The slots change roles by index; no value
    moves. Per level a window of [p] int slot offsets advances one plane
    per streaming step (shift [p - 1] ints, compute the incoming one),
    and every kernel reads the level's one array at [window offset +
    thread delta], each pass hoisting its terms' absolute offsets
    before the cell loop. The inner loop is chosen once per block from
    the lowering ({!kernel_name}):

    - no folded pair — passes of up to nine consecutive terms, each a
      fully unrolled loop whose arity, term shape (all scaled, all
      bare, mixed), chain start and store (accumulator plane, or the
      [Post_div]/none post-op into the f64 plane or the f32 scratch)
      are compile-time literals, so the loop over a run's cells tests
      no flag (a mixed pass keeps its per-term scale test). The loop
      takes four consecutive threads per iteration, as a warp issues
      one instruction for consecutive threads: each term's index is
      computed once and read at four displacements one word apart,
      every thread keeps its own left-to-right chain (so its bits do
      not change), and the last [(e - s) mod 4] threads of a run take
      the one-thread body. A form of
      at most nine terms is one pass straight to the stored value; a
      wider one (j3d27pt, star2d4r) carries its chain through a
      per-thread accumulator plane, its last pass as wide as the tail;
    - a folded pair — the pair-aware term-major loop consuming the §4.2
      symmetric-coefficient folds, one loop per post-op and precision;
    - no linear form — the generic kernel over the lowering's row
      program ({!Stencil.Sexpr.program}): one loop per instruction over
      a level's runs, loads read in place from the window plane at the
      offset's thread delta ({!Plan.off_delta}), operations write a
      per-row plane, and the last one stores the value (into the f64
      plane, or the f32 quantization scratch). Non-linear forms run
      here, and so does every [Partial_sums] plan: its lowering is the
      §4.1 grouped sum as a row program, so this module never reads the
      execution mode.

    {b Valid-region runs.} Overlapped temporal blocking computes halo
    threads whose values never reach a store (§4.1). At level [T] only
    a thread whose block-local coordinate lies in
    [[T*rad, bS_d - T*rad)] in every blocked dimension
    ({!Plan.valid}, {!Execmodel.valid_width}) can: a valid thread at
    level [T+1] reads only threads within [rad] of it, which are valid
    at level [T], and the stores read level [degree], whose valid region
    is exactly the compute region. Per block and level the kernels therefore
    run over the runs (one per tile row) of valid interior threads;
    valid non-interior threads keep the window center; every other
    thread is skipped and left stale, and nothing reads it.

    {b Constant deltas.} For a valid thread the clamp in
    {!Plan.neighbor_thread} never fires, so term [q]'s neighbor of
    thread [t] is [t + Plan.t_delta.(q)] (and [t + Plan.t_delta2.(q)]
    for the mirror read of a folded pair), one constant per term; the
    generic kernel reads offset [k] at [t + Plan.off_delta.(k)].

    {b Geometry from boxes.} Every mask a block reads — in the grid, in
    the in-plane interior, valid at level [T], the compute region — is a box in
    block-local coordinates, and a box meets a tile row in one run of
    consecutive thread ids. {!block_runs} derives a block's load, store
    and per-level runs, the grid offset of each load and store run and
    the thread counts by box intersection, in O(rows), with no
    per-thread array; a plane load or store is one tight copy loop per
    run. The block's register file starts zeroed, so out-of-grid
    threads of a loaded plane read 0.0.

    {b Unsafe runs x deltas contract} (see [scripts/check_unsafe.sh]):
    all unchecked indexing below — the kernels' reads at [slot offset +
    t + delta], the plane I/O copies, the f32 read-back — is covered by
    a contract this module validates once per block before the sweep
    ({!validate_unsafe_contract}): every term-major table entry indexes
    its target in range; each level of the register file holds at least
    [p * n_thr] words; every run [[s, e)] lies in the tile and, for
    every delta [d] the kernel reads through (term, mirror or
    per-offset), [s + d >= 0] and [e - 1 + d < n_thr], so a read stays
    inside its slot (in the flat file a read past a slot's end would
    land in the next slot, so this clause is the only guard); the
    compute region
    [[halo_w, halo_w + compute_w_d)] lies inside the tile in every
    blocked dimension, so every load and store run lies within one
    tile row; the innermost grid stride is 1, and the in-plane
    offsets of every such run's first and last thread lie in
    [[0, stride0)], so each copied word [base + t - s + i*stride0] is
    in bounds for all stream planes [i < l] of grids holding
    [l*stride0] words (also checked). A malformed plan raises
    [Invalid_argument] there instead of reading out of bounds.

    Grids are bit-identical to {!Stencil.Reference} in [Direct] mode
    (identical IEEE operations on identical operands for every stored
    cell, the left-to-right accumulation of a linear form), and the
    simulated GPU counters equal the §5 closed form
    ({!Model.Thread_class.counters}) field for field. The counters
    model the GPU, which computes every thread of the tile — the
    redundant halo work is the price overlapped blocking pays for its
    few synchronizations — so they still count the threads the host
    skips. Proven by the differential suite in test/test_streaming.ml
    and the golden-bit regressions in test/golden/. *)

val execute_block :
  Plan.t ->
  degree:int ->
  src:Stencil.Grid.t ->
  dst:Stencil.Grid.t ->
  Gpu.Machine.block_ctx ->
  unit
(** One thread block of the streaming path, whatever the plan's mode.
    Raises [Invalid_argument] on a src/dst precision mismatch
    or on a validate-then-unsafe contract violation. *)

(** One time-step level's runs of thread ids, flattened as
    [[| s0; e0; s1; e1; ... |]], each [[s, e)] within one tile row:
    [act] the valid interior threads the kernel computes, [cpy] the
    valid non-interior ones that keep the window center. *)
type level_runs = { act : int array; cpy : int array }

(** A block's geometry, derived from box arithmetic in O(rows): the
    tile, the grid, the in-plane interior, the compute region and each
    level's valid region are boxes, and each meets a tile row in one
    interval. *)
type block_runs = {
  sb : int;  (** stream-block index *)
  load : int array;
      (** in-grid threads, one run per tile row, flattened as triples
          [[| s; e; base; ... |]]: thread [t] of [[s, e)] sits at
          in-plane grid offset [base + t - s] *)
  store : int array;  (** in-grid threads of the compute region, triples as [load] *)
  levels : level_runs array;  (** level [tstep] at index [tstep - 1] *)
  n_in_grid : int;
  n_interior : int;
  n_store : int;  (** threads in the grid and the compute region *)
}

val block_runs : Plan.t -> degree:int -> int -> block_runs
(** [block_runs plan ~degree block_id]: the block's masks, offsets and
    counts as runs; test/test_streaming.ml compares them with masks
    built thread by thread. *)

val validate_unsafe_contract : Plan.t -> block_runs -> float array array -> unit
(** [validate_unsafe_contract plan runs file]: the per-block check
    {!execute_block} makes before any unchecked access, against the
    block's runs and its register file ([file.(tstep)] the flat
    [p * n_thr] slots of level [tstep], for [tstep <= degree]). Raises
    [Invalid_argument "Stream_exec.validate_unsafe_contract: <clause>"]
    naming the violated clause. *)

val kernel_name : Stencil.Sexpr.lowered -> string
(** The streaming kernel {!execute_block} runs for this lowering:
    ["fused<n>pt"] for one unrolled pass of [n <= 9] terms,
    ["wide<n>pt"] for chunked passes of [n > 9] terms (each suffixed
    ["_bare"] when no term is scaled and ["_mixed"] when some are),
    ["folded<n>pt"] for the term-major loop over a form with folded
    pairs ([n] counting both reads of each pair), and ["generic"] for
    the row-program kernel of a lowering with no linear form. *)
