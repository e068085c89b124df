(** Sliding-window streaming executor — the production path of
    {!Blocking.kernel_call}.

    The host-side realization of AN5D's streaming-dimension register
    reuse (§3–§4.2) on top of {!Plan}: per time-step level a circular
    window of [p = 2*rad + 1] source-plane references advances one
    plane per streaming step — rotate [p - 1] references, bind only the
    incoming plane — instead of rebuilding the whole plane-pointer
    table per plane. The inner loop over the positioned window is
    specialized once per block by the lowering's
    {!Stencil.Sexpr.kernel_shape}:

    - [K_fused 3/5/7/9] — fully unrolled monomorphic kernels, every
      plane slot / thread delta / coefficient hoisted into locals;
    - [K_wide n] (all terms scaled, [n >= 9]) — chunked accumulation,
      9 unrolled terms per chunk through a per-thread accumulator
      plane (e.g. j3d27pt); the [n mod 9] tail terms are added in the
      store pass, one unrolled pass in the same left-to-right order;
    - [K_folded n] and the remaining wide/mixed shapes — pair-aware
      term-major loop consuming the §4.2 symmetric-coefficient folds;
    - [K_generic] never reaches this module ({!Plan.unsafe_capable} is
      false without a flat linear form — {!Blocking} falls back to the
      checked compiled path and ticks [streaming_dispatch_fallback]).

    {b Valid-region runs.} Overlapped temporal blocking computes halo
    threads whose values never reach a store (§4.1). At level [T] only
    a thread whose block-local coordinate lies in
    [[T*rad, bS_d - T*rad)] in every blocked dimension
    ({!Plan.valid}, {!Execmodel.valid_width}) can: a valid thread at
    level [T+1] reads only threads within [rad] of it, which are valid
    at level [T], and the stores read level [degree], whose valid region
    is exactly [store_ok]. Per block and level the kernels therefore
    run over the runs (one per tile row) of valid interior threads;
    valid non-interior threads keep the window center; every other
    thread is skipped and left stale, and nothing reads it.

    {b Constant deltas.} For a valid thread the clamp in
    {!Plan.neighbor_thread} never fires, so term [q]'s neighbor of
    thread [t] is [t + Plan.t_delta.(q)] (and [t + Plan.t_delta2.(q)]
    for the mirror read of a folded pair), one constant per term.

    {b Unsafe runs x deltas contract} (see [scripts/check_unsafe.sh]):
    all unchecked indexing below — the window rotation into the fixed
    register file, the kernels' reads at [t + delta], the plane I/O
    base offsets — is covered by a contract this module validates once
    per block before the sweep: every term-major table entry indexes its
    target in range, every run [[s, e)] lies in the tile and, for every
    term delta [d], [s + d >= 0] and [e - 1 + d < n_thr]; and every
    in-grid thread's in-plane base offset lies in [[0, stride0)], so
    [base + i*stride0] is in bounds for all stream planes [i < l]. A
    malformed plan raises [Invalid_argument] there instead of reading
    out of bounds.

    Grids {e and} simulated GPU counters are bit-identical to the
    checked compiled path in {!Blocking}: identical load/store/compute
    schedule, identical left-to-right accumulation for every stored
    cell, identical bulk counter calls in the same order. The counters
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
(** One thread block of the streaming path, with the same observable
    behavior as the checked compiled path. Requires
    {!Plan.unsafe_capable}; raises [Invalid_argument] otherwise (no
    linear form), on a src/dst precision mismatch, or on a
    validate-then-unsafe contract violation. *)
