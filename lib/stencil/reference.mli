(** Naive reference executor: the stencil exactly as the C input
    describes it — a time loop around full double-buffered sweeps.
    Every optimized executor is bit-compared against this one (the
    artifact's CPU verification, §A.6).

    One sweep: the interior is walked with linear indices and per-offset
    linear deltas off the lowered expression ({!Pattern.lower}), through
    unchecked monomorphic buffer access guarded by a once-per-sweep
    proof that every interior position plus every lowered delta stays
    inside the flat buffer (the peeling invariant — boundary cells are
    copied, never swept). The arithmetic is {!Sexpr.compile}'s, so the
    result is bit-identical to evaluating the source expression per
    cell. *)

val step : Pattern.t -> src:Grid.t -> dst:Grid.t -> unit
(** One time-step; boundary cells are copied unchanged.
    @raise Invalid_argument on rank/dimension/precision mismatches, or
    when the peeling proof fails (a lowered offset would leave the grid
    from an interior cell — impossible for offsets within the pattern
    radius). *)

val run :
  ?par:(n:int -> (int -> unit) -> unit) -> Pattern.t -> steps:int -> Grid.t -> Grid.t
(** [steps] time-steps from the given initial grid; the input is not
    modified. The expression lowering is hoisted out of the time loop.

    Both double buffers start as copies of the input and no sweep writes
    a boundary cell, so [run] relies on their boundaries staying equal
    and skips {!step}'s per-step boundary copy.

    [par ~n f] must call [f i] exactly once for every [i] in [0, n) and
    return once all calls have; it may run them concurrently (for
    example [Gpu.Pool.run], which sits above this library). When given,
    each sweep hands its outermost interior index to [par], one slab of
    rows per index. A Jacobi sweep reads only the previous buffer, so
    slabs are independent, and each cell is computed by the same code
    with the same arithmetic as in the sequential loop: the result is
    bit-identical with or without [par], whatever the lane count.
    1-D grids, and runs without [par], keep the sequential loop.
    @raise Invalid_argument on a negative step count, or as {!step}. *)

val total_flops : Pattern.t -> dims:int array -> steps:int -> float
(** FLOPs of [steps] sweeps over the interior — the GFLOP/s denominator
    convention used throughout the paper. *)
