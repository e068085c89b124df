(** Naive reference executor: the stencil exactly as the C input
    describes it — a time loop around full double-buffered sweeps.
    Every optimized executor is bit-compared against this one (the
    artifact's CPU verification, §A.6).

    One sweep: the interior is walked with linear indices and per-offset
    linear deltas off the lowered expression ({!Pattern.lower}), through
    unchecked monomorphic buffer access guarded by a once-per-sweep
    proof that every interior position plus every lowered delta stays
    inside the flat buffer (the peeling invariant — boundary cells are
    copied, never swept). A linear lowering runs term-major, in
    passes over each interior row (see {!run}); any other expression
    runs its row program ({!Sexpr.program}), one loop per instruction
    over each interior row. The arithmetic of every cell is
    {!Sexpr.compile}'s, so the result is bit-identical to evaluating the
    source expression per cell. *)

val step : Pattern.t -> src:Grid.t -> dst:Grid.t -> unit
(** One time-step; boundary cells are copied unchanged.
    @raise Invalid_argument on rank/dimension/precision mismatches, or
    when the peeling proof fails (a lowered offset would leave the grid
    from an interior cell — impossible for offsets within the pattern
    radius). *)

type par = {
  lanes : int;  (** lanes [run] may use, numbered [0] to [lanes - 1] *)
  run : n:int -> (lane:int -> int -> unit) -> unit;
}
(** A parallel-for for {!run}. [run ~n f] must call [f ~lane i] exactly
    once for every [i] in [0, n), with [0 <= lane < lanes], and return
    once all calls have. Calls on distinct lanes may run concurrently;
    calls on one lane must not overlap. [Gpu.Pool.run pool] with
    [lanes = Gpu.Pool.size pool] meets this (the pool sits above this
    library). *)

(** Which arithmetic a sweep performs: [Direct] is the source
    expression ({!Pattern.lower}); [Partial_sums] is §4.1's grouped sum
    ({!Sexpr.lower_partial_sums}, each group rounded to single on an
    f32 grid), the order the streaming executor's partial-sums plans
    add in. A non-associative expression lowers the same either way. *)
type mode = Direct | Partial_sums

val run : ?par:par -> ?mode:mode -> Pattern.t -> steps:int -> Grid.t -> Grid.t
(** [steps] time-steps from the given initial grid; the input is not
    modified. The expression lowering ([mode], default [Direct]) is
    hoisted out of the time loop. A [Partial_sums] lowering has no
    linear form, so it runs its row program (below).

    Both double buffers start as copies of the input and no sweep writes
    a boundary cell, so [run] relies on their boundaries staying equal
    and skips {!step}'s per-step boundary copy.

    A linear lowering sweeps each interior row term-major. Each run of
    plain terms (one scaled read each, as every term of a weighted sum
    is) is consumed up to 9 terms a pass, the sum of a cell kept in a
    register; every other term (a bare read or a folded pair) takes a
    pass of its own, two consecutive bare reads one together. Passes
    carry the sum between them through a float64 accumulator row; the
    first starts it without reading that row, and the last divides and
    stores into the grid. A form of [n] plain terms is thus [⌈n/9⌉]
    passes, and one of at most 9 is a single pass that needs no
    accumulator row. Every cell still performs the same IEEE operations
    in the same order as evaluating the source expression, so the bits
    are those of the cell-major loop. The accumulator rows, when a form
    needs them, are allocated once per call, one per lane, so
    concurrent calls (other threads or domains) never share one.

    An expression with no linear lowering runs its row program one
    interior row at a time: one loop per instruction, each a single IEEE
    operation over float64 rows of the lane (allocated per call like the
    accumulator rows), loads from an f64 grid read in place, and an f32
    grid rounded only at the store.

    With [par], each sweep hands its outermost interior index to
    [par.run], one slab of rows per index, each slab on its lane's row.
    A Jacobi sweep reads only the previous buffer, so slabs are
    independent, and each cell is computed by the same code with the
    same arithmetic as in the sequential loop: the result is
    bit-identical with or without [par], whatever the lane count.
    1-D grids, and runs without [par], keep the sequential loop.
    @raise Invalid_argument on a negative step count, on a lane outside
    [0, par.lanes), or as {!step}. *)

val total_flops : Pattern.t -> dims:int array -> steps:int -> float
(** FLOPs of [steps] sweeps over the interior — the GFLOP/s denominator
    convention used throughout the paper. *)
