(** Naive reference executor: the stencil exactly as the C input
    describes it — a time loop around full double-buffered sweeps.
    Every optimized executor is bit-compared against this one (the
    artifact's CPU verification, §A.6).

    One sweep: the interior is walked with linear indices and per-offset
    linear deltas off the lowered expression ({!Pattern.lower}), through
    unchecked monomorphic buffer access guarded by a once-per-sweep
    proof that every interior position plus every lowered delta stays
    inside the flat buffer (the peeling invariant — boundary cells are
    blitted, never swept). The arithmetic is {!Sexpr.compile}'s, so the
    result is bit-identical to evaluating the source expression per
    cell. *)

val step : Pattern.t -> src:Grid.t -> dst:Grid.t -> unit
(** One time-step; boundary cells are copied unchanged.
    @raise Invalid_argument on rank/dimension/precision mismatches, or
    when the peeling proof fails (a lowered offset would leave the grid
    from an interior cell — impossible for offsets within the pattern
    radius). *)

val run : Pattern.t -> steps:int -> Grid.t -> Grid.t
(** [steps] time-steps from the given initial grid; the input is not
    modified. The expression lowering is hoisted out of the time loop.
    @raise Invalid_argument on a negative step count, or as {!step}. *)

val total_flops : Pattern.t -> dims:int array -> steps:int -> float
(** FLOPs of [steps] sweeps over the interior — the GFLOP/s denominator
    convention used throughout the paper. *)
