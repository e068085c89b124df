(** Thread classification and traffic totals (§5, first half).

    The paper classifies threads as out-of-bound, boundary, redundant or
    valid and derives total compute, global and shared traffic. These
    totals are computed here in closed form (no per-cell enumeration) so
    a model evaluation costs microseconds; the test suite asserts them
    equal to the simulator's counters exactly. *)

open An5d_core

type totals = {
  gm_reads : int;
  gm_writes : int;
  sm_reads : int;
  sm_writes : int;
  cells_updated : int;  (** cell updates including redundant ones *)
  ops : Stencil.Sexpr.ops;  (** aggregate op mix over all updates *)
  kernel_launches : int;
  thread_blocks : int;  (** total launched over the run *)
  barriers : int;
      (** block barriers: [1] per computed plane and block when
          double-buffered, [2] otherwise *)
}

val scale_ops : int -> Stencil.Sexpr.ops -> Stencil.Sexpr.ops

val add_ops : Stencil.Sexpr.ops -> Stencil.Sexpr.ops -> Stencil.Sexpr.ops

type block_population = {
  in_grid : int;  (** threads whose cell lies inside the grid *)
  inplane_interior : int;  (** threads owning interior cells *)
  n_blocks : int;
}

val block_population : Execmodel.t -> b:int -> block_population

val per_call : Execmodel.t -> b:int -> totals
(** Exact totals for one kernel call of degree [b]. *)

val zero : totals

val add : totals -> totals -> totals

val scale : int -> totals -> totals

val for_run : Execmodel.t -> steps:int -> totals
(** Totals for a full run (host chunking included); calls of equal
    degree are evaluated once. *)

val counters : totals -> Gpu.Counters.t
(** The simulated GPU counters a run with these totals ticks, field for
    field ({!Gpu.Counters.equal} to every executor's; the differential
    suites assert it). *)

val total_comp : totals -> int
(** Aggregate weighted FLOPs (FMA = 2), the paper's [total_comp]. *)

val pp : Format.formatter -> totals -> unit
