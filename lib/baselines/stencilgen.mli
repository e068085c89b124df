(** Baseline: the STENCILGEN strategy (Rawat et al., §3, Table 1) —
    the same N.5D schedule with shifting register allocation and one
    shared-memory buffer per combined time-step. Numerically identical
    to AN5D's schedule; what differs is the resource accounting, hence
    occupancy and measured performance. Published results scale only to
    [bT <= 4]. *)

open An5d_core

val scaling_limit : int
(** 4 — the largest temporal degree the published results scale to. *)

val smem_words : Execmodel.t -> int
(** Table 1 left column: [bT] buffers (times [1 + 2*rad] for
    non-associative stencils). *)

val smem_bytes : Execmodel.t -> prec:Stencil.Grid.precision -> int

val sconf : dims:int -> Config.t
(** The §6.3 Sconf parameters: [bT = 4], [h = 128], 128-thread blocks
    for 2D / 32x32 tiles for 3D, associative optimization off for 2D. *)

val measure :
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Execmodel.t ->
  steps:int ->
  Model.Measure.measurement option
(** [None] when the multi-buffered tile cannot be resident at all. *)

val measure_best :
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Execmodel.t ->
  steps:int ->
  Model.Measure.measurement option
(** Best over the [none/32/64] register limits (§6.3). *)
