(** Baseline: hybrid hexagonal/classical tiling (Grosser et al., §3) —
    non-redundant temporal blocking, as an analytic model. It captures the defining disadvantage
    versus N.5D: no dimension is streamed, so the on-chip capacity caps
    the tile in all [N] dimensions (§7.1's 3D weakness). *)

val wavefront_efficiency : float
(** Calibration: fraction of the machine hexagonal schedules keep busy
    across pipeline fill/drain. *)

type report = {
  seconds : float;
  gflops : float;
  tile_cells : int;  (** on-chip tile size the capacity limit allows *)
  bt : int;  (** temporal height actually usable *)
}

val predict :
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Stencil.Pattern.t ->
  dims:int array ->
  steps:int ->
  bt:int ->
  report

val tune :
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Stencil.Pattern.t ->
  dims:int array ->
  steps:int ->
  report
(** Sweep the temporal height and keep the best (stand-in for the
    paper's large hybrid parameter search, §6.3). *)
