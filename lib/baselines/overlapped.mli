(** Baseline: overlapped temporal tiling *without* dimension streaming
    (Overtile/Forma/SDSLc style, §3) — the halo is paid along every
    dimension, which is exactly what N.5D's streaming avoids. An
    analytic model only, used by the streaming ablation bench. *)

type report = {
  seconds : float;
  gflops : float;
  redundancy : float;  (** loaded cells / useful cells *)
}

val predict :
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Stencil.Pattern.t ->
  dims:int array ->
  steps:int ->
  bt:int ->
  core:int ->
  report
